//! Tier-1 tests for the I/O pipeline above the unified block cache: the
//! `kbio` background flusher, its cost attribution, and what survives a
//! power cut ("what is actually on the card") with write-back caching in
//! front of both filesystems.

use kernel::kernel::{
    FAT_GROUP_COMMIT_OPS, FAT_GROUP_COMMIT_TIMEOUT_MS, FAT_PARTITION_START, KBIO_INTERVAL_MS,
};
use kernel::OpenFlags;
use proto_repro::prelude::*;
use protofs::block::SdBlockDevice;
use protofs::bufcache::BufCache;
use protofs::fat32::{Fat32, INTENT_LOG_START};
use protofs::xv6fs::Xv6Fs;
use protofs::MemDisk;

#[test]
fn kbio_drains_dirty_extents_and_is_charged_for_the_writeback() {
    let mut sys = ProtoSystem::desktop().unwrap();
    assert!(sys.kernel.kbio_task() != 0, "desktop runs the kbio flusher");
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    // Dirty extents across *both* filesystems, then close. With the
    // background flusher on, close returns without draining.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/spike.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0xA5u8; 96 * 1024])?;
            ctx.close(fd)?;
            let fd = ctx.open("/spike.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x5Au8; 16 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(
        sys.kernel.fat_dirty_blocks() > 0,
        "close left FAT extents dirty for the flusher"
    );
    assert!(
        sys.kernel.root_dirty_blocks() > 0,
        "close left root extents dirty for the flusher"
    );
    let writer_sd_at_close = sys.kernel.task_sd_cycles(writer);
    let kbio = sys.kernel.kbio_task();
    let kbio_sd_before = sys.kernel.task_sd_cycles(kbio);
    // Run the kernel: kbio drains both caches to quiescence.
    let drained = sys.kernel.run_until(
        |k| k.fat_dirty_blocks() == 0 && k.root_dirty_blocks() == 0,
        10_000_000,
    );
    assert!(drained, "kbio drained both caches");
    assert!(
        sys.kernel.task_sd_cycles(kbio) > kbio_sd_before,
        "write-back cycles are charged to kbio"
    );
    assert_eq!(
        sys.kernel.task_sd_cycles(writer),
        writer_sd_at_close,
        "the background drain billed nothing further to the writer"
    );
    // The drained data really reached the devices: remount both stores
    // through fresh caches (i.e. read what is on the "card", not what is in
    // the live cache).
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/spike.bin").unwrap(),
        vec![0xA5u8; 96 * 1024]
    );
    let image = sys.kernel.ramdisk_image().unwrap();
    let mut disk = MemDisk::from_image(image);
    let mut bc = BufCache::default();
    let root = Xv6Fs::mount(&mut disk, &mut bc).unwrap();
    assert_eq!(
        root.read_file(&mut disk, &mut bc, "/spike.txt").unwrap(),
        vec![0x5Au8; 16 * 1024]
    );
}

#[test]
fn fsynced_data_survives_a_power_cut_and_unsynced_data_stays_in_cache() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/synced.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"durable")?;
            ctx.fsync(fd)?; // full synchronous flush: on the card now
            ctx.close(fd)?;
            let fd = ctx.open("/d/unsynced.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"volatile")?;
            ctx.close(fd) // background flusher has not run: cache only
        })
        .unwrap();
    // fsync attributed its own write-back to the caller, synchronously.
    assert!(sys.kernel.task_sd_cycles(writer) > 0);
    // "Power cut": read the raw card through a fresh cache. Only flushed
    // state exists there.
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/synced.bin").unwrap(),
        b"durable",
        "fsync'd data is on the card after the cut"
    );
    assert!(
        matches!(
            fat.lookup(&mut dev, &mut fresh, "/unsynced.bin"),
            Err(protofs::FsError::NotFound(_))
        ),
        "un-fsync'd file never reached the card"
    );
    // The live system still sees it (it is dirty in the cache), so a later
    // flusher pass would have made it durable too.
    let seen = sys.kernel.with_task_ctx(writer, |ctx| {
        let fd = ctx.open("/d/unsynced.bin", OpenFlags::rdonly())?;
        let data = ctx.read(fd, 64)?;
        ctx.close(fd)?;
        Ok::<Vec<u8>, kernel::KernelError>(data)
    });
    assert_eq!(seen.unwrap(), b"volatile");
}

#[test]
fn failed_background_writeback_is_contained_and_retried() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/faulty.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0xEEu8; 8 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    let dirty = sys.kernel.root_dirty_blocks();
    assert!(dirty > 0);
    // Fault the whole ramdisk: every kbio write-back pass fails. The kernel
    // must not panic, and the dirty blocks must be retained for retry.
    let blocks = kernel::kernel::RAMDISK_BYTES / protofs::BLOCK_SIZE as u64;
    for lba in 0..blocks {
        sys.kernel
            .ramdisk()
            .expect("root ramdisk")
            .inject_fault(lba);
    }
    sys.run_ms(100);
    assert_eq!(
        sys.kernel.root_dirty_blocks(),
        dirty,
        "failed write-back loses nothing"
    );
    let log = sys.kernel.console_log();
    assert!(
        log.contains("kbio: root write-back failed"),
        "the failure is reported, not swallowed: {log}"
    );
    // The card recovers; the retried write-back drains and the data is
    // durable on a remount of the raw image.
    sys.kernel.ramdisk().expect("root ramdisk").clear_faults();
    let drained = sys
        .kernel
        .run_until(|k| k.root_dirty_blocks() == 0, 5_000_000);
    assert!(drained, "retry drained the cache after the fault cleared");
    let image = sys.kernel.ramdisk_image().unwrap();
    let mut disk = MemDisk::from_image(image);
    let mut bc = BufCache::default();
    let root = Xv6Fs::mount(&mut disk, &mut bc).unwrap();
    assert_eq!(
        root.read_file(&mut disk, &mut bc, "/faulty.txt").unwrap(),
        vec![0xEEu8; 8 * 1024]
    );
}

#[test]
fn sync_all_is_a_whole_system_durability_barrier() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/bye.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"unmount me")?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(sys.kernel.fat_dirty_blocks() > 0);
    sys.kernel.sync_all().unwrap();
    assert_eq!(sys.kernel.fat_dirty_blocks(), 0);
    assert_eq!(sys.kernel.root_dirty_blocks(), 0);
}

#[test]
fn switching_dma_off_keeps_the_dma_path_when_its_barrier_fails() {
    // Leaving DMA drains the write-back caches first, while the DMA context
    // still exists. When that barrier fails, the switch returns its error
    // and leaves the data path as it was, with the blocks still dirty.
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/switch.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x6Du8; 64 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    let dirty = sys.kernel.fat_dirty_blocks();
    assert!(dirty > 0, "close left the write-back to kbio");
    sys.kernel.board.sdhost.card.power_cut_after(0);
    let r = sys.kernel.set_sd_dma(false);
    assert!(
        matches!(r, Err(kernel::KernelError::Fs(protofs::FsError::Io(_)))),
        "{r:?}"
    );
    assert_eq!(
        sys.kernel.board.sdhost.data_mode(),
        hal::sdhost::SdDataMode::Dma
    );
    assert_eq!(sys.kernel.fat_dirty_blocks(), dirty);
    // With power back, the same switch drains the cache and goes polled.
    sys.kernel.board.sdhost.card.power_restored();
    sys.kernel.set_sd_dma(false).unwrap();
    assert_eq!(
        sys.kernel.board.sdhost.data_mode(),
        hal::sdhost::SdDataMode::Pio
    );
    assert_eq!(sys.kernel.fat_dirty_blocks(), 0);
}

#[test]
fn ordered_writeback_survives_a_power_cut_mid_kbio_drain() {
    // The end-to-end version of the ordering guarantee: a power cut while
    // the background flusher is half-way through draining a freshly written
    // file must leave the card showing the old tree — never a dirent whose
    // clusters were still queued behind it.
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/cut.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x3Cu8; 96 * 1024])?;
            ctx.close(fd) // kbio will drain it
        })
        .unwrap();
    let dirty = sys.kernel.fat_dirty_blocks();
    assert!(dirty > 0, "close deferred the write-back to kbio");
    // Die 40 blocks into the drain: mid-CMD25, inside the data clusters.
    sys.kernel.board.sdhost.card.power_cut_after(40);
    sys.run_ms(100);
    let log = sys.kernel.console_log();
    assert!(
        log.contains("kbio: FAT write-back failed"),
        "the torn write-back is reported: {log}"
    );
    // Remount what actually persisted: the file must be absent (old tree),
    // and the mount itself must succeed.
    sys.kernel.board.sdhost.card.power_restored();
    let total = sys.kernel.board.sdhost.total_blocks();
    {
        let mut fresh = BufCache::default();
        let mut dev = SdBlockDevice::new(
            &mut sys.kernel.board.sdhost,
            FAT_PARTITION_START,
            total - FAT_PARTITION_START,
        );
        let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
        assert!(
            matches!(
                fat.lookup(&mut dev, &mut fresh, "/cut.bin"),
                Err(protofs::FsError::NotFound(_))
            ),
            "a half-drained file must not be visible on the card"
        );
    }
    // Power is back: the retained dirty blocks drain and the file lands.
    let drained = sys
        .kernel
        .run_until(|k| k.fat_dirty_blocks() == 0, 10_000_000);
    assert!(drained, "kbio finished the job after power returned");
    assert_eq!(
        sys.kernel.fat_cache_stats().forced_meta_writes,
        0,
        "the drain never bypassed its ordering edges"
    );
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/cut.bin").unwrap(),
        vec![0x3Cu8; 96 * 1024]
    );
}

#[test]
fn a_failed_dma_transfer_is_reported_on_the_console() {
    // A transfer whose source lies past the end of DRAM completes nothing;
    // the scheduler loop reports the engine's error on the console rather
    // than dropping it.
    let mut sys = ProtoSystem::desktop().unwrap();
    let now = sys.kernel.board.clock.global_cycles();
    let past_dram = hal::dma::DmaTransfer {
        src: u64::MAX - 16,
        dest: hal::dma::DmaDest::Memory(0),
        len: 4,
    };
    sys.kernel.board.dma.start(3, past_dram, now, 0).unwrap();
    sys.run_ms(1);
    let log = sys.kernel.console_log();
    assert!(log.contains("dma: transfer failed"), "{log}");
}

#[test]
fn a_failed_dma_transfer_completes_and_its_slice_still_delivers_key_taps() {
    // The failing transfer ends like any other, with a completion on its
    // channel, and the slice that reports it still ticks the USB
    // controller: a key tapped before the slice reaches the driver in it.
    let mut sys = ProtoSystem::desktop().unwrap();
    let keyboard = sys.keyboard.clone().expect("desktop has a keyboard");
    let received = sys.kernel.kbd_events_received();
    let now = sys.kernel.board.clock.global_cycles();
    let past_dram = hal::dma::DmaTransfer {
        src: u64::MAX - 16,
        dest: hal::dma::DmaDest::Memory(0),
        len: 4,
    };
    sys.kernel.board.dma.start(3, past_dram, now, 0).unwrap();
    keyboard.tap(KeyCode::Char('w'), Modifiers::default());
    sys.kernel.run_slice();
    assert!(!sys.kernel.board.dma.is_busy(3));
    assert_eq!(sys.kernel.board.dma.completions(3), 1);
    assert!(
        sys.kernel.kbd_events_received() > received,
        "the tap was delivered in the faulting slice"
    );
    assert!(sys.kernel.console_log().contains("dma: transfer failed"));
}

#[test]
fn dma_completions_route_through_the_irq_handler_to_the_flusher() {
    // End to end: a deferred close leaves dirty extents; kbio *submits*
    // scatter-gather chains and returns; the chains complete on the device
    // timeline and their Interrupt::Dma0 completions are routed back into
    // the cache (for years this handler silently discarded them) — only
    // then does dirty reach zero and the data the card.
    let mut sys = ProtoSystem::desktop().unwrap();
    assert_eq!(
        sys.kernel.board.sdhost.data_mode(),
        hal::sdhost::SdDataMode::Dma,
        "desktop runs the DMA data path"
    );
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/irq.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0xB7u8; 64 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(sys.kernel.fat_dirty_blocks() > 0, "close deferred to kbio");
    let dma_before = sys.kernel.board.sdhost.dma_cmds();
    let drained = sys
        .kernel
        .run_until(|k| k.fat_dirty_blocks() == 0, 10_000_000);
    assert!(drained, "kbio drained through the async queue");
    assert!(
        sys.kernel.board.sdhost.dma_cmds() > dma_before,
        "the background drain moved by DMA chains, not polled commands"
    );
    assert_eq!(
        sys.kernel.board.sdhost.queue_len(),
        0,
        "every chain was reaped"
    );
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/irq.bin").unwrap(),
        vec![0xB7u8; 64 * 1024]
    );
}

#[test]
fn adaptive_flusher_interval_tracks_the_dirty_ratio() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let base = KBIO_INTERVAL_MS;
    // Both caches clean (drain whatever boot left behind): sleep long.
    sys.kernel.sync_all().unwrap();
    assert_eq!(sys.kernel.kbio_next_interval_ms(), base * 4);
    // Push the FAT cache past the high-water mark: wake early.
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/hw.bin", OpenFlags::wronly_create())?;
            // 384 KB dirties ~75% of the 512 KB cache.
            ctx.write(fd, &vec![0x42u8; 384 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(sys.kernel.cache_dirty_ratio() >= kernel::kernel::KBIO_HIGH_WATER);
    assert_eq!(sys.kernel.kbio_next_interval_ms(), base / 4);
    // Drain to quiescence: the long interval returns.
    let drained = sys
        .kernel
        .run_until(|k| k.fat_dirty_blocks() == 0, 20_000_000);
    assert!(drained);
    sys.kernel.sync_all().unwrap();
    assert_eq!(sys.kernel.kbio_next_interval_ms(), base * 4);
}

#[test]
fn group_commit_defers_logged_txns_until_fsync_forces_them() {
    let mut sys = ProtoSystem::desktop().unwrap();
    // The two overwrites below fit in one open group.
    let fat = sys.kernel.fat_volume().unwrap();
    assert_eq!(fat.group_commit_ops(), FAT_GROUP_COMMIT_OPS);
    assert!(fat.group_commit_ops() > 2);
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    // Pre-create two files with contents so the burst writes below are
    // *logged overwrites*, then reach a clean durable baseline.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            for i in 0..2 {
                let fd = ctx.open(&format!("/d/gc{i}.bin"), OpenFlags::wronly_create())?;
                ctx.write(fd, b"old contents")?;
                ctx.close(fd)?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    sys.kernel.sync_all().unwrap();
    let commits_before = sys.kernel.fat_cache_stats().log_commits;
    // Two logged overwrites: both fold into the open commit group — no
    // commit record yet, nothing durable, the old contents still own the
    // card.
    let mut fd_keep = 0;
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            for i in 0..2 {
                let fd = ctx.open(&format!("/d/gc{i}.bin"), OpenFlags::wronly_create())?;
                ctx.write(fd, b"new contents!")?;
                fd_keep = fd;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    assert_eq!(
        sys.kernel.fat_group_txns(),
        2,
        "both txns pend in the group"
    );
    assert_eq!(sys.kernel.fat_cache_stats().log_commits, commits_before);
    let total = sys.kernel.board.sdhost.total_blocks();
    {
        let mut fresh = BufCache::default();
        let mut dev = SdBlockDevice::new(
            &mut sys.kernel.board.sdhost,
            FAT_PARTITION_START,
            total - FAT_PARTITION_START,
        );
        let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
        assert_eq!(
            fat.read_file(&mut dev, &mut fresh, "/gc0.bin").unwrap(),
            b"old contents",
            "a cut before the group commits yields the old tree"
        );
    }
    // fsync is a durability barrier: it forces the pending group's single
    // commit record out before the cache flush.
    sys.kernel
        .with_task_ctx(writer, |ctx| ctx.fsync(fd_keep))
        .unwrap();
    assert_eq!(sys.kernel.fat_group_txns(), 0);
    assert_eq!(
        sys.kernel.fat_cache_stats().log_commits,
        commits_before + 1,
        "one record covered both transactions"
    );
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    for i in 0..2 {
        assert_eq!(
            fat.read_file(&mut dev, &mut fresh, &format!("/gc{i}.bin"))
                .unwrap(),
            b"new contents!"
        );
    }
}

/// Writes `n` FAT32 files and syncs them, so each later overwrite is one
/// logged transaction.
fn synced_fat_files(sys: &mut ProtoSystem, writer: kernel::TaskId, n: usize) {
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            for i in 0..n {
                let fd = ctx.open(&format!("/d/rec{i}.bin"), OpenFlags::wronly_create())?;
                ctx.write(fd, &vec![i as u8; 6 * 1024])?;
                ctx.close(fd)?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    sys.kernel.sync_all().unwrap();
}

/// The contents overwrite `i` gives file `i`.
fn new_version(i: usize) -> Vec<u8> {
    vec![0xC0 | i as u8; 7 * 1024]
}

/// Overwrites file `i` with [`new_version`] in one `write()`, between an
/// open and a close, and returns what the `write()` itself returned.
fn overwrite(
    sys: &mut ProtoSystem,
    writer: kernel::TaskId,
    i: usize,
) -> Result<usize, kernel::KernelError> {
    let fd = sys
        .kernel
        .with_task_ctx(writer, |ctx| {
            ctx.open(&format!("/d/rec{i}.bin"), OpenFlags::wronly_create())
        })
        .unwrap();
    let written = sys
        .kernel
        .with_task_ctx(writer, |ctx| ctx.write(fd, &new_version(i)));
    sys.kernel
        .with_task_ctx(writer, |ctx| ctx.close(fd))
        .unwrap();
    written
}

#[test]
fn the_write_closing_a_group_sends_its_record_down_the_dma_queue() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let n = FAT_GROUP_COMMIT_OPS as usize;
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    synced_fat_files(&mut sys, writer, n);
    let commits_before = sys.kernel.fat_cache_stats().log_commits;
    // n logged overwrites: the first n - 1 pend in the group, the n-th
    // write() closes it.
    let counts = |sys: &ProtoSystem| {
        let h = &sys.kernel.board.sdhost;
        let c = sys.kernel.fat_cache_stats();
        [
            h.range_cmds(),
            h.single_block_cmds(),
            h.dma_cmds(),
            c.coalesced_ranges + c.single_cmds,
        ]
    };
    for i in 0..n - 1 {
        overwrite(&mut sys, writer, i).unwrap();
        assert_eq!(sys.kernel.fat_group_txns(), i as u64 + 1);
    }
    let before = counts(&sys);
    overwrite(&mut sys, writer, n - 1).unwrap();
    let after = counts(&sys);
    assert_eq!(sys.kernel.fat_group_txns(), 0);
    assert_eq!(sys.kernel.fat_cache_stats().log_commits, commits_before + 1);
    // Data, the record, the home sectors and the header clear all ride
    // the FAT cache's DMA chains: the closing write() issues no polled
    // command, and every queued command is a chain the cache submitted.
    let [ranges, singles, dma, chains]: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(
        (ranges, singles),
        (0, 0),
        "(range, single) polled commands of the closing write()"
    );
    assert!(
        chains >= 2,
        "at least the record and the clear, got {chains}"
    );
    assert_eq!(dma, chains, "DMA commands = cache chains");
}

#[test]
fn a_faulted_commit_record_fails_the_write_and_a_later_sync_commits_it() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let n = FAT_GROUP_COMMIT_OPS as usize;
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    synced_fat_files(&mut sys, writer, n);
    let commits_before = sys.kernel.fat_cache_stats().log_commits;
    for i in 0..n - 1 {
        overwrite(&mut sys, writer, i).unwrap();
    }
    // The record's first payload slot faults, so its chain fails: the
    // write() that closes the group reports the I/O error.
    let slot = FAT_PARTITION_START + INTENT_LOG_START + 1;
    sys.kernel.board.sdhost.card.inject_fault(slot);
    let closing = overwrite(&mut sys, writer, n - 1);
    assert!(
        matches!(
            closing,
            Err(kernel::KernelError::Fs(protofs::FsError::Io(_)))
        ),
        "the closing write() fails with an I/O error: {closing:?}"
    );
    // No commit point was reached: the whole group is still pending, and
    // one failed chain is a retry, not a reason to degrade.
    assert_eq!(sys.kernel.fat_group_txns(), n as u64);
    assert_eq!(sys.kernel.fat_cache_stats().log_commits, commits_before);
    assert!(!sys.kernel.fat_cache().unwrap().degraded());
    // The fault clears: the next barrier commits the group, and every file
    // reads back at its new version from a cold cache.
    sys.kernel.board.sdhost.card.clear_faults();
    sys.kernel.sync_all().unwrap();
    assert_eq!(sys.kernel.fat_group_txns(), 0);
    assert_eq!(sys.kernel.fat_cache_stats().log_commits, commits_before + 1);
    sys.kernel.drop_fs_caches().unwrap();
    for i in 0..n {
        let back = sys
            .kernel
            .with_task_ctx(writer, |ctx| {
                let fd = ctx.open(&format!("/d/rec{i}.bin"), OpenFlags::rdonly())?;
                let data = ctx.read(fd, 16 * 1024)?;
                ctx.close(fd)?;
                Ok::<Vec<u8>, kernel::KernelError>(data)
            })
            .unwrap();
        assert_eq!(back, new_version(i), "file {i}");
    }
}

#[test]
fn kbio_commits_a_pending_group_after_the_timeout() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/lone.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"v1")?;
            ctx.close(fd)?;
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    sys.kernel.sync_all().unwrap();
    // One lone logged overwrite, then silence: no burst closes the group
    // and nobody calls fsync. The flusher's timeout pass must commit it
    // within a bounded window.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/lone.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"v2 committed by kbio")?;
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    assert_eq!(sys.kernel.fat_group_txns(), 1);
    let committed = sys.kernel.run_until(
        |k| k.fat_group_txns() == 0,
        (FAT_GROUP_COMMIT_TIMEOUT_MS + 500) * 1000,
    );
    assert!(
        committed,
        "the flusher force-committed the lone transaction"
    );
    let drained = sys
        .kernel
        .run_until(|k| k.fat_dirty_blocks() == 0, 10_000_000);
    assert!(drained);
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/lone.bin").unwrap(),
        b"v2 committed by kbio"
    );
}

/// A 2 MB write and fsync through syscalls on the DMA card. The writer
/// keeps the queue deep, and it builds each write chain while the chains
/// queued ahead of it transfer: the driver's CPU work is charged when a
/// chain is submitted, so it overlaps the card's data phase instead of
/// following it, and the call takes little more than that data phase.
#[test]
fn batched_writeback_keeps_the_queue_deep_under_cache_pressure() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    let core = sys.kernel.task(writer).unwrap().core;
    // Snapshot the occupancy histogram so boot-time install traffic (which
    // also drives the queue deep) cannot satisfy the depth assertions.
    let occupancy_before = sys.kernel.fat_queue_occupancy();
    let moved = |sys: &ProtoSystem| {
        let h = &sys.kernel.board.sdhost;
        (h.dma_blocks(), h.sg_control_blocks())
    };
    let (blocks0, cbs0) = moved(&sys);
    let start = sys.kernel.board.clock.cycles(core);
    // 2 MB through the 512 KB cache: most blocks move under eviction
    // pressure. With batching, the writer keeps several scatter-gather
    // chains in flight instead of the one-deep submit-then-drain lockstep.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/deep.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x6Du8; 2 * 1024 * 1024])?;
            ctx.fsync(fd)?;
            ctx.close(fd)
        })
        .unwrap();
    let elapsed = sys.kernel.board.clock.cycles(core) - start;
    let (blocks1, cbs1) = moved(&sys);
    let (blocks, cbs) = (blocks1 - blocks0, cbs1 - cbs0);
    assert!(blocks >= 4096, "the file went to the card: {blocks} blocks");
    // `sd_dma_run` prices one control block, setup included; the others
    // add their own setup.
    let cost = &sys.kernel.board.cost;
    let data_phase = cost.sd_dma_run(blocks) + (cbs - 1) * cost.dma_setup;
    let ratio = elapsed as f64 / data_phase as f64;
    assert!(
        ratio <= 1.15,
        "write + fsync took {elapsed} cycles, {ratio:.3}x the card's {data_phase}-cycle \
         data phase for {blocks} blocks in {cbs} control blocks"
    );
    let occupancy: Vec<u64> = sys
        .kernel
        .fat_queue_occupancy()
        .iter()
        .zip(occupancy_before.iter())
        .map(|(a, b)| a - b)
        .collect();
    let peak = occupancy.iter().rposition(|&c| c > 0).unwrap_or(0);
    assert!(
        peak >= 4,
        "this run's submissions peaked at queue depth {peak} — the write \
         path never went deep: {occupancy:?}"
    );
    let stats = sys.kernel.fat_cache_stats();
    assert!(
        stats.batched_evictions > 0,
        "evictions used the batched path"
    );
    // The data is durable and intact on a raw remount.
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/deep.bin").unwrap(),
        vec![0x6Du8; 2 * 1024 * 1024]
    );
}

#[test]
fn without_the_flusher_close_drains_synchronously_and_bills_the_writer() {
    // The xv6 baseline runs no `kbio`: close drains the cache itself.
    let mut sys = ProtoSystem::build(SystemOptions {
        variant: KernelVariant::Xv6Baseline,
        ..SystemOptions::default()
    })
    .unwrap();
    assert_eq!(sys.kernel.kbio_task(), 0);
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/sync.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x11u8; 96 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert_eq!(
        sys.kernel.fat_dirty_blocks(),
        0,
        "close flushed synchronously"
    );
    assert!(
        sys.kernel.task_sd_cycles(writer) > 0,
        "the write-back spike is billed to the closing task"
    );
}

#[test]
fn fat_syscalls_issue_no_polled_command_while_the_card_is_in_dma_mode() {
    let mut sys = ProtoSystem::desktop().unwrap();
    // A 48-block FAT cache: the rewrites below evict dirty metadata, whose
    // dependency closure is written back first.
    sys.kernel.set_fat_cache_geometry(2, 3).unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    let version = |round: usize, i: usize| vec![(round * 24 + i) as u8; 6 * 1024];
    let polled = |sys: &ProtoSystem| {
        let h = &sys.kernel.board.sdhost;
        (h.single_block_cmds(), h.range_cmds())
    };
    let before = polled(&sys);
    let dma_before = sys.kernel.board.sdhost.dma_cmds();
    for round in 0..4 {
        sys.kernel
            .with_task_ctx(writer, |ctx| {
                for i in 0..24 {
                    let fd = ctx.open(&format!("/d/ev{i}.bin"), OpenFlags::wronly_create())?;
                    ctx.write(fd, &version(round, i))?;
                    ctx.close(fd)?;
                }
                Ok::<(), kernel::KernelError>(())
            })
            .unwrap();
        sys.kernel.run_for_us(2000);
    }
    sys.kernel.sync_all().unwrap();
    assert_eq!(
        polled(&sys),
        before,
        "(single, range) polled commands while the card is in DMA mode"
    );
    assert!(sys.kernel.board.sdhost.dma_cmds() > dma_before);
    sys.kernel.drop_fs_caches().unwrap();
    for i in 0..24 {
        let back = sys
            .kernel
            .with_task_ctx(writer, |ctx| {
                let fd = ctx.open(&format!("/d/ev{i}.bin"), OpenFlags::rdonly())?;
                let data = ctx.read(fd, 16 * 1024)?;
                ctx.close(fd)?;
                Ok::<Vec<u8>, kernel::KernelError>(data)
            })
            .unwrap();
        assert_eq!(back, version(3, i), "file {i}");
    }
}

#[test]
fn a_new_fat_cache_geometry_keeps_the_cache_policies() {
    let mut sys = ProtoSystem::desktop().unwrap();
    sys.kernel.set_fat_range_coalescing(false);
    sys.kernel.set_fat_cache_geometry(2, 3).unwrap();
    let cache = sys.kernel.fat_cache().unwrap();
    assert_eq!(cache.shard_count(), 2);
    assert!(!cache.coalescing(), "range coalescing stays off");
    assert!(cache.prefetch_enabled(), "read-ahead stays on");
}

/// A FAT cache too small for an open commit group. On a 2 x 2 cache (four
/// extents) the group's pinned sectors can fill a shard, and evicting one
/// would send a logged sector home ahead of its commit record (the
/// sanitizer's pin check catches that, and CI runs this file sanitized).
/// The group commits before it crowds a shard, and an allocation that
/// finds only pinned extents fails rather than evict one. Every rewrite
/// succeeds or returns an error, and each file reads back the last version
/// whose write succeeded.
#[test]
fn a_fat_cache_too_small_for_the_commit_group_never_evicts_a_pinned_sector() {
    let mut sys = ProtoSystem::desktop().unwrap();
    sys.kernel.set_fat_cache_geometry(2, 2).unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    let version = |round: usize, i: usize| vec![(round * 24 + i) as u8; 6 * 1024];
    // The last round whose write of each file succeeded.
    let mut last: Vec<Option<usize>> = vec![None; 24];
    for round in 0..4 {
        for (i, last) in last.iter_mut().enumerate() {
            let data = version(round, i);
            let written = sys.kernel.with_task_ctx(writer, |ctx| {
                let fd = ctx.open(&format!("/d/ev{i}.bin"), OpenFlags::wronly_create())?;
                let written = ctx.write(fd, &data);
                ctx.close(fd)?;
                written
            });
            if let Ok(n) = written {
                assert_eq!(n, data.len(), "short write of file {i}");
                *last = Some(round);
            }
        }
        sys.kernel.run_for_us(2000);
    }
    sys.kernel.sync_all().unwrap();
    sys.kernel.drop_fs_caches().unwrap();
    for (i, last) in last.iter().enumerate() {
        let back = sys.kernel.with_task_ctx(writer, |ctx| {
            let fd = ctx.open(&format!("/d/ev{i}.bin"), OpenFlags::rdonly())?;
            let data = ctx.read(fd, 16 * 1024)?;
            ctx.close(fd)?;
            Ok::<Vec<u8>, kernel::KernelError>(data)
        });
        match last {
            Some(round) => assert_eq!(back.unwrap(), version(*round, i), "file {i}"),
            None => assert!(back.is_err() || back.unwrap().is_empty(), "file {i}"),
        }
    }
}
