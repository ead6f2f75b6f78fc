//! A failed filesystem call changes nothing.
//!
//! Every mutating call of both filesystems runs in the buffer cache's undo
//! scope, so a call that fails before its commit point puts back every
//! block it wrote, and one that fails while its transaction commits leaves
//! the whole transaction to the next barrier.
//!
//! The sweep checks that per block. It builds a small populated image of
//! each filesystem, and for each call runs it once without faults over a
//! device that logs every block the call reads or writes. Then, for each
//! logged block, it runs the call again on a fresh copy of the image, with
//! a cold cache and that block faulted:
//!
//! - a call that fails before any write reaches the device must leave the
//!   tree, every file's bytes and the free count as they were, in the cache
//!   and, after a barrier, on the medium;
//! - a call that fails once writes reach the device (its commit), or that
//!   succeeds, must show the state before or the state after the call once
//!   the fault clears and a barrier runs, never a mix, and the medium must
//!   show the same.
//!
//! A second test issues real syscalls on forked desktops, with faults on
//! the root ramdisk and the SD card. Both filesystems are driven through
//! the cut harness's `Volume` view, shared with the crash suite.

pub mod harness;

use std::collections::BTreeSet;

use harness::{Tree, Volume};
use kernel::kernel::FAT_PARTITION_START;
use kernel::{KResult, OpenFlags, UserCtx};
use proto_repro::prelude::*;
use protofs::block::BlockIoStats;
use protofs::block::SdBlockDevice;
use protofs::bufcache::BufCache;
use protofs::fat32::Fat32;
use protofs::xv6fs::{InodeType, Xv6Fs, BSIZE};
use protofs::{BlockDevice, FsResult, MemDisk, BLOCK_SIZE};

/// A device that notes every block it reads or writes, and counts the
/// blocks it is asked to write.
struct Tap {
    disk: MemDisk,
    touched: BTreeSet<u64>,
    writes: u64,
}

impl Tap {
    fn note(&mut self, lba: u64, count: u64, write: bool) {
        self.touched.extend(lba..lba + count);
        if write {
            self.writes += count;
        }
    }
}

impl BlockDevice for Tap {
    fn num_blocks(&self) -> u64 {
        self.disk.num_blocks()
    }

    fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()> {
        self.note(lba, 1, false);
        Ok(self.disk.read_block(lba, out)?)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()> {
        self.note(lba, 1, true);
        Ok(self.disk.write_block(lba, data)?)
    }

    fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
        self.note(lba, count, false);
        Ok(self.disk.read_range(lba, count, out)?)
    }

    fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> FsResult<()> {
        self.note(lba, count, true);
        Ok(self.disk.write_range(lba, count, data)?)
    }

    fn flush(&mut self) -> FsResult<()> {
        Ok(self.disk.flush()?)
    }

    fn stats(&self) -> BlockIoStats {
        self.disk.stats()
    }
}

/// One call of the sweep.
type Call<V> = (
    &'static str,
    fn(&V, &mut dyn BlockDevice, &mut BufCache) -> FsResult<()>,
);

/// `image` behind a fresh tap, the volume mounted on it, and a cold cache.
fn fresh<V: Volume>(image: &MemDisk) -> (V, Tap, BufCache) {
    let mut dev = Tap {
        disk: image.clone(),
        touched: BTreeSet::new(),
        writes: 0,
    };
    let fs = V::mount(&mut dev, &mut BufCache::default()).unwrap();
    dev.touched.clear();
    dev.writes = 0;
    (fs, dev, BufCache::default())
}

/// Commits the open group and drains the cache, then remounts the medium
/// under a cold cache: the tree the barrier made durable.
fn barrier<V: Volume>(fs: &V, dev: &mut Tap, bc: &mut BufCache, what: &str) -> Tree {
    fs.commit_pending(dev, bc).unwrap();
    bc.flush(dev).unwrap();
    let mut cold = BufCache::default();
    let remounted = V::mount(dev, &mut cold).unwrap_or_else(|e| panic!("{what}: {e:?}"));
    remounted.tree(dev, &mut cold)
}

/// Runs every call with each block it touches faulted in turn; returns the
/// number of (call, block) cases.
fn sweep<V: Volume>(image: &MemDisk, calls: &[Call<V>]) -> usize {
    let pre = {
        let (fs, mut dev, mut bc) = fresh::<V>(image);
        fs.tree(&mut dev, &mut bc)
    };
    let mut cases = 0;
    for &(name, call) in calls {
        let (fs, mut dev, mut bc) = fresh::<V>(image);
        call(&fs, &mut dev, &mut bc).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let blocks = std::mem::take(&mut dev.touched);
        let post = fs.tree(&mut dev, &mut bc);
        assert_ne!(post, pre, "{name} changes the tree");
        assert_eq!(barrier(&fs, &mut dev, &mut bc, name), post, "{name}");
        for &b in &blocks {
            let what = format!("{name} with block {b} faulted");
            let (fs, mut dev, mut bc) = fresh::<V>(image);
            dev.disk.inject_fault(b);
            let result = call(&fs, &mut dev, &mut bc);
            dev.disk.clear_faults();
            if result.is_err() && dev.writes == 0 {
                assert_eq!(fs.tree(&mut dev, &mut bc), pre, "{what}: failed, changed");
                let durable = barrier(&fs, &mut dev, &mut bc, &what);
                assert_eq!(durable, pre, "{what}: failed, changed the medium");
            } else {
                let durable = barrier(&fs, &mut dev, &mut bc, &what);
                let now = fs.tree(&mut dev, &mut bc);
                assert_eq!(durable, now, "{what}: the medium differs from the cache");
                if result.is_ok() {
                    assert_eq!(now, post, "{what}: succeeded");
                } else {
                    assert!(
                        now == pre || now == post,
                        "{what}: a mix of before and after"
                    );
                }
            }
            cases += 1;
        }
    }
    cases
}

/// `n` bytes of a pattern that differs per `seed`.
fn bytes(n: usize, seed: u8) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8 ^ seed).collect()
}

#[test]
fn a_per_block_fault_sweep_finds_no_call_that_fails_part_way() {
    let xv6_image = {
        let mut dev = MemDisk::new(4096);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut dev, &mut bc, 2048, 256).unwrap();
        fs.write_file(&mut dev, &mut bc, "/a", b"kept").unwrap();
        fs.write_file(&mut dev, &mut bc, "/big", &bytes(20 * BSIZE, 1))
            .unwrap();
        fs.create(&mut dev, &mut bc, "/d", InodeType::Dir).unwrap();
        fs.write_file(&mut dev, &mut bc, "/d/x", &bytes(3000, 2))
            .unwrap();
        bc.flush(&mut dev).unwrap();
        dev
    };
    let xv6_calls: [Call<Xv6Fs>; 5] = [
        ("create", |fs, dev, bc| {
            fs.create(dev, bc, "/d/new", InodeType::File).map(drop)
        }),
        ("mkdir", |fs, dev, bc| {
            fs.create(dev, bc, "/d/sub", InodeType::Dir).map(drop)
        }),
        ("unlink", |fs, dev, bc| fs.unlink(dev, bc, "/big")),
        ("overwrite", |fs, dev, bc| {
            fs.write_file(dev, bc, "/big", &bytes(5 * BSIZE, 3))
                .map(drop)
        }),
        ("offset write", |fs, dev, bc| {
            let inum = fs.lookup(dev, bc, "/d/x")?;
            fs.write(dev, bc, inum, 2500, &bytes(2000, 4)).map(drop)
        }),
    ];
    let fat_image = {
        let mut dev = MemDisk::new(4096);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/a.txt", b"kept").unwrap();
        fs.write_file(&mut dev, &mut bc, "/big.bin", &bytes(40 * 1024, 1))
            .unwrap();
        fs.create(&mut dev, &mut bc, "/d", true).unwrap();
        fs.write_file(&mut dev, &mut bc, "/d/x.bin", &bytes(6000, 2))
            .unwrap();
        bc.flush(&mut dev).unwrap();
        dev
    };
    let fat_calls: [Call<Fat32>; 7] = [
        ("create", |fs, dev, bc| {
            fs.create(dev, bc, "/d/new.txt", false).map(drop)
        }),
        ("mkdir", |fs, dev, bc| {
            fs.create(dev, bc, "/d/sub", true).map(drop)
        }),
        ("unlink", |fs, dev, bc| fs.remove(dev, bc, "/big.bin")),
        ("overwrite", |fs, dev, bc| {
            fs.write_file(dev, bc, "/big.bin", &bytes(20 * 1024, 3))
        }),
        ("offset write", |fs, dev, bc| {
            fs.write_at(dev, bc, "/d/x.bin", 5000, &bytes(3000, 4))
        }),
        ("rename", |fs, dev, bc| {
            fs.rename(dev, bc, "/big.bin", "/d/moved.bin")
        }),
        ("new-file write", |fs, dev, bc| {
            fs.write_file(dev, bc, "/n.bin", &bytes(9000, 5))
        }),
    ];
    let cases = sweep(&xv6_image, &xv6_calls) + sweep(&fat_image, &fat_calls);
    println!("{cases} (call, block) cases");
    assert!(cases >= 200, "only {cases} cases: the sweep lost its calls");
}

/// What the forked desktop shows of the files the syscall test touches:
/// the directory listings, each file's size and bytes, and both volumes'
/// free counts on the medium once every cache has drained.
#[derive(Debug, PartialEq, Eq)]
struct Shown {
    listings: Vec<Vec<String>>,
    files: Vec<(String, u64, Vec<u8>)>,
    root_free: u32,
    fat_free: u32,
}

const DIRS: [&str; 3] = ["/", "/d", "/d/full"];
const FILES: [&str; 2] = ["/fa.txt", "/d/ov.bin"];
/// A syscall the desktop test fails, given a descriptor open on
/// `/d/ov.bin`.
type Syscall = fn(&mut UserCtx<'_>, i32) -> KResult<()>;

/// Entries one FAT32 directory cluster holds.
const DIRENTS_PER_CLUSTER: usize = 4096 / 32;

fn read_all(ctx: &mut UserCtx<'_>, path: &str) -> KResult<Vec<u8>> {
    let fd = ctx.open(path, OpenFlags::rdonly())?;
    let data = ctx.read(fd, 1 << 20)?;
    ctx.close(fd)?;
    Ok(data)
}

fn write_new(ctx: &mut UserCtx<'_>, path: &str, data: &[u8]) -> KResult<()> {
    let fd = ctx.open(path, OpenFlags::wronly_create())?;
    ctx.write(fd, data)?;
    ctx.close(fd)
}

fn shown(sys: &mut ProtoSystem, tid: kernel::TaskId) -> Shown {
    let (listings, files) = sys.kernel.with_task_ctx(tid, |ctx| {
        let listings = DIRS.iter().map(|d| ctx.list_dir(d).unwrap()).collect();
        let files = FILES
            .iter()
            .map(|f| {
                let size = ctx.stat(f).unwrap().size;
                (f.to_string(), size, read_all(ctx, f).unwrap())
            })
            .collect();
        (listings, files)
    });
    sys.kernel.sync_all().unwrap();
    let root_free = {
        let disk = sys.kernel.ramdisk().unwrap();
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mount(disk, &mut bc).unwrap();
        fs.free_blocks(disk, &mut bc).unwrap()
    };
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut card = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let mut bc = BufCache::default();
    let fs = Fat32::mount(&mut card, &mut bc).unwrap();
    let fat_free = fs.free_clusters(&mut card, &mut bc).unwrap();
    Shown {
        listings,
        files,
        root_free,
        fat_free,
    }
}

/// The card block holding the FAT entry of the first free cluster: the
/// sector a new chain or a directory extension claims its cluster in.
fn first_free_fat_sector(sys: &mut ProtoSystem) -> u64 {
    let fat_start = u64::from(sys.kernel.fat_volume().unwrap().bpb().fat_start);
    let card = &mut sys.kernel.board.sdhost.card;
    let mut sector = [0u8; BLOCK_SIZE];
    for s in 0.. {
        card.read_block(FAT_PARTITION_START + fat_start + s, &mut sector)
            .unwrap();
        let entries = sector.chunks_exact(4).enumerate();
        let free = entries
            .skip(if s == 0 { 2 } else { 0 })
            .any(|(_, e)| u32::from_le_bytes([e[0], e[1], e[2], e[3]]) & 0x0FFF_FFFF == 0);
        if free {
            return FAT_PARTITION_START + fat_start + s;
        }
    }
    unreachable!("the FAT has a free cluster")
}

#[test]
fn failed_syscalls_on_a_forked_desktop_change_nothing() {
    let mut pre = ProtoSystem::desktop().unwrap();
    let tid = pre.kernel.spawn_bench_task("atomicity").unwrap();
    pre.kernel
        .with_task_ctx(tid, |ctx| {
            write_new(ctx, "/fa.txt", &bytes(20 * BSIZE, 1))?;
            write_new(ctx, "/d/ov.bin", &bytes(20 * 1024, 2))?;
            // A full directory cluster, then a filler, so the first free
            // cluster's FAT sector is not the one holding the directory's
            // chain.
            ctx.mkdir("/d/full")?;
            for i in 0..DIRENTS_PER_CLUSTER {
                write_new(ctx, &format!("/d/full/f{i}"), b"")?;
            }
            write_new(ctx, "/d/fill.bin", &bytes(600 * 1024, 3))
        })
        .unwrap();
    let before = shown(&mut pre, tid);
    let bitmap = pre.kernel.root_volume().unwrap().superblock().bmapstart;
    let bitmap_lbas = [bitmap as u64 * 2, bitmap as u64 * 2 + 1];
    let fat_sector = first_free_fat_sector(&mut pre);
    let calls: [(&str, Syscall); 3] = [
        ("unlink on / with its bitmap block faulted", |ctx, _| {
            ctx.unlink("/fa.txt")
        }),
        (
            "/d overwrite with a FAT sector of its new chain faulted",
            |ctx, fd| ctx.write(fd, &bytes(24 * 1024, 4)).map(drop),
        ),
        (
            "/d create that extends a full directory, its FAT sector faulted",
            |ctx, _| {
                ctx.open("/d/full/extra", OpenFlags::wronly_create())
                    .map(drop)
            },
        ),
    ];
    for (i, (what, call)) in calls.into_iter().enumerate() {
        let mut sys = pre.fork().unwrap();
        let fd = sys
            .kernel
            .with_task_ctx(tid, |ctx| ctx.open("/d/ov.bin", OpenFlags::wronly_create()))
            .unwrap();
        sys.kernel.drop_fs_caches().unwrap();
        // The unlink faults the ramdisk, the other two calls the card.
        if i == 0 {
            for lba in bitmap_lbas {
                sys.kernel.ramdisk().unwrap().inject_fault(lba);
            }
        } else {
            sys.kernel.board.sdhost.card.inject_fault(fat_sector);
        }
        let result = sys.kernel.with_task_ctx(tid, |ctx| call(ctx, fd));
        assert!(result.is_err(), "{what}: {result:?}");
        sys.kernel.ramdisk().unwrap().clear_faults();
        sys.kernel.board.sdhost.card.clear_faults();
        sys.kernel.with_task_ctx(tid, |ctx| ctx.close(fd)).unwrap();
        assert_eq!(shown(&mut sys, tid), before, "{what}");
    }
}
