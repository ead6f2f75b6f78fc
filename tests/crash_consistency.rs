//! Crash consistency of the storage stack: FAT32's intent log, the xv6fs
//! journal, the dependency-ordered write-back drain, the SD card's DMA
//! queue and the posted write cache, each proven by power cuts at every
//! point of an op.
//!
//! Every test is a row of the cut harness (`harness/mod.rs`): a pre-state,
//! an op run once with the disk's persist log on, its cut points and a
//! check. A cut's image is the disk from before the op with a prefix of the
//! log applied. It is remounted under a cold cache (intent-log and journal
//! replay included) and held to its filesystem's fsck invariants: FAT
//! chains that stay in the data area, reach no free cluster and share none;
//! xv6fs entries that name allocated inodes, and block maps the bitmap
//! marks used, one owner per block. Then the rows check:
//!
//! * a logged op (overwrite, rename, remove, mkdir, a group commit, a torn
//!   commit record) shows the tree from before it or the one after it at
//!   every cut, never a mix;
//! * an unlogged one leaves each path in a state it passed through: a new
//!   file is absent or whole, an offset write leaves each byte old or new;
//! * seeded schedules of writes, flushes and a power cut keep every durable
//!   path exact and every visible file at a version written to it;
//! * an LBA-order replay of a drain publishes a torn file, so the sweeps
//!   see the ordering bug the dependency-ordered drain fixes.
//!
//! `real_cuts_persist_what_the_log_says` checks the harness itself. It cuts
//! for real at every k on a polled disk, a posted one and the SD card in DMA
//! mode, compares what persisted with the log, and holds the assertions
//! about the cut itself: the barrier fails, a torn chain stays dirty, a
//! torn record is one range command.

pub mod harness;

use std::collections::BTreeMap;
use std::ops::Range;

use hal::disk::PersistLog;
use hal::sdhost::SdDataMode;
use harness::{barrier, card, dma_partition, file, model, pattern, Cuts, Model, Mounted};
use harness::{Node, PathModel, Rng, Tree, Vol};
use kernel::kernel::{FAT_GROUP_COMMIT_OPS, FAT_PARTITION_START};
use kernel::{OpenFlags, TaskId};
use proto::prototype::ProtoSystem;
use protofs::bufcache::BufCache;
use protofs::fat32::{Fat32, CLUSTER_SIZE, FIRST_CLUSTER, INTENT_LOG_START};
use protofs::txn::TXN_MAGIC;
use protofs::xv6fs::{InodeType, Xv6Fs, BSIZE};
use protofs::{FsError, MemDisk, BLOCK_SIZE};

/// `old` with `data` written at `offset`, any gap zero-filled.
fn patched(old: &[u8], offset: usize, data: &[u8]) -> Vec<u8> {
    let mut new = old.to_vec();
    new.resize(new.len().max(offset + data.len()), 0);
    new[offset..offset + data.len()].copy_from_slice(data);
    new
}

/// Whether `tree` holds `bytes` at `path`.
fn holds(tree: &Tree, path: &str, bytes: &[u8]) -> bool {
    tree.get(path) == file(bytes).as_ref()
}

/// Block `lba` of `disk`.
fn sector(disk: &mut MemDisk, lba: u64) -> Vec<u8> {
    let mut out = vec![0u8; BLOCK_SIZE];
    disk.read_block(lba, &mut out).unwrap();
    out
}

/// One op of a FAT32 schedule that succeeded or that the cut interrupted:
/// the span of the log it persisted, the states it gave paths, and whether
/// its success is a durability barrier.
struct Step {
    writes: Range<usize>,
    changes: Vec<(String, Option<Node>)>,
    barrier: bool,
    /// The power cut fired during the op.
    cut: bool,
}

/// The model a cut after `k` logged blocks leaves: every op that finished
/// before the cut, then the op the cut interrupted, whose states are
/// possible outcomes (it may still land by replay).
fn fat_model_at(steps: &[Step], paths: &[String], k: usize) -> Model {
    let mut model: Model = paths
        .iter()
        .map(|p| (p.clone(), PathModel::new(None)))
        .collect();
    for step in steps {
        if step.writes.start > k {
            break;
        }
        for (path, state) in &step.changes {
            model.get_mut(path).unwrap().push(state.clone());
        }
        if step.cut || step.writes.end > k {
            break;
        }
        if step.barrier {
            barrier(&mut model);
        }
    }
    model
}

/// Earlier cut points each FAT32 schedule also checks, besides its real
/// cut.
const PREFIX_CUTS: usize = 12;

#[test]
fn fat32_random_torn_cut_schedules_preserve_the_invariants() {
    for seed in 0..60u64 {
        let mut rng = Rng::new(1000 + seed);
        // 8 MB volume, deliberately small cache (4 shards x 8 extents =
        // 128 KB) so schedules exercise eviction paths too.
        let vol = {
            let mut disk = MemDisk::new(16 * 1024);
            let mut bc = BufCache::with_geometry(4, 8);
            let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
            fs.create(&mut disk, &mut bc, "/SUB", true).unwrap();
            bc.flush(&mut disk).unwrap();
            Vol { disk, bc, fs }
        };
        // FAT stores 8.3 names upper-cased; keep the model keyed the same
        // way so remounted listings match directly.
        let names: Vec<String> = (0..4)
            .map(|i| format!("/F{i}.BIN"))
            .chain((0..2).map(|i| format!("/SUB/G{i}.BIN")))
            .collect();
        // Directories the schedule may create.
        let dir_names = ["/D0", "/SUB/D1"];
        let paths: Vec<String> = names
            .iter()
            .cloned()
            .chain(dir_names.map(String::from))
            .collect();
        // What each file holds as the schedule runs, for the next op's draw.
        let mut current: BTreeMap<String, Option<Node>> =
            names.iter().map(|n| (n.clone(), None)).collect();
        let mut steps: Vec<Step> = Vec::new();
        let mut version = 0u64;

        // Arm the cut: somewhere within the first few thousand persisted
        // blocks (some seeds never reach it — those validate the quiescent
        // path).
        let cut_after = rng.below(2500);
        let cuts = vol.cuts(|Vol { disk, bc, fs }| {
            disk.power_cut_after(cut_after);
            for _op in 0..40 {
                if disk.power_lost() {
                    break;
                }
                let which = rng.below(13);
                let name = names[rng.below(names.len() as u64) as usize].clone();
                let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
                // Writing a file that has a chain swaps chains in a logged
                // transaction, a full durability barrier on success; a new
                // or empty file's write is asynchronous, ordered data ≺ FAT
                // ≺ dirent.
                let has_chain = matches!(&current[&name], Some(Node::File(v)) if !v.is_empty());
                let start = disk.log().len();
                let (ok, changes, is_barrier) = match which {
                    // Write (create or overwrite).
                    0..=4 => {
                        version += 1;
                        let len = 1 + rng.below(40 * 1024) as usize;
                        let data = pattern(file_id, version, len);
                        let r = fs.write_file(disk, bc, &name, &data);
                        (r.is_ok(), vec![(name, file(&data))], has_chain)
                    }
                    // Write at a nonzero offset: the file is read, patched
                    // and written back whole.
                    10 => {
                        let Some(Node::File(old)) = current[&name].clone() else {
                            assert!(fs.write_at(disk, bc, &name, 1, b"x").is_err());
                            continue;
                        };
                        version += 1;
                        let offset = 1 + rng.below(48 * 1024) as usize;
                        let data = pattern(file_id, version, 1 + rng.below(16 * 1024) as usize);
                        let r = fs.write_at(disk, bc, &name, offset as u32, &data);
                        let new = patched(&old, offset, &data);
                        (r.is_ok(), vec![(name, file(&new))], has_chain)
                    }
                    // Create an empty file: one asynchronous dirent write.
                    8 => {
                        let r = fs.create(disk, bc, &name, false);
                        (r.is_ok(), vec![(name, file(&[]))], false)
                    }
                    // Create a directory (logged; barrier on success).
                    9 => {
                        let dir = dir_names[rng.below(dir_names.len() as u64) as usize];
                        let r = fs.create(disk, bc, dir, true);
                        (r.is_ok(), vec![(dir.to_string(), Some(Node::Dir))], true)
                    }
                    // Remove (logged; barrier on success).
                    5 => {
                        let r = fs.remove(disk, bc, &name);
                        (r.is_ok(), vec![(name, None)], true)
                    }
                    // Rename (logged; barrier on success).
                    6 => {
                        let to = names[rng.below(names.len() as u64) as usize].clone();
                        if to == name {
                            continue;
                        }
                        let moved = current[&name].clone();
                        let r = fs.rename(disk, bc, &name, &to);
                        (r.is_ok(), vec![(name, None), (to, moved)], true)
                    }
                    // fsync / sync_all.
                    7 => (bc.flush(disk).is_ok(), vec![], true),
                    // Background flusher ticks with a random budget.
                    _ => {
                        let _ = bc.flush_some(disk, 8 + rng.below(120));
                        (true, vec![], false)
                    }
                };
                let cut = disk.power_lost();
                if ok || cut {
                    for (path, state) in &changes {
                        if let Some(c) = current.get_mut(path) {
                            c.clone_from(state);
                        }
                    }
                    steps.push(Step {
                        writes: start..disk.log().len(),
                        changes,
                        barrier: is_barrier,
                        cut,
                    });
                }
            }
            // The schedules never rely on the ordering escape hatch.
            let forced = bc.stats().forced_meta_writes;
            assert_eq!(forced, 0, "[seed {seed}] drain hit a dependency cycle");
        });

        // The real cut: what persisted. Then the cuts at sampled earlier
        // points where a FAT or directory sector had just landed, when a
        // write-order mistake shows.
        let (what, n) = (format!("seed {seed}"), cuts.end());
        let mut dir_clusters = Vec::new();
        cuts.sweep::<Fat32>(&what, [n], |_, m| {
            m.check(&fat_model_at(&steps, &paths, n));
            dir_clusters.push(m.fs.bpb().root_cluster);
            for dir in dir_names {
                if let Ok(e) = m.fs.lookup(&mut m.dev, &mut m.bc, dir) {
                    dir_clusters.push(e.first_cluster);
                }
            }
        });
        let bpb = vol.fs.bpb();
        let metadata = |lba: u64| {
            lba < u64::from(bpb.data_start)
                || dir_clusters.iter().any(|&c| {
                    let sectors = (CLUSTER_SIZE / BLOCK_SIZE) as u64;
                    let first = u64::from(bpb.data_start) + u64::from(c - FIRST_CLUSTER) * sectors;
                    (first..first + sectors).contains(&lba)
                })
        };
        let log = &cuts.log.blocks;
        let mut points: Vec<usize> = (1..n).filter(|&k| metadata(log[k - 1].0)).collect();
        let mut picked = Vec::new();
        while picked.len() < PREFIX_CUTS && !points.is_empty() {
            picked.push(points.swap_remove(rng.below(points.len() as u64) as usize));
        }
        picked.sort_unstable();
        cuts.sweep::<Fat32>(&what, picked, |k, m| {
            m.check(&fat_model_at(&steps, &paths, k));
        });
    }
}

#[test]
fn fat32_ordering_regression_exhaustive_cut_sweep() {
    // The deterministic regression for the dependency-ordered drain. A new
    // file's dirty blocks are: FAT sectors and the root-directory sector at
    // low LBAs, data clusters at high LBAs — so a pure-LBA drain writes the
    // metadata *first*, and a cut between them publishes a file whose
    // clusters never reached the device. The sweep cuts the flush after
    // every block: at each cut the file is absent or bit-exact.
    let data = pattern(7, 1, 16 * 1024);
    let mut pre = Vol::fat(8 * 1024);
    pre.fs
        .write_file(&mut pre.disk, &mut pre.bc, "/a.bin", &data)
        .unwrap();
    let cuts = pre.cuts(|v| v.bc.flush(&mut v.disk).unwrap());
    assert!(cuts.end() > 8, "scenario should span FAT + dirent + data");
    let n = cuts.end();
    cuts.sweep::<Fat32>("ordered drain", 0..=n, |k, m| {
        m.check(&model([("/A.BIN", vec![None, file(&data)])], k == n));
    });

    // The sweep can see the bug: the same blocks in LBA order publish
    // /a.bin torn at some prefix.
    let mut by_lba = cuts.clone();
    by_lba.log.blocks.sort_by_key(|(lba, _)| *lba);
    let mut torn = 0;
    by_lba.sweep::<Fat32>("LBA order", 0..=n, |_, m| {
        torn += usize::from(m.read("/a.bin").is_some_and(|c| c != data));
    });
    assert!(
        torn > 0,
        "an LBA-order replay of the same blocks must publish a torn /a.bin"
    );
}

/// A 4096-block xv6fs volume on an 8192-block disk whose `/f` holds `old`
/// durably.
fn xv6_with_f(old: &[u8]) -> Vol<Xv6Fs> {
    let mut v = Vol::xv6(8192, 4096, 128);
    v.fs.write_file(&mut v.disk, &mut v.bc, "/f", old).unwrap();
    v.bc.flush(&mut v.disk).unwrap();
    v
}

/// A FAT32 volume on an 8192-block disk holding `files` durably.
fn fat_with(files: &[(&str, &[u8])]) -> Vol<Fat32> {
    let mut v = Vol::fat(8 * 1024);
    for (path, data) in files {
        v.fs.write_file(&mut v.disk, &mut v.bc, path, data).unwrap();
    }
    v.sync().unwrap();
    v
}

#[test]
fn fat32_cut_during_logged_overwrite_yields_old_or_new_never_a_mix() {
    // Overwrites run through the intent log: a cut anywhere in the
    // overwrite, its commit and the drain behind it shows old XOR new.
    let old = pattern(1, 1, 24 * 1024);
    let new = pattern(1, 2, 30 * 1024);
    let cuts = fat_with(&[("/v.bin", &old)]).cuts(|v| {
        v.fs.write_file(&mut v.disk, &mut v.bc, "/v.bin", &new)
            .unwrap();
        v.sync().unwrap();
    });
    let (before, after) = cuts.atomic::<Fat32>("overwrite", 0..=cuts.end());
    assert!(holds(&before, "/V.BIN", &old) && holds(&after, "/V.BIN", &new));
}

#[test]
fn fat32_large_overwrite_spanning_many_fat_sectors_stays_atomic() {
    // The flagship-asset case: overwriting a multi-megabyte file touches
    // many FAT sectors for both chains (one sector per 512 KB), and must
    // still fit one intent-log record — a cut anywhere yields old XOR new.
    let old = pattern(11, 1, 4 * 1024 * 1024);
    let new = pattern(11, 2, 3 * 1024 * 1024 + 4096);
    let mut pre = Vol::fat(32 * 1024);
    pre.fs
        .write_file(&mut pre.disk, &mut pre.bc, "/DOOM.WAD", &old)
        .unwrap();
    pre.sync().unwrap();
    let cuts = pre.cuts(|v| {
        v.fs.write_file(&mut v.disk, &mut v.bc, "/DOOM.WAD", &new)
            .unwrap();
    });
    // A cut per block is too slow: sample the transaction, denser near the
    // end where the log commit happens.
    let n = cuts.end();
    let mut ks: Vec<usize> = (0..=n)
        .step_by((n / 8).max(1))
        .chain((n.saturating_sub(30)..=n).step_by(5))
        .collect();
    ks.sort_unstable();
    let (before, after) = cuts.atomic::<Fat32>("large overwrite", ks);
    assert!(holds(&before, "/DOOM.WAD", &old) && holds(&after, "/DOOM.WAD", &new));
}

#[test]
fn fat32_cut_during_rename_leaves_exactly_one_intact_name() {
    let data = pattern(3, 1, 12 * 1024);
    let cuts = fat_with(&[("/src.bin", &data)]).cuts(|v| {
        v.fs.rename(&mut v.disk, &mut v.bc, "/src.bin", "/dst.bin")
            .unwrap();
        v.sync().unwrap();
    });
    let (before, after) = cuts.atomic::<Fat32>("rename", 0..=cuts.end());
    assert!(holds(&before, "/SRC.BIN", &data) && before.get("/DST.BIN").is_none());
    assert!(holds(&after, "/DST.BIN", &data) && after.get("/SRC.BIN").is_none());
}

#[test]
fn fat32_remove_and_mkdir_cut_sweeps_are_old_xor_new() {
    // Both are logged transactions: a remove frees the chain and clears
    // the entry; a mkdir claims a cluster, zeroes it and adds the entry.
    let data = pattern(5, 1, 20 * 1024);
    let pre = fat_with(&[("/gone.bin", &data)]);
    let cuts = pre.cuts(|v| {
        v.fs.remove(&mut v.disk, &mut v.bc, "/gone.bin").unwrap();
        v.sync().unwrap();
    });
    let (before, after) = cuts.atomic::<Fat32>("remove", 0..=cuts.end());
    assert!(holds(&before, "/GONE.BIN", &data) && after.get("/GONE.BIN").is_none());
    assert!(after.free > before.free, "the remove frees the chain");
    let cuts = pre.cuts(|v| {
        v.fs.create(&mut v.disk, &mut v.bc, "/NEWDIR", true)
            .unwrap();
        v.sync().unwrap();
    });
    let (before, after) = cuts.atomic::<Fat32>("mkdir", 0..=cuts.end());
    assert_eq!(
        (before.get("/NEWDIR"), after.get("/NEWDIR")),
        (None, Some(&Node::Dir))
    );
}

#[test]
fn fat32_group_committed_burst_cut_sweep_is_old_xor_new_per_txn() {
    // Four logged overwrites fold into ONE commit record (group of 4). The
    // burst performs no device I/O until the group's commit point, so at a
    // cut after every persisted block the whole group is old or new: one
    // checksummed record commits it all or nothing.
    let n_files = 4usize;
    let names: Vec<String> = (0..n_files).map(|i| format!("/G{i}.BIN")).collect();
    let olds: Vec<Vec<u8>> = (0..n_files)
        .map(|i| pattern(40 + i as u64, 1, 12 * 1024))
        .collect();
    let news: Vec<Vec<u8>> = (0..n_files)
        .map(|i| pattern(40 + i as u64, 2, 9 * 1024))
        .collect();
    let mut pre = Vol::fat(8 * 1024);
    for (name, old) in names.iter().zip(&olds) {
        pre.fs
            .write_file(&mut pre.disk, &mut pre.bc, name, old)
            .unwrap();
    }
    pre.sync().unwrap();
    pre.fs.set_group_commit_ops(n_files as u32);
    let cuts = pre.cuts(|v| {
        for (name, new) in names.iter().zip(&news) {
            v.fs.write_file(&mut v.disk, &mut v.bc, name, new).unwrap();
        }
        assert_eq!(v.bc.group_txns(), 0, "fourth txn closed the group");
        assert_eq!(v.bc.stats().log_commits, 1, "one record for four txns");
    });
    assert!(
        cuts.end() > 20,
        "the batched commit should move real blocks"
    );
    let (before, after) = cuts.atomic::<Fat32>("group", 0..=cuts.end());
    for i in 0..n_files {
        assert!(holds(&before, &names[i], &olds[i]) && holds(&after, &names[i], &news[i]));
    }
}

#[test]
fn group_commit_replay_respects_interleaved_unlogged_writes() {
    // A logged overwrite parks its sectors in the commit group; an
    // interleaved NON-logged new-file write then shares the same root
    // dirent sector (and usually the same FAT sector). Sweep a cut across
    // the group's commit + the closing flush: at every prefix the remount —
    // which replays the record once it is committed — must show /A old XOR
    // new and /B absent XOR intact. The record's payloads are captured at
    // commit time and everything they reference is drained first, so replay
    // can never roll the unlogged writer's published state back into a
    // dangling dirent.
    let old_a = pattern(60, 1, 12 * 1024);
    let new_a = pattern(60, 2, 10 * 1024);
    let b = pattern(61, 1, 8 * 1024);
    let mut pre = fat_with(&[("/A.BIN", &old_a)]);
    pre.fs.set_group_commit_ops(8);
    let Vol { disk, bc, fs } = &mut pre;
    fs.write_file(disk, bc, "/A.BIN", &new_a).unwrap(); // logged, pends
    fs.write_file(disk, bc, "/B.BIN", &b).unwrap(); // unlogged, shares sectors
    assert!(bc.group_txns() > 0, "the overwrite pends in the group");
    let cuts = pre.cuts(|v| v.sync().unwrap());
    assert!(cuts.end() > 8, "commit + flush should move real blocks");
    let n = cuts.end();
    cuts.sweep::<Fat32>("interleave", 0..=n, |k, m| {
        let a = ("/A.BIN", vec![file(&old_a), file(&new_a)]);
        m.check(&model([a, ("/B.BIN", vec![None, file(&b)])], k == n));
    });
}

/// A file's path and its contents before and after an op.
type Versions = (String, Vec<u8>, Vec<u8>);

/// A FAT32 volume whose second commit group is pending with its data
/// already drained, so the next device command is its commit record, whose
/// payload slots still hold the first record's copies. One file per
/// directory, so the record carries a dirent sector per file plus the FAT
/// sectors. Returns the volume, the group's sectors, and each file's path
/// with its contents before and after the group.
fn torn_record_setup() -> (Vol<Fat32>, Vec<u64>, Vec<Versions>) {
    let n_files = 4usize;
    let name = |i: usize| format!("/D{i}/T.BIN");
    let version = |i: usize, v: u64, kb: usize| pattern(70 + i as u64, v, kb * 1024);
    let mut v = Vol::fat(8 * 1024);
    let Vol { disk, bc, fs } = &mut v;
    for i in 0..n_files {
        fs.create(disk, bc, &format!("/D{i}"), true).unwrap();
        fs.write_file(disk, bc, &name(i), &version(i, 1, 12))
            .unwrap();
    }
    bc.flush(disk).unwrap();
    fs.set_group_commit_ops(n_files as u32 + 1);
    for i in 0..n_files {
        fs.write_file(disk, bc, &name(i), &version(i, 2, 10))
            .unwrap();
    }
    fs.commit_pending(disk, bc).unwrap();
    bc.flush(disk).unwrap();
    for i in 0..n_files {
        fs.write_file(disk, bc, &name(i), &version(i, 3, 9))
            .unwrap();
    }
    bc.flush_ready(disk).unwrap();
    let targets = bc.group_entries();
    let files = (0..n_files)
        .map(|i| (name(i), version(i, 2, 10), version(i, 3, 9)))
        .collect();
    (v, targets, files)
}

#[test]
fn fat32_torn_commit_record_fails_its_checksum_and_is_ignored() {
    // A commit record is its header sector followed by its k payload
    // sectors, sent as one range command, header first. Cut short, it
    // persists the new header over a blend of new and stale payloads:
    // replay must reject it on the checksum and the remount must show the
    // tree from before the group. Complete, the record is the commit point
    // even if the home drain never starts. With a posted write cache the
    // same holds at every prefix, inside the FLUSH included.
    let (mut pre, targets, files) = torn_record_setup();
    assert!(targets.len() >= 2, "the record must carry several payloads");
    for (i, &t) in targets.iter().enumerate() {
        let slot = INTENT_LOG_START + 1 + i as u64;
        assert_eq!(sector(&mut pre.disk, slot), sector(&mut pre.disk, t));
    }
    for posted in [false, true] {
        pre.disk.set_posted_writes(posted);
        let cuts = pre.cuts(|v| v.fs.commit_pending(&mut v.disk, &mut v.bc).unwrap());
        let mut record = (INTENT_LOG_START..).zip(&cuts.log.blocks[..=targets.len()]);
        assert!(
            record.all(|(slot, (lba, _))| *lba == slot),
            "the record comes first"
        );
        let what = format!("record, posted {posted}");
        let (before, after) = cuts.atomic::<Fat32>(&what, 0..=cuts.end());
        for (path, mid, new) in &files {
            assert!(
                holds(&before, path, mid),
                "[{what}] a torn record must not replay"
            );
            assert!(
                holds(&after, path, new),
                "[{what}] a complete record replays"
            );
        }
    }
}

/// A desktop whose bench task wrote `/d/a.bin`, `data`, into the FAT
/// cache: the card has none of it yet.
fn desktop_with_unsynced_file(data: &[u8]) -> ProtoSystem {
    let mut sys = ProtoSystem::desktop().unwrap();
    assert_eq!(sys.kernel.board.sdhost.data_mode(), SdDataMode::Dma);
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel.sync_all().unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/a.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, data)?;
            ctx.close(fd)
        })
        .unwrap();
    sys
}

#[test]
fn fat32_dma_torn_sg_write_cut_sweep_keeps_remount_invariants() {
    // The DMA twin of the ordering regression sweep, through the kernel: a
    // fresh file drains as scatter-gather CMD25 chains, and a power cut
    // tears a chain at block granularity — only a prefix persists. At every
    // cut the remounted card must show the old tree or the complete file.
    let data = pattern(21, 1, 16 * 1024);
    let pre = desktop_with_unsynced_file(&data);
    let cuts = Cuts::record(&mut pre.fork().unwrap(), card, FAT_PARTITION_START, |sys| {
        sys.kernel.sync_all().unwrap();
    });
    assert!(cuts.end() > 8, "scenario should span FAT + dirent + data");
    let n = cuts.end();
    cuts.sweep::<Fat32>("dma", 0..=n, |k, m| {
        let whole = m.read("/a.bin").map_or(k < n, |got| got == data);
        assert!(
            whole,
            "[{}] /a.bin is torn or, after the flush, missing",
            m.note
        );
    });
}

#[test]
fn batched_eviction_mid_batch_fault_redirties_only_the_torn_chain() {
    // Two separate 128-block dirty regions fill a 256-block cache exactly;
    // the allocation that needs a slot gathers both into one eviction batch
    // of two back-to-back chains. A fault inside the *second* chain fails
    // only it: the first chain's blocks persist and settle (the allocator
    // takes one of their extents without draining anything else), while the
    // torn chain's blocks — and only those — convert back to dirty for
    // retry. Raw cache calls on a desktop's DMA path.
    let a: Vec<u8> = (0..128 * BLOCK_SIZE).map(|i| (i % 239) as u8).collect();
    let b: Vec<u8> = (0..128 * BLOCK_SIZE).map(|i| (i % 233) as u8).collect();
    let mut sys = ProtoSystem::desktop().unwrap();
    let board = &mut sys.kernel.board;
    let mut bc = BufCache::with_geometry(4, 8); // 256 blocks, 8 extents/shard
    bc.write_range(&mut dma_partition(board), 0, 128, &a)
        .unwrap();
    bc.write_range(&mut dma_partition(board), 512, 128, &b)
        .unwrap();
    assert_eq!(bc.dirty_blocks(), 256, "cache exactly full and all dirty");
    // Inside the second region's chain.
    board.sdhost.card.inject_fault(FAT_PARTITION_START + 600);
    bc.write_range(&mut dma_partition(board), 1024, 1, &[7u8; BLOCK_SIZE])
        .unwrap();
    assert!(
        bc.stats().batched_evictions >= 1,
        "the allocation went through the batched eviction path"
    );
    assert!(
        bc.queue_occupancy()[2..].iter().sum::<u64>() > 0,
        "both chains were on the queue together"
    );
    // The barrier reaps the torn chain: its error surfaces, and exactly its
    // 128 blocks are dirty again (the healthy chain's blocks are durable,
    // the fresh block drained cleanly).
    assert!(bc.flush(&mut dma_partition(board)).is_err());
    assert!(bc.stats().async_write_errors >= 128);
    assert_eq!(
        bc.dirty_blocks(),
        128,
        "only the torn chain's blocks converted back to dirty"
    );
    let mut region = vec![0u8; 128 * BLOCK_SIZE];
    let card = &mut board.sdhost.card;
    card.read_range(FAT_PARTITION_START, 128, &mut region)
        .unwrap();
    assert_eq!(
        region, a,
        "the healthy chain of the batch persisted untouched"
    );
    // The card recovers; the retried barrier finishes the job bit-exactly.
    card.clear_faults();
    bc.flush(&mut dma_partition(board)).unwrap();
    assert_eq!(bc.dirty_blocks(), 0);
    let card = &mut board.sdhost.card;
    card.read_range(FAT_PARTITION_START + 512, 128, &mut region)
        .unwrap();
    assert_eq!(region, b);
    assert_eq!(sector(card, FAT_PARTITION_START + 1024)[0], 7);
}

#[test]
fn fat32_dma_failed_chain_leaves_blocks_dirty_and_retryable() {
    // A chain that hits an injected fault completes with an error: the
    // cache converts the in-flight blocks back to dirty, nothing reaches a
    // remount, and clearing the fault lets the retried barrier finish the
    // job bit-exactly. Raw cache calls on a desktop's DMA path.
    let data = pattern(22, 1, 24 * 1024);
    let mut sys = ProtoSystem::desktop().unwrap();
    let board = &mut sys.kernel.board;
    let mut bc = BufCache::default();
    let fs = Fat32::mount(&mut dma_partition(board), &mut bc).unwrap();
    fs.write_file(&mut dma_partition(board), &mut bc, "/r.bin", &data)
        .unwrap();
    assert!(bc.dirty_blocks() > 0);
    // Fault the first block of the file's data.
    let first = fs
        .lookup(&mut dma_partition(board), &mut bc, "/r.bin")
        .unwrap()
        .first_cluster;
    let sectors = (CLUSTER_SIZE / BLOCK_SIZE) as u64;
    let faulty = u64::from(fs.bpb().data_start) + u64::from(first - FIRST_CLUSTER) * sectors;
    board.sdhost.card.inject_fault(FAT_PARTITION_START + faulty);
    assert!(
        bc.flush(&mut dma_partition(board)).is_err(),
        "the failed chain surfaces at the barrier"
    );
    assert!(
        bc.dirty_blocks() > 0,
        "failed DMA run leaves its blocks dirty for retry"
    );
    assert!(bc.stats().async_write_errors > 0);
    // Card recovers. Before retrying, the file must not be visible on the
    // persisted medium (its chain never completed and, ordered, its
    // metadata never preceded the data).
    board.sdhost.card.clear_faults();
    let remount = |disk: &MemDisk, note: &str| -> Mounted<Fat32> {
        Mounted::new(disk.persisted(), FAT_PARTITION_START, note.into())
    };
    assert_eq!(remount(&board.sdhost.card, "failed").read("/r.bin"), None);
    // The retry drains everything.
    bc.flush(&mut dma_partition(board)).unwrap();
    assert_eq!(bc.dirty_blocks(), 0);
    assert_eq!(
        remount(&board.sdhost.card, "retried").read("/r.bin"),
        Some(data)
    );
}

#[test]
fn fat32_dma_torn_commit_record_through_write_is_ignored_or_replayed() {
    // The kernel-level twin of the torn-record sweep: a whole desktop
    // system with the card in DMA mode, where the commit record rides the
    // queue as one chain inside the write() that closes a group, after the
    // ready drain of the group's data and before its home drain. Cut
    // before the record's last payload, the fresh mount shows every file at
    // its pre-group version; from it on, replay brings every file to its
    // new version, which it could not if the header clear had overtaken
    // the home sectors.
    let n = FAT_GROUP_COMMIT_OPS as usize;
    // The FAT volume is mounted at /d.
    let name = |i: usize| format!("/rec{i}.bin");
    let olds: Vec<Vec<u8>> = (0..n)
        .map(|i| pattern(90 + i as u64, 1, 6 * 1024))
        .collect();
    let news: Vec<Vec<u8>> = (0..n)
        .map(|i| pattern(90 + i as u64, 2, 7 * 1024))
        .collect();
    let put = |sys: &mut ProtoSystem, writer: TaskId, i: usize, data: &[u8]| {
        sys.kernel.with_task_ctx(writer, |ctx| {
            let fd = ctx.open(&format!("/d{}", name(i)), OpenFlags::wronly_create())?;
            ctx.write(fd, data)?;
            ctx.close(fd)
        })
    };
    // A system whose n files are synced at their old version, with n - 1
    // overwrites pending in the group and the last file open: the next
    // write() closes the group.
    let mut sys = ProtoSystem::desktop().unwrap();
    assert!(!sys.kernel.board.sdhost.card.posted_writes());
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    for (i, old) in olds.iter().enumerate() {
        put(&mut sys, writer, i, old).unwrap();
    }
    sys.kernel.sync_all().unwrap();
    for (i, new) in news.iter().enumerate().take(n - 1) {
        put(&mut sys, writer, i, new).unwrap();
    }
    assert_eq!(sys.kernel.fat_group_txns(), n as u64 - 1);
    let last = format!("/d{}", name(n - 1));
    let fd = sys
        .kernel
        .with_task_ctx(writer, |ctx| ctx.open(&last, OpenFlags::wronly_create()))
        .unwrap();
    let cuts = Cuts::record(&mut sys, card, FAT_PARTITION_START, |sys| {
        let closing = sys
            .kernel
            .with_task_ctx(writer, |ctx| ctx.write(fd, &news[n - 1]));
        closing.unwrap();
    });
    // The record is the chain from the header's slot over the payload
    // slots; the commit point is its last block.
    let log = &cuts.log.blocks;
    let header = FAT_PARTITION_START + INTENT_LOG_START;
    let at = log.iter().position(|(lba, _)| *lba == header).unwrap();
    assert_eq!(&log[at].1[..8], TXN_MAGIC, "the header leads the record");
    let in_record = |i: &usize| {
        log.get(at + i)
            .is_some_and(|(lba, _)| *lba == header + *i as u64)
    };
    let k = (1..).take_while(in_record).count();
    assert!(at > 0, "the ready drain persists the pending data first");
    assert!(k >= 2, "the record must carry several payloads, got {k}");
    cuts.sweep::<Fat32>("dma record", 0..=cuts.end(), |j, m| {
        let (want, which) = if j <= at + k {
            (&olds, "pre-group")
        } else {
            (&news, "new")
        };
        for (i, w) in want.iter().enumerate() {
            let got = m.read(&name(i));
            assert!(
                got.as_ref() == Some(w),
                "[{}] {} is not at its {which} version",
                m.note,
                name(i)
            );
        }
    });
}

#[test]
fn xv6fs_new_file_cut_sweep_never_tears() {
    // A new file's create and write commit as one transaction, and its
    // inode drains only after its data and bitmap blocks, so at any cut
    // point of the write and the flush behind it the file is absent or
    // bit-exact — never garbage.
    let data = pattern(9, 1, 20 * 1024);
    let cuts = Vol::xv6(8192, 4096, 128).cuts(|v| {
        v.fs.write_file(&mut v.disk, &mut v.bc, "/a", &data)
            .unwrap();
        v.bc.flush(&mut v.disk).unwrap();
    });
    let (before, after) = cuts.atomic::<Xv6Fs>("new file", 0..=cuts.end());
    assert!(before.get("/a").is_none() && holds(&after, "/a", &data));
}

#[test]
fn xv6fs_offset_write_cut_sweep_keeps_block_maps_consistent() {
    // `sys_write` on the root filesystem is the inode-level `Xv6Fs::write`,
    // which runs outside any transaction. Growing a file from the middle
    // of its direct blocks, within them and on into its indirect block, it
    // must hold its ordering edges at every cut of the drain behind it:
    // each block the inode maps is marked in the bitmap and mapped once,
    // and every byte of the file is its old byte or the written one.
    let old = pattern(3, 1, 5 * BSIZE);
    let offset = 3 * BSIZE + 100;
    for blocks in [6, 16] {
        let data = pattern(3, 2, blocks * BSIZE);
        let new = patched(&old, offset, &data);
        let mut pre = xv6_with_f(&old);
        let Vol { disk, bc, fs } = &mut pre;
        let inum = fs.lookup(disk, bc, "/f").unwrap();
        fs.write(disk, bc, inum, offset as u32, &data).unwrap();
        let cuts = pre.cuts(|v| v.bc.flush(&mut v.disk).unwrap());
        let what = format!("{blocks} blocks written");
        cuts.sweep::<Xv6Fs>(&what, 0..=cuts.end(), |_, m| {
            let got = m.read("/f").unwrap();
            let note = &m.note;
            assert!(
                got.len() == old.len() || got.len() == new.len(),
                "[{note}] /f is {} bytes",
                got.len()
            );
            for (i, b) in got.iter().enumerate() {
                let was = old.get(i).copied().unwrap_or(0);
                assert!(
                    *b == was || *b == new[i],
                    "[{note}] byte {i} of /f is neither old nor new"
                );
            }
        });
    }
}

/// One xv6fs draw of a file create, a directory create or an inode-level
/// [`Xv6Fs::write`] of `data` at a nonzero offset — `sys_write`'s path —
/// recorded in `model` if the call succeeded or the cut interrupted it (it
/// may still land). The creates are journaled transactions, durable on
/// return; the offset write is not, so a cut may leave any mix of its
/// blocks.
fn xv6_draw(v: &mut Vol<Xv6Fs>, rng: &mut Rng, model: &mut Model, name: &str, data: &[u8]) {
    let Vol { disk, bc, fs } = v;
    let (path, state, logged, outcome) = match rng.below(3) {
        0 => {
            let r = fs.create(disk, bc, name, InodeType::File);
            (name.to_string(), file(&[]), true, r.map(drop))
        }
        1 => {
            let dir = ["/d0", "/etc/d1"][rng.below(2) as usize];
            let r = fs.create(disk, bc, dir, InodeType::Dir);
            (dir.to_string(), Some(Node::Dir), true, r.map(drop))
        }
        _ => {
            let Some(Node::File(old)) = model[name].current().clone() else {
                assert!(fs.lookup(disk, bc, name).is_err(), "{name} is absent");
                return;
            };
            let offset = 1 + rng.below(30 * 1024) as usize;
            let r = fs
                .lookup(disk, bc, name)
                .and_then(|inum| fs.write(disk, bc, inum, offset as u32, data));
            (
                name.to_string(),
                file(&patched(&old, offset, data)),
                false,
                r.map(drop),
            )
        }
    };
    let lost = disk.power_lost();
    if outcome.is_err() && !lost {
        return;
    }
    let m = model.get_mut(&path).unwrap();
    m.push(state);
    if !logged {
        m.torn = true;
    } else if !lost {
        barrier(model);
    }
}

/// An xv6fs volume with `/etc`, durably, under a deliberately small cache;
/// the files of a schedule, `root` in `/` and two in `/etc`; and the model
/// of those files and of the two directories a draw may make.
fn xv6_schedule_pre(root: usize) -> (Vol<Xv6Fs>, Vec<String>, Model) {
    let mut disk = MemDisk::new(8192); // 4 MB
    let mut bc = BufCache::with_geometry(4, 8);
    let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
    fs.create(&mut disk, &mut bc, "/etc", InodeType::Dir)
        .unwrap();
    bc.flush(&mut disk).unwrap();
    let names: Vec<String> = (0..root)
        .map(|i| format!("/n{i}"))
        .chain((0..2).map(|i| format!("/etc/c{i}")))
        .collect();
    let model = names
        .iter()
        .map(String::as_str)
        .chain(["/d0", "/etc/d1"])
        .map(|p| (p.to_string(), PathModel::new(None)))
        .collect();
    (Vol { disk, bc, fs }, names, model)
}

/// Seeded xv6fs schedules of journaled writes and unlinks, inode-level
/// offset writes, creates, flushes and budgeted drains, each ended by a
/// power cut somewhere in its first blocks: every completed journaled op
/// is durable on return (group size 1 commits through the device
/// barrier), an interrupted one lands old XOR new, and no visible file
/// holds bytes matching no written version. The fsck invariants cover the
/// bitmap too: an overwrite's truncate and rewrite commit as one
/// transaction, so its frees never land before the inode stops mapping
/// the blocks.
fn xv6_random_schedules(posted: bool) {
    let (first, seeds, root, cut_range, ops, max_kb) = match posted {
        false => (7000, 40, 4, 1500, 30, 30),
        true => (9100, 25, 3, 1200, 25, 20),
    };
    for seed in first..first + seeds {
        let mut rng = Rng::new(seed);
        let (mut vol, names, mut model) = xv6_schedule_pre(root);
        vol.disk.set_posted_writes(posted);
        let mut version = 0u64;
        let cut_after = rng.below(cut_range);
        let cuts = vol.cuts(|v| {
            v.disk.power_cut_after(cut_after);
            for _op in 0..ops {
                if v.disk.power_lost() {
                    break;
                }
                let name = names[rng.below(names.len() as u64) as usize].clone();
                let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
                let op = rng.below(12);
                if let 6..=8 = op {
                    version += 1;
                    let data = pattern(file_id, version, 1 + rng.below(8 * 1024) as usize);
                    xv6_draw(v, &mut rng, &mut model, &name, &data);
                    continue;
                }
                let Vol { disk, bc, fs } = &mut *v;
                let (r, state) = match op {
                    9 => {
                        if bc.flush(disk).is_ok() && !disk.power_lost() {
                            barrier(&mut model);
                        }
                        continue;
                    }
                    0..=4 => {
                        version += 1;
                        let len = 1 + rng.below(max_kb * 1024) as usize;
                        let data = pattern(file_id, version, len);
                        (fs.write_file(disk, bc, &name, &data).map(drop), file(&data))
                    }
                    5 => (fs.unlink(disk, bc, &name), None),
                    _ => {
                        let _ = bc.flush_some(disk, 8 + rng.below(80));
                        continue;
                    }
                };
                if r.is_ok() || disk.power_lost() {
                    model.get_mut(&name).unwrap().push(state);
                }
                if r.is_ok() {
                    barrier(&mut model);
                }
            }
        });
        cuts.sweep::<Xv6Fs>(&format!("seed {seed}"), [cuts.end()], |_, m| {
            m.check(&model);
        });
    }
}

#[test]
fn xv6fs_random_cut_schedules_remount_cleanly_and_keep_durable_data() {
    xv6_random_schedules(false);
}

// ---- journaled xv6fs + posted device write cache ---------------------------
//
// The sweeps below run against a device whose completed writes sit in a
// volatile posted cache until a FLUSH barrier — the model under which a
// missing barrier is an observable bug, not a latent one. The journal's
// commit protocol (drain data, log payloads, FLUSH, apply home, header
// clear, FLUSH) makes every metadata operation old-XOR-new: a dangling
// dirent and a half-applied overwrite are asserted impossible here, at
// every prefix of the log, inside a FLUSH too, as a card that programs its
// cache in any order allows.

#[test]
fn xv6fs_journaled_overwrite_cut_sweep_is_old_xor_new_on_a_posted_device() {
    // The in-place-overwrite torn state, killed: a cut anywhere in a
    // journaled overwrite shows strict old XOR new — never empty (the
    // truncated middle state), never a mix — and a completed op is durable
    // (group size 1).
    let old = pattern(1, 1, 6 * 1024);
    let new = pattern(1, 2, 3 * 1024);
    let mut pre = xv6_with_f(&old);
    assert!(pre.fs.superblock().nlog > 0, "mkfs must write a log");
    pre.disk.set_posted_writes(true);
    let cuts = pre.cuts(|v| {
        v.fs.write_file(&mut v.disk, &mut v.bc, "/f", &new).unwrap();
    });
    let (before, after) = cuts.atomic::<Xv6Fs>("posted overwrite", 0..=cuts.end());
    assert!(holds(&before, "/f", &old) && holds(&after, "/f", &new));
}

#[test]
fn xv6fs_journaled_create_cut_sweep_has_no_dangling_dirents() {
    // The dangling-dirent torn state, killed: at every cut point during a
    // journaled create, every dirent resolves to an allocated inode (the
    // fsck invariants), and the create lands whole or not at all.
    let data = pattern(2, 1, 2 * 1024);
    let mut pre = Vol::xv6(8192, 4096, 128);
    let Vol { disk, bc, fs } = &mut pre;
    fs.create(disk, bc, "/etc", InodeType::Dir).unwrap();
    bc.flush(disk).unwrap();
    disk.set_posted_writes(true);
    let cuts = pre.cuts(|v| {
        v.fs.write_file(&mut v.disk, &mut v.bc, "/etc/conf", &data)
            .unwrap();
    });
    let (before, after) = cuts.atomic::<Xv6Fs>("posted create", 0..=cuts.end());
    assert!(before.get("/etc/conf").is_none() && holds(&after, "/etc/conf", &data));
}

#[test]
fn xv6fs_random_posted_cut_schedules_are_atomic_and_durable_per_op() {
    xv6_random_schedules(true);
}

#[test]
fn fat32_logged_overwrite_cut_sweep_survives_a_posted_write_cache() {
    // The FAT32 client of the same transaction layer, on the same posted
    // device: the intent log's barriers must hold old XOR new even when
    // un-flushed writes can vanish wholesale.
    let old = pattern(4, 1, 24 * 1024);
    let new = pattern(4, 2, 30 * 1024);
    let mut pre = fat_with(&[("/v.bin", &old)]);
    pre.disk.set_posted_writes(true);
    let cuts = pre.cuts(|v| {
        v.fs.write_file(&mut v.disk, &mut v.bc, "/v.bin", &new)
            .unwrap();
    });
    let (before, after) = cuts.atomic::<Fat32>("posted overwrite", 0..=cuts.end());
    assert!(holds(&before, "/V.BIN", &old) && holds(&after, "/V.BIN", &new));
}

#[test]
fn posted_cache_without_a_flush_barrier_is_not_durable() {
    // Barrier elision made observable: draining the OS cache with budgeted
    // `flush_some` passes (which never emit a device FLUSH) leaves every
    // block in the device's volatile cache — a cut loses all of it. The
    // same drain through `flush` (which ends with the barrier) survives.
    let data = pattern(7, 1, 8 * 1024);
    let mut pre = Vol::xv6(4096, 2048, 64);
    // Create durably, then append content through the *raw* inode-level
    // write — the one path with no transaction (and so no barrier) of its
    // own. The drain strategy below is the only durability point.
    let Vol { disk, bc, fs } = &mut pre;
    let inum = fs.create(disk, bc, "/x", InodeType::File).unwrap();
    bc.flush(disk).unwrap();
    disk.set_posted_writes(true);
    for (use_barrier, want) in [(false, Vec::new()), (true, data.clone())] {
        let cuts = pre.cuts(|Vol { disk, bc, fs }| {
            fs.write(disk, bc, inum, 0, &data).unwrap();
            if use_barrier {
                bc.flush(disk).unwrap();
            } else {
                while bc.dirty_blocks() > 0 {
                    bc.flush_some(disk, 64).unwrap();
                }
                assert!(
                    disk.cached_blocks() > 0,
                    "the drain parked writes in the device cache"
                );
            }
        });
        cuts.sweep::<Xv6Fs>("a cut after the drain", [cuts.end()], |_, m| {
            assert_eq!(m.read("/x"), Some(want.clone()), "barrier {use_barrier}");
        });
    }
}

#[test]
fn xv6fs_freed_blocks_are_fenced_until_durable_then_reused() {
    // Reuse-after-commit: a freed block stays fenced (`note_pending_free`)
    // until the free is durable, and the unlink's commit makes it so.
    // Filling the volume, unlinking, and immediately rewriting must succeed
    // by reusing the unlinked file's blocks, never by handing out a block a
    // durable inode still owns.
    let Vol {
        mut disk,
        mut bc,
        fs,
    } = Vol::xv6(512, 256, 64); // 256 KB => 256 fs blocks
    let free = fs.free_blocks(&mut disk, &mut bc).unwrap();
    assert!(free > 30, "layout sanity");
    let big = pattern(5, 1, (free as usize - 8) * 1024);
    fs.write_file(&mut disk, &mut bc, "/big", &big).unwrap();
    bc.flush(&mut disk).unwrap();
    fs.unlink(&mut disk, &mut bc, "/big").unwrap();
    // The rewrite needs nearly every block the unlink freed: it succeeds
    // only if the commit released them, and its contents are correct.
    let big2 = pattern(5, 2, (free as usize - 8) * 1024);
    fs.write_file(&mut disk, &mut bc, "/big2", &big2).unwrap();
    assert_eq!(fs.read_file(&mut disk, &mut bc, "/big2").unwrap(), big2);
    assert!(matches!(
        fs.read_file(&mut disk, &mut bc, "/big"),
        Err(FsError::NotFound(_))
    ));
}

#[test]
fn xv6fs_overwrite_cut_sweep_is_old_xor_new_or_refused_untouched() {
    // An overwrite's truncated blocks stay fenced until its transaction
    // commits, so the new contents must fit beside the old ones. On the
    // 256-block volume a same-size 78 KB overwrite fits and lands old XOR
    // new at every cut; 127 and 214 KB do not, and the overwrite fails
    // with NoSpace before it persists anything, even through a flush.
    for (kb, fits) in [(78, true), (127, false), (214, false)] {
        let old = pattern(8, 1, kb * 1024);
        let new = pattern(8, 2, kb * 1024);
        let mut pre = Vol::xv6(512, 256, 64);
        pre.fs
            .write_file(&mut pre.disk, &mut pre.bc, "/f", &old)
            .unwrap();
        pre.bc.flush(&mut pre.disk).unwrap();
        let what = format!("{kb} KB");
        let cuts = pre.cuts(|v| {
            let res = v.fs.write_file(&mut v.disk, &mut v.bc, "/f", &new);
            if fits {
                assert!(res.is_ok(), "[{what}] the overwrite fits: {res:?}");
            } else {
                assert!(
                    matches!(res, Err(FsError::NoSpace)),
                    "[{what}] does not fit: {res:?}"
                );
                v.bc.flush(&mut v.disk).unwrap();
            }
        });
        if fits {
            let (before, after) = cuts.atomic::<Xv6Fs>(&what, 0..=cuts.end());
            assert!(holds(&before, "/f", &old) && holds(&after, "/f", &new));
        } else {
            // Its flush rewrites nothing: the undo put the blocks it had
            // found clean back clean.
            assert_eq!(
                cuts.end(),
                0,
                "[{what}] a refused overwrite persisted blocks"
            );
            let image = cuts.image(cuts.end()).image();
            assert!(
                image == cuts.pre.image(),
                "[{what}] a refused overwrite changed the medium"
            );
            cuts.sweep::<Xv6Fs>(&what, [cuts.end()], |_, m| {
                assert_eq!(m.read("/f"), Some(old.clone()))
            });
        }
    }
}

#[test]
fn xv6fs_unlink_rewrite_cut_sweep_never_tears_the_durable_old_file() {
    // The crash half of the reuse fence: cut anywhere during an
    // unlink-then-rewrite that recycles the old file's blocks, and the
    // durable old file is either bit-exact or cleanly absent — its blocks
    // were never clobbered while a durable dirent still reached them.
    let mut pre = Vol::xv6(512, 256, 64);
    let free = pre.fs.free_blocks(&mut pre.disk, &mut pre.bc).unwrap();
    let big = pattern(6, 1, (free as usize - 8) * 1024);
    let big2 = pattern(6, 2, (free as usize - 8) * 1024);
    pre.fs
        .write_file(&mut pre.disk, &mut pre.bc, "/big", &big)
        .unwrap();
    pre.bc.flush(&mut pre.disk).unwrap();
    let cuts = pre.cuts(|Vol { disk, bc, fs }| {
        fs.unlink(disk, bc, "/big").unwrap();
        fs.write_file(disk, bc, "/big2", &big2).unwrap();
    });
    let n = cuts.end();
    cuts.sweep::<Xv6Fs>("unlink, rewrite", 0..=n, |k, m| {
        let olds = ("/big", vec![file(&big), None]);
        m.check(&model([olds, ("/big2", vec![None, file(&big2)])], k == n));
    });
}

/// `op` on `state` with a real power cut armed after `k` blocks and the
/// persist log on: the op's result, what persisted, and whether the cut
/// fired.
fn cut_at<S, R>(
    state: &mut S,
    disk: fn(&mut S) -> &mut MemDisk,
    k: usize,
    op: impl FnOnce(&mut S) -> R,
) -> (R, PersistLog, bool) {
    disk(state).power_cut_after(k as u64);
    disk(state).start_log();
    let result = op(state);
    let fired = disk(state).power_lost();
    disk(state).power_restored();
    (result, disk(state).take_log(), fired)
}

#[test]
fn real_cuts_persist_what_the_log_says() {
    // A polled disk: a FAT32 overwrite and its flush. A cut after k blocks
    // persists the log's first k, the barrier of a cut op fails, and the
    // disk is the pre-state's with those blocks applied.
    let pre = fat_with(&[("/v.bin", &pattern(1, 1, 24 * 1024))]);
    let op = |v: &mut Vol<Fat32>| {
        let new = pattern(1, 2, 30 * 1024);
        v.fs.write_file(&mut v.disk, &mut v.bc, "/v.bin", &new)?;
        v.sync()
    };
    let cuts = pre.cuts(|v| op(v).unwrap());
    for k in 0..=cuts.end() {
        let mut v = pre.clone();
        let (result, log, fired) = cut_at(&mut v, |v| &mut v.disk, k, op);
        assert_eq!(log.blocks, cuts.log.blocks[..k], "polled cut {k}");
        let cut = k < cuts.end();
        assert_eq!((result.is_err(), fired), (cut, cut), "polled cut {k}");
        assert!(v.disk.image() == cuts.image(k).image(), "polled cut {k}");
    }

    // A torn commit record: the record is one range command, header first,
    // and a cut inside it tears that command.
    let (pre, targets, _) = torn_record_setup();
    for j in 1..=targets.len() {
        let mut v = pre.clone();
        let before = v.disk.stats();
        let (result, log, _) = cut_at(
            &mut v,
            |v| &mut v.disk,
            j,
            |v| v.fs.commit_pending(&mut v.disk, &mut v.bc),
        );
        assert_eq!(log.blocks.len(), j, "record cut {j}");
        assert_eq!(
            &log.blocks[0].1[..8],
            TXN_MAGIC,
            "record cut {j}: the header leads"
        );
        let after = v.disk.stats();
        let cmds = (
            after.range_cmds - before.range_cmds,
            after.single_cmds - before.single_cmds,
        );
        assert_eq!(cmds, (1, 0), "record cut {j}: the record is one command");
        assert!(
            result.is_err() && v.disk.torn_writes() == 1,
            "record cut {j} tears it"
        );
    }

    // A posted disk: a journaled xv6fs overwrite. The cut counts the blocks
    // the cache accepted and a FLUSH persists whole, so a cut leaves a
    // prefix of the log that ends at a FLUSH.
    let mut pre = xv6_with_f(&pattern(1, 1, 6 * 1024));
    pre.disk.set_posted_writes(true);
    let op = |v: &mut Vol<Xv6Fs>| {
        let new = pattern(1, 2, 3 * 1024);
        v.fs.write_file(&mut v.disk, &mut v.bc, "/f", &new)
    };
    let cuts = pre.cuts(|v| {
        op(v).unwrap();
    });
    let mut prefixes = Vec::new();
    for k in 0.. {
        let mut v = pre.clone();
        let (result, log, fired) = cut_at(&mut v, |v| &mut v.disk, k, op);
        let n = log.blocks.len();
        assert!(
            n == 0 || cuts.log.flushes.contains(&n),
            "posted cut {k} ends inside a FLUSH"
        );
        assert_eq!(log.blocks, cuts.log.blocks[..n], "posted cut {k}");
        assert!(v.disk.image() == cuts.image(n).image(), "posted cut {k}");
        prefixes.push(n);
        if !fired {
            assert!(result.is_ok() && n == cuts.end(), "the uncut op completes");
            break;
        }
    }
    prefixes.dedup();
    assert!(prefixes.len() > 2, "the cuts leave several FLUSH prefixes");

    // The SD card in DMA mode, through the kernel: a torn chain fails the
    // barrier, and its blocks stay dirty for a retry.
    let pre = desktop_with_unsynced_file(&pattern(21, 1, 16 * 1024));
    let dirty = pre.kernel.fat_cache().unwrap().dirty_blocks();
    let op = |sys: &mut ProtoSystem| sys.kernel.sync_all();
    let cuts = Cuts::record(&mut pre.fork().unwrap(), card, FAT_PARTITION_START, |sys| {
        op(sys).unwrap();
    });
    let mut torn = 0;
    for k in 0..=cuts.end() {
        let mut sys = pre.fork().unwrap();
        let (result, log, _) = cut_at(&mut sys, card, k, op);
        assert_eq!(log.blocks, cuts.log.blocks[..k], "dma cut {k}");
        let mut image = cuts.image(k);
        for &(lba, _) in &cuts.log.blocks {
            assert_eq!(
                sector(card(&mut sys), lba),
                sector(&mut image, lba),
                "dma cut {k}"
            );
        }
        if k < cuts.end() {
            assert!(result.is_err(), "dma cut {k} must fail the barrier");
            let left = sys.kernel.fat_cache().unwrap().dirty_blocks();
            assert!(
                left >= dirty - k,
                "dma cut {k}: unconfirmed blocks stay dirty for retry"
            );
        }
        torn += card(&mut sys).torn_writes();
    }
    assert!(
        torn > 0,
        "the sweep tears a scatter-gather chain mid-transfer"
    );
}
