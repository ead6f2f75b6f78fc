//! Crash-consistency tests for the ordered write-back pipeline: randomized
//! write/flush/power-cut schedules (a seeded-PRNG stand-in for a property
//! testing crate — the build environment is offline) plus a deterministic
//! exhaustive cut-point sweep that demonstrates the LBA-order bug the
//! dependency-ordered drain fixes.
//!
//! The invariants, checked by remounting the *persisted* image under a fresh
//! cache after every simulated cut:
//!
//! * the remount itself always succeeds (intent-log replay included);
//! * no dirent references an unwritten or free cluster — every visible
//!   file's contents equal some version that was actually written;
//! * no two files share a cluster, and every chain terminates inside the
//!   data area;
//! * data made durable (fsync, or a logged metadata operation, both full
//!   barriers) and not modified afterwards is intact bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};

use proto_repro::hal::clock::Clock;
use proto_repro::hal::cost::CostModel;
use proto_repro::hal::dma::DmaEngine;
use proto_repro::hal::sdhost::{SdDataMode, SdHost};
use proto_repro::kernel::kernel::{FAT_GROUP_COMMIT_OPS, FAT_PARTITION_START};
use proto_repro::kernel::{OpenFlags, TaskId};
use proto_repro::proto::prototype::ProtoSystem;
use proto_repro::protofs::block::{SdBlockDevice, SdDmaCtx};
use proto_repro::protofs::bufcache::BufCache;
use proto_repro::protofs::fat32::{Bpb, Fat32, FIRST_CLUSTER, INTENT_LOG_START};
use proto_repro::protofs::txn::TXN_MAGIC;
use proto_repro::protofs::xv6fs::{InodeType, Xv6Fs};
use proto_repro::protofs::{BlockDevice, FsError, MemDisk, BLOCK_SIZE};

/// A tiny SplitMix64-style generator: deterministic, seedable.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = z;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Distinguishable file contents: every (file, version) pair yields a unique
/// byte stream, so a remounted file identifies exactly which version (if
/// any) it holds.
fn pattern(file_id: u64, version: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((file_id * 131 + version * 29 + i as u64) % 251) as u8)
        .collect()
}

/// Per-path model state across a schedule.
#[derive(Default)]
struct PathModel {
    /// Every state this path has been in (None = absent). Index 0 is the
    /// initial "never existed" state.
    states: Vec<Option<Vec<u8>>>,
    /// Index of the state captured at the last completed durability barrier.
    committed: usize,
    /// Whether the path changed since that barrier.
    dirty_since_barrier: bool,
}

impl PathModel {
    fn new() -> Self {
        PathModel {
            states: vec![None],
            committed: 0,
            dirty_since_barrier: false,
        }
    }

    fn current(&self) -> &Option<Vec<u8>> {
        self.states.last().unwrap()
    }

    fn push(&mut self, state: Option<Vec<u8>>) {
        self.states.push(state);
        self.dirty_since_barrier = true;
    }
}

type Model = BTreeMap<String, PathModel>;

fn barrier(model: &mut Model) {
    for m in model.values_mut() {
        m.committed = m.states.len() - 1;
        m.dirty_since_barrier = false;
    }
}

/// Reads one FAT entry straight from the persisted image.
fn raw_fat_entry(disk: &mut dyn BlockDevice, bpb: &Bpb, cluster: u32) -> u32 {
    let byte = cluster as u64 * 4;
    let sector = bpb.fat_start as u64 + byte / BLOCK_SIZE as u64;
    let off = (byte % BLOCK_SIZE as u64) as usize;
    let mut buf = vec![0u8; BLOCK_SIZE];
    disk.read_block(sector, &mut buf).unwrap();
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) & 0x0FFF_FFFF
}

/// Walks every file reachable from the FAT root and checks the structural
/// invariants; returns the visible (path, contents) pairs.
fn check_fat_structure(
    disk: &mut dyn BlockDevice,
    bc: &mut BufCache,
    fs: &Fat32,
    seed_note: &str,
) -> Vec<(String, Vec<u8>)> {
    let bpb = fs.bpb();
    let mut seen_clusters: BTreeSet<u32> = BTreeSet::new();
    let mut visible = Vec::new();
    let mut dirs = vec![String::from("/")];
    while let Some(dir) = dirs.pop() {
        let entries = fs
            .list_dir(disk, bc, &dir)
            .unwrap_or_else(|e| panic!("[{seed_note}] listing {dir} failed: {e}"));
        for e in entries {
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{}/{}", dir, e.name)
            };
            if e.first_cluster != 0 {
                // Chain invariants: in-range, allocated, acyclic, unshared,
                // and long enough for the dirent's size.
                let mut c = e.first_cluster;
                let mut len = 0u64;
                let limit = bpb.cluster_count as u64 + 2;
                while (FIRST_CLUSTER..0x0FFF_FFF8).contains(&c) {
                    assert!(
                        c < FIRST_CLUSTER + bpb.cluster_count,
                        "[{seed_note}] {path}: chain leaves the data area at {c}"
                    );
                    assert!(
                        seen_clusters.insert(c),
                        "[{seed_note}] {path}: cluster {c} cross-linked between files"
                    );
                    let next = raw_fat_entry(disk, &bpb, c);
                    assert_ne!(
                        next, 0,
                        "[{seed_note}] {path}: chain references FREE cluster after {c}"
                    );
                    len += 1;
                    assert!(len <= limit, "[{seed_note}] {path}: FAT chain cycle");
                    c = next;
                }
                if !e.is_dir {
                    let clusters_needed = (e.size as u64).div_ceil(CLUSTER_BYTES);
                    assert!(
                        len >= clusters_needed,
                        "[{seed_note}] {path}: size {} needs {clusters_needed} clusters, chain has {len}",
                        e.size
                    );
                }
            }
            if e.is_dir {
                dirs.push(path);
            } else {
                let content = fs
                    .read_file(disk, bc, &path)
                    .unwrap_or_else(|err| panic!("[{seed_note}] reading {path} failed: {err}"));
                visible.push((path, content));
            }
        }
    }
    visible
}

const CLUSTER_BYTES: u64 = proto_repro::protofs::fat32::CLUSTER_SIZE as u64;

#[test]
fn fat32_random_torn_cut_schedules_preserve_the_invariants() {
    for seed in 0..60u64 {
        let mut rng = Rng::new(1000 + seed);
        // 8 MB volume, deliberately small cache (4 shards x 8 extents =
        // 128 KB) so schedules exercise eviction paths too.
        let mut disk = MemDisk::new(16 * 1024);
        let mut bc = BufCache::with_geometry(4, 8);
        let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
        fs.create(&mut disk, &mut bc, "/SUB", true).unwrap();
        bc.flush(&mut disk).unwrap();

        // FAT stores 8.3 names upper-cased; keep the model keyed the same
        // way so remounted listings match directly.
        let names: Vec<String> = (0..4)
            .map(|i| format!("/F{i}.BIN"))
            .chain((0..2).map(|i| format!("/SUB/G{i}.BIN")))
            .collect();
        let mut model: Model = names
            .iter()
            .map(|n| (n.clone(), PathModel::new()))
            .collect();
        let mut version = 0u64;

        // Arm the cut: somewhere within the first few thousand persisted
        // blocks (some seeds never reach it — those validate the quiescent
        // path).
        let cut_after = rng.below(2500);
        disk.power_cut_after(cut_after);

        for _op in 0..40 {
            if disk.power_lost() {
                break;
            }
            let which = rng.below(10);
            let name = names[rng.below(names.len() as u64) as usize].clone();
            let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
            match which {
                // Write (create or overwrite).
                0..=4 => {
                    version += 1;
                    let len = 1 + rng.below(40 * 1024) as usize;
                    let data = pattern(file_id, version, len);
                    let was_present = model[&name].current().is_some();
                    match fs.write_file(&mut disk, &mut bc, &name, &data) {
                        Ok(()) => {
                            model.get_mut(&name).unwrap().push(Some(data));
                            if was_present && !disk.power_lost() {
                                // Overwrites are logged transactions: a full
                                // durability barrier on success.
                                barrier(&mut model);
                            }
                        }
                        // An op interrupted by the cut may still land via
                        // intent-log replay at mount: record the attempted
                        // state as a legitimate outcome (old XOR new).
                        Err(_) if disk.power_lost() => {
                            model.get_mut(&name).unwrap().push(Some(data));
                        }
                        Err(_) => {}
                    }
                }
                // Remove (logged; barrier on success).
                5 => match fs.remove(&mut disk, &mut bc, &name) {
                    Ok(()) => {
                        model.get_mut(&name).unwrap().push(None);
                        if !disk.power_lost() {
                            barrier(&mut model);
                        }
                    }
                    Err(_) if disk.power_lost() => {
                        model.get_mut(&name).unwrap().push(None);
                    }
                    Err(_) => {}
                },
                // Rename (logged; barrier on success).
                6 => {
                    let to = names[rng.below(names.len() as u64) as usize].clone();
                    if to == name {
                        continue;
                    }
                    let moved = model[&name].current().clone();
                    match fs.rename(&mut disk, &mut bc, &name, &to) {
                        Ok(()) => {
                            model.get_mut(&name).unwrap().push(None);
                            model.get_mut(&to).unwrap().push(moved);
                            if !disk.power_lost() {
                                barrier(&mut model);
                            }
                        }
                        Err(_) if disk.power_lost() => {
                            model.get_mut(&name).unwrap().push(None);
                            model.get_mut(&to).unwrap().push(moved);
                        }
                        Err(_) => {}
                    }
                }
                // fsync / sync_all.
                7 => {
                    if bc.flush(&mut disk).is_ok() && !disk.power_lost() {
                        barrier(&mut model);
                    }
                }
                // Background flusher ticks with a random budget.
                _ => {
                    let _ = bc.flush_some(&mut disk, 8 + rng.below(120));
                }
            }
        }

        // "Power cut": remount exactly what persisted, under a fresh cache.
        disk.power_restored();
        let image = disk.image().to_vec();
        let mut disk2 = MemDisk::from_image(image);
        let mut bc2 = BufCache::default();
        let note = format!("seed {seed}, cut {cut_after}");
        let fs2 = Fat32::mount(&mut disk2, &mut bc2)
            .unwrap_or_else(|e| panic!("[{note}] remount failed: {e}"));
        let visible = check_fat_structure(&mut disk2, &mut bc2, &fs2, &note);

        // Every visible file holds exactly one historically written version
        // — never zeros, garbage, or a torn mix.
        for (path, content) in &visible {
            let m = model
                .get(path)
                .unwrap_or_else(|| panic!("[{note}] unexpected file {path}"));
            assert!(
                m.states
                    .iter()
                    .any(|s| s.as_ref().is_some_and(|v| v == content)),
                "[{note}] {path} holds {} bytes matching no written version",
                content.len()
            );
        }
        // Durable-and-unmodified paths are exact.
        for (path, m) in &model {
            if m.dirty_since_barrier {
                continue;
            }
            let committed = &m.states[m.committed];
            let found = visible.iter().find(|(p, _)| p == path).map(|(_, c)| c);
            match committed {
                Some(v) => assert_eq!(
                    found,
                    Some(v),
                    "[{note}] durable file {path} lost or changed after the cut"
                ),
                None => assert!(
                    found.is_none(),
                    "[{note}] durably removed file {path} resurrected"
                ),
            }
        }
        // The schedules never rely on the ordering escape hatch.
        assert_eq!(
            bc.stats().forced_meta_writes,
            0,
            "[{note}] drain hit a dependency cycle"
        );
    }
}

#[test]
fn fat32_ordering_regression_exhaustive_cut_sweep() {
    // The deterministic regression for the PR's headline bug. A new file's
    // dirty blocks are: FAT sectors and the root-directory sector at low
    // LBAs, data clusters at high LBAs — so the pre-ordering pure-LBA drain
    // writes the metadata *first*, and a cut between them publishes a file
    // whose clusters never reached the device. The sweep cuts the flush
    // after every possible block count k and remounts:
    //   ordered off -> the dangling file MUST appear for some k (the bug);
    //   ordered on  -> for every k the file is absent or bit-exact.
    let mut dangling_without_ordering = 0u32;
    for ordered in [true, false] {
        let data = pattern(7, 1, 16 * 1024);
        // Dry run to learn the dirty-block count of the scenario.
        let total = {
            let (mut disk, mut bc, fs) = fresh_fat(ordered);
            fs.write_file(&mut disk, &mut bc, "/a.bin", &data).unwrap();
            bc.dirty_blocks() as u64
        };
        assert!(total > 8, "scenario should span FAT + dirent + data");
        for k in 0..=total {
            let (mut disk, mut bc, fs) = fresh_fat(ordered);
            fs.write_file(&mut disk, &mut bc, "/a.bin", &data).unwrap();
            disk.power_cut_after(k);
            let flush = bc.flush(&mut disk);
            if k < total {
                assert!(flush.is_err(), "cut at {k}/{total} must fail the flush");
            }
            disk.power_restored();
            let mut disk2 = MemDisk::from_image(disk.image().to_vec());
            let mut bc2 = BufCache::default();
            let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
            match fs2.lookup(&mut disk2, &mut bc2, "/a.bin") {
                Err(FsError::NotFound(_)) => {} // old tree: always legal
                Ok(e) => {
                    let content = fs2.read_file(&mut disk2, &mut bc2, "/a.bin");
                    let intact = content.as_ref().map(|c| c == &data).unwrap_or(false);
                    if ordered {
                        assert!(
                            intact,
                            "ordered drain, cut at {k}/{total}: visible file must be \
                             complete (size {}, read {:?} bytes)",
                            e.size,
                            content.map(|c| c.len())
                        );
                    } else if !intact {
                        dangling_without_ordering += 1;
                    }
                }
                Err(e) => panic!("cut at {k}/{total}: lookup failed oddly: {e}"),
            }
        }
    }
    assert!(
        dangling_without_ordering > 0,
        "the pre-ordering LBA drain must exhibit the dangling-file bug"
    );
}

fn fresh_fat(ordered: bool) -> (MemDisk, BufCache, Fat32) {
    let mut disk = MemDisk::new(8 * 1024);
    let mut bc = BufCache::default();
    bc.set_ordered_writeback(ordered);
    let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
    bc.flush(&mut disk).unwrap();
    (disk, bc, fs)
}

#[test]
fn fat32_cut_during_logged_overwrite_yields_old_or_new_never_a_mix() {
    // Overwrites run through the intent log: sweep a cut across the entire
    // overwrite + commit and require strict old-xor-new contents.
    let old = pattern(1, 1, 24 * 1024);
    let new = pattern(1, 2, 30 * 1024);
    // Learn an upper bound on the blocks the overwrite persists.
    let total = {
        let (mut disk, mut bc, fs) = fresh_fat(true);
        fs.write_file(&mut disk, &mut bc, "/v.bin", &old).unwrap();
        bc.flush(&mut disk).unwrap();
        let before = disk.stats().blocks;
        fs.write_file(&mut disk, &mut bc, "/v.bin", &new).unwrap();
        disk.stats().blocks - before
    };
    let mut saw_old = false;
    let mut saw_new = false;
    for k in (0..=total).step_by(3) {
        let (mut disk, mut bc, fs) = fresh_fat(true);
        fs.write_file(&mut disk, &mut bc, "/v.bin", &old).unwrap();
        bc.flush(&mut disk).unwrap();
        disk.power_cut_after(k);
        let _ = fs.write_file(&mut disk, &mut bc, "/v.bin", &new);
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        let content = fs2.read_file(&mut disk2, &mut bc2, "/v.bin").unwrap();
        if content == old {
            saw_old = true;
        } else if content == new {
            saw_new = true;
        } else {
            panic!(
                "cut at {k}/{total}: overwrite left {} bytes matching neither version",
                content.len()
            );
        }
    }
    assert!(saw_old, "early cuts must preserve the old contents");
    assert!(saw_new, "the uncut run must land the new contents");
}

#[test]
fn fat32_large_overwrite_spanning_many_fat_sectors_stays_atomic() {
    // The flagship-asset case: overwriting a multi-megabyte file touches
    // many FAT sectors for both chains (one sector per 512 KB), and must
    // still fit one intent-log record — a cut anywhere yields old XOR new.
    let old = pattern(11, 1, 4 * 1024 * 1024);
    let new = pattern(11, 2, 3 * 1024 * 1024 + 4096);
    let total = {
        let mut disk = MemDisk::new(32 * 1024);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
        bc.flush(&mut disk).unwrap();
        fs.write_file(&mut disk, &mut bc, "/DOOM.WAD", &old)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        let before = disk.stats().blocks;
        fs.write_file(&mut disk, &mut bc, "/DOOM.WAD", &new)
            .unwrap();
        disk.stats().blocks - before
    };
    let mut saw_old = false;
    let mut saw_new = false;
    // Sample the cut across the whole transaction, denser near the end
    // where the log commit and metadata drain happen.
    let step = (total / 8).max(1);
    let cuts: Vec<u64> = (0..=total)
        .step_by(step as usize)
        .chain((total.saturating_sub(30)..=total).step_by(5))
        .collect();
    for k in cuts {
        let mut disk = MemDisk::new(32 * 1024);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
        bc.flush(&mut disk).unwrap();
        fs.write_file(&mut disk, &mut bc, "/DOOM.WAD", &old)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        disk.power_cut_after(k);
        let _ = fs.write_file(&mut disk, &mut bc, "/DOOM.WAD", &new);
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        let content = fs2.read_file(&mut disk2, &mut bc2, "/DOOM.WAD").unwrap();
        if content == old {
            saw_old = true;
        } else if content == new {
            saw_new = true;
        } else {
            panic!(
                "cut at {k}/{total}: large overwrite left {} bytes matching neither version",
                content.len()
            );
        }
    }
    assert!(saw_old && saw_new, "sweep must cover both outcomes");
}

#[test]
fn fat32_cut_during_rename_leaves_exactly_one_intact_name() {
    let data = pattern(3, 1, 12 * 1024);
    let total = {
        let (mut disk, mut bc, fs) = fresh_fat(true);
        fs.write_file(&mut disk, &mut bc, "/src.bin", &data)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        let before = disk.stats().blocks;
        fs.rename(&mut disk, &mut bc, "/src.bin", "/dst.bin")
            .unwrap();
        disk.stats().blocks - before
    };
    for k in 0..=total {
        let (mut disk, mut bc, fs) = fresh_fat(true);
        fs.write_file(&mut disk, &mut bc, "/src.bin", &data)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        disk.power_cut_after(k);
        let _ = fs.rename(&mut disk, &mut bc, "/src.bin", "/dst.bin");
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        let src = fs2.read_file(&mut disk2, &mut bc2, "/src.bin");
        let dst = fs2.read_file(&mut disk2, &mut bc2, "/dst.bin");
        match (src, dst) {
            (Ok(c), Err(FsError::NotFound(_))) => assert_eq!(c, data, "cut {k}: src torn"),
            (Err(FsError::NotFound(_)), Ok(c)) => assert_eq!(c, data, "cut {k}: dst torn"),
            (s, d) => panic!(
                "cut at {k}/{total}: rename left src={:?} dst={:?}",
                s.map(|c| c.len()),
                d.map(|c| c.len())
            ),
        }
    }
}

#[test]
fn fat32_group_committed_burst_cut_sweep_is_old_xor_new_per_txn() {
    // Four logged overwrites fold into ONE commit record (group of 4). The
    // burst performs no device I/O until the group's commit point, so a cut
    // at every persisted-block prefix of the batched commit must leave each
    // file strictly old XOR new — never a blend — and, since the whole
    // group commits through one checksummed record, the only transition the
    // sweep may observe is all-old -> all-new.
    let n_files = 4usize;
    let name = |i: usize| format!("/G{i}.BIN");
    let olds: Vec<Vec<u8>> = (0..n_files)
        .map(|i| pattern(40 + i as u64, 1, 12 * 1024))
        .collect();
    let news: Vec<Vec<u8>> = (0..n_files)
        .map(|i| pattern(40 + i as u64, 2, 9 * 1024))
        .collect();
    let setup = || {
        let (mut disk, mut bc, mut fs) = fresh_fat(true);
        for (i, old) in olds.iter().enumerate() {
            fs.write_file(&mut disk, &mut bc, &name(i), old).unwrap();
        }
        bc.flush(&mut disk).unwrap();
        fs.set_group_commit_ops(n_files as u32);
        (disk, bc, fs)
    };
    // Dry run: learn the burst's persisted-block budget and check the
    // group really condensed to one commit record.
    let total = {
        let (mut disk, mut bc, fs) = setup();
        let before = disk.stats().blocks;
        for (i, new) in news.iter().enumerate() {
            fs.write_file(&mut disk, &mut bc, &name(i), new).unwrap();
        }
        assert_eq!(bc.group_txns(), 0, "fourth txn closed the group");
        assert_eq!(bc.stats().log_commits, 1, "one record for four txns");
        disk.stats().blocks - before
    };
    assert!(total > 20, "the batched commit should move real blocks");
    let (mut saw_all_old, mut saw_all_new) = (false, false);
    for k in 0..=total {
        let (mut disk, mut bc, fs) = setup();
        disk.power_cut_after(k);
        for (i, new) in news.iter().enumerate() {
            // Ops after the cut fires fail; that's the scenario.
            let _ = fs.write_file(&mut disk, &mut bc, &name(i), new);
        }
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        check_fat_structure(&mut disk2, &mut bc2, &fs2, &format!("group cut {k}"));
        let mut new_count = 0;
        for i in 0..n_files {
            let content = fs2.read_file(&mut disk2, &mut bc2, &name(i)).unwrap();
            if content == olds[i] {
                // old: fine
            } else if content == news[i] {
                new_count += 1;
            } else {
                panic!(
                    "cut at {k}/{total}: {} holds {} bytes matching neither version",
                    name(i),
                    content.len()
                );
            }
        }
        assert!(
            new_count == 0 || new_count == n_files,
            "cut at {k}/{total}: group commit must be all-or-nothing, got {new_count}/{n_files} new"
        );
        if new_count == 0 {
            saw_all_old = true;
        } else {
            saw_all_new = true;
        }
    }
    assert!(saw_all_old, "early cuts must preserve every old version");
    assert!(saw_all_new, "the uncut run must land every new version");
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
    let setup = || {
        let (mut disk, mut bc, mut fs) = fresh_fat(true);
        fs.write_file(&mut disk, &mut bc, "/A.BIN", &old_a).unwrap();
        bc.flush(&mut disk).unwrap();
        fs.set_group_commit_ops(8);
        fs.write_file(&mut disk, &mut bc, "/A.BIN", &new_a).unwrap(); // logged, pends
        fs.write_file(&mut disk, &mut bc, "/B.BIN", &b).unwrap(); // unlogged, shares sectors
        assert!(bc.group_txns() > 0, "the overwrite pends in the group");
        (disk, bc, fs)
    };
    let total = {
        let (mut disk, mut bc, fs) = setup();
        let before = disk.stats().blocks;
        fs.commit_pending(&mut disk, &mut bc).unwrap();
        bc.flush(&mut disk).unwrap();
        disk.stats().blocks - before
    };
    assert!(total > 8, "commit + flush should move real blocks");
    let mut saw_b = false;
    for k in 0..=total {
        let (mut disk, mut bc, fs) = setup();
        disk.power_cut_after(k);
        let _ = fs.commit_pending(&mut disk, &mut bc);
        let _ = bc.flush(&mut disk);
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        check_fat_structure(&mut disk2, &mut bc2, &fs2, &format!("interleave cut {k}"));
        let a = fs2.read_file(&mut disk2, &mut bc2, "/A.BIN").unwrap();
        assert!(
            a == old_a || a == new_a,
            "cut {k}/{total}: /A holds {} bytes matching neither version",
            a.len()
        );
        match fs2.read_file(&mut disk2, &mut bc2, "/B.BIN") {
            Ok(content) => {
                assert_eq!(content, b, "cut {k}/{total}: /B torn");
                saw_b = true;
            }
            Err(FsError::NotFound(_)) => {} // never published: old tree
            Err(e) => panic!("cut {k}/{total}: reading /B failed oddly: {e}"),
        }
    }
    assert!(saw_b, "the uncut run must land /B");
}

#[test]
fn fat32_torn_commit_record_fails_its_checksum_and_is_ignored() {
    // A commit record is its header sector followed by its k payload
    // sectors, sent as one range command. A first group commits so its
    // record's payload slots keep the sectors the second group replaces;
    // the second group's record command is then cut after j = 1..=k blocks.
    // The header leads the command, so every such cut persists the new
    // header over a blend of new and stale payloads: replay must reject it
    // on the checksum and the remount must show the tree from before the
    // group. Complete, the record is the commit point even if the home
    // drain never starts. One file per directory, so the record carries a
    // dirent sector per file plus the FAT sectors.
    let n_files = 4usize;
    let dir = |i: usize| format!("/D{i}");
    let name = |i: usize| format!("/D{i}/T.BIN");
    let version = |v: u64, len: usize| -> Vec<Vec<u8>> {
        (0..n_files)
            .map(|i| pattern(70 + i as u64, v, len))
            .collect()
    };
    let (olds, mids, news) = (
        version(1, 12 * 1024),
        version(2, 10 * 1024),
        version(3, 9 * 1024),
    );
    let sector =
        |disk: &MemDisk, lba: u64| disk.image()[lba as usize * BLOCK_SIZE..][..BLOCK_SIZE].to_vec();
    // Returns the second group pending with its data already drained, so
    // the next device command is its commit record; and the group's
    // sectors.
    let setup = || {
        let (mut disk, mut bc, mut fs) = fresh_fat(true);
        for (i, old) in olds.iter().enumerate() {
            fs.create(&mut disk, &mut bc, &dir(i), true).unwrap();
            fs.write_file(&mut disk, &mut bc, &name(i), old).unwrap();
        }
        bc.flush(&mut disk).unwrap();
        fs.set_group_commit_ops(n_files as u32 + 1);
        for (i, mid) in mids.iter().enumerate() {
            fs.write_file(&mut disk, &mut bc, &name(i), mid).unwrap();
        }
        fs.commit_pending(&mut disk, &mut bc).unwrap();
        bc.flush(&mut disk).unwrap();
        for (i, new) in news.iter().enumerate() {
            fs.write_file(&mut disk, &mut bc, &name(i), new).unwrap();
        }
        bc.flush_ready(&mut disk).unwrap();
        let targets = bc.group_entries();
        (disk, bc, fs, targets)
    };
    let remount = |disk: &MemDisk, note: &str| -> Vec<Vec<u8>> {
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        check_fat_structure(&mut disk2, &mut bc2, &fs2, note);
        (0..n_files)
            .map(|i| fs2.read_file(&mut disk2, &mut bc2, &name(i)).unwrap())
            .collect()
    };
    let (disk, _, _, targets) = setup();
    let k = targets.len() as u64;
    assert!(k >= 2, "the record must carry several payloads, got {k}");
    // Every slot the second record will fill still holds the first
    // record's copy of the same sector — its contents before the group.
    for (i, &t) in targets.iter().enumerate() {
        let slot = INTENT_LOG_START + 1 + i as u64;
        assert_eq!(sector(&disk, slot), sector(&disk, t));
    }
    for j in 1..=k + 1 {
        let (mut disk, mut bc, fs, _) = setup();
        let before = disk.stats();
        disk.power_cut_after(j);
        assert!(fs.commit_pending(&mut disk, &mut bc).is_err());
        disk.power_restored();
        assert_eq!(
            &sector(&disk, INTENT_LOG_START)[..8],
            TXN_MAGIC,
            "cut {j}: the record's header persisted"
        );
        let files = remount(&disk, &format!("record cut {j}/{}", k + 1));
        if j <= k {
            let after = disk.stats();
            let cmds = (
                after.range_cmds - before.range_cmds,
                after.single_cmds - before.single_cmds,
            );
            assert_eq!(cmds, (1, 0), "cut {j}: the record is the only command");
            assert_eq!(disk.torn_writes(), 1, "cut {j} tore the record");
            assert_eq!(files, mids, "cut {j}: a torn record must not replay");
        } else {
            assert_eq!(files, news, "a complete record replays");
        }
    }
    // With a posted write cache the cut drops the command whole: no record,
    // no header, the old tree.
    for j in 1..=k {
        let (mut disk, mut bc, fs, _) = setup();
        disk.set_posted_writes(true);
        disk.power_cut_after(j);
        assert!(fs.commit_pending(&mut disk, &mut bc).is_err());
        disk.power_restored();
        assert_eq!(
            sector(&disk, INTENT_LOG_START),
            vec![0u8; BLOCK_SIZE],
            "posted cut {j} left a record"
        );
        let files = remount(&disk, &format!("posted record cut {j}/{}", k + 1));
        assert_eq!(files, mids, "posted cut {j}");
    }
}

/// An SD card in DMA mode with its own engine + clock — the scatter-gather
/// async path the kernel runs, reproduced standalone so the crash sweeps can
/// cut power mid-chain deterministically.
struct DmaRig {
    sd: SdHost,
    engine: DmaEngine,
    clock: Clock,
    cost: CostModel,
}

impl DmaRig {
    fn new(blocks: u64) -> Self {
        let mut sd = SdHost::new(blocks);
        sd.init().unwrap();
        sd.set_data_mode(SdDataMode::Dma);
        DmaRig {
            sd,
            engine: DmaEngine::new(),
            clock: Clock::new(1, 1_000_000_000),
            cost: CostModel::pi3(),
        }
    }

    fn dev(&mut self) -> SdBlockDevice<'_> {
        let total = self.sd.total_blocks();
        SdBlockDevice::with_dma(
            &mut self.sd,
            0,
            total,
            Some(SdDmaCtx {
                engine: &mut self.engine,
                clock: &mut self.clock,
                cost: &self.cost,
                core: 0,
            }),
        )
    }

    /// What actually persisted on the card (the post-power-cut medium),
    /// as a remountable image.
    fn image(&mut self) -> Vec<u8> {
        let blocks = self.sd.total_blocks();
        let mut out = vec![0u8; blocks as usize * BLOCK_SIZE];
        self.sd.read_range(0, blocks, &mut out).unwrap();
        out
    }
}

#[test]
fn fat32_dma_torn_sg_write_cut_sweep_keeps_remount_invariants() {
    // The DMA twin of the ordering regression sweep: a fresh file drains as
    // scatter-gather CMD25 chains, and an armed power cut tears the chain at
    // block granularity — only a prefix persists, the completion reports the
    // failure, and the re-dirtied blocks survive in the cache. At every cut
    // point the remounted card must show the old tree or the complete file.
    let data = pattern(21, 1, 16 * 1024);
    let total = {
        let mut rig = DmaRig::new(8 * 1024);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut rig.dev(), &mut bc).unwrap();
        bc.flush(&mut rig.dev()).unwrap();
        fs.write_file(&mut rig.dev(), &mut bc, "/a.bin", &data)
            .unwrap();
        bc.dirty_blocks() as u64
    };
    assert!(total > 8, "scenario should span FAT + dirent + data");
    let mut torn_chains = 0u64;
    let mut saw_complete = false;
    for k in 0..=total {
        let mut rig = DmaRig::new(8 * 1024);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut rig.dev(), &mut bc).unwrap();
        bc.flush(&mut rig.dev()).unwrap();
        fs.write_file(&mut rig.dev(), &mut bc, "/a.bin", &data)
            .unwrap();
        rig.sd.power_cut_after(k);
        let flush = bc.flush(&mut rig.dev());
        if k < total {
            assert!(flush.is_err(), "cut at {k}/{total} must fail the barrier");
            // A torn chain re-dirties everything it carried (the completion
            // cannot know which prefix persisted), so at least the uncut
            // remainder is retained for retry.
            assert!(
                bc.dirty_blocks() as u64 >= total - k,
                "cut at {k}/{total}: unconfirmed blocks stay dirty for retry"
            );
        }
        torn_chains += rig.sd.torn_writes();
        rig.sd.power_restored();
        let mut disk2 = MemDisk::from_image(rig.image());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        match fs2.lookup(&mut disk2, &mut bc2, "/a.bin") {
            Err(FsError::NotFound(_)) => {} // old tree: always legal
            Ok(_) => {
                let content = fs2.read_file(&mut disk2, &mut bc2, "/a.bin").unwrap();
                assert_eq!(
                    content, data,
                    "cut at {k}/{total}: a visible file must be complete"
                );
                saw_complete = true;
            }
            Err(e) => panic!("cut at {k}/{total}: lookup failed oddly: {e}"),
        }
        // The structural invariants hold on every persisted image.
        check_fat_structure(&mut disk2, &mut bc2, &fs2, &format!("dma cut {k}"));
    }
    assert!(
        torn_chains > 0,
        "the sweep must tear at least one scatter-gather chain mid-transfer"
    );
    assert!(saw_complete, "the uncut run must land the complete file");
}

#[test]
fn batched_eviction_mid_batch_fault_redirties_only_the_torn_chain() {
    // Two separate 128-block dirty regions fill a 256-block cache exactly;
    // the allocation that needs a slot gathers both into one eviction batch
    // of two back-to-back chains. A fault inside the *second* chain fails
    // only it: the first chain's blocks persist and settle (the allocator
    // takes one of their extents without draining anything else), while the
    // torn chain's blocks — and only those — convert back to dirty for
    // retry.
    let a: Vec<u8> = (0..128 * BLOCK_SIZE).map(|i| (i % 239) as u8).collect();
    let b: Vec<u8> = (0..128 * BLOCK_SIZE).map(|i| (i % 233) as u8).collect();
    let mut rig = DmaRig::new(16 * 1024);
    let mut bc = BufCache::with_geometry(4, 8); // 256 blocks, 8 extents/shard
    bc.write_range(&mut rig.dev(), 0, 128, &a).unwrap();
    bc.write_range(&mut rig.dev(), 512, 128, &b).unwrap();
    assert_eq!(bc.dirty_blocks(), 256, "cache exactly full and all dirty");
    rig.sd.inject_fault(600); // inside the second region's chain
    bc.write_range(&mut rig.dev(), 1024, 1, &[7u8; BLOCK_SIZE])
        .unwrap();
    assert!(
        bc.stats().batched_evictions >= 1,
        "the allocation went through the batched eviction path"
    );
    assert!(
        rig.sd.queue_high_water() >= 2,
        "both chains were on the queue together (depth {})",
        rig.sd.queue_high_water()
    );
    // The barrier reaps the torn chain: its error surfaces, and exactly its
    // 128 blocks are dirty again (the healthy chain's blocks are durable,
    // the fresh block drained cleanly).
    assert!(bc.flush(&mut rig.dev()).is_err());
    assert!(bc.stats().async_write_errors >= 128);
    assert_eq!(
        bc.dirty_blocks(),
        128,
        "only the torn chain's blocks converted back to dirty"
    );
    // The card recovers (clearing the fault also lets the raw image read
    // cross block 600); the healthy chain's data is already on the medium.
    rig.sd.clear_faults();
    let image = rig.image();
    assert_eq!(
        &image[..128 * BLOCK_SIZE],
        &a[..],
        "the healthy chain of the batch persisted untouched"
    );
    // The retried barrier finishes the job bit-exactly.
    bc.flush(&mut rig.dev()).unwrap();
    assert_eq!(bc.dirty_blocks(), 0);
    let image = rig.image();
    assert_eq!(&image[512 * BLOCK_SIZE..640 * BLOCK_SIZE], &b[..]);
    assert_eq!(image[1024 * BLOCK_SIZE], 7);
}

#[test]
fn fat32_dma_failed_chain_leaves_blocks_dirty_and_retryable() {
    // A chain that hits an injected fault completes with an error: the
    // cache converts the in-flight blocks back to dirty, nothing reaches a
    // remount, and clearing the fault lets the retried barrier finish the
    // job bit-exactly.
    let data = pattern(22, 1, 24 * 1024);
    let mut rig = DmaRig::new(8 * 1024);
    let mut bc = BufCache::default();
    let fs = Fat32::mkfs(&mut rig.dev(), &mut bc).unwrap();
    bc.flush(&mut rig.dev()).unwrap();
    fs.write_file(&mut rig.dev(), &mut bc, "/r.bin", &data)
        .unwrap();
    let dirty = bc.dirty_blocks();
    assert!(dirty > 0);
    // Fault a block in the middle of the data area the file will land in.
    let bpb = fs.bpb();
    let faulty = bpb.data_start as u64 + 8;
    rig.sd.inject_fault(faulty);
    assert!(
        bc.flush(&mut rig.dev()).is_err(),
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
    rig.sd.clear_faults();
    {
        let mut disk2 = MemDisk::from_image(rig.image());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        assert!(matches!(
            fs2.lookup(&mut disk2, &mut bc2, "/r.bin"),
            Err(FsError::NotFound(_))
        ));
    }
    // The retry drains everything.
    bc.flush(&mut rig.dev()).unwrap();
    assert_eq!(bc.dirty_blocks(), 0);
    let mut disk2 = MemDisk::from_image(rig.image());
    let mut bc2 = BufCache::default();
    let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
    assert_eq!(fs2.read_file(&mut disk2, &mut bc2, "/r.bin").unwrap(), data);
}

#[test]
fn fat32_dma_torn_commit_record_through_write_is_ignored_or_replayed() {
    // The kernel-level twin of the torn-record sweep: a whole desktop
    // system with the card in DMA mode, where the commit record rides the
    // queue as one chain inside the write() that closes a group. The cut
    // lands D + j blocks into that write, D being what its ready drain
    // persists before the record. For j = 0..=k the record chain (header
    // plus k payloads) is cut short: the fresh mount must show every file
    // at its pre-group version. For j = k + 1 the record is whole and the
    // home drain is cut, and for j = k + 2 the home drain is cut after one
    // block: replay brings every file to its new version, which it could
    // not if the header clear had overtaken the home sectors.
    let n = FAT_GROUP_COMMIT_OPS as usize;
    // The FAT volume is mounted at /d.
    let name = |i: usize| format!("/rec{i}.bin");
    let path = |i: usize| format!("/d{}", name(i));
    let olds: Vec<Vec<u8>> = (0..n)
        .map(|i| pattern(90 + i as u64, 1, 6 * 1024))
        .collect();
    let news: Vec<Vec<u8>> = (0..n)
        .map(|i| pattern(90 + i as u64, 2, 7 * 1024))
        .collect();
    let put = |sys: &mut ProtoSystem, writer: TaskId, i: usize, data: &[u8]| {
        sys.kernel.with_task_ctx(writer, |ctx| {
            let fd = ctx.open(&path(i), OpenFlags::wronly_create())?;
            ctx.write(fd, data)?;
            ctx.close(fd)
        })
    };
    // A system whose n files are synced at their old version, with n - 1
    // overwrites pending in the group and the last file open: the next
    // write() closes the group.
    let setup = || -> (ProtoSystem, TaskId, i32) {
        let mut sys = ProtoSystem::desktop().unwrap();
        let sd = &sys.kernel.board.sdhost;
        assert_eq!(sd.data_mode(), SdDataMode::Dma);
        assert!(!sd.posted_writes());
        let writer = sys.kernel.spawn_bench_task("writer").unwrap();
        for (i, old) in olds.iter().enumerate() {
            put(&mut sys, writer, i, old).unwrap();
        }
        sys.kernel.sync_all().unwrap();
        for (i, new) in news.iter().enumerate().take(n - 1) {
            put(&mut sys, writer, i, new).unwrap();
        }
        assert_eq!(sys.kernel.fat_group_txns(), n as u64 - 1);
        let fd = sys
            .kernel
            .with_task_ctx(writer, |ctx| {
                ctx.open(&path(n - 1), OpenFlags::wronly_create())
            })
            .unwrap();
        (sys, writer, fd)
    };
    let close_group = |sys: &mut ProtoSystem, writer: TaskId, fd: i32| {
        sys.kernel
            .with_task_ctx(writer, |ctx| ctx.write(fd, &news[n - 1]))
    };
    // The dry run: a fault on the header sector stops the closing write()
    // at its record, so every block it persisted is the ready drain's, and
    // the group it failed to commit is still pending.
    let (d, k) = {
        let (mut sys, writer, fd) = setup();
        sys.kernel
            .board
            .sdhost
            .inject_fault(FAT_PARTITION_START + INTENT_LOG_START);
        let before = sys.kernel.fat_cache_stats().writebacks;
        assert!(close_group(&mut sys, writer, fd).is_err());
        let d = sys.kernel.fat_cache_stats().writebacks - before;
        (d, sys.kernel.fat_cache().unwrap().group_sectors() as u64)
    };
    assert!(d > 0, "the ready drain persists the pending data first");
    assert!(k >= 2, "the record must carry several payloads, got {k}");
    for j in 0..=k + 2 {
        let (mut sys, writer, fd) = setup();
        sys.kernel.sd_power_cut_after(d + j);
        let closing = close_group(&mut sys, writer, fd);
        assert!(closing.is_err(), "cut {j}: the closing write() fails");
        sys.kernel.sd_power_restore();
        let total = sys.kernel.board.sdhost.total_blocks();
        let mut dev = SdBlockDevice::new(
            &mut sys.kernel.board.sdhost,
            FAT_PARTITION_START,
            total - FAT_PARTITION_START,
        );
        let mut bc = BufCache::default();
        let fs = Fat32::mount(&mut dev, &mut bc).unwrap();
        let note = format!("dma record cut {j}/{}", k + 2);
        check_fat_structure(&mut dev, &mut bc, &fs, &note);
        // A cut record must not replay; a complete one must.
        let (want, which) = if j <= k {
            (&olds, "pre-group")
        } else {
            (&news, "new")
        };
        for (i, w) in want.iter().enumerate() {
            let got = fs.read_file(&mut dev, &mut bc, &name(i)).unwrap();
            assert!(
                got == *w,
                "{note}: {} is not at its {which} version",
                name(i)
            );
        }
    }
}

#[test]
fn xv6fs_new_file_cut_sweep_never_tears() {
    // Without inode/block reuse in play, the ordering edges promise: a new
    // file's inode drains only after its data and bitmap blocks, so at any
    // cut point the file is absent, a dangling dirent (clean NotFound), or
    // bit-exact — never garbage.
    // Journal off: this pins the *fallback* (ordered-drain) guarantees; the
    // journaled guarantees get their own sweeps below.
    let data = pattern(9, 1, 20 * 1024);
    let total = {
        let mut disk = MemDisk::new(8192);
        let mut bc = BufCache::default();
        let mut fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
        fs.set_journal(false);
        bc.flush(&mut disk).unwrap();
        fs.write_file(&mut disk, &mut bc, "/a", &data).unwrap();
        bc.dirty_blocks() as u64
    };
    for k in 0..=total {
        let mut disk = MemDisk::new(8192);
        let mut bc = BufCache::default();
        let mut fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
        fs.set_journal(false);
        bc.flush(&mut disk).unwrap();
        fs.write_file(&mut disk, &mut bc, "/a", &data).unwrap();
        disk.power_cut_after(k);
        let _ = bc.flush(&mut disk);
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2).unwrap();
        match fs2.read_file(&mut disk2, &mut bc2, "/a") {
            Ok(content) => {
                // Visible with an allocated inode: the ordering contract
                // says the contents must be complete (an empty size-0 file
                // is the benign created-not-yet-written state).
                assert!(
                    content == data || content.is_empty(),
                    "cut at {k}/{total}: /a is torn ({} bytes)",
                    content.len()
                );
            }
            Err(FsError::NotFound(_)) => {} // absent or dangling: old tree
            Err(e) => panic!("cut at {k}/{total}: unexpected error {e}"),
        }
    }
}

#[test]
fn xv6fs_random_cut_schedules_remount_cleanly_and_keep_durable_data() {
    for seed in 0..40u64 {
        let mut rng = Rng::new(7000 + seed);
        let mut disk = MemDisk::new(8192); // 4 MB
        let mut bc = BufCache::with_geometry(4, 8);
        let mut fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
        // Journal off: exercise the unjournaled fallback's (weaker, but
        // panic-free) guarantees; the journaled schedules run separately.
        fs.set_journal(false);
        fs.create(&mut disk, &mut bc, "/etc", InodeType::Dir)
            .unwrap();
        bc.flush(&mut disk).unwrap();

        let names: Vec<String> = (0..4)
            .map(|i| format!("/n{i}"))
            .chain((0..2).map(|i| format!("/etc/c{i}")))
            .collect();
        let mut model: Model = names
            .iter()
            .map(|n| (n.clone(), PathModel::new()))
            .collect();
        let mut version = 0u64;
        let cut_after = rng.below(1500);
        disk.power_cut_after(cut_after);

        for _op in 0..30 {
            if disk.power_lost() {
                break;
            }
            let name = names[rng.below(names.len() as u64) as usize].clone();
            let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
            match rng.below(8) {
                0..=3 => {
                    version += 1;
                    let len = 1 + rng.below(30 * 1024) as usize;
                    let data = pattern(file_id, version, len);
                    match fs.write_file(&mut disk, &mut bc, &name, &data) {
                        Ok(_) => model.get_mut(&name).unwrap().push(Some(data)),
                        // A write interrupted by the cut may have landed any
                        // prefix of its mutations (xv6fs writes in place):
                        // record both the attempted contents and the
                        // created-but-empty state as possible outcomes.
                        Err(_) if disk.power_lost() => {
                            let m = model.get_mut(&name).unwrap();
                            m.push(Some(data));
                            m.push(Some(Vec::new()));
                        }
                        Err(_) => {}
                    }
                }
                4 => match fs.unlink(&mut disk, &mut bc, &name) {
                    Ok(()) => model.get_mut(&name).unwrap().push(None),
                    Err(_) if disk.power_lost() => {
                        model.get_mut(&name).unwrap().push(None);
                    }
                    Err(_) => {}
                },
                5 => {
                    if bc.flush(&mut disk).is_ok() && !disk.power_lost() {
                        barrier(&mut model);
                    }
                }
                _ => {
                    let _ = bc.flush_some(&mut disk, 8 + rng.below(100));
                }
            }
        }

        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let note = format!("seed {seed}, cut {cut_after}");
        let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2)
            .unwrap_or_else(|e| panic!("[{note}] remount failed: {e}"));

        // Full traversal must never panic; dangling dirents (the one benign
        // xv6fs torn state) surface as clean NotFound on read.
        let mut dirs = vec![String::from("/")];
        let mut visible: Vec<(String, Vec<u8>)> = Vec::new();
        while let Some(dir) = dirs.pop() {
            for e in fs2
                .list_dir(&mut disk2, &mut bc2, &dir)
                .unwrap_or_else(|err| panic!("[{note}] list {dir}: {err}"))
            {
                let path = if dir == "/" {
                    format!("/{}", e.name)
                } else {
                    format!("{}/{}", dir, e.name)
                };
                match fs2.stat(&mut disk2, &mut bc2, e.inum) {
                    Ok(st) if st.itype == InodeType::Dir => dirs.push(path),
                    Ok(_) => {
                        if let Ok(content) = fs2.read_file(&mut disk2, &mut bc2, &path) {
                            visible.push((path, content));
                        }
                    }
                    Err(FsError::NotFound(_)) => {} // dangling dirent: benign
                    Err(err) => panic!("[{note}] stat {path}: {err}"),
                }
            }
        }
        // No per-version content check here: with the journal off, xv6fs
        // tolerates dangling dirents and stale reused inode slots after a
        // cut; those read as other files' old versions, never as a kernel
        // panic. The no-reuse ordering guarantee is pinned down by
        // `xv6fs_new_file_cut_sweep_never_tears` above; the journaled
        // schedules below assert the strict per-op atomicity instead.
        // Durable-and-unmodified files are exact.
        for (path, m) in &model {
            if m.dirty_since_barrier {
                continue;
            }
            if let Some(v) = &m.states[m.committed] {
                let found = visible.iter().find(|(p, _)| p == path).map(|(_, c)| c);
                assert_eq!(found, Some(v), "[{note}] durable {path} lost after cut");
            }
        }
    }
}

// ---- journaled xv6fs + posted device write cache ---------------------------
//
// The sweeps below run against a device whose completed writes sit in a
// volatile posted cache until a FLUSH barrier — the model under which a
// missing barrier is an observable bug, not a latent one. The journal's
// commit protocol (drain data, log payloads, FLUSH, apply home, header
// clear, FLUSH) makes every metadata operation old-XOR-new; both xv6fs torn
// states the unjournaled fallback tolerates are asserted impossible here.

/// A journaled xv6fs on a posted-write-cache MemDisk with `/f` holding
/// `old` durably.
fn xv6_posted_with_old(old: &[u8]) -> (MemDisk, BufCache, Xv6Fs) {
    let mut disk = MemDisk::new(8192);
    let mut bc = BufCache::default();
    let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
    assert!(fs.journal_enabled(), "mkfs must enable the journal");
    fs.write_file(&mut disk, &mut bc, "/f", old).unwrap();
    bc.flush(&mut disk).unwrap();
    disk.set_posted_writes(true);
    (disk, bc, fs)
}

#[test]
fn xv6fs_journaled_overwrite_cut_sweep_is_old_xor_new_on_a_posted_device() {
    // The in-place-overwrite torn state, killed: sweep a cut across every
    // persisted write of a journaled overwrite and require strict old XOR
    // new — never empty (the truncated middle state), never a mix.
    let old = pattern(1, 1, 6 * 1024);
    let new = pattern(1, 2, 3 * 1024);
    let mut saw_old = false;
    let mut saw_new = false;
    let mut k = 0u64;
    loop {
        let (mut disk, mut bc, fs) = xv6_posted_with_old(&old);
        disk.power_cut_after(k);
        let res = fs.write_file(&mut disk, &mut bc, "/f", &new);
        let complete = !disk.power_lost();
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2)
            .unwrap_or_else(|e| panic!("cut at {k}: remount failed: {e}"));
        let got = fs2
            .read_file(&mut disk2, &mut bc2, "/f")
            .unwrap_or_else(|e| panic!("cut at {k}: /f unreadable: {e}"));
        if got == old {
            saw_old = true;
        } else if got == new {
            saw_new = true;
        } else {
            panic!("cut at {k}: /f torn ({} bytes, neither version)", got.len());
        }
        if complete {
            assert!(res.is_ok());
            assert_eq!(got, new, "a completed op is durable (group size 1)");
            break;
        }
        k += 1;
    }
    assert!(saw_old && saw_new, "sweep must cover both outcomes");
}

#[test]
fn xv6fs_journaled_create_cut_sweep_has_no_dangling_dirents() {
    // The dangling-dirent torn state, killed: at every cut point during a
    // journaled create, every dirent listed anywhere resolves to an
    // allocated inode — `NotFound`-on-stat no longer exists.
    let data = pattern(2, 1, 2 * 1024);
    let mut k = 0u64;
    loop {
        let mut disk = MemDisk::new(8192);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
        fs.create(&mut disk, &mut bc, "/etc", InodeType::Dir)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        disk.set_posted_writes(true);
        disk.power_cut_after(k);
        let _ = fs.write_file(&mut disk, &mut bc, "/etc/conf", &data);
        let complete = !disk.power_lost();
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2)
            .unwrap_or_else(|e| panic!("cut at {k}: remount failed: {e}"));
        for dir in ["/", "/etc"] {
            for e in fs2.list_dir(&mut disk2, &mut bc2, dir).unwrap() {
                let st = fs2
                    .stat(&mut disk2, &mut bc2, e.inum)
                    .unwrap_or_else(|err| {
                        panic!("cut at {k}: dangling dirent {dir}/{}: {err}", e.name)
                    });
                assert_ne!(
                    st.itype,
                    InodeType::Free,
                    "cut at {k}: dirent {dir}/{} names a free inode",
                    e.name
                );
            }
        }
        if complete {
            assert_eq!(
                fs2.read_file(&mut disk2, &mut bc2, "/etc/conf").unwrap(),
                data,
                "a completed create+write is durable"
            );
            break;
        }
        k += 1;
    }
}

#[test]
fn xv6fs_random_posted_cut_schedules_are_atomic_and_durable_per_op() {
    // Journal on, posted cache on, random op/cut schedules: every completed
    // metadata operation is durable on return (group size 1 commits through
    // the device barrier), every interrupted one lands old XOR new, and no
    // visible file ever holds bytes matching no written version.
    for seed in 0..25u64 {
        let mut rng = Rng::new(9100 + seed);
        let mut disk = MemDisk::new(8192);
        let mut bc = BufCache::with_geometry(4, 8);
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
        fs.create(&mut disk, &mut bc, "/etc", InodeType::Dir)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        disk.set_posted_writes(true);

        let names: Vec<String> = (0..3)
            .map(|i| format!("/n{i}"))
            .chain((0..2).map(|i| format!("/etc/c{i}")))
            .collect();
        let mut model: Model = names
            .iter()
            .map(|n| (n.clone(), PathModel::new()))
            .collect();
        let mut version = 0u64;
        let cut_after = rng.below(1200);
        disk.power_cut_after(cut_after);

        for _op in 0..25 {
            if disk.power_lost() {
                break;
            }
            let name = names[rng.below(names.len() as u64) as usize].clone();
            let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
            match rng.below(8) {
                0..=4 => {
                    version += 1;
                    let len = 1 + rng.below(20 * 1024) as usize;
                    let data = pattern(file_id, version, len);
                    match fs.write_file(&mut disk, &mut bc, &name, &data) {
                        Ok(_) => {
                            model.get_mut(&name).unwrap().push(Some(data));
                            // Each journaled op commits durably on return.
                            barrier(&mut model);
                        }
                        // Interrupted: replay may still land it — old XOR
                        // new, so record the new state as non-durable.
                        Err(_) if disk.power_lost() => {
                            model.get_mut(&name).unwrap().push(Some(data));
                        }
                        Err(_) => {}
                    }
                }
                5 => match fs.unlink(&mut disk, &mut bc, &name) {
                    Ok(()) => {
                        model.get_mut(&name).unwrap().push(None);
                        barrier(&mut model);
                    }
                    Err(_) if disk.power_lost() => {
                        model.get_mut(&name).unwrap().push(None);
                    }
                    Err(_) => {}
                },
                _ => {
                    let _ = bc.flush_some(&mut disk, 8 + rng.below(80));
                }
            }
        }

        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let note = format!("seed {seed}, cut {cut_after}");
        let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2)
            .unwrap_or_else(|e| panic!("[{note}] remount failed: {e}"));

        let mut dirs = vec![String::from("/")];
        let mut visible: Vec<(String, Vec<u8>)> = Vec::new();
        while let Some(dir) = dirs.pop() {
            for e in fs2
                .list_dir(&mut disk2, &mut bc2, &dir)
                .unwrap_or_else(|err| panic!("[{note}] list {dir}: {err}"))
            {
                let path = if dir == "/" {
                    format!("/{}", e.name)
                } else {
                    format!("{}/{}", dir, e.name)
                };
                let st = fs2
                    .stat(&mut disk2, &mut bc2, e.inum)
                    .unwrap_or_else(|err| panic!("[{note}] dangling dirent {path}: {err}"));
                if st.itype == InodeType::Dir {
                    dirs.push(path);
                } else {
                    let content = fs2
                        .read_file(&mut disk2, &mut bc2, &path)
                        .unwrap_or_else(|err| panic!("[{note}] read {path}: {err}"));
                    visible.push((path, content));
                }
            }
        }
        // Every visible file holds exactly one historically written version.
        for (path, content) in &visible {
            if path == "/etc" {
                continue;
            }
            let m = model
                .get(path)
                .unwrap_or_else(|| panic!("[{note}] unexpected file {path}"));
            assert!(
                m.states
                    .iter()
                    .any(|s| s.as_ref().is_some_and(|v| v == content)),
                "[{note}] {path} holds {} bytes matching no written version",
                content.len()
            );
        }
        // Durable-and-unmodified paths are exact — removed ones stay gone.
        for (path, m) in &model {
            if m.dirty_since_barrier {
                continue;
            }
            let found = visible.iter().find(|(p, _)| p == path).map(|(_, c)| c);
            match &m.states[m.committed] {
                Some(v) => assert_eq!(
                    found,
                    Some(v),
                    "[{note}] durable {path} lost or changed after the cut"
                ),
                None => assert!(found.is_none(), "[{note}] removed {path} resurrected"),
            }
        }
    }
}

#[test]
fn fat32_logged_overwrite_cut_sweep_survives_a_posted_write_cache() {
    // The FAT32 client of the same transaction layer, on the same posted
    // device: the intent log's barriers must hold old XOR new even when
    // un-flushed writes can vanish wholesale.
    let old = pattern(4, 1, 24 * 1024);
    let new = pattern(4, 2, 30 * 1024);
    let total = {
        let (mut disk, mut bc, fs) = fresh_fat(true);
        fs.write_file(&mut disk, &mut bc, "/v.bin", &old).unwrap();
        bc.flush(&mut disk).unwrap();
        disk.set_posted_writes(true);
        let before = disk.stats().blocks;
        fs.write_file(&mut disk, &mut bc, "/v.bin", &new).unwrap();
        disk.stats().blocks - before
    };
    let mut saw_old = false;
    let mut saw_new = false;
    for k in (0..=total).step_by(3) {
        let (mut disk, mut bc, fs) = fresh_fat(true);
        fs.write_file(&mut disk, &mut bc, "/v.bin", &old).unwrap();
        bc.flush(&mut disk).unwrap();
        disk.set_posted_writes(true);
        disk.power_cut_after(k);
        let _ = fs.write_file(&mut disk, &mut bc, "/v.bin", &new);
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut disk2, &mut bc2).unwrap();
        let content = fs2.read_file(&mut disk2, &mut bc2, "/v.bin").unwrap();
        if content == old {
            saw_old = true;
        } else if content == new {
            saw_new = true;
        } else {
            panic!(
                "cut at {k}/{total}: posted-cache overwrite left {} bytes matching neither version",
                content.len()
            );
        }
    }
    assert!(saw_old && saw_new, "sweep must cover both outcomes");
}

#[test]
fn posted_cache_without_a_flush_barrier_is_not_durable() {
    // Barrier elision made observable: draining the OS cache with budgeted
    // `flush_some` passes (which never emit a device FLUSH) leaves every
    // block in the device's volatile cache — a cut loses all of it. The
    // same drain through `flush` (which ends with the barrier) survives.
    let data = pattern(7, 1, 8 * 1024);
    let build = |use_barrier: bool| -> Vec<u8> {
        let mut disk = MemDisk::new(4096);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 2048, 64).unwrap();
        // Create durably, then append content through the *raw* inode-level
        // write — the one path with no transaction (and so no barrier) of
        // its own. The drain strategy below is the only durability point.
        let inum = fs
            .create(&mut disk, &mut bc, "/x", InodeType::File)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        disk.set_posted_writes(true);
        fs.write(&mut disk, &mut bc, inum, 0, &data).unwrap();
        if use_barrier {
            bc.flush(&mut disk).unwrap();
        } else {
            while bc.dirty_blocks() > 0 {
                bc.flush_some(&mut disk, 64).unwrap();
            }
            assert!(
                disk.cached_blocks() > 0,
                "the drain must have parked writes in the device cache"
            );
        }
        disk.power_cut();
        disk.power_restored();
        disk.image().to_vec()
    };

    let mut d = MemDisk::from_image(build(false));
    let mut b = BufCache::default();
    let f = Xv6Fs::mount(&mut d, &mut b).unwrap();
    assert_eq!(
        f.read_file(&mut d, &mut b, "/x").unwrap(),
        Vec::<u8>::new(),
        "without the barrier the cut must erase the un-flushed contents"
    );

    let mut d = MemDisk::from_image(build(true));
    let mut b = BufCache::default();
    let f = Xv6Fs::mount(&mut d, &mut b).unwrap();
    assert_eq!(
        f.read_file(&mut d, &mut b, "/x").unwrap(),
        data,
        "the barrier makes the same sequence durable"
    );
}

#[test]
fn xv6fs_freed_blocks_are_fenced_until_durable_then_reused() {
    // Reuse-before-commit regression: with the journal off, a freed block
    // stays fenced (`note_pending_free`) until the free is durable. Filling
    // the volume, unlinking, and immediately rewriting can only succeed
    // through the allocator's rescue path — flush the pending frees, then
    // rescan — never by handing out a block a durable inode still owns.
    let mut disk = MemDisk::new(512); // 256 KB => 256 fs blocks
    let mut bc = BufCache::default();
    let mut fs = Xv6Fs::mkfs(&mut disk, &mut bc, 256, 64).unwrap();
    fs.set_journal(false);
    bc.flush(&mut disk).unwrap();
    let free = fs.free_blocks(&mut disk, &mut bc).unwrap();
    assert!(free > 30, "layout sanity");
    let big = pattern(5, 1, (free as usize - 8) * 1024);
    fs.write_file(&mut disk, &mut bc, "/big", &big).unwrap();
    bc.flush(&mut disk).unwrap();
    fs.unlink(&mut disk, &mut bc, "/big").unwrap();
    // Nearly every free block is pending-free now: the rewrite must trip
    // the rescue path and still succeed with correct contents.
    let big2 = pattern(5, 2, (free as usize - 8) * 1024);
    fs.write_file(&mut disk, &mut bc, "/big2", &big2).unwrap();
    assert_eq!(fs.read_file(&mut disk, &mut bc, "/big2").unwrap(), big2);
    assert!(matches!(
        fs.read_file(&mut disk, &mut bc, "/big"),
        Err(FsError::NotFound(_))
    ));
}

#[test]
fn xv6fs_unlink_rewrite_cut_sweep_never_tears_the_durable_old_file() {
    // The crash half of the reuse fence: cut anywhere during an
    // unlink-then-rewrite that recycles the old file's blocks, and the
    // durable old file is either bit-exact or cleanly absent — its blocks
    // were never clobbered while a durable dirent still reached them.
    let setup = |fs: &mut Xv6Fs, disk: &mut MemDisk, bc: &mut BufCache| -> (Vec<u8>, Vec<u8>) {
        fs.set_journal(false);
        bc.flush(disk).unwrap();
        let free = fs.free_blocks(disk, bc).unwrap();
        let big = pattern(6, 1, (free as usize - 8) * 1024);
        let big2 = pattern(6, 2, (free as usize - 8) * 1024);
        fs.write_file(disk, bc, "/big", &big).unwrap();
        bc.flush(disk).unwrap();
        (big, big2)
    };
    let total = {
        let mut disk = MemDisk::new(512);
        let mut bc = BufCache::default();
        let mut fs = Xv6Fs::mkfs(&mut disk, &mut bc, 256, 64).unwrap();
        let (_, big2) = setup(&mut fs, &mut disk, &mut bc);
        let before = disk.stats().blocks;
        fs.unlink(&mut disk, &mut bc, "/big").unwrap();
        fs.write_file(&mut disk, &mut bc, "/big2", &big2).unwrap();
        disk.stats().blocks - before
    };
    for k in (0..=total).step_by(5) {
        let mut disk = MemDisk::new(512);
        let mut bc = BufCache::default();
        let mut fs = Xv6Fs::mkfs(&mut disk, &mut bc, 256, 64).unwrap();
        let (big, big2) = setup(&mut fs, &mut disk, &mut bc);
        disk.power_cut_after(k);
        let _ = fs.unlink(&mut disk, &mut bc, "/big").and_then(|()| {
            fs.write_file(&mut disk, &mut bc, "/big2", &big2)
                .map(|_| ())
        });
        disk.power_restored();
        let mut disk2 = MemDisk::from_image(disk.image().to_vec());
        let mut bc2 = BufCache::default();
        let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2).unwrap();
        match fs2.read_file(&mut disk2, &mut bc2, "/big") {
            Ok(content) => assert_eq!(
                content, big,
                "cut at {k}/{total}: durable /big torn by premature block reuse"
            ),
            Err(FsError::NotFound(_)) => {}
            Err(e) => panic!("cut at {k}/{total}: unexpected error {e}"),
        }
        if let Ok(content) = fs2.read_file(&mut disk2, &mut bc2, "/big2") {
            assert!(
                content == big2 || content.is_empty(),
                "cut at {k}/{total}: /big2 is torn ({} bytes)",
                content.len()
            );
        }
    }
}
