//! Crash-consistency tests for the ordered write-back pipeline: randomized
//! write/flush/power-cut schedules (a seeded-PRNG stand-in for a property
//! testing crate — the build environment is offline) plus deterministic
//! exhaustive cut-point sweeps, one of which shows the LBA-order bug the
//! dependency-ordered drain fixes by replaying a drain's blocks in LBA
//! order.
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
use proto_repro::protofs::block::{BlockIoStats, SdBlockDevice, SdDmaCtx};
use proto_repro::protofs::bufcache::BufCache;
use proto_repro::protofs::fat32::{Bpb, Fat32, FIRST_CLUSTER, INTENT_LOG_START};
use proto_repro::protofs::txn::TXN_MAGIC;
use proto_repro::protofs::xv6fs::{InodeType, Xv6Fs, BSIZE, INODE_SIZE, IPB, NDIRECT};
use proto_repro::protofs::{BlockDevice, FsError, FsResult, MemDisk, BLOCK_SIZE};

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

/// Reads xv6fs block `b` through `bc`, as the mounted volume sees it.
fn xv6_block(disk: &mut dyn BlockDevice, bc: &mut BufCache, b: u32) -> Vec<u8> {
    let mut out = vec![0u8; BSIZE];
    let first = u64::from(b) * (BSIZE / BLOCK_SIZE) as u64;
    for (lba, sector) in (first..).zip(out.chunks_exact_mut(BLOCK_SIZE)) {
        bc.read(disk, lba, sector).unwrap();
    }
    out
}

/// Checks the block maps of the xv6fs inodes `inums`: every block one maps
/// lies in the data area, belongs to that inode alone and, if `bitmap` is
/// set, is marked used in the bitmap.
fn check_xv6_blocks(
    disk: &mut dyn BlockDevice,
    bc: &mut BufCache,
    fs: &Xv6Fs,
    inums: &BTreeSet<u32>,
    bitmap: bool,
    note: &str,
) {
    let sb = fs.superblock();
    let bits_per_block = BSIZE as u32 * 8;
    let mut owner: BTreeMap<u32, u32> = BTreeMap::new();
    for &inum in inums {
        let iblock = xv6_block(disk, bc, sb.inodestart + inum / IPB as u32);
        let raw = &iblock[inum as usize % IPB * INODE_SIZE..][..INODE_SIZE];
        let word = |w: &[u8], i: usize| u32::from_le_bytes(w[4 * i..4 * i + 4].try_into().unwrap());
        let addrs: Vec<u32> = (0..=NDIRECT).map(|i| word(&raw[8..], i)).collect();
        let mut blocks: Vec<u32> = addrs.iter().copied().filter(|&b| b != 0).collect();
        let indirect = addrs[NDIRECT];
        if indirect != 0 {
            assert!(
                (sb.datastart..sb.size).contains(&indirect),
                "[{note}] inode {inum}'s indirect block {indirect} lies outside the data area"
            );
            let ind = xv6_block(disk, bc, indirect);
            blocks.extend((0..BSIZE / 4).map(|i| word(&ind, i)).filter(|&b| b != 0));
        }
        for b in blocks {
            assert!(
                (sb.datastart..sb.size).contains(&b),
                "[{note}] inode {inum} maps block {b} outside the data area"
            );
            if bitmap {
                let bits = xv6_block(disk, bc, sb.bmapstart + b / bits_per_block);
                let bit = (b % bits_per_block) as usize;
                assert!(
                    bits[bit / 8] & (1 << (bit % 8)) != 0,
                    "[{note}] inode {inum} maps block {b}, which the bitmap marks free"
                );
            }
            if let Some(other) = owner.insert(b, inum) {
                panic!("[{note}] block {b} is mapped by inodes {other} and {inum}");
            }
        }
    }
}

/// `old` with `data` written at `offset`, any gap zero-filled.
fn patched(old: &[u8], offset: usize, data: &[u8]) -> Vec<u8> {
    let mut new = old.to_vec();
    new.resize(new.len().max(offset + data.len()), 0);
    new[offset..offset + data.len()].copy_from_slice(data);
    new
}

/// A [`MemDisk`] that logs every block it persists, in order. A power cut
/// after `k` persisted blocks leaves the starting image with the first `k`
/// logged blocks applied, so one run yields the image of a cut at every
/// prefix of its log.
struct LoggedDisk {
    disk: MemDisk,
    log: Vec<(u64, Vec<u8>)>,
}

impl BlockDevice for LoggedDisk {
    fn num_blocks(&self) -> u64 {
        self.disk.num_blocks()
    }

    fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()> {
        Ok(self.disk.read_block(lba, out)?)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()> {
        self.disk.write_block(lba, data)?;
        self.log.push((lba, data.to_vec()));
        Ok(())
    }

    fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
        Ok(self.disk.read_range(lba, count, out)?)
    }

    fn stats(&self) -> BlockIoStats {
        self.disk.stats()
    }
}

/// One op of a FAT32 schedule that succeeded or that the cut interrupted:
/// the span of the write log it persisted, the states it gave paths, and
/// whether its success is a durability barrier.
struct Step {
    writes: std::ops::Range<usize>,
    changes: Vec<(String, Option<Vec<u8>>)>,
    barrier: bool,
    /// The power cut fired during the op.
    cut: bool,
}

/// The file and directory models a cut after `k` logged blocks leaves:
/// every op that finished before the cut, then the op the cut interrupted,
/// whose states are possible outcomes (it may still land by replay).
fn fat_models_at(steps: &[Step], files: &[String], dirs: &[&str], k: usize) -> (Model, Model) {
    let mut model: Model = files
        .iter()
        .map(|n| (n.clone(), PathModel::new()))
        .collect();
    let mut dir_model: Model = dirs
        .iter()
        .map(|n| (n.to_string(), PathModel::new()))
        .collect();
    for step in steps {
        if step.writes.start > k {
            break;
        }
        for (path, state) in &step.changes {
            let m = if dir_model.contains_key(path) {
                &mut dir_model
            } else {
                &mut model
            };
            m.get_mut(path).unwrap().push(state.clone());
        }
        if step.cut || step.writes.end > k {
            break;
        }
        if step.barrier {
            barrier(&mut model);
            barrier(&mut dir_model);
        }
    }
    (model, dir_model)
}

/// Remounts `image` under a fresh cache and checks it against the models:
/// the structure holds, every visible file holds a version that was
/// written, durable files and directories are exact. Returns the first
/// clusters of the directories it found.
fn check_fat_cut(image: Vec<u8>, model: &Model, dirs: &Model, note: &str) -> Vec<u32> {
    let mut disk2 = MemDisk::from_image(image);
    let mut bc2 = BufCache::default();
    let fs2 = Fat32::mount(&mut disk2, &mut bc2)
        .unwrap_or_else(|e| panic!("[{note}] remount failed: {e}"));
    let visible = check_fat_structure(&mut disk2, &mut bc2, &fs2, note);

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
    for (path, m) in model {
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
    // A directory that is there was made; one made durably is there.
    let mut clusters = vec![fs2.bpb().root_cluster];
    for (dir, m) in dirs {
        let found = match fs2.lookup(&mut disk2, &mut bc2, dir) {
            Ok(e) => {
                assert!(e.is_dir, "[{note}] {dir} is not a directory");
                clusters.push(e.first_cluster);
                true
            }
            Err(FsError::NotFound(_)) => false,
            Err(e) => panic!("[{note}] looking up {dir} failed: {e}"),
        };
        if found {
            assert!(m.states.len() > 1, "[{note}] {dir} was never made");
        }
        if !m.dirty_since_barrier && m.states[m.committed].is_some() {
            assert!(found, "[{note}] durable directory {dir} lost after the cut");
        }
    }
    clusters
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
        let mut disk = LoggedDisk {
            disk: MemDisk::new(16 * 1024),
            log: Vec::new(),
        };
        let mut bc = BufCache::with_geometry(4, 8);
        let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
        fs.create(&mut disk, &mut bc, "/SUB", true).unwrap();
        bc.flush(&mut disk).unwrap();
        let start_image = disk.disk.image().to_vec();
        disk.log.clear();

        // FAT stores 8.3 names upper-cased; keep the model keyed the same
        // way so remounted listings match directly.
        let names: Vec<String> = (0..4)
            .map(|i| format!("/F{i}.BIN"))
            .chain((0..2).map(|i| format!("/SUB/G{i}.BIN")))
            .collect();
        // Directories the schedule may create; their state is `Some` once
        // made.
        let dir_names = ["/D0", "/SUB/D1"];
        // What each path holds as the schedule runs, for the next op's
        // draw.
        let mut current: BTreeMap<String, Option<Vec<u8>>> =
            names.iter().map(|n| (n.clone(), None)).collect();
        let mut steps: Vec<Step> = Vec::new();
        let mut version = 0u64;

        // Arm the cut: somewhere within the first few thousand persisted
        // blocks (some seeds never reach it — those validate the quiescent
        // path).
        let cut_after = rng.below(2500);
        disk.disk.power_cut_after(cut_after);

        for _op in 0..40 {
            if disk.disk.power_lost() {
                break;
            }
            let which = rng.below(13);
            let name = names[rng.below(names.len() as u64) as usize].clone();
            let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
            // Writing a file that has a chain swaps chains in a logged
            // transaction, a full durability barrier on success; a new or
            // empty file's write is asynchronous, ordered data ≺ FAT ≺
            // dirent.
            let has_chain = current[&name].as_ref().is_some_and(|v| !v.is_empty());
            let start = disk.log.len();
            let (ok, changes, is_barrier) = match which {
                // Write (create or overwrite).
                0..=4 => {
                    version += 1;
                    let len = 1 + rng.below(40 * 1024) as usize;
                    let data = pattern(file_id, version, len);
                    let r = fs.write_file(&mut disk, &mut bc, &name, &data);
                    (r.is_ok(), vec![(name, Some(data))], has_chain)
                }
                // Write at a nonzero offset: the file is read, patched and
                // written back whole.
                10 => {
                    let Some(old) = current[&name].clone() else {
                        assert!(fs.write_at(&mut disk, &mut bc, &name, 1, b"x").is_err());
                        continue;
                    };
                    version += 1;
                    let offset = 1 + rng.below(48 * 1024) as usize;
                    let data = pattern(file_id, version, 1 + rng.below(16 * 1024) as usize);
                    let r = fs.write_at(&mut disk, &mut bc, &name, offset as u32, &data);
                    let new = patched(&old, offset, &data);
                    (r.is_ok(), vec![(name, Some(new))], has_chain)
                }
                // Create an empty file: one asynchronous dirent write.
                8 => {
                    let r = fs.create(&mut disk, &mut bc, &name, false);
                    (r.is_ok(), vec![(name, Some(Vec::new()))], false)
                }
                // Create a directory (logged; barrier on success).
                9 => {
                    let dir = dir_names[rng.below(dir_names.len() as u64) as usize];
                    let r = fs.create(&mut disk, &mut bc, dir, true);
                    (r.is_ok(), vec![(dir.to_string(), Some(Vec::new()))], true)
                }
                // Remove (logged; barrier on success).
                5 => {
                    let r = fs.remove(&mut disk, &mut bc, &name);
                    (r.is_ok(), vec![(name, None)], true)
                }
                // Rename (logged; barrier on success).
                6 => {
                    let to = names[rng.below(names.len() as u64) as usize].clone();
                    if to == name {
                        continue;
                    }
                    let moved = current[&name].clone();
                    let r = fs.rename(&mut disk, &mut bc, &name, &to);
                    (r.is_ok(), vec![(name, None), (to, moved)], true)
                }
                // fsync / sync_all.
                7 => (bc.flush(&mut disk).is_ok(), vec![], true),
                // Background flusher ticks with a random budget.
                _ => {
                    let _ = bc.flush_some(&mut disk, 8 + rng.below(120));
                    (true, vec![], false)
                }
            };
            let cut = disk.disk.power_lost();
            if ok || cut {
                for (path, state) in &changes {
                    if let Some(c) = current.get_mut(path) {
                        c.clone_from(state);
                    }
                }
                steps.push(Step {
                    writes: start..disk.log.len(),
                    changes,
                    barrier: is_barrier,
                    cut,
                });
            }
        }
        // The schedules never rely on the ordering escape hatch.
        assert_eq!(
            bc.stats().forced_meta_writes,
            0,
            "[seed {seed}] drain hit a dependency cycle"
        );

        // "Power cut": remount exactly what persisted, under a fresh cache.
        // Then the cuts at sampled earlier points where a FAT or directory
        // sector had just landed, when a write-order mistake shows.
        let log = std::mem::take(&mut disk.log);
        let (model, dirs) = fat_models_at(&steps, &names, &dir_names, log.len());
        let note = format!("seed {seed}, cut {cut_after}");
        let dir_clusters = check_fat_cut(disk.disk.image().to_vec(), &model, &dirs, &note);
        let bpb = fs.bpb();
        let metadata = |lba: u64| {
            lba < u64::from(bpb.data_start)
                || dir_clusters.iter().any(|&c| {
                    let first = u64::from(bpb.data_start)
                        + u64::from(c - FIRST_CLUSTER) * CLUSTER_BYTES / BLOCK_SIZE as u64;
                    (first..first + CLUSTER_BYTES / BLOCK_SIZE as u64).contains(&lba)
                })
        };
        let mut points: Vec<usize> = (1..log.len()).filter(|&k| metadata(log[k - 1].0)).collect();
        let mut picked = Vec::new();
        while picked.len() < PREFIX_CUTS && !points.is_empty() {
            picked.push(points.swap_remove(rng.below(points.len() as u64) as usize));
        }
        picked.sort_unstable();
        let mut image = start_image;
        let mut applied = 0;
        for k in picked {
            for (lba, data) in &log[applied..k] {
                let at = *lba as usize * BLOCK_SIZE;
                image[at..at + BLOCK_SIZE].copy_from_slice(data);
            }
            applied = k;
            let (model, dirs) = fat_models_at(&steps, &names, &dir_names, k);
            let note = format!("seed {seed}, cut {k} of the log's {}", log.len());
            check_fat_cut(image.clone(), &model, &dirs, &note);
        }
    }
}

#[test]
fn fat32_ordering_regression_exhaustive_cut_sweep() {
    // The deterministic regression for the dependency-ordered drain. A new
    // file's dirty blocks are: FAT sectors and the root-directory sector at
    // low LBAs, data clusters at high LBAs — so a pure-LBA drain writes the
    // metadata *first*, and a cut between them publishes a file whose
    // clusters never reached the device. The sweep cuts the flush after
    // every possible block count k and remounts: for every k the file is
    // absent or bit-exact.
    let data = pattern(7, 1, 16 * 1024);
    // Dry run to learn the dirty-block count of the scenario.
    let total = {
        let (mut disk, mut bc, fs) = fresh_fat();
        fs.write_file(&mut disk, &mut bc, "/a.bin", &data).unwrap();
        bc.dirty_blocks() as u64
    };
    assert!(total > 8, "scenario should span FAT + dirent + data");
    for k in 0..=total {
        let (mut disk, mut bc, fs) = fresh_fat();
        fs.write_file(&mut disk, &mut bc, "/a.bin", &data).unwrap();
        disk.power_cut_after(k);
        let flush = bc.flush(&mut disk);
        if k < total {
            assert!(flush.is_err(), "cut at {k}/{total} must fail the flush");
        }
        disk.power_restored();
        let torn = a_bin_is_torn(disk.image().to_vec(), &data);
        assert!(!torn, "ordered drain, cut at {k}/{total}: /a.bin is torn");
    }

    // The sweep can see the bug: the same flush, logged, then replayed
    // block by block. Every prefix in the drain's own order holds /a.bin
    // absent or bit-exact; some prefix of the same blocks in LBA order
    // publishes it torn.
    let mut disk = LoggedDisk {
        disk: MemDisk::new(8 * 1024),
        log: Vec::new(),
    };
    let mut bc = BufCache::default();
    let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
    bc.flush(&mut disk).unwrap();
    fs.write_file(&mut disk, &mut bc, "/a.bin", &data).unwrap();
    let start = disk.disk.image().to_vec();
    disk.log.clear();
    bc.flush(&mut disk).unwrap();
    let drained = std::mem::take(&mut disk.log);
    assert_eq!(
        drained.len() as u64,
        total,
        "the logged flush is the swept one"
    );
    let torn_prefixes = |log: &[(u64, Vec<u8>)]| {
        let mut image = start.clone();
        let mut torn = Vec::new();
        for (k, (lba, block)) in log.iter().enumerate() {
            let at = *lba as usize * BLOCK_SIZE;
            image[at..at + BLOCK_SIZE].copy_from_slice(block);
            if a_bin_is_torn(image.clone(), &data) {
                torn.push(k + 1);
            }
        }
        torn
    };
    let mut by_lba = drained.clone();
    by_lba.sort_by_key(|(lba, _)| *lba);
    assert_eq!(torn_prefixes(&drained), Vec::<usize>::new(), "drain order");
    assert!(
        !torn_prefixes(&by_lba).is_empty(),
        "an LBA-order replay of the same blocks must publish a torn /a.bin"
    );
}

/// Whether `image` remounts with `/a.bin` visible but not holding `data`:
/// absent (the old tree) and bit-exact (the new one) are the legal states.
fn a_bin_is_torn(image: Vec<u8>, data: &[u8]) -> bool {
    let mut disk = MemDisk::from_image(image);
    let mut bc = BufCache::default();
    let fs = Fat32::mount(&mut disk, &mut bc).unwrap();
    match fs.lookup(&mut disk, &mut bc, "/a.bin") {
        Err(FsError::NotFound(_)) => false,
        Ok(_) => fs
            .read_file(&mut disk, &mut bc, "/a.bin")
            .map_or(true, |c| c != data),
        Err(e) => panic!("lookup of /a.bin failed oddly: {e}"),
    }
}

fn fresh_fat() -> (MemDisk, BufCache, Fat32) {
    let mut disk = MemDisk::new(8 * 1024);
    let mut bc = BufCache::default();
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
        let (mut disk, mut bc, fs) = fresh_fat();
        fs.write_file(&mut disk, &mut bc, "/v.bin", &old).unwrap();
        bc.flush(&mut disk).unwrap();
        let before = disk.stats().blocks;
        fs.write_file(&mut disk, &mut bc, "/v.bin", &new).unwrap();
        disk.stats().blocks - before
    };
    let mut saw_old = false;
    let mut saw_new = false;
    for k in (0..=total).step_by(3) {
        let (mut disk, mut bc, fs) = fresh_fat();
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
        let (mut disk, mut bc, fs) = fresh_fat();
        fs.write_file(&mut disk, &mut bc, "/src.bin", &data)
            .unwrap();
        bc.flush(&mut disk).unwrap();
        let before = disk.stats().blocks;
        fs.rename(&mut disk, &mut bc, "/src.bin", "/dst.bin")
            .unwrap();
        disk.stats().blocks - before
    };
    for k in 0..=total {
        let (mut disk, mut bc, fs) = fresh_fat();
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
        let (mut disk, mut bc, mut fs) = fresh_fat();
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
        let (mut disk, mut bc, mut fs) = fresh_fat();
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
        let (mut disk, mut bc, mut fs) = fresh_fat();
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
        rig.sd.card.power_cut_after(k);
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
        torn_chains += rig.sd.card.torn_writes();
        rig.sd.card.power_restored();
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
    rig.sd.card.inject_fault(600); // inside the second region's chain
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
    rig.sd.card.clear_faults();
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
    rig.sd.card.inject_fault(faulty);
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
    rig.sd.card.clear_faults();
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
    // write() closes the group. It is built once, and each cut runs on a
    // fork of it.
    let (pre, writer, fd) = {
        let mut sys = ProtoSystem::desktop().unwrap();
        let sd = &sys.kernel.board.sdhost;
        assert_eq!(sd.data_mode(), SdDataMode::Dma);
        assert!(!sd.card.posted_writes());
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
    let close_group = |sys: &mut ProtoSystem| {
        sys.kernel
            .with_task_ctx(writer, |ctx| ctx.write(fd, &news[n - 1]))
    };
    // The dry run: a fault on the header sector stops the closing write()
    // at its record, so every block it persisted is the ready drain's, and
    // the group it failed to commit is still pending.
    let (d, k) = {
        let mut sys = pre.fork().unwrap();
        sys.kernel
            .board
            .sdhost
            .card
            .inject_fault(FAT_PARTITION_START + INTENT_LOG_START);
        let before = sys.kernel.fat_cache_stats().writebacks;
        assert!(close_group(&mut sys).is_err());
        let d = sys.kernel.fat_cache_stats().writebacks - before;
        (d, sys.kernel.fat_cache().unwrap().group_sectors() as u64)
    };
    assert!(d > 0, "the ready drain persists the pending data first");
    assert!(k >= 2, "the record must carry several payloads, got {k}");
    for j in 0..=k + 2 {
        let mut sys = pre.fork().unwrap();
        sys.kernel.board.sdhost.card.power_cut_after(d + j);
        let closing = close_group(&mut sys);
        assert!(closing.is_err(), "cut {j}: the closing write() fails");
        sys.kernel.board.sdhost.card.power_restored();
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
    // A new file's create and write commit as one transaction, and its
    // inode drains only after its data and bitmap blocks, so at any cut
    // point of the write and the flush behind it the file is absent or
    // bit-exact — never garbage.
    let data = pattern(9, 1, 20 * 1024);
    let build = || {
        let mut disk = MemDisk::new(8192);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
        bc.flush(&mut disk).unwrap();
        (disk, bc, fs)
    };
    let total = {
        let (mut disk, mut bc, fs) = build();
        let before = disk.stats().blocks;
        fs.write_file(&mut disk, &mut bc, "/a", &data).unwrap();
        bc.flush(&mut disk).unwrap();
        disk.stats().blocks - before
    };
    for k in 0..=total {
        let (mut disk, mut bc, fs) = build();
        disk.power_cut_after(k);
        let _ = fs.write_file(&mut disk, &mut bc, "/a", &data);
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
            Err(FsError::NotFound(_)) => {} // absent: the old tree
            Err(e) => panic!("cut at {k}/{total}: unexpected error {e}"),
        }
    }
}

#[test]
fn xv6fs_offset_write_cut_sweep_keeps_block_maps_consistent() {
    // `sys_write` on the root filesystem is the inode-level `Xv6Fs::write`,
    // which runs outside any transaction. Growing a file from the middle
    // of its direct blocks, within them and on into its indirect block, it
    // must hold its ordering edges at every cut: each block the inode maps
    // is marked in the bitmap and mapped once, and every byte of the file
    // is its old byte or the written one.
    let old = pattern(3, 1, 5 * BSIZE);
    let offset = 3 * BSIZE + 100;
    for blocks in [6, 16] {
        let data = pattern(3, 2, blocks * BSIZE);
        let new = patched(&old, offset, &data);
        let build = || {
            let mut disk = MemDisk::new(8192);
            let mut bc = BufCache::default();
            let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
            fs.write_file(&mut disk, &mut bc, "/f", &old).unwrap();
            bc.flush(&mut disk).unwrap();
            let inum = fs.lookup(&mut disk, &mut bc, "/f").unwrap();
            fs.write(&mut disk, &mut bc, inum, offset as u32, &data)
                .unwrap();
            (disk, bc, inum)
        };
        let total = build().1.dirty_blocks() as u64;
        for k in 0..=total {
            let (mut disk, mut bc, inum) = build();
            disk.power_cut_after(k);
            let _ = bc.flush(&mut disk);
            disk.power_restored();
            let mut disk2 = MemDisk::from_image(disk.image().to_vec());
            let mut bc2 = BufCache::default();
            let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2).unwrap();
            let note = format!("{blocks} blocks written, cut {k} of {total}");
            let inums = BTreeSet::from([1, inum]);
            check_xv6_blocks(&mut disk2, &mut bc2, &fs2, &inums, true, &note);
            let got = fs2.read_file(&mut disk2, &mut bc2, "/f").unwrap();
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
        }
    }
}

/// The directories the xv6fs schedules may create; a state is `Some` once
/// made.
fn xv6_dir_model() -> Model {
    ["/d0", "/etc/d1"]
        .iter()
        .map(|n| (n.to_string(), PathModel::new()))
        .collect()
}

/// What one xv6fs draw changed: the path, its new state, and whether the
/// call ran as a journaled transaction.
struct Drawn {
    path: String,
    state: Option<Vec<u8>>,
    logged: bool,
}

/// One xv6fs draw of a file create, a directory create or an inode-level
/// [`Xv6Fs::write`] of `data` at a nonzero offset — `sys_write`'s path. The
/// creates are journaled transactions, the offset write is not. Returns
/// the change to record, if the call succeeded or the cut interrupted it
/// (it may still land).
fn xv6_draw(
    fs: &Xv6Fs,
    disk: &mut MemDisk,
    bc: &mut BufCache,
    rng: &mut Rng,
    files: &Model,
    name: &str,
    data: &[u8],
) -> Option<Drawn> {
    let (path, state, logged, outcome) = match rng.below(3) {
        0 => {
            let r = fs.create(disk, bc, name, InodeType::File);
            (name.to_string(), Some(Vec::new()), true, r.map(drop))
        }
        1 => {
            let dir = ["/d0", "/etc/d1"][rng.below(2) as usize];
            let r = fs.create(disk, bc, dir, InodeType::Dir);
            (dir.to_string(), Some(Vec::new()), true, r.map(drop))
        }
        _ => {
            let Some(old) = files[name].current() else {
                assert!(fs.lookup(disk, bc, name).is_err(), "{name} is absent");
                return None;
            };
            let offset = 1 + rng.below(30 * 1024) as usize;
            let r = fs
                .lookup(disk, bc, name)
                .and_then(|inum| fs.write(disk, bc, inum, offset as u32, data));
            let state = Some(patched(old, offset, data));
            (name.to_string(), state, false, r.map(drop))
        }
    };
    (outcome.is_ok() || disk.power_lost()).then_some(Drawn {
        path,
        state,
        logged,
    })
}

/// A directory that is there was made, and one made durably is there.
fn check_xv6_dirs(
    disk: &mut dyn BlockDevice,
    bc: &mut BufCache,
    fs: &Xv6Fs,
    dirs: &Model,
    note: &str,
) {
    for (dir, m) in dirs {
        let found = match fs.lookup(disk, bc, dir) {
            Ok(inum) => {
                let st = fs.stat(disk, bc, inum).unwrap();
                assert_eq!(
                    st.itype,
                    InodeType::Dir,
                    "[{note}] {dir} is not a directory"
                );
                true
            }
            Err(FsError::NotFound(_)) => false,
            Err(e) => panic!("[{note}] looking up {dir} failed: {e}"),
        };
        if found {
            assert!(m.states.len() > 1, "[{note}] {dir} was never made");
        }
        if !m.dirty_since_barrier && m.states[m.committed].is_some() {
            assert!(found, "[{note}] durable directory {dir} lost after the cut");
        }
    }
}

#[test]
fn xv6fs_random_cut_schedules_remount_cleanly_and_keep_durable_data() {
    for seed in 0..40u64 {
        let mut rng = Rng::new(7000 + seed);
        let mut disk = MemDisk::new(8192); // 4 MB
        let mut bc = BufCache::with_geometry(4, 8);
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
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
        let mut dirs = xv6_dir_model();
        let mut version = 0u64;
        let cut_after = rng.below(1500);
        disk.power_cut_after(cut_after);

        for _op in 0..30 {
            if disk.power_lost() {
                break;
            }
            let name = names[rng.below(names.len() as u64) as usize].clone();
            let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
            match rng.below(11) {
                6..=8 => {
                    version += 1;
                    let data = pattern(file_id, version, 1 + rng.below(8 * 1024) as usize);
                    let drawn = xv6_draw(&fs, &mut disk, &mut bc, &mut rng, &model, &name, &data);
                    if let Some(d) = drawn {
                        let m = if dirs.contains_key(&d.path) {
                            &mut dirs
                        } else {
                            &mut model
                        };
                        m.get_mut(&d.path).unwrap().push(d.state);
                    }
                }
                0..=3 => {
                    version += 1;
                    let len = 1 + rng.below(30 * 1024) as usize;
                    let data = pattern(file_id, version, len);
                    match fs.write_file(&mut disk, &mut bc, &name, &data) {
                        Ok(_) => model.get_mut(&name).unwrap().push(Some(data)),
                        // A write interrupted by the cut may still land by
                        // replay: record the attempted contents, and the
                        // created-but-empty state, as possible outcomes.
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
                        barrier(&mut dirs);
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

        // Full traversal must never panic; a dirent naming a free inode
        // would surface as a clean NotFound on read.
        let mut pending = vec![String::from("/")];
        let mut visible: Vec<(String, Vec<u8>)> = Vec::new();
        let mut inums = BTreeSet::from([1]);
        while let Some(dir) = pending.pop() {
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
                    Ok(st) if st.itype == InodeType::Dir => {
                        inums.insert(e.inum);
                        pending.push(path);
                    }
                    Ok(_) => {
                        inums.insert(e.inum);
                        if let Ok(content) = fs2.read_file(&mut disk2, &mut bc2, &path) {
                            visible.push((path, content));
                        }
                    }
                    Err(FsError::NotFound(_)) => {} // dangling dirent: benign
                    Err(err) => panic!("[{note}] stat {path}: {err}"),
                }
            }
        }
        // The bitmap too: an overwrite's truncate and rewrite commit as one
        // transaction, so its frees never land before the inode stops
        // mapping the blocks (an ordered drain alone cannot promise that:
        // the rewrite's allocations share the bitmap block, and seed 30
        // showed the frees first when the journal could be turned off).
        check_xv6_blocks(&mut disk2, &mut bc2, &fs2, &inums, true, &note);
        check_xv6_dirs(&mut disk2, &mut bc2, &fs2, &dirs, &note);
        // No per-version content check here: the inode-level offset writes
        // run outside any transaction, so a cut may leave any mix of their
        // old and new blocks. The posted-cache schedule below tracks the
        // paths they touched and checks every other file's version.
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
// clear, FLUSH) makes every metadata operation old-XOR-new: a dangling
// dirent and a half-applied overwrite are asserted impossible here.

/// A journaled xv6fs on a posted-write-cache MemDisk with `/f` holding
/// `old` durably.
fn xv6_posted_with_old(old: &[u8]) -> (MemDisk, BufCache, Xv6Fs) {
    let mut disk = MemDisk::new(8192);
    let mut bc = BufCache::default();
    let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 4096, 128).unwrap();
    assert!(fs.superblock().nlog > 0, "mkfs must write a log");
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
        let mut dirs = xv6_dir_model();
        // Paths an offset write, which runs outside any transaction, touched
        // since the last barrier:
        // after a cut they may hold any mix of their old and new blocks.
        let mut unlogged: BTreeSet<String> = BTreeSet::new();
        let mut version = 0u64;
        let cut_after = rng.below(1200);
        disk.power_cut_after(cut_after);

        for _op in 0..25 {
            if disk.power_lost() {
                break;
            }
            let name = names[rng.below(names.len() as u64) as usize].clone();
            let file_id = names.iter().position(|n| *n == name).unwrap() as u64;
            match rng.below(12) {
                6..=8 => {
                    version += 1;
                    let data = pattern(file_id, version, 1 + rng.below(8 * 1024) as usize);
                    let drawn = xv6_draw(&fs, &mut disk, &mut bc, &mut rng, &model, &name, &data);
                    if let Some(d) = drawn {
                        let m = if dirs.contains_key(&d.path) {
                            &mut dirs
                        } else {
                            &mut model
                        };
                        m.get_mut(&d.path).unwrap().push(d.state);
                        if !d.logged {
                            unlogged.insert(d.path);
                        } else if !disk.power_lost() {
                            // Each journaled op commits durably on return.
                            barrier(&mut model);
                            barrier(&mut dirs);
                            unlogged.clear();
                        }
                    }
                }
                9 => {
                    if bc.flush(&mut disk).is_ok() && !disk.power_lost() {
                        barrier(&mut model);
                        barrier(&mut dirs);
                        unlogged.clear();
                    }
                }
                0..=4 => {
                    version += 1;
                    let len = 1 + rng.below(20 * 1024) as usize;
                    let data = pattern(file_id, version, len);
                    match fs.write_file(&mut disk, &mut bc, &name, &data) {
                        Ok(_) => {
                            model.get_mut(&name).unwrap().push(Some(data));
                            // Each journaled op commits durably on return.
                            barrier(&mut model);
                            barrier(&mut dirs);
                            unlogged.clear();
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
                        barrier(&mut dirs);
                        unlogged.clear();
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

        let mut pending = vec![String::from("/")];
        let mut visible: Vec<(String, Vec<u8>)> = Vec::new();
        let mut inums = BTreeSet::from([1]);
        while let Some(dir) = pending.pop() {
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
                inums.insert(e.inum);
                if st.itype == InodeType::Dir {
                    pending.push(path);
                } else {
                    let content = fs2
                        .read_file(&mut disk2, &mut bc2, &path)
                        .unwrap_or_else(|err| panic!("[{note}] read {path}: {err}"));
                    visible.push((path, content));
                }
            }
        }
        check_xv6_blocks(&mut disk2, &mut bc2, &fs2, &inums, true, &note);
        check_xv6_dirs(&mut disk2, &mut bc2, &fs2, &dirs, &note);
        // Every visible file holds exactly one historically written
        // version, unless an offset write was cut short in it.
        for (path, content) in &visible {
            if unlogged.contains(path) {
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
        let (mut disk, mut bc, fs) = fresh_fat();
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
        let (mut disk, mut bc, fs) = fresh_fat();
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
    // Reuse-after-commit: a freed block stays fenced (`note_pending_free`)
    // until the free is durable, and the unlink's commit makes it so.
    // Filling the volume, unlinking, and immediately rewriting must succeed
    // by reusing the unlinked file's blocks, never by handing out a block a
    // durable inode still owns.
    let mut disk = MemDisk::new(512); // 256 KB => 256 fs blocks
    let mut bc = BufCache::default();
    let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 256, 64).unwrap();
    bc.flush(&mut disk).unwrap();
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
    // with NoSpace before it persists anything.
    for (kb, fits) in [(78, true), (127, false), (214, false)] {
        let old = pattern(8, 1, kb * 1024);
        let new = pattern(8, 2, kb * 1024);
        let mut k = 0u64;
        loop {
            let mut disk = MemDisk::new(512);
            let mut bc = BufCache::default();
            let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 256, 64).unwrap();
            fs.write_file(&mut disk, &mut bc, "/f", &old).unwrap();
            bc.flush(&mut disk).unwrap();
            let before = disk.image();
            disk.power_cut_after(k);
            let res = fs.write_file(&mut disk, &mut bc, "/f", &new);
            let complete = !disk.power_lost();
            disk.power_restored();
            let note = format!("{kb} KB, cut at {k}");
            let mut disk2 = MemDisk::from_image(disk.image());
            let mut bc2 = BufCache::default();
            let fs2 = Xv6Fs::mount(&mut disk2, &mut bc2)
                .unwrap_or_else(|e| panic!("[{note}] remount failed: {e}"));
            let got = fs2
                .read_file(&mut disk2, &mut bc2, "/f")
                .unwrap_or_else(|e| panic!("[{note}] /f unreadable: {e}"));
            assert!(
                got == old || got == new,
                "[{note}] /f torn ({} bytes, neither version)",
                got.len()
            );
            if complete {
                if fits {
                    assert!(res.is_ok(), "[{note}] the overwrite fits: {res:?}");
                    assert_eq!(got, new, "[{note}] a completed overwrite is durable");
                } else {
                    assert!(
                        matches!(res, Err(FsError::NoSpace)),
                        "[{note}] the overwrite does not fit: {res:?}"
                    );
                    bc.flush(&mut disk).unwrap();
                    assert!(
                        disk.image() == before,
                        "[{note}] a refused overwrite persisted"
                    );
                }
                break;
            }
            k += 1;
        }
    }
}

#[test]
fn xv6fs_unlink_rewrite_cut_sweep_never_tears_the_durable_old_file() {
    // The crash half of the reuse fence: cut anywhere during an
    // unlink-then-rewrite that recycles the old file's blocks, and the
    // durable old file is either bit-exact or cleanly absent — its blocks
    // were never clobbered while a durable dirent still reached them.
    let setup = |fs: &Xv6Fs, disk: &mut MemDisk, bc: &mut BufCache| -> (Vec<u8>, Vec<u8>) {
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
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 256, 64).unwrap();
        let (_, big2) = setup(&fs, &mut disk, &mut bc);
        let before = disk.stats().blocks;
        fs.unlink(&mut disk, &mut bc, "/big").unwrap();
        fs.write_file(&mut disk, &mut bc, "/big2", &big2).unwrap();
        disk.stats().blocks - before
    };
    for k in (0..=total).step_by(5) {
        let mut disk = MemDisk::new(512);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, 256, 64).unwrap();
        let (big, big2) = setup(&fs, &mut disk, &mut bc);
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
