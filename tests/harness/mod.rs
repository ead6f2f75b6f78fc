//! The cut harness the crash-consistency and failure-atomicity suites
//! share, and the seeded helpers of every randomised suite.
//!
//! A crash test is a row of four parts:
//!
//! - **a pre-state**: a volume on a disk with its cache ([`Vol`], a plain
//!   clone), or a forked [`ProtoSystem`];
//! - **an op**, run once on a copy of the pre-state with the disk's persist
//!   log on ([`Cuts::record`]). The log holds every block in the order it
//!   reached the medium, so the disk from before the op with the log's
//!   first `k` blocks applied is the image a power cut after `k` blocks
//!   leaves (see `hal::disk`'s module doc);
//! - **cut points**: every prefix of the log, or a sample where a cut per
//!   block is too slow;
//! - **a check**: [`Cuts::sweep`] remounts each cut's image under a cold
//!   cache, holds it to its filesystem's fsck invariants ([`Volume::fsck`])
//!   and hands it to the row, which compares the volume's [`Tree`] with a
//!   [`Model`] of what was durable and what may have landed, or requires
//!   the tree from before the op or the one after it ([`Cuts::atomic`]).
//!
//! `crash_consistency`'s `real_cuts_persist_what_the_log_says` cuts for real
//! at every k and checks each result against the log.

use std::collections::{BTreeMap, BTreeSet};

use hal::board::SimBoard;
use hal::disk::PersistLog;
use kernel::kernel::FAT_PARTITION_START;
use proto::prototype::ProtoSystem;
use protofs::block::{BlockIoStats, SdBlockDevice, SdDmaCtx};
use protofs::bufcache::BufCache;
use protofs::fat32::{Fat32, FatEntry, CLUSTER_SIZE, FIRST_CLUSTER};
use protofs::xv6fs::{InodeType, Xv6Fs, BSIZE, INODE_SIZE, IPB, NDIRECT, ROOT_INUM};
use protofs::{BlockDevice, FsError, FsResult, MemDisk, BLOCK_SIZE};

/// A tiny SplitMix64-style generator: deterministic, seedable.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = z;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// Distinguishable file contents: every (file, version) pair yields a unique
/// byte stream, so a remounted file identifies exactly which version (if
/// any) it holds.
pub fn pattern(file_id: u64, version: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((file_id * 131 + version * 29 + i as u64) % 251) as u8)
        .collect()
}

/// What a path holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Dir,
    File(Vec<u8>),
}

/// A file holding `bytes`, as a model state.
pub fn file(bytes: &[u8]) -> Option<Node> {
    Some(Node::File(bytes.to_vec()))
}

/// What a volume shows through its API: each path in walk order, with how
/// the volume describes it (kind, size, inode) and what it holds, and the
/// free count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    pub paths: Vec<(String, (String, Node))>,
    pub free: u32,
}

impl Tree {
    /// What `path` holds, if the tree has it.
    pub fn get(&self, path: &str) -> Option<&Node> {
        let mut paths = self.paths.iter();
        paths.find(|(p, _)| p == path).map(|(_, (_, node))| node)
    }
}

/// The two filesystems, as the harness drives them.
pub trait Volume: Sized + Clone {
    fn mount(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Self>;
    fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()>;
    /// Each entry of the directory `dir`: its name, how the volume
    /// describes it, and whether it is a directory.
    fn list(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir: &str,
    ) -> Vec<(String, String, bool)>;
    fn read(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, path: &str) -> FsResult<Vec<u8>>;
    fn free(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> u32;
    /// Checks the filesystem's structural invariants over everything the
    /// root reaches, and panics, naming `note`, at the first broken one.
    fn fsck(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, note: &str);

    fn tree(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> Tree {
        let mut paths = Vec::new();
        let mut dirs = vec![String::new()];
        while let Some(dir) = dirs.pop() {
            for (name, stat, is_dir) in self.list(dev, bc, if dir.is_empty() { "/" } else { &dir })
            {
                let path = format!("{dir}/{name}");
                let node = if is_dir {
                    dirs.push(path.clone());
                    Node::Dir
                } else {
                    Node::File(self.read(dev, bc, &path).unwrap())
                };
                paths.push((path, (stat, node)));
            }
        }
        let free = self.free(dev, bc);
        Tree { paths, free }
    }
}

impl Volume for Xv6Fs {
    fn mount(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Self> {
        Xv6Fs::mount(dev, bc)
    }

    fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        Xv6Fs::commit_pending(self, dev, bc)
    }

    fn list(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir: &str,
    ) -> Vec<(String, String, bool)> {
        let entries = self.list_dir(dev, bc, dir).unwrap();
        entries
            .into_iter()
            .map(|e| {
                let st = self.stat(dev, bc, e.inum).unwrap();
                (e.name, format!("{st:?}"), st.itype == InodeType::Dir)
            })
            .collect()
    }

    fn read(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, path: &str) -> FsResult<Vec<u8>> {
        self.read_file(dev, bc, path)
    }

    fn free(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> u32 {
        self.free_blocks(dev, bc).unwrap()
    }

    /// Every entry names an allocated inode, and every block an inode maps
    /// lies in the data area, is marked used in the bitmap and belongs to
    /// that inode alone.
    fn fsck(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, note: &str) {
        let mut inums = BTreeSet::from([ROOT_INUM]);
        let mut dirs = vec![String::new()];
        while let Some(dir) = dirs.pop() {
            let entries = self
                .list_dir(dev, bc, if dir.is_empty() { "/" } else { &dir })
                .unwrap_or_else(|e| panic!("[{note}] listing {dir}/ failed: {e}"));
            for e in entries {
                let path = format!("{dir}/{}", e.name);
                let st = self
                    .stat(dev, bc, e.inum)
                    .unwrap_or_else(|err| panic!("[{note}] dangling entry {path}: {err}"));
                assert_ne!(
                    st.itype,
                    InodeType::Free,
                    "[{note}] {path} names a free inode"
                );
                if inums.insert(e.inum) && st.itype == InodeType::Dir {
                    dirs.push(path);
                }
            }
        }
        check_xv6_blocks(dev, bc, self, &inums, note);
    }
}

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
/// lies in the data area, is marked used in the bitmap and belongs to that
/// inode alone.
fn check_xv6_blocks(
    disk: &mut dyn BlockDevice,
    bc: &mut BufCache,
    fs: &Xv6Fs,
    inums: &BTreeSet<u32>,
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
            let bits = xv6_block(disk, bc, sb.bmapstart + b / bits_per_block);
            let bit = (b % bits_per_block) as usize;
            assert!(
                bits[bit / 8] & (1 << (bit % 8)) != 0,
                "[{note}] inode {inum} maps block {b}, which the bitmap marks free"
            );
            if let Some(other) = owner.insert(b, inum) {
                panic!("[{note}] block {b} is mapped by inodes {other} and {inum}");
            }
        }
    }
}

impl Volume for Fat32 {
    fn mount(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Self> {
        Fat32::mount(dev, bc)
    }

    fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        Fat32::commit_pending(self, dev, bc)
    }

    fn list(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir: &str,
    ) -> Vec<(String, String, bool)> {
        let entries = self.list_dir(dev, bc, dir).unwrap();
        let stat = |e: &FatEntry| format!("dir={} size={}", e.is_dir, e.size);
        entries
            .iter()
            .map(|e| (e.name.clone(), stat(e), e.is_dir))
            .collect()
    }

    fn read(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, path: &str) -> FsResult<Vec<u8>> {
        self.read_file(dev, bc, path)
    }

    fn free(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> u32 {
        self.free_clusters(dev, bc).unwrap()
    }

    /// Every chain stays in the data area, reaches no free cluster, shares
    /// no cluster with another, ends, and is long enough for its entry's
    /// size. Reads the FAT straight from the medium.
    fn fsck(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, note: &str) {
        let bpb = self.bpb();
        let entry = |dev: &mut dyn BlockDevice, cluster: u32| {
            let byte = cluster as u64 * 4;
            let mut buf = [0u8; BLOCK_SIZE];
            dev.read_block(bpb.fat_start as u64 + byte / BLOCK_SIZE as u64, &mut buf)
                .unwrap();
            let at = (byte % BLOCK_SIZE as u64) as usize;
            u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) & 0x0FFF_FFFF
        };
        let mut seen = BTreeSet::new();
        let mut dirs = vec![String::new()];
        while let Some(dir) = dirs.pop() {
            let entries = self
                .list_dir(dev, bc, if dir.is_empty() { "/" } else { &dir })
                .unwrap_or_else(|e| panic!("[{note}] listing {dir}/ failed: {e}"));
            for e in entries {
                let path = format!("{dir}/{}", e.name);
                let (mut c, mut len) = (e.first_cluster, 0u64);
                while (FIRST_CLUSTER..0x0FFF_FFF8).contains(&c) {
                    assert!(
                        c < FIRST_CLUSTER + bpb.cluster_count,
                        "[{note}] {path}: chain leaves the data area at {c}"
                    );
                    assert!(
                        seen.insert(c),
                        "[{note}] {path}: cluster {c} cross-linked between files"
                    );
                    let next = entry(dev, c);
                    assert_ne!(
                        next, 0,
                        "[{note}] {path}: chain references FREE cluster after {c}"
                    );
                    len += 1;
                    c = next;
                }
                let needed = u64::from(e.size).div_ceil(CLUSTER_SIZE as u64);
                assert!(
                    len >= needed,
                    "[{note}] {path}: size {} needs {needed} clusters, chain has {len}",
                    e.size
                );
                if e.is_dir {
                    dirs.push(path);
                }
            }
        }
    }
}

/// One path across a row: every state it has been in, and what the last
/// durability barrier made of it.
#[derive(Debug, Clone)]
pub struct PathModel {
    /// The states in order, the first the path's state before the row
    /// (`None`: absent).
    pub states: Vec<Option<Node>>,
    /// The state the last barrier made durable.
    pub committed: usize,
    /// Whether the path changed since that barrier.
    pub dirty: bool,
    /// Whether a write outside any transaction changed the path since that
    /// barrier: a cut may leave any mix of its old and new blocks.
    pub torn: bool,
}

impl PathModel {
    pub fn new(state: Option<Node>) -> Self {
        PathModel {
            states: vec![state],
            committed: 0,
            dirty: false,
            torn: false,
        }
    }

    pub fn current(&self) -> &Option<Node> {
        self.states.last().unwrap()
    }

    pub fn push(&mut self, state: Option<Node>) {
        self.states.push(state);
        self.dirty = true;
    }
}

/// Each path a row tracks, by its name in the volume's listings (FAT32
/// upper-cases 8.3 names).
pub type Model = BTreeMap<String, PathModel>;

/// A completed durability barrier: each path's current state is durable.
pub fn barrier(model: &mut Model) {
    for m in model.values_mut() {
        m.committed = m.states.len() - 1;
        m.dirty = false;
        m.torn = false;
    }
}

/// The model of an op that takes each path through its `states` in order:
/// a cut inside it may leave any of them, and once it is `done` the last is
/// durable.
pub fn model<const N: usize>(paths: [(&str, Vec<Option<Node>>); N], done: bool) -> Model {
    let mut model: Model = paths
        .into_iter()
        .map(|(path, states)| {
            let m = PathModel {
                states,
                committed: 0,
                dirty: true,
                torn: false,
            };
            (path.to_string(), m)
        })
        .collect();
    if done {
        barrier(&mut model);
    }
    model
}

/// A disk from block `start` on: the FAT partition of a card, or a whole
/// disk.
pub struct Image {
    pub disk: MemDisk,
    start: u64,
}

impl BlockDevice for Image {
    fn num_blocks(&self) -> u64 {
        self.disk.num_blocks() - self.start
    }

    fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()> {
        Ok(self.disk.read_block(self.start + lba, out)?)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()> {
        Ok(self.disk.write_block(self.start + lba, data)?)
    }

    fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
        Ok(self.disk.read_range(self.start + lba, count, out)?)
    }

    fn stats(&self) -> BlockIoStats {
        self.disk.stats()
    }
}

/// A cut's image remounted under a cold cache.
pub struct Mounted<V> {
    pub dev: Image,
    pub bc: BufCache,
    pub fs: V,
    /// Names the cut in every failure.
    pub note: String,
}

impl<V: Volume> Mounted<V> {
    /// Mounts the volume from block `start` of `disk` under a cold cache and
    /// holds it to the fsck invariants.
    pub fn new(disk: MemDisk, start: u64, note: String) -> Self {
        let mut dev = Image { disk, start };
        let mut bc = BufCache::default();
        let fs =
            V::mount(&mut dev, &mut bc).unwrap_or_else(|e| panic!("[{note}] remount failed: {e}"));
        fs.fsck(&mut dev, &mut bc, &note);
        Mounted { dev, bc, fs, note }
    }

    pub fn tree(&mut self) -> Tree {
        self.fs.tree(&mut self.dev, &mut self.bc)
    }

    /// Checks the tree against `model`: each path holds one of its states,
    /// the durable one if it has not changed since the last barrier, and
    /// the tree has no file the model does not know. Returns the tree.
    pub fn check(&mut self, model: &Model) -> Tree {
        let (tree, note) = (self.tree(), &self.note);
        for (path, (_, node)) in &tree.paths {
            let known = model.contains_key(path) || *node == Node::Dir;
            assert!(known, "[{note}] unexpected file {path}");
        }
        for (path, m) in model {
            let seen = tree.get(path).cloned();
            if !m.torn {
                let known = m.states.contains(&seen);
                assert!(known, "[{note}] {path} holds none of the states it was in");
            }
            if !m.dirty {
                assert!(
                    seen == m.states[m.committed],
                    "[{note}] durable {path} lost or changed after the cut"
                );
            }
        }
        tree
    }

    /// The bytes of the file at `path`, or `None` when there is none.
    pub fn read(&mut self, path: &str) -> Option<Vec<u8>> {
        match self.fs.read(&mut self.dev, &mut self.bc, path) {
            Ok(bytes) => Some(bytes),
            Err(FsError::NotFound(_)) => None,
            Err(e) => panic!("[{}] reading {path} failed: {e}", self.note),
        }
    }
}

/// What one run of an op persisted, from which every cut's image follows.
#[derive(Clone)]
pub struct Cuts {
    /// The disk before the op, as it persisted.
    pub pre: MemDisk,
    /// The volume's first block on the disk.
    pub start: u64,
    pub log: PersistLog,
}

impl Cuts {
    /// Runs `op` on `state` with the persist log of its disk, `disk(state)`,
    /// on; the volume starts at block `start` of the disk.
    pub fn record<S>(
        state: &mut S,
        disk: fn(&mut S) -> &mut MemDisk,
        start: u64,
        op: impl FnOnce(&mut S),
    ) -> Cuts {
        let pre = disk(state).persisted();
        disk(state).start_log();
        op(state);
        let log = disk(state).take_log();
        Cuts { pre, start, log }
    }

    /// The cut after every block the op persisted.
    pub fn end(&self) -> usize {
        self.log.blocks.len()
    }

    /// The disk a power cut after `k` persisted blocks leaves.
    pub fn image(&self, k: usize) -> MemDisk {
        let mut disk = self.pre.clone();
        for (lba, block) in &self.log.blocks[..k] {
            disk.write_block(*lba, block).unwrap();
        }
        disk
    }

    /// Remounts the image of each cut in `ks`, holds it to the fsck
    /// invariants and hands it to `check`.
    pub fn sweep<V: Volume>(
        &self,
        what: &str,
        ks: impl IntoIterator<Item = usize>,
        mut check: impl FnMut(usize, &mut Mounted<V>),
    ) {
        for k in ks {
            let note = format!("{what}, cut {k} of {}", self.end());
            check(k, &mut Mounted::new(self.image(k), self.start, note));
        }
    }

    /// Checks that the cuts `ks`, from 0 to every block, show the tree from
    /// before the op or the one after it, never a mix; returns the two.
    pub fn atomic<V: Volume>(
        &self,
        what: &str,
        ks: impl IntoIterator<Item = usize>,
    ) -> (Tree, Tree) {
        let mut seen: Vec<Tree> = Vec::new();
        let mut last = None;
        self.sweep::<V>(what, ks, |k, m| {
            let tree = m.tree();
            if seen.is_empty() {
                assert_eq!(k, 0, "[{what}] the cuts start before the op");
            }
            if !seen.contains(&tree) {
                assert!(seen.len() < 2, "[{}] a mix of before and after", m.note);
                seen.push(tree.clone());
            }
            last = Some((k, tree));
        });
        let (k, after) = last.unwrap();
        assert_eq!(k, self.end(), "[{what}] the cuts end after the op");
        assert_eq!(seen.len(), 2, "[{what}] the op changes the tree");
        assert!(
            after == seen[1],
            "[{what}] the op ends in the tree after it"
        );
        (seen.swap_remove(0), after)
    }
}

/// A volume on a disk with its cache: the pre-state of a unit-level row.
#[derive(Clone)]
pub struct Vol<V> {
    pub disk: MemDisk,
    pub bc: BufCache,
    pub fs: V,
}

impl Vol<Fat32> {
    /// A fresh FAT32 volume on a disk of `blocks` blocks, made durable.
    pub fn fat(blocks: u64) -> Self {
        let mut disk = MemDisk::new(blocks);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut disk, &mut bc).unwrap();
        bc.flush(&mut disk).unwrap();
        Vol { disk, bc, fs }
    }
}

impl Vol<Xv6Fs> {
    /// A fresh xv6fs volume of `size` blocks and `ninodes` inodes on a disk
    /// of `blocks` blocks, made durable.
    pub fn xv6(blocks: u64, size: u32, ninodes: u32) -> Self {
        let mut disk = MemDisk::new(blocks);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut disk, &mut bc, size, ninodes).unwrap();
        bc.flush(&mut disk).unwrap();
        Vol { disk, bc, fs }
    }
}

impl<V: Volume> Vol<V> {
    /// The barrier: commits the open group and drains the cache.
    pub fn sync(&mut self) -> FsResult<()> {
        self.fs.commit_pending(&mut self.disk, &mut self.bc)?;
        self.bc.flush(&mut self.disk)
    }

    /// Runs `op` on a copy of this pre-state with the persist log on.
    pub fn cuts(&self, op: impl FnOnce(&mut Vol<V>)) -> Cuts {
        Cuts::record(&mut self.clone(), |v| &mut v.disk, 0, op)
    }
}

/// The SD card of a system, which holds the FAT volume from
/// [`FAT_PARTITION_START`] on.
pub fn card(sys: &mut ProtoSystem) -> &mut MemDisk {
    &mut sys.kernel.board.sdhost.card
}

/// The FAT partition of `board`'s card behind the DMA queue, as the
/// kernel drives it, for raw cache calls on the DMA path.
pub fn dma_partition(board: &mut SimBoard) -> SdBlockDevice<'_> {
    let blocks = board.sdhost.total_blocks() - FAT_PARTITION_START;
    let ctx = SdDmaCtx {
        engine: &mut board.dma,
        clock: &mut board.clock,
        cost: &board.cost,
        core: 0,
    };
    SdBlockDevice::with_dma(&mut board.sdhost, FAT_PARTITION_START, blocks, Some(ctx))
}
