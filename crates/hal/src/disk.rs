//! The simulated disk: the one medium under both of Proto's block devices.
//!
//! Prototype 4 mounts xv6fs on a ramdisk linked into the kernel image and
//! Prototype 5 mounts FAT32 on an SD card. Both media are a [`Disk`]: it
//! keeps the blocks, the faults and power cuts tests inject, the modelled
//! posted write cache and the counters of polled commands. The SD host
//! ([`crate::sdhost::SdHost`]) owns one as its `card` and adds only the
//! controller in front of it; the filesystem crate mounts a bare one as the
//! ramdisk.
//!
//! # The store
//!
//! The blocks are kept in 64 KB chunks of 128 blocks, each allocated on its
//! first write; a block no write ever reached reads as zero. A command moves
//! its data one run at a time, with one copy per chunk the run touches. With
//! the posted write cache on, completed writes sit in a per-block volatile
//! overlay that every read consults over the store, that a FLUSH persists
//! and that a power cut drops.
//!
//! # What a command persists
//!
//! Every command, polled or a DMA chain's data phase, goes through one read
//! path (`Disk::read`) and one write path (`Disk::write`). A read fails
//! at the first faulty block of any of its runs and delivers nothing. A
//! write persists a *prefix* of each run: the blocks before the run's first
//! faulty block, cut short by an armed power budget. It persists its runs'
//! prefixes in order and stops at the first run that falls short, with the
//! fault's error or with the power cut's, which also drops the posted
//! overlay, the command's own prefix included. Without the posted cache, a
//! command the cut stops after some of its blocks persisted counts as torn.
//! So a chain ends in the state a block-by-block transfer would leave. A
//! polled command checks its whole range for faults before it moves
//! anything, so only a power cut can tear it.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::sdhost::SdSgRun;
use crate::{HalError, HalResult};

/// Sector size in bytes.
pub const BLOCK_SIZE: usize = 512;

/// Blocks per chunk of the store (64 KB).
pub(crate) const CHUNK_BLOCKS: u64 = 128;

/// Bytes per chunk of the store.
const CHUNK_BYTES: usize = CHUNK_BLOCKS as usize * BLOCK_SIZE;

/// The polled commands a disk has served, so the caller can price them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockIoStats {
    /// Single-block commands issued.
    pub single_cmds: u64,
    /// Multi-block range commands issued.
    pub range_cmds: u64,
    /// Blocks the commands moved: every block a read returned, and the
    /// blocks a write moved before any power cut.
    pub blocks: u64,
}

/// A simulated disk of 512-byte blocks.
#[derive(Debug, Clone)]
pub struct Disk {
    store: ChunkStore,
    blocks: u64,
    /// Blocks that fail on access (fault injection).
    faulty: BTreeSet<u64>,
    /// Blocks that may still persist before the armed power cut fires
    /// (`None` = no cut armed). See [`Disk::power_cut_after`].
    power_budget: Option<u64>,
    /// True once the power cut has fired; every command fails until
    /// [`Disk::power_restored`].
    power_lost: bool,
    /// Write commands that persisted only a prefix of their blocks before
    /// the power cut.
    torn_writes: u64,
    /// Posted-write-cache mode: completed writes land in `overlay` and
    /// persist only at a FLUSH. Off by default.
    posted: bool,
    /// The volatile write cache (block → contents). A BTreeMap, so a FLUSH
    /// persists in LBA order.
    overlay: BTreeMap<u64, Box<[u8]>>,
    /// FLUSH commands served in posted mode.
    flushes: u64,
    stats: BlockIoStats,
}

impl Disk {
    /// Creates an all-zero disk of `blocks` blocks.
    pub fn new(blocks: u64) -> Self {
        Disk {
            store: ChunkStore::default(),
            blocks,
            faulty: BTreeSet::new(),
            power_budget: None,
            power_lost: false,
            torn_writes: 0,
            posted: false,
            overlay: BTreeMap::new(),
            flushes: 0,
            stats: BlockIoStats::default(),
        }
    }

    /// Creates a disk holding `image`, padded with zeros to a whole block.
    pub fn from_image(image: Vec<u8>) -> Self {
        let mut disk = Disk::new(image.len().div_ceil(BLOCK_SIZE) as u64);
        disk.store.write(0, &image);
        disk
    }

    /// The persisted blocks, in order: what a remount after a power cut
    /// would see. Blocks still in the posted write cache are not included.
    pub fn image(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.blocks as usize * BLOCK_SIZE];
        self.store.read(0, &mut out);
        out
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> u64 {
        self.blocks
    }

    /// The polled commands served so far.
    pub fn stats(&self) -> BlockIoStats {
        self.stats
    }

    /// Marks `lba` as faulty: every command touching it fails.
    pub fn inject_fault(&mut self, lba: u64) {
        self.faulty.insert(lba);
    }

    /// Clears every injected fault ("the medium recovered").
    pub fn clear_faults(&mut self) {
        self.faulty.clear();
    }

    /// Arms a power cut: after `blocks` more blocks persist, the disk dies
    /// mid-command. A write crossing the budget persists only its first
    /// blocks before it fails, and every later command fails until
    /// [`Disk::power_restored`]. What persisted before the cut stays.
    pub fn power_cut_after(&mut self, blocks: u64) {
        self.power_budget = Some(blocks);
        self.power_lost = false;
    }

    /// Cuts power now: the posted write cache is dropped and every later
    /// command fails until [`Disk::power_restored`]. The immediate form of
    /// [`Disk::power_cut_after`], for a cut at a chosen protocol step.
    pub fn power_cut(&mut self) {
        self.power_lost = true;
        self.power_budget = Some(0);
        self.overlay.clear();
    }

    /// Restores power and disarms any cut; the disk keeps what persisted.
    pub fn power_restored(&mut self) {
        self.power_budget = None;
        self.power_lost = false;
    }

    /// Whether the power cut has fired.
    pub fn power_lost(&self) -> bool {
        self.power_lost
    }

    /// Write commands the power cut tore after some of their blocks
    /// persisted.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes
    }

    /// Enables or disables the posted write cache. When on, completed
    /// writes stay volatile until [`Disk::flush`], and a power cut drops
    /// them. Disabling it persists what the cache holds: a model switch,
    /// not a data-loss event.
    pub fn set_posted_writes(&mut self, on: bool) {
        if !on {
            self.persist_overlay();
        }
        self.posted = on;
    }

    /// Whether the posted write cache is enabled.
    pub fn posted_writes(&self) -> bool {
        self.posted
    }

    /// Blocks sitting in the posted write cache (un-flushed).
    pub fn cached_blocks(&self) -> usize {
        self.overlay.len()
    }

    /// FLUSH commands served with the posted write cache on.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The FLUSH barrier: persists every block of the posted write cache.
    /// It covers the writes that have completed; with the cache off it does
    /// nothing and is not counted.
    pub fn flush(&mut self) -> HalResult<()> {
        if self.power_lost {
            return Err(lost_power());
        }
        if self.posted {
            self.flushes += 1;
            self.persist_overlay();
        }
        Ok(())
    }

    /// A polled single-block read (CMD17). `out` must be one block.
    pub fn read_block(&mut self, lba: u64, out: &mut [u8]) -> HalResult<()> {
        self.read_cmd(true, lba, 1, out)
    }

    /// A polled single-block write (CMD24). `data` must be one block.
    pub fn write_block(&mut self, lba: u64, data: &[u8]) -> HalResult<()> {
        self.write_cmd(true, lba, 1, data)
    }

    /// A polled range read (CMD18). `out` must be `count` blocks.
    pub fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> HalResult<()> {
        self.read_cmd(false, lba, count, out)
    }

    /// A polled range write (CMD25). `data` must be `count` blocks.
    pub fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> HalResult<()> {
        self.write_cmd(false, lba, count, data)
    }

    /// The read path: fills `out` with the blocks of `runs`, run-major, the
    /// store overlaid with any posted copies. Fails, delivering nothing,
    /// when the power is off, a run leaves the disk, a run's blocks do not
    /// fit `out`, or any block is faulty.
    pub(crate) fn read(&self, runs: &[SdSgRun], out: &mut [u8]) -> HalResult<()> {
        self.check(runs)?;
        self.check_faults(runs)?;
        let mut rest = out;
        for r in runs {
            let len = r.count as usize * BLOCK_SIZE;
            if rest.len() < len {
                return Err(short_buffer());
            }
            let (buf, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            self.store.read(r.lba, buf);
            for (&b, block) in self.overlay.range(r.lba..r.lba + r.count) {
                buf[(b - r.lba) as usize * BLOCK_SIZE..][..BLOCK_SIZE].copy_from_slice(block);
            }
        }
        Ok(())
    }

    /// The write path: moves the run-major `data` onto `runs` and returns
    /// how many blocks persisted, with the command's outcome. Each run
    /// persists the prefix before its first faulty block, within the power
    /// budget; the command stops at the first run that falls short (see
    /// the module doc).
    pub(crate) fn write(&mut self, runs: &[SdSgRun], data: &[u8]) -> (u64, HalResult<()>) {
        if let Err(e) = self.check(runs) {
            return (0, Err(e));
        }
        let total: u64 = runs.iter().map(|r| r.count).sum();
        if data.len() < total as usize * BLOCK_SIZE {
            return (0, Err(short_buffer()));
        }
        let (mut persisted, mut off) = (0u64, 0usize);
        for r in runs {
            let fault = self.first_fault(r);
            let clean = fault.map_or(r.count, |b| b - r.lba);
            let persist = self.power_allow(clean);
            // A cut in posted mode dropped the overlay, and with it any
            // prefix this command parked there: loss, not a torn program.
            if persist == clean || !self.posted {
                self.put(r.lba, &data[off..off + persist as usize * BLOCK_SIZE]);
            }
            persisted += persist;
            if persist < clean {
                if persisted > 0 && !self.posted {
                    self.torn_writes += 1;
                }
                let cut = format!("power cut: {persisted} of {total} blocks persisted");
                return (persisted, Err(HalError::InvalidState(cut)));
            }
            if let Some(b) = fault {
                return (persisted, Err(faulty(b)));
            }
            off += r.count as usize * BLOCK_SIZE;
        }
        (persisted, Ok(()))
    }

    /// Fails a command over `runs` that cannot start: the power is off or
    /// a run leaves the disk.
    pub(crate) fn check(&self, runs: &[SdSgRun]) -> HalResult<()> {
        if self.power_lost {
            return Err(lost_power());
        }
        for r in runs {
            if r.lba
                .checked_add(r.count)
                .is_none_or(|end| end > self.blocks)
            {
                return Err(HalError::OutOfRange(format!(
                    "blocks {}+{} beyond a disk of {} blocks",
                    r.lba, r.count, self.blocks
                )));
            }
        }
        Ok(())
    }

    /// Fails a command over `runs` (already checked) that touches a faulty
    /// block, naming the first.
    fn check_faults(&self, runs: &[SdSgRun]) -> HalResult<()> {
        match runs.iter().find_map(|r| self.first_fault(r)) {
            Some(b) => Err(faulty(b)),
            None => Ok(()),
        }
    }

    /// A polled read of `count` blocks into `out`, counted once it succeeds.
    fn read_cmd(&mut self, single: bool, lba: u64, count: u64, out: &mut [u8]) -> HalResult<()> {
        whole_blocks(count, out.len())?;
        self.read(&[SdSgRun { lba, count }], out)?;
        self.count(single, count);
        Ok(())
    }

    /// A polled write of `count` blocks from `data`. The whole range is
    /// checked, faults included, before anything moves; once it starts,
    /// the command and the blocks it persisted are counted.
    fn write_cmd(&mut self, single: bool, lba: u64, count: u64, data: &[u8]) -> HalResult<()> {
        whole_blocks(count, data.len())?;
        let run = [SdSgRun { lba, count }];
        self.check(&run)?;
        self.check_faults(&run)?;
        let (persisted, result) = self.write(&run, data);
        self.count(single, persisted);
        result
    }

    /// Counts one polled command that moved `blocks` blocks.
    fn count(&mut self, single: bool, blocks: u64) {
        if single {
            self.stats.single_cmds += 1;
        } else {
            self.stats.range_cmds += 1;
        }
        self.stats.blocks += blocks;
    }

    /// The lowest faulty block of the run, if any.
    fn first_fault(&self, r: &SdSgRun) -> Option<u64> {
        self.faulty.range(r.lba..r.lba + r.count).next().copied()
    }

    /// Accounts `count` blocks about to persist against an armed power-cut
    /// budget and returns how many do; fewer means the cut fires now, and
    /// the posted write cache dies with the power.
    fn power_allow(&mut self, count: u64) -> u64 {
        let Some(budget) = self.power_budget else {
            return count;
        };
        let allowed = budget.min(count);
        self.power_budget = Some(budget - allowed);
        if allowed < count {
            self.power_lost = true;
            self.overlay.clear();
        }
        allowed
    }

    /// Stores the blocks of `data` from `lba`: into the posted write cache
    /// when it is on, into the store otherwise.
    fn put(&mut self, lba: u64, data: &[u8]) {
        if !self.posted {
            self.store.write(lba, data);
            return;
        }
        for (b, block) in (lba..).zip(data.chunks_exact(BLOCK_SIZE)) {
            self.overlay.insert(b, block.into());
        }
    }

    /// Persists every block of the posted write cache to the store.
    fn persist_overlay(&mut self) {
        for (lba, block) in std::mem::take(&mut self.overlay) {
            self.store.write(lba, &block);
        }
    }
}

fn lost_power() -> HalError {
    HalError::InvalidState("power lost".into())
}

fn faulty(block: u64) -> HalError {
    HalError::InjectedFault(format!("block {block}"))
}

fn short_buffer() -> HalError {
    HalError::OutOfRange("buffer shorter than the runs".into())
}

/// Fails a polled command whose buffer is not exactly `count` blocks.
fn whole_blocks(count: u64, len: usize) -> HalResult<()> {
    if len == count as usize * BLOCK_SIZE {
        return Ok(());
    }
    Err(HalError::OutOfRange(format!(
        "a {len}-byte buffer for {count} blocks"
    )))
}

/// The persisted blocks: [`CHUNK_BLOCKS`]-block chunks, each allocated on
/// its first write. A block no write reached reads as zero.
#[derive(Debug, Clone, Default)]
struct ChunkStore {
    /// Chunk `i` holds blocks `[i * CHUNK_BLOCKS, (i + 1) * CHUNK_BLOCKS)`;
    /// the vector grows to the highest chunk written.
    chunks: Vec<Option<Box<[u8]>>>,
}

impl ChunkStore {
    /// Splits the `len` bytes from block `lba` into per-chunk pieces: the
    /// chunk's index, the piece's bytes within the chunk, and its bytes
    /// within the caller's buffer.
    fn pieces(lba: u64, len: usize) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
        let first = (lba / CHUNK_BLOCKS) as usize;
        let mut at = (lba % CHUNK_BLOCKS) as usize * BLOCK_SIZE;
        let mut done = 0usize;
        (first..).map_while(move |chunk| {
            if done == len {
                return None;
            }
            let n = (CHUNK_BYTES - at).min(len - done);
            let piece = (chunk, at..at + n, done..done + n);
            done += n;
            at = 0;
            Some(piece)
        })
    }

    /// Copies the bytes from block `lba` into `out`, one copy per chunk.
    fn read(&self, lba: u64, out: &mut [u8]) {
        for (chunk, within, buf) in Self::pieces(lba, out.len()) {
            match self.chunks.get(chunk) {
                Some(Some(c)) => out[buf].copy_from_slice(&c[within]),
                _ => out[buf].fill(0),
            }
        }
    }

    /// Stores the bytes of `data` from block `lba`, one copy per chunk.
    fn write(&mut self, lba: u64, data: &[u8]) {
        for (chunk, within, buf) in Self::pieces(lba, data.len()) {
            if self.chunks.len() <= chunk {
                self.chunks.resize_with(chunk + 1, || None);
            }
            let c = self.chunks[chunk].get_or_insert_with(|| vec![0u8; CHUNK_BYTES].into());
            c[within].copy_from_slice(&data[buf]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_image_round_trips_across_a_chunk_boundary_and_posted_blocks_stay_out() {
        // Two chunks and a partial block: the image pads to a whole block.
        let image: Vec<u8> = (0..CHUNK_BYTES + 700).map(|i| (i % 251) as u8).collect();
        let mut disk = Disk::from_image(image.clone());
        assert_eq!(disk.num_blocks(), CHUNK_BLOCKS + 2);
        let back = disk.image();
        assert_eq!(back.len(), (CHUNK_BLOCKS as usize + 2) * BLOCK_SIZE);
        assert_eq!(&back[..image.len()], &image[..]);
        assert!(back[image.len()..].iter().all(|&b| b == 0));
        // A posted write reads back but is not in the image until a FLUSH.
        disk.set_posted_writes(true);
        let block = [0xEEu8; BLOCK_SIZE];
        disk.write_block(CHUNK_BLOCKS, &block).unwrap();
        let mut read = [0u8; BLOCK_SIZE];
        disk.read_block(CHUNK_BLOCKS, &mut read).unwrap();
        assert_eq!(read, block);
        assert_eq!(disk.image(), back);
        disk.flush().unwrap();
        assert_eq!(&disk.image()[CHUNK_BYTES..][..BLOCK_SIZE], &block[..]);
    }
}
