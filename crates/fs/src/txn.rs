//! Filesystem-agnostic transaction layer: a physical redo log plus group
//! commit over the buffer cache's dependency / commit-group / pinning
//! machinery.
//!
//! PR 3 gave FAT32 a private on-volume intent log and PR 5 gave it group
//! commit; this module hoists both into a VFS-level service so any
//! filesystem with a spare run of sectors can journal its multi-sector
//! metadata updates. FAT32 and xv6fs are the two clients today; adding
//! filesystem N+1 costs a [`TxnLog`] value and a replay call at mount.
//!
//! # API
//!
//! A [`TxnLog`] is a tiny `Copy` value describing the log geometry (where
//! the reserved sector run lives, how many sectors it spans, how many
//! sectors past the end of the volume are addressable at all) plus two
//! policy knobs (enabled, group size). The protocol is:
//!
//! * [`TxnLog::with_txn`] — run a closure as one logged transaction. It
//!   opens the cache's metadata recorder ([`BufCache::begin_meta_txn`]),
//!   runs the closure, commits the touched sectors through the log — on
//!   failure too, returning the closure's error — and always closes the
//!   recorder. Every logged operation goes through here so no path can
//!   forget half of the begin / commit / end protocol.
//! * [`TxnLog::log_sector`] — classify sectors as logged metadata from
//!   inside a transaction (a thin alias for [`BufCache::note_metadata`],
//!   which both records the sectors in the open transaction and pins them
//!   against eviction).
//! * [`TxnLog::note_order`] — record a write-order edge (metadata after the
//!   data or metadata it references) for the *fallback* drain paths. Inside
//!   a transaction edges may be deliberately cyclic — the cache invariant is
//!   that a dependency cycle exists only among sectors pinned by the open
//!   transaction or commit group, and [`TxnLog::commit_pending`] clears the
//!   edges at the commit point, before releasing the pins.
//! * [`TxnLog::commit_pending`] — force the open commit group's single
//!   checksummed record to the device. Barriers (fsync, sync, unmount, the
//!   flusher's group-timeout pass) call this before their cache flush.
//! * [`TxnLog::replay`] — at mount, redo a committed record left by a power
//!   cut, or ignore a torn / stale one.
//!
//! # Crash-ordering guarantees
//!
//! A commit record is the header sector followed by its N payload sectors,
//! laid out exactly as they sit in the log at `[log_start, log_start + 1 +
//! N)`. The layer issues no device write of its own: like xv6's
//! `write_log`/`write_head` over `bwrite`, it writes the record and the
//! header clear into the buffer cache and lets the cache's ready drain
//! send them down — one contiguous run each, so one range command on a
//! polled device and one scatter-gather chain on the SD card's DMA queue.
//! The commit sequence for a group is:
//!
//! 1. ready-only cache drain: everything a logged sector could reference —
//!    data blocks, interleaved non-logged metadata — becomes durable first;
//! 2. payload capture from the cache into the record buffer, then the
//!    checksummed header into its first sector;
//! 3. the header‖payload record enters the cache, *after* step 1 returned
//!    (its blocks are data-class, and a drain sends data before metadata),
//!    and a second ready drain sends it down;
//! 4. **the device FLUSH closing that drain — the commit point**;
//! 5. dependency-edge release, then pin release;
//! 6. home-sector drain;
//! 7. header clear: the zeroed header enters the cache only after the home
//!    drain returned, so it cannot overtake the home sectors, and one more
//!    ready drain sends it down; the FLUSH closing that drain makes it
//!    durable, so it cannot linger in a posted write cache.
//!
//! A power cut before the commit point leaves the old tree: the logged
//! sectors were cache-only, pinned, and any allocation units they freed were
//! reserved against reuse ([`BufCache::note_pending_free`]). That includes
//! a cut *inside* the record's command. The header leads the run, so a
//! torn record can pair a new header with only some of its payloads, the
//! rest of the slots still holding an earlier record's stale sectors; the
//! FNV-1a checksum covers the header fields and every payload, so replay
//! rejects that record like no record at all. A cut after the commit point
//! is repaired by replay, which is idempotent (payloads are final contents)
//! and validated (magic, count, target bounds, the checksum). With a posted
//! write cache underneath ([`crate::MemDisk::set_posted_writes`]) these
//! guarantees hold *because* of the explicit FLUSH barriers — see the
//! barrier-elision test in the crash suite for the counterexample.
//!
//! # Degraded mode
//!
//! The layer sits on the buffer cache's bounded write-retry budget: a block
//! whose async writeback keeps failing is retried (with backoff) at most
//! [`BufCache::write_retry_budget`] times and then the cache latches
//! read-only degraded mode — writes (and therefore transactions) fail with
//! [`FsError::Io`], reads keep working, and dirty data is kept cached
//! rather than dropped. A commit that fails *before* its commit point
//! leaves the group pending, so a later barrier retries it; a record the
//! failure left half-written fails its checksum and is never replayed. The
//! failed record's blocks stay dirty in the cache like any failed
//! write-back, for a later drain to retry.

use crate::block::{BlockDevice, BLOCK_SIZE};
use crate::bufcache::BufCache;
use crate::FsResult;

/// Magic bytes opening a committed log-record header (public so crash
/// tests can forge torn or stale records).
pub const TXN_MAGIC: &[u8; 8] = b"PROTOLOG";

/// FNV-1a offset basis.
const FNV_OFFSET: u32 = 0x811C_9DC5;

/// FNV-1a over `data`, continuing from `h` (seed with [`FNV_OFFSET`]).
fn fnv1a(data: &[u8], mut h: u32) -> u32 {
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A filesystem's handle on the shared transaction layer: log geometry plus
/// the enabled / group-commit policy knobs. `Copy` on purpose — filesystem
/// values are cloned per kernel call, and all mutable transaction state
/// (open-transaction recorder, commit group, pins, pending frees) lives in
/// the [`BufCache`] they share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnLog {
    /// First sector of the reserved on-volume log area.
    log_start: u64,
    /// Sectors in the log area: one header plus up to `log_sectors - 1`
    /// payload sectors.
    log_sectors: u64,
    /// Total addressable sectors; replay rejects records naming targets at
    /// or past this bound (or inside `[0, log_start + log_sectors)` — the
    /// boot/superblock region and the log itself).
    total_sectors: u64,
    /// Whether transactions commit through the log. When off,
    /// [`TxnLog::commit`] degrades to a plain synchronous flush (the
    /// crash-consistency ablation switch); replay still runs at mount so a
    /// committed record from an earlier life is never ignored.
    enabled: bool,
    /// How many logged transactions one commit record may cover (group
    /// commit, clamped to at least 1). Callers raising this above 1 own the
    /// durability consequences and must force [`TxnLog::commit_pending`] at
    /// their barriers.
    group_ops: u32,
}

impl TxnLog {
    /// A log over `[log_start, log_start + log_sectors)` on a volume of
    /// `total_sectors`, enabled, with group commit off (size 1).
    pub fn new(log_start: u64, log_sectors: u64, total_sectors: u64) -> TxnLog {
        TxnLog {
            log_start,
            log_sectors,
            total_sectors,
            enabled: true,
            group_ops: 1,
        }
    }

    /// First sector of the log area.
    pub fn log_start(&self) -> u64 {
        self.log_start
    }

    /// Sectors in the log area (header + payload capacity).
    pub fn log_sectors(&self) -> u64 {
        self.log_sectors
    }

    /// Maximum metadata sectors one logged transaction (or one open group)
    /// can carry.
    pub fn payload_capacity(&self) -> usize {
        self.log_sectors.saturating_sub(1) as usize
    }

    /// Enables or disables logged commits (see [`TxnLog::enabled`]).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether transactions commit through the log.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the group-commit size (clamped to at least 1).
    pub fn set_group_ops(&mut self, ops: u32) {
        self.group_ops = ops.max(1);
    }

    /// The configured group-commit size.
    pub fn group_ops(&self) -> u32 {
        self.group_ops
    }

    // ---- the transaction protocol -------------------------------------------------------------

    /// Runs `f` as one logged transaction: opens the cache's metadata
    /// recorder, commits the touched sectors through the log, and always
    /// closes the recorder (releasing its eviction pins).
    ///
    /// Nested calls join the enclosing transaction: if a recorder is
    /// already open, `f` simply runs inside it and the outermost `with_txn`
    /// commits everything — so a compound operation (xv6fs's
    /// truncate-then-write overwrite) is one atomic unit, not a sequence of
    /// individually atomic steps with a torn window between them.
    ///
    /// The abort rule: a transaction whose `f` fails still commits every
    /// sector it touched, as xv6's `end_op` commits regardless, and returns
    /// `f`'s error. Its sectors may carry deliberately cyclic write-order
    /// edges that only a commit clears; closing the recorder without one
    /// would leave that cycle dirty and unpinned, where no drain can order
    /// it. Callers restore what they must not publish before failing —
    /// FAT32's failure paths free the clusters they claimed — so the commit
    /// makes the restored state durable. If that commit fails as well, `f`'s
    /// error still wins; the group stays pending for the next barrier, as
    /// after any failed commit. A failed `f` that touched nothing commits
    /// nothing.
    pub fn with_txn<R>(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        f: impl FnOnce(&mut dyn BlockDevice, &mut BufCache) -> FsResult<R>,
    ) -> FsResult<R> {
        if bc.meta_txn_active() {
            return f(dev, bc);
        }
        bc.begin_meta_txn();
        let result = f(dev, bc);
        let touched = bc.meta_txn_touched();
        let committed = if result.is_ok() || !touched.is_empty() {
            self.commit(dev, bc, &touched)
        } else {
            Ok(())
        };
        bc.end_meta_txn();
        match (result, committed) {
            (Ok(v), Ok(())) => Ok(v),
            (Err(e), _) | (Ok(_), Err(e)) => Err(e),
        }
    }

    /// Classifies `count` sectors starting at `lba` as logged metadata:
    /// records them in the open transaction (so they land in its commit
    /// record) and pins them against eviction. An alias for
    /// [`BufCache::note_metadata`] under the transaction layer's name.
    pub fn log_sector(bc: &mut BufCache, lba: u64, count: u64) {
        bc.note_metadata(lba, count);
    }

    /// Records a write-order dependency for the fallback (non-logged) drain
    /// paths: the metadata run `[meta_lba, meta_lba + meta_count)` must not
    /// reach the device while any sector of `[dep_lba, dep_lba + dep_count)`
    /// is still dirty. Edges among sectors of an open transaction may be
    /// cyclic; [`TxnLog::commit_pending`] clears them at the commit point.
    pub fn note_order(
        bc: &mut BufCache,
        meta_lba: u64,
        meta_count: u64,
        dep_lba: u64,
        dep_count: u64,
    ) {
        bc.add_dependency(meta_lba, meta_count, dep_lba, dep_count);
    }

    /// Folds one just-finished logged transaction into the open commit
    /// group, committing when the group reaches [`TxnLog::group_ops`]
    /// transactions, would overflow the log area, or pins too much of one
    /// cache shard ([`BufCache::group_crowds_a_shard`]). With the default
    /// group size of 1 every logged operation is atomic *and durable* on
    /// return; with a larger group the transaction is atomic at every cut
    /// (its sectors stay cached, held back by their deliberately cyclic
    /// ordering edges and pinned against eviction) but becomes durable only
    /// at the group's single commit flush. Payloads are captured at commit
    /// time, so a later non-logged write to a shared sector is never rolled
    /// back by replay.
    ///
    /// Falls back to a plain synchronous flush when the log is disabled or
    /// the transaction outgrows the log area — committing any pending group
    /// first so its record cannot be reordered behind the fallback. The
    /// fallback loses torn-update atomicity.
    pub fn commit(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        touched: &[u64],
    ) -> FsResult<()> {
        if !self.enabled || touched.is_empty() {
            return bc.flush(dev);
        }
        if touched.len() > self.payload_capacity() {
            self.commit_pending(dev, bc)?;
            return bc.flush(dev);
        }
        // Close the group first if this transaction would overflow the log
        // area. `commit_pending` drains only what the ordered contract
        // already allows, so this transaction's own (cyclic, not-yet-logged)
        // sectors stay cached and keep their atomicity.
        let fresh = touched.iter().filter(|l| !bc.group_contains(**l)).count();
        if bc.group_sectors().saturating_add(fresh) > self.payload_capacity() {
            self.commit_pending(dev, bc)?;
        }
        for &lba in touched {
            bc.group_append(lba);
        }
        bc.group_note_txn();
        // A cache too small for the group commits it early: its pins must
        // never leave a shard without an eviction victim.
        if bc.group_txns() >= self.group_ops as u64 || bc.group_crowds_a_shard() {
            self.commit_pending(dev, bc)?;
        }
        Ok(())
    }

    /// Writes the open commit group's single checksummed record and drains
    /// it home: ready drain → payload capture → header‖payload record into
    /// the cache → ready drain, whose closing FLUSH is the commit point →
    /// dependency release → pin release → home drain → header clear into
    /// the cache → ready drain.
    ///
    /// The record occupies `[log_start, log_start + 1 + N)` for a group of N
    /// sectors. It goes down through [`BufCache::write_range`] and
    /// [`BufCache::flush_ready`] as one contiguous run: one range command on
    /// a polled device, one chain on a queued one. A torn record — the
    /// header plus only some of its payloads, the other slots still holding
    /// an earlier record's sectors — fails the checksum [`TxnLog::replay`]
    /// verifies over the header and every payload, exactly like no record.
    /// The header clear is a separate single-sector write that enters the
    /// cache only after the home drain returned: clearing earlier would
    /// drop the record while the home sectors it repairs are still in
    /// flight. The FLUSH closing its own drain makes the clear durable.
    ///
    /// Payloads are captured at *commit* time, so the record reflects any
    /// non-logged write that shared a sector with the group — replay can
    /// never roll one back — and the pre-commit [`BufCache::flush_ready`]
    /// makes every non-group sector such content might reference durable
    /// before a record points at it. Both drains refuse to force dependency
    /// cycles, so a transaction still open for the *next* group (the
    /// log-overflow path) keeps its sectors cached and atomic. A failure
    /// before the commit point leaves the group pending, so the next barrier
    /// retries it, and a record that failed to drain stays dirty in the
    /// cache; past the commit point the record repairs any torn home write
    /// at replay. A no-op when no group is open.
    pub fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        if bc.group_sectors() == 0 {
            return Ok(());
        }
        let targets = bc.group_entries();
        // Everything the group's commit-time payloads could reference —
        // data blocks, and metadata sectors dirtied by interleaved
        // non-logged writers — must be durable before the record.
        bc.flush_ready(dev)?;
        // Capture the final contents now, straight into the payload slots
        // of the record buffer: all sectors are cached (pinned since their
        // transactions logged them), so these reads are hits.
        let mut record = vec![0u8; (1 + targets.len()) * BLOCK_SIZE];
        let (hdr, payloads) = record.split_at_mut(BLOCK_SIZE);
        for (&lba, p) in targets.iter().zip(payloads.chunks_exact_mut(BLOCK_SIZE)) {
            bc.read(dev, lba, p)?;
        }
        hdr.copy_from_slice(&Self::header(&targets, payloads));
        // The record enters the cache only now that the ready drain has
        // returned: its blocks are data-class, and a drain sends data ahead
        // of metadata, so an earlier write could let the record reach the
        // device before sectors its payloads reference.
        bc.write_range(dev, self.log_start, 1 + targets.len() as u64, &record)?;
        // The commit point: the FLUSH that closes this drain.
        bc.flush_ready(dev)?;
        // Past the commit point the record repairs any torn home write, so
        // the logged sectors' (deliberately cyclic) ordering edges can go —
        // otherwise the home drain would trip the forced-cycle escape hatch
        // for updates that are in fact fully protected.
        // Drop the ordering edges while the group still pins their sectors,
        // *then* release the pins: the cache invariant is "a dependency
        // cycle exists only among pinned sectors", and the reverse order
        // would leave an unpinned cycle in the window between the calls.
        bc.clear_dependencies(&targets);
        bc.group_clear_committed();
        // The home drain (ordered, cycles never forced).
        bc.flush_ready(dev)?;
        // The clear enters the cache only after the home drain returned, or
        // the drain would send it (data-class) ahead of the home sectors.
        // The FLUSH closing its own drain makes it durable: a clear left in
        // a posted write cache would let a crash replay a record whose home
        // sectors non-logged writers have since rewritten.
        bc.write(dev, self.log_start, &[0u8; BLOCK_SIZE])?;
        bc.flush_ready(dev)
    }

    /// Replays a committed log record onto its home sectors, then clears
    /// the header through the cache once the home flush has returned — the
    /// FLUSH closing the clear's own drain makes it durable, as in
    /// [`TxnLog::commit_pending`]. A record that fails validation (torn
    /// commit, stale garbage, targets outside `[log_start + log_sectors,
    /// total_sectors)`) is ignored: the pre-transaction tree is the
    /// consistent one.
    pub fn replay(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        let mut hdr = vec![0u8; BLOCK_SIZE];
        dev.read_block(self.log_start, &mut hdr)?;
        if &hdr[0..8] != TXN_MAGIC {
            return Ok(());
        }
        let count = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]) as usize;
        if count == 0 || count > self.payload_capacity() {
            return Ok(());
        }
        let mut targets = Vec::with_capacity(count);
        for i in 0..count {
            let o = 16 + i * 8;
            let t = u64::from_le_bytes([
                hdr[o],
                hdr[o + 1],
                hdr[o + 2],
                hdr[o + 3],
                hdr[o + 4],
                hdr[o + 5],
                hdr[o + 6],
                hdr[o + 7],
            ]);
            // A record naming the boot/superblock region, the log itself,
            // or space beyond the volume is not one we wrote.
            if t < self.log_start + self.log_sectors || t >= self.total_sectors {
                return Ok(());
            }
            targets.push(t);
        }
        // The payload slots sit right behind the header: one range read.
        let mut payloads = vec![0u8; count * BLOCK_SIZE];
        dev.read_range(self.log_start + 1, count as u64, &mut payloads)?;
        // A torn record (header plus only some of its payloads, stale
        // sectors in the other slots) fails the checksum here.
        if Self::header(&targets, &payloads)[12..16] != hdr[12..16] {
            return Ok(());
        }
        // Redo the home-sector writes (idempotent: the payloads are final
        // contents) through the cache so any cached copies stay coherent.
        for (t, p) in targets.iter().zip(payloads.chunks_exact(BLOCK_SIZE)) {
            bc.write(dev, *t, p)?;
            bc.note_metadata(*t, 1);
        }
        bc.flush(dev)?;
        // Cleared only once the home flush has returned, like a commit's
        // clear, and made durable by the FLUSH closing its own drain.
        bc.write(dev, self.log_start, &[0u8; BLOCK_SIZE])?;
        bc.flush_ready(dev)
    }

    /// Builds the checksummed header sector for a committed record whose
    /// payload sectors, in target order, are `payloads` — laid back to back
    /// exactly as they follow the header in the log (public so crash tests
    /// can hand-craft valid and torn records). The FNV-1a checksum covers
    /// the count, the targets and every payload byte.
    pub fn header(targets: &[u64], payloads: &[u8]) -> Vec<u8> {
        let mut hdr = vec![0u8; BLOCK_SIZE];
        hdr[0..8].copy_from_slice(TXN_MAGIC);
        hdr[8..12].copy_from_slice(&(targets.len() as u32).to_le_bytes());
        for (i, t) in targets.iter().enumerate() {
            let o = 16 + i * 8;
            hdr[o..o + 8].copy_from_slice(&t.to_le_bytes());
        }
        let mut sum = fnv1a(&hdr[8..12], FNV_OFFSET);
        sum = fnv1a(&hdr[16..16 + targets.len() * 8], sum);
        sum = fnv1a(payloads, sum);
        hdr[12..16].copy_from_slice(&sum.to_le_bytes());
        hdr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockIoStats, MemDisk};

    const LOG_START: u64 = 8;
    const LOG_SECTORS: u64 = 16;

    /// A [`MemDisk`] that also notes every command touching the log area,
    /// so a test can tell the record and the header clear from the cache's
    /// home drain.
    struct LogTap {
        disk: MemDisk,
        /// `(write, lba, count)` of each log-area command, in issue order.
        log_cmds: Vec<(bool, u64, u64)>,
    }

    impl LogTap {
        fn new(blocks: u64) -> Self {
            LogTap {
                disk: MemDisk::new(blocks),
                log_cmds: Vec::new(),
            }
        }

        fn note(&mut self, write: bool, lba: u64, count: u64) {
            if lba < LOG_START + LOG_SECTORS && lba + count > LOG_START {
                self.log_cmds.push((write, lba, count));
            }
        }
    }

    impl BlockDevice for LogTap {
        fn num_blocks(&self) -> u64 {
            self.disk.num_blocks()
        }

        fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()> {
            self.note(false, lba, 1);
            self.disk.read_block(lba, out)
        }

        fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()> {
            self.note(true, lba, 1);
            self.disk.write_block(lba, data)
        }

        fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
            self.note(false, lba, count);
            self.disk.read_range(lba, count, out)
        }

        fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> FsResult<()> {
            self.note(true, lba, count);
            self.disk.write_range(lba, count, data)
        }

        fn flush(&mut self) -> FsResult<()> {
            self.disk.flush()
        }

        fn stats(&self) -> BlockIoStats {
            self.disk.stats()
        }
    }

    /// The group's home sectors, scattered and logged out of LBA order.
    const HOMES: [u64; 3] = [200, 40, 90];

    /// What a test writes to home sector `lba`.
    fn contents(lba: u64) -> [u8; BLOCK_SIZE] {
        [lba as u8; BLOCK_SIZE]
    }

    fn read(disk: &mut MemDisk, lba: u64) -> [u8; BLOCK_SIZE] {
        let mut out = [0u8; BLOCK_SIZE];
        disk.read_block(lba, &mut out).unwrap();
        out
    }

    /// Opens a group of one-sector transactions, one per home sector, and
    /// leaves it pending.
    fn pending_group() -> (LogTap, BufCache, TxnLog) {
        let mut dev = LogTap::new(256);
        let mut bc = BufCache::default();
        let mut log = TxnLog::new(LOG_START, LOG_SECTORS, 256);
        log.set_group_ops(HOMES.len() as u32 + 1);
        for lba in HOMES {
            log.with_txn(&mut dev, &mut bc, |dev, bc| {
                bc.write(dev, lba, &contents(lba))?;
                TxnLog::log_sector(bc, lba, 1);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(bc.group_sectors(), HOMES.len());
        (dev, bc, log)
    }

    #[test]
    fn a_group_commit_is_one_record_write_plus_the_header_clear() {
        let k = HOMES.len() as u64;
        let (mut dev, mut bc, log) = pending_group();
        let (dev0, bc0) = (dev.stats(), bc.stats());
        log.commit_pending(&mut dev, &mut bc).unwrap();
        let (d, c) = (dev.stats(), bc.stats());
        // The cache issues every command the device saw: the transaction
        // layer writes nothing to the device itself.
        let range_cmds =
            (d.range_cmds - dev0.range_cmds) - (c.coalesced_ranges - bc0.coalesced_ranges);
        let single_cmds = (d.single_cmds - dev0.single_cmds) - (c.single_cmds - bc0.single_cmds);
        assert_eq!((range_cmds, single_cmds), (0, 0));
        assert_eq!(
            d.blocks - dev0.blocks,
            (1 + k) + k + 1,
            "record, home drain, clear"
        );
        // The cache's drains send the whole record at [log_start, log_start
        // + 1 + k) as one range write, and the header clear as one single
        // write after the home drain.
        assert_eq!(
            dev.log_cmds,
            vec![(true, LOG_START, 1 + k), (true, LOG_START, 1)]
        );
        // The payload slots hold the group's sectors in target (LBA) order,
        // every home sector is durable, and the header is clear.
        let mut sorted = HOMES;
        sorted.sort_unstable();
        for (slot, lba) in (LOG_START + 1..).zip(sorted) {
            assert_eq!(read(&mut dev.disk, slot), contents(lba), "slot {slot}");
            assert_eq!(read(&mut dev.disk, lba), contents(lba), "home {lba}");
        }
        assert_eq!(read(&mut dev.disk, LOG_START), [0u8; BLOCK_SIZE]);
    }

    /// A group may pin at most `extents_per_shard - 2` extents of a shard:
    /// one more for the next transaction's pin and one victim for its
    /// fills. On a one-shard cache of three extents the second transaction
    /// of a group sized for eight commits it early.
    #[test]
    fn a_group_that_would_crowd_a_cache_shard_commits_early() {
        let mut dev = LogTap::new(256);
        let mut bc = BufCache::with_geometry(1, 3);
        let mut log = TxnLog::new(LOG_START, LOG_SECTORS, 256);
        log.set_group_ops(8);
        // Sectors in different extents of the one shard.
        for (lba, pending) in [(40, 1), (90, 0)] {
            log.with_txn(&mut dev, &mut bc, |dev, bc| {
                bc.write(dev, lba, &contents(lba))?;
                TxnLog::log_sector(bc, lba, 1);
                Ok(())
            })
            .unwrap();
            assert_eq!(bc.group_sectors(), pending, "after the txn on {lba}");
        }
        assert_eq!(bc.stats().log_commits, 1);
        for lba in [40, 90] {
            assert_eq!(read(&mut dev.disk, lba), contents(lba), "home {lba}");
        }
    }

    #[test]
    fn replay_reads_the_payloads_back_with_one_range_command() {
        let k = HOMES.len() as u64;
        let (mut dev, mut bc, log) = pending_group();
        // Cut power right after the commit point: the record is durable,
        // no home sector is.
        dev.disk.power_cut_after(1 + k);
        assert!(log.commit_pending(&mut dev, &mut bc).is_err());
        dev.disk.power_restored();
        for lba in HOMES {
            assert_eq!(
                read(&mut dev.disk, lba),
                [0u8; BLOCK_SIZE],
                "home drain ran"
            );
        }
        dev.log_cmds.clear();
        let mut cold = BufCache::default();
        log.replay(&mut dev, &mut cold).unwrap();
        assert_eq!(
            dev.log_cmds,
            vec![
                (false, LOG_START, 1),
                (false, LOG_START + 1, k),
                (true, LOG_START, 1)
            ],
            "header probe, one payload read, header clear"
        );
        for lba in HOMES {
            assert_eq!(read(&mut dev.disk, lba), contents(lba), "replayed {lba}");
        }
    }
}
