//! The unified, range-aware block buffer cache.
//!
//! Proto originally inherited xv6's buffer cache: a single pool of one-block
//! buffers with LRU replacement and write-through to the device. The paper is
//! explicit that this design "suffices for xv6's simple filesystem but
//! bottlenecks FAT32's multi-block access" (§5.2), and the first reproduction
//! worked around it the same way the paper does — with a *bypass* escape
//! hatch that let FAT32 issue range commands straight at the device, skipping
//! caching entirely.
//!
//! This module replaces both halves of that compromise with one coherent
//! cache shared by xv6fs and FAT32:
//!
//! * **Sharded.** The cache is split into N independent shards keyed by LBA
//!   (extent index modulo shard count), each with its own LRU state and
//!   statistics. Consecutive extents land on consecutive shards, so large
//!   sequential transfers spread across all of them. The hash is the one
//!   placement rule: an extent lives in its LBA's shard whichever core
//!   allocates it.
//! * **Extent-based.** Storage is allocated in aligned multi-block *extents*
//!   of [`EXTENT_BLOCKS`] sectors (4 KB — exactly one FAT32 cluster), with
//!   per-block valid and dirty bitmaps. A FAT32 cluster read occupies one
//!   extent instead of eight separately tracked buffers.
//! * **Walked an extent at a time.** Every range operation — the hit/miss
//!   count, the search for missing blocks, fills and their installs,
//!   copy-out, writes, write-back snapshots and settles — walks its range
//!   as per-extent spans (`spans`): it finds each extent once, updates its
//!   bitmaps a span at a time, and moves each span's bytes with one copy.
//!   What is counted per block stays per block. Every block is one lookup
//!   in the statistics, and the LRU clock advances once per block: a span
//!   that allocates or writes an extent takes its first block's tick
//!   before any eviction and leaves the extent stamped with its last
//!   block's, and copy-out ticks each block and applies the use-once test
//!   to each in turn. Every tick, and so every eviction, is what a
//!   block-at-a-time walk would produce.
//! * **Range I/O first-class.** [`BufCache::read_range`] and
//!   [`BufCache::write_range`] are the native operations; single-block
//!   [`BufCache::read`]/[`BufCache::write`] are the one-block special case.
//!   Missing blocks of a range read are coalesced into contiguous runs and
//!   fetched with the device's multi-block command (CMD18 on the SD card),
//!   so a cold cluster read costs exactly one SD command — the same as the
//!   old bypass path — while a warm one costs zero.
//! * **Write-back.** Writes dirty cached blocks and return immediately.
//!   Dirty data reaches the device when an extent is evicted, on an explicit
//!   [`BufCache::flush`], or incrementally through
//!   [`BufCache::flush_some`] — the budgeted drain the kernel's `kbio`
//!   flusher thread calls on a timer so write-back cost is paid in the
//!   background instead of spiking whichever task closes last. Both drains
//!   coalesce adjacent dirty blocks (across extents) into single range
//!   commands (CMD25).
//! * **Streaming prefetch.** While the prefetch policy is on
//!   ([`BufCache::set_prefetch`]) the cache tracks whether successive range
//!   reads are sequential ([`BufCache::sequential_streak`]), and the FAT32
//!   layer uses that signal to issue [`BufCache::prefetch_range`] for the
//!   next cluster run ahead of demand. Prefetch fills are ordinary range
//!   commands, but they are counted separately
//!   ([`BufCacheStats::prefetch_cmds`]) so the kernel's cost accounting can
//!   model their command-setup latency as overlapped with the previous
//!   transfer instead of serialised on the reading task.
//! * **Use-once eviction.** A fill or write of at least
//!   `SCAN_RESIST_BLOCKS` blocks installs *cold* extents; a hit does not
//!   make them hot again. Once reads have copied out every valid block of a
//!   cold extent it is *consumed*, and copy-out stops refreshing its LRU
//!   tick; a fill or write installing new data makes it unread again.
//!   Eviction takes consumed cold extents first, then unread cold extents
//!   (read-ahead not yet read), then hot ones (metadata, small reads),
//!   oldest first within each class. So a scan never flushes hot metadata,
//!   and when several streams share the cache each stream's read-ahead
//!   outlives the data the streams have already read.
//!
//! * **One device pipeline.** Every fill, prefetch, eviction write-back and
//!   drain is *submitted* as a scatter-gather chain (one control block per
//!   contiguous run) through [`BlockDevice::submit_read_sg`] /
//!   [`BlockDevice::submit_write_sg`]. Over a device with a command queue
//!   (the SD host in DMA mode) the chain completes later on the device
//!   timeline, reaped either from the kernel's `Dma0` interrupt handler
//!   ([`BufCache::reap_completions`]) or by the waiting paths themselves. A
//!   device without a queue (the ramdisk, the SD host in PIO mode) runs the
//!   chain as polled commands inside the submit call and hands the finished
//!   completion back; the cache applies it at once through the same code
//!   the interrupt path runs, so one set of rules covers both. The contract:
//!
//!   - *Fills*: prefetch submits and returns (a full queue drops the
//!     speculation); a demand read over blocks already in flight **waits for
//!     that chain** instead of re-issuing it ([`BufCacheStats::demand_waits`])
//!     — this wait-not-reissue rule is what turns read-ahead into genuine
//!     transfer/compute overlap.
//!   - *Write-back*: submission trades a block's dirty bit for an in-flight
//!     `writing` mark (the chain carries a snapshot, so later cache writes
//!     just re-dirty). Dependency ordering keys on **durable**, not
//!     submitted: metadata is held until the data chains' completions are
//!     reaped. A completion that reports a fault or a torn power-cut write
//!     converts `writing` back to dirty — a failed chain is retryable and
//!     loses nothing ([`BufCacheStats::async_write_errors`]).
//!   - *Batched eviction (the deep-queue write path)*: a cache-pressure
//!     eviction does not submit one extent-sized chain and drain it in
//!     lockstep. The victim's dirty runs are merged with every other ready
//!     dirty *data* run across the cache, packed into bounded
//!     multi-control-block chains ([`WB_CHAIN_BLOCKS`] blocks /
//!     [`WB_CHAIN_RUNS`] CBs each — adjacent runs from different extents
//!     travel as one chain, like the read path's run coalescing) and
//!     submitted back-to-back until the queue is full; the allocator then
//!     reuses whichever extent *settles first* instead of waiting for the
//!     victim's own chain. One stall therefore pays for many future
//!     evictions and the queue stays genuinely deep
//!     ([`BufCacheStats::batched_evictions`], the
//!     [`BufCache::queue_occupancy`] histogram). The SD adapter charges each
//!     chain's driver CPU work (command issue, control blocks, per-block
//!     bookkeeping and bounce copy) to the submitting core as it builds the
//!     chain, before the chain starts: while chain N's data phase runs on
//!     the card, the writer's CPU builds the chains queued behind it, and
//!     its queue-full wait absorbs that work, so a streaming write costs
//!     about the card's data phase rather than the data phase plus the
//!     driver's work. A writer that still finds the queue full counts a
//!     [`BufCacheStats::queue_full_stalls`] before spin-reaping; the
//!     kernel's write path goes one better and *yields*: it kicks the
//!     flusher, parks the writer on the block-I/O wait channel and retries
//!     the write after the completion interrupt
//!     ([`BufCacheStats::queue_full_yields`]), so back-pressure costs the
//!     backlogged writer its slice instead of burning it reaping other
//!     tasks' chains. The barriers split their drains into the same bounded
//!     chains, so a torn or faulted chain re-dirties at most
//!     [`WB_CHAIN_BLOCKS`] blocks — and only its own.
//!   - *Barriers*: [`BufCache::flush`] (fsync, unmount) and
//!     [`BufCache::flush_ready`] (every drain of the transaction layer's
//!     commit) are queue-drain barriers — they submit, then drain every
//!     write chain, re-check for completion-time errors, and finish with
//!     the device's own cache-FLUSH command ([`BlockDevice::flush`]), so
//!     "flush returned Ok" still means "on the medium" even over a card
//!     whose posted write cache parks completed writes in volatile RAM. The
//!     transaction layer writes its commit record and its header clear into
//!     the cache and sends each down with a `flush_ready` of its own: the
//!     FLUSH closing the record's drain is the commit point, and the one
//!     closing the clear's drain makes the clear durable.
//!     [`BufCache::flush_some`] (the `kbio` budgeted pass) deliberately
//!     does *not* drain and never issues the device barrier: it reaps
//!     whatever finished since the last pass, submits up to its budget, and
//!     returns — write-back cost lands on the device timeline instead of
//!     the flusher thread, and durability points stay exactly where the
//!     barriers are.
//!   - Extents carrying an in-flight chain are pinned against eviction
//!     (they are the DMA target), and [`BufCache::dirty_blocks`] counts
//!     in-flight write-backs as still-dirty, so "zero dirty" continues to
//!     mean "everything persisted".
//!
//! * **One completion path.** The cache is one shared structure driven
//!   from many cores, and its concurrency contract is *ownership*, not
//!   locking: the cache owns every in-flight chain, and a finished chain is
//!   applied by whoever reaps it. The kernel's `Dma0` handler applies every
//!   chain the device has finished at once ([`BufCache::reap_completions`]),
//!   and a path that waits on the device reaps the chains it waits for. The
//!   kernel cannot apply a completion itself. A demand read that needs an
//!   in-flight chain waits in one of two ways
//!   ([`BufCache::set_block_demand`]): in spin mode it reaps the queue on
//!   its own core's clock. In blocking mode it returns
//!   [`crate::FsError::WouldBlock`] instead (counted in
//!   [`BufCacheStats::demand_blocks`]); the kernel parks the task on the
//!   block-I/O wait channel, wakes it once a completion has been applied,
//!   and simply retries the read — by construction the retry finds the
//!   installed blocks as hits. A failed blocking chain records its error
//!   for the next retry, so a torn chain converts to a surfaced error,
//!   never a lost wakeup or a deadlock.
//!   [`BufCacheStats::demand_spin_reaps`] counts the spin-mode reaps that
//!   remain; a fully blocking configuration holds it at zero.
//!
//! * **Dependency-ordered draining.** Dirty blocks carry a class (data vs
//!   filesystem metadata, tagged by the writers via
//!   [`BufCache::note_metadata`]) and explicit write-order dependencies
//!   ([`BufCache::add_dependency`]): `flush`/`flush_some` drain data before
//!   metadata and hold a metadata block back until everything it references
//!   is on the device, and eviction flushes a metadata block's dependency
//!   closure first. A power cut at *any* point of a drain therefore leaves
//!   either the old tree or a complete new one — never a dirent or FAT
//!   chain pointing at unwritten clusters. This is the cache's one drain
//!   order, for every kernel variant; the crash suite shows what the pure
//!   LBA order it replaced exposed. The cache also hosts the write-ahead
//!   log's **group-commit accumulator** (`group_*` methods):
//!   finished-but-uncommitted logged transactions park their sectors here
//!   — pinned against eviction (the group commits early rather than pin a
//!   shard full), excluded from every incremental drain (even when their
//!   dependencies are clean: draining half a pending rename early would
//!   expose it), and with their freed allocation units reserved
//!   ([`BufCache::note_pending_free`]) so no later transaction can reuse a
//!   cluster or block the old tree still references — until the
//!   filesystem-agnostic transaction layer ([`crate::txn::TxnLog`], whose
//!   clients are FAT32's intent log and the xv6fs metadata journal) writes
//!   the group's single commit record, capturing the payloads at commit
//!   time and writing header and payloads into the cache as one contiguous
//!   run, which the next ready drain sends down as one range command (one
//!   chain on a queued device). The state lives in the cache because the
//!   cache is what pins the group's sectors against eviction and drains,
//!   and a full flush is what clears the pending frees.
//!
//! * **One undo scope.** Every mutating filesystem call runs in the cache's
//!   undo scope ([`BufCache::begin_scope`], entered through
//!   [`crate::txn::TxnLog::with_txn`] or [`crate::txn::TxnLog::with_scope`]).
//!   At the call's first write to each block the cache keeps a host copy of
//!   the block if it held data, or marks it fresh if it did not, and it notes
//!   the dependency edges and pending frees the call adds. The one abort
//!   rule: a call that fails ([`BufCache::abort_scope`]) drops its fresh
//!   blocks, puts the copies back as dirty and removes its edges and pending
//!   frees, so it changes nothing; a call that succeeds forgets the copies
//!   ([`BufCache::keep_scope`]), at no pin, device command or cycle charge.
//!   No filesystem path undoes its own writes. In logged mode the scope is
//!   also the metadata-transaction recorder: it collects the metadata
//!   sectors the call notes and pins them against eviction until the
//!   transaction layer has committed them ([`BufCache::end_scope`]), so no
//!   half of a multi-sector update leaks to the device before its record.
//!
//! * **Bounded write-retry budgets and read-only degradation.** A dirty
//!   block whose write-back keeps faulting is retried with exponential
//!   backoff (skipped flusher passes, not timers) up to a per-block budget
//!   ([`WRITE_RETRY_BUDGET`]). A block that exhausts the budget is
//!   parked: it stays cached and readable, pinned against eviction, and is
//!   excluded from every later drain — and the cache degrades to
//!   *read-only* ([`BufCache::degraded`]): further writes fail fast
//!   instead of silently accumulating state that can never reach the
//!   medium, reads keep serving the surviving cached copy, and every
//!   barrier reports the loss ([`BufCache::flush`] errs while a parked
//!   block exists) instead of pretending durability.
//!   [`BufCacheStats::write_retries`] / [`BufCacheStats::write_gave_up`]
//!   count the retries and the casualties, [`BufCache::gave_up_blocks`]
//!   names them, and [`BufCache::reset_degraded`] re-arms the parked
//!   blocks for another budget once the operator clears the fault.
//!
//! # Sanitized invariants (`--features sanitize`)
//!
//! The state machine above is all bitmaps and side tables, and a bug in one
//! transition tends to surface many operations later as a stale read or a
//! lost write. Under the `sanitize` feature the cache therefore re-checks
//! its full invariant set after externally visible state transitions
//! (public cache operations, applied completions, evictions) and asserts
//! with context on the first violation — turning "flaky crash-consistency
//! test" into "the transition that broke the contract". The sweep is
//! O(cache), so per-operation hooks are sampled (one sweep per
//! `SANITIZE_SAMPLE` hooks — violations are persistent state, so a later
//! sweep still catches them); the rare commit-group, metadata-transaction
//! and invalidation boundaries always sweep. The checked invariants:
//!
//! 1. **Block state machine legality**, per extent: a block is never both
//!    fill-pending and writing back (`pending & writing == 0`); a pending
//!    block is not yet valid (`pending & valid == 0`); only valid blocks
//!    can be dirty (`dirty ⊆ valid`), riding a write-back snapshot
//!    (`writing ⊆ valid`) or copied out by a read (`copied ⊆ valid`).
//! 2. **Chain accounting**: every `pending` bit is covered by a run of some
//!    entry in `inflight_reads` (checked at operation boundaries), and
//!    every `writing` bit by a run of some entry in `inflight_writes` — no
//!    block waits on a chain the cache has lost track of.
//! 3. **Dependency-graph acyclicity**: the write-order dependency graph
//!    (`add_dependency`) is cycle-free, except among sectors pinned by the
//!    open commit group or an open metadata transaction — the intent log's
//!    deliberately cyclic renames — which must then be resident in the
//!    cache (the pin against eviction actually held).
//! 4. **Statistics conservation**: every lookup classified by the read
//!    paths is counted exactly once, i.e. `hits + misses == lookups`
//!    across the shards.
//!
//! The checks walk the whole cache and are compiled to a no-op without the
//! feature; CI runs the crash-consistency and per-core suites sanitized.
//!
//! The §5.2 ablation is preserved as a *policy* rather than a bypass: with
//! [`BufCache::set_coalescing`] off, every run is split into one-block runs
//! before submission, so the device issues one command per block — the
//! xv6-baseline behaviour — without changing what is cached.

use std::collections::{BTreeMap, BTreeSet};

use crate::block::{BlockDevice, SgCompletion, SgRun, Submission, BLOCK_SIZE};
use crate::FsResult;

/// Blocks per cache extent (8 × 512 B = 4 KB, one FAT32 cluster).
pub const EXTENT_BLOCKS: usize = 8;
/// Bytes per cache extent.
pub const EXTENT_BYTES: usize = EXTENT_BLOCKS * BLOCK_SIZE;
/// Default number of shards.
pub const DEFAULT_SHARDS: usize = 8;
/// Default cache capacity in 512-byte blocks (512 KB of cached data — xv6
/// used 30 single-block buffers; a range-capable cache needs room for whole
/// cluster runs, and the streaming pipeline needs the current demand run
/// *plus* its read-ahead window *plus* hot metadata resident at once, so
/// read-ahead never evicts what it just fetched).
pub const DEFAULT_NBUF: usize = 1024;
/// Maximum blocks one batched write-back chain carries (64 KB). Splitting a
/// full-cache drain into chains of this size lets the queue pipeline several
/// entries and bounds how much is re-dirtied when a single chain is torn or
/// faulted. The SD adapter charges a chain's driver CPU work to the
/// submitting core when it builds the chain, so building chain N+1 overlaps
/// chain N's data phase on the card.
pub const WB_CHAIN_BLOCKS: u64 = 128;
/// Maximum scatter-gather runs (control blocks) per batched write-back
/// chain, bounding descriptor-table size for badly fragmented dirty sets.
pub const WB_CHAIN_RUNS: usize = 16;
/// Initial per-stream read-ahead window in blocks (32 KB), granted when a
/// stream slot first detects sequentiality.
pub const INITIAL_READAHEAD_BLOCKS: u64 = 64;
/// Per-stream read-ahead window ceiling in blocks (128 KB, one maximal
/// cluster run). Each stream slot ramps its own window from
/// [`INITIAL_READAHEAD_BLOCKS`] by doubling per sequential continuation, so
/// an interleaved second stream cannot reset the first's depth.
pub const MAX_READAHEAD_BLOCKS: u64 = 256;

/// Consecutive write-back failures tolerated per block before the
/// cache parks the block ([`BufCacheStats::write_gave_up`]) and degrades to
/// read-only. Deliberately generous: a transient fault (power dip, bus
/// glitch) clears well within the budget, while a genuinely dead device
/// stops burning bus time on hopeless retries after eight rounds instead of
/// looping forever.
pub const WRITE_RETRY_BUDGET: u32 = 8;

/// One aligned multi-block cache extent.
#[derive(Debug, Clone)]
struct Extent {
    /// First LBA covered; always a multiple of [`EXTENT_BLOCKS`].
    base: u64,
    /// `EXTENT_BYTES` of backing storage.
    data: Vec<u8>,
    /// Bitmap of blocks holding data (bit i = `base + i`).
    valid: u8,
    /// Bitmap of blocks modified since the last write-back.
    dirty: u8,
    /// Bitmap of blocks classified as filesystem *metadata* (FAT sectors,
    /// dirents, inodes, bitmaps). The ordered write-back drain writes data
    /// blocks before metadata blocks so a power cut can never expose
    /// metadata referencing unwritten data. The classification is set by
    /// [`BufCache::note_metadata`] and cleared again by any plain write —
    /// "the last writer decides what the block is".
    meta: u8,
    /// Bitmap of blocks with an asynchronous *fill* in flight (a submitted
    /// read chain will install them). A pending block is not yet valid;
    /// demand reads covering it wait for the completion instead of
    /// re-issuing the transfer. Cleared when the completion installs the
    /// data (or fails), or cancelled by a write that supersedes the fill.
    pending: u8,
    /// Bitmap of blocks with an asynchronous *write-back* in flight: their
    /// dirty bit was traded for this one when the chain was submitted (the
    /// chain carries a snapshot, so later cache writes simply re-dirty). A
    /// writing block is not yet durable — dependency checks treat it as
    /// dirty — and its extent is pinned against eviction. On success the bit
    /// clears; on failure it converts back to dirty for retry.
    writing: u8,
    /// LRU stamp (larger = more recently used).
    tick: u64,
    /// Scan-resistance class: `true` for extents installed by a streaming
    /// fill or written by a streaming write (at least
    /// [`SCAN_RESIST_BLOCKS`] blocks). Only a smaller write clears it; a
    /// hit never promotes the extent to hot. See [`Extent::victim_key`].
    cold: bool,
    /// Bitmap of valid blocks a read has copied out since the block's data
    /// was installed; a fill or write installing new data clears the bit.
    copied: u8,
    /// Bitmap of blocks written since the undo scope last opened: inside
    /// the scope their pre-scope state is recorded ([`UndoScope`]), so a
    /// later write records nothing. Meaningless outside a scope.
    undo: u8,
}

impl Extent {
    fn new(base: u64) -> Self {
        Extent {
            base,
            data: vec![0u8; EXTENT_BYTES],
            valid: 0,
            dirty: 0,
            meta: 0,
            pending: 0,
            writing: 0,
            tick: 0,
            cold: false,
            copied: 0,
            undo: 0,
        }
    }

    /// Whether this is a cold extent whose every valid block reads have
    /// copied out: streamed data already delivered, the first to go.
    fn consumed(&self) -> bool {
        self.cold && self.valid & !self.copied == 0
    }

    /// Eviction order, smallest first: consumed cold extents, then cold
    /// extents with blocks no read has copied out yet (a stream's
    /// read-ahead), then hot extents; oldest first within each class. A
    /// consumed extent's tick stops moving, so streams use their data once
    /// and a stream's read-ahead outlives what the other streams have
    /// already read, while a scan still never evicts hot metadata.
    fn victim_key(&self) -> (u8, u64) {
        let class = if self.consumed() {
            0
        } else if self.cold {
            1
        } else {
            2
        };
        (class, self.tick)
    }

    fn bit(lba: u64) -> u8 {
        1 << (lba % EXTENT_BLOCKS as u64)
    }
}

/// Per-shard statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Block lookups served from this shard.
    pub hits: u64,
    /// Block lookups that had to touch the device.
    pub misses: u64,
    /// Extents evicted to make room.
    pub evictions: u64,
    /// Dirty blocks written back from this shard (eviction or flush).
    pub writeback_blocks: u64,
}

/// Aggregate statistics across the whole cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufCacheStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Block lookups that had to read the device.
    pub misses: u64,
    /// Dirty blocks written back to the device.
    pub writebacks: u64,
    /// Multi-block device commands issued (coalesced fills + write-backs).
    pub coalesced_ranges: u64,
    /// Single-block device commands issued by the cache.
    pub single_cmds: u64,
    /// Extents evicted.
    pub evictions: u64,
    /// Explicit [`BufCache::flush`] calls.
    pub flushes: u64,
    /// Budgeted [`BufCache::flush_some`] passes that wrote at least one block.
    pub partial_flushes: u64,
    /// Device commands issued by [`BufCache::prefetch_range`] (a subset of
    /// `coalesced_ranges`/`single_cmds`).
    pub prefetch_cmds: u64,
    /// Blocks brought in ahead of demand by [`BufCache::prefetch_range`].
    pub prefetched_blocks: u64,
    /// Metadata blocks written while their recorded write-order dependencies
    /// were still dirty — the ordered drain's escape hatch for dependency
    /// cycles (and for caches too small to hold a pinned transaction). Zero
    /// in a well-ordered run.
    pub forced_meta_writes: u64,
    /// Demand reads that found their blocks already in flight under an
    /// earlier prefetch chain and waited for its completion instead of
    /// re-issuing the transfer — the pipeline-overlap hits of the DMA path.
    pub demand_waits: u64,
    /// Blocks whose asynchronous write-back completed with an error and were
    /// converted back to dirty for retry.
    pub async_write_errors: u64,
    /// Write submissions that found the device queue full and had to block
    /// reaping completions before their chain could be accepted — the
    /// backlog signal the kernel's write path uses to kick a sleeping
    /// flusher before spinning on its own chains.
    pub queue_full_stalls: u64,
    /// Cache-pressure evictions served by the batched write-back path: the
    /// victim's dirty runs (plus ready dirty data from across the cache)
    /// were submitted as back-to-back chains and the allocator took whatever
    /// extent settled first instead of draining the victim's own chain.
    pub batched_evictions: u64,
    /// Logged metadata transactions appended to the intent log's group
    /// commit accumulator (FAT32 mkdir/rename/remove/overwrite).
    pub log_txns: u64,
    /// Intent-log commit records actually flushed to the device. With group
    /// commit, one record covers up to `group_commit_ops` transactions, so
    /// `log_commits` grows several times slower than `log_txns`.
    pub log_commits: u64,
    /// Writers that found the SD queue full and yielded their slice back to
    /// the scheduler (parking on the block-I/O wait channel) instead of
    /// spin-reaping other tasks' chains — the back-pressure fairness path.
    pub queue_full_yields: u64,
    /// Demand reads that returned `WouldBlock` so the calling task could
    /// sleep on the completion interrupt instead of spin-advancing its
    /// core's clock (blocking-reader mode).
    pub demand_blocks: u64,
    /// Blocking reaps performed by demand readers spinning for their own
    /// chains — the spin-mode cost that blocking-reader mode eliminates
    /// (a fully blocking configuration holds this at zero).
    pub demand_spin_reaps: u64,
    /// Failed write-backs re-queued for a bounded retry: each block of a
    /// failed chain counts once per failure while it is still within its
    /// [`WRITE_RETRY_BUDGET`].
    pub write_retries: u64,
    /// Blocks that exhausted their write retry budget and were parked: their
    /// data stays cached dirty but is never resubmitted, and the cache
    /// degrades to read-only ([`BufCache::degraded`]) until
    /// [`BufCache::reset_degraded`].
    pub write_gave_up: u64,
}

#[derive(Debug, Clone, Default)]
struct Shard {
    extents: Vec<Extent>,
    stats: ShardStats,
}

impl Shard {
    fn find(&self, base: u64) -> Option<usize> {
        self.extents.iter().position(|e| e.base == base)
    }
}

/// A contiguous run of blocks, used when coalescing fills and write-backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u64,
    len: u64,
}

/// The open undo scope: what one filesystem call changed, recorded at the
/// call's first write to each block, so that a call that fails can change
/// nothing ([`BufCache::begin_scope`]).
#[derive(Debug, Clone, Default)]
struct UndoScope {
    /// Per extent base, the blocks that held data at the scope's first
    /// write to them: their bytes as the scope found them (`data`, an
    /// extent's worth), which blocks those are, which were metadata, and
    /// which were dirty or riding a write-back.
    saved: BTreeMap<u64, (Vec<u8>, u8, u8, u8)>,
    /// Per extent base, the blocks that went to write-back while the scope
    /// was open.
    written: BTreeMap<u64, u8>,
    /// Blocks that held no data at the scope's first write to them.
    fresh: Vec<Run>,
    /// The write-order edges the scope added, as (metadata block, run).
    edges: Vec<(u64, Run)>,
    /// The allocation units the scope reserved behind a pending free.
    frees: Vec<u32>,
}

/// How many concurrent sequential streams the cache tracks for read-ahead.
/// A small fixed table, like a real kernel's per-file readahead state: one
/// slot per active stream means a directory or second-file read cannot reset
/// the streak of a media stream it interleaves with.
const STREAM_SLOTS: usize = 4;

/// Sampling period for the runtime sanitizer (`--features sanitize`): one
/// full invariant sweep per this many check hooks. The sweep is O(cache)
/// and the suites call public cache operations millions of times; since a
/// violated invariant persists in cache state, a sampled sweep still
/// catches every violation — only the blamed context can be late. The rare
/// commit/invalidate boundaries bypass the sampling and always sweep.
#[cfg(feature = "sanitize")]
const SANITIZE_SAMPLE: u32 = 64;

/// One tracked sequential read stream.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    /// The LBA the stream's next sequential read would start at (0 = free).
    next_lba: u64,
    /// Consecutive reads that continued the stream.
    streak: u32,
    /// This stream's own read-ahead window in blocks: starts at
    /// [`INITIAL_READAHEAD_BLOCKS`] when the slot is claimed and doubles per
    /// sequential continuation up to [`MAX_READAHEAD_BLOCKS`]. Ramp state is
    /// per slot, so a second interleaved stream ramps independently instead
    /// of resetting this one's depth.
    window: u64,
    /// LRU stamp for slot replacement.
    tick: u64,
}

/// Fills and writes spanning at least this many blocks are treated as
/// *streaming*: the extents they install are cold, and every cold extent is
/// evicted before any hot one ([`Extent::victim_key`]), so a large
/// sequential scan recycles its own extents rather than evicting hot
/// metadata (FAT sectors, directory clusters) — classic scan resistance.
const SCAN_RESIST_BLOCKS: u64 = 2 * EXTENT_BLOCKS as u64;

fn push_block(runs: &mut Vec<Run>, lba: u64) {
    push_run(runs, lba, 1);
}

/// Appends `[start, start + len)` to `runs`, extending the last run when
/// the new blocks continue it.
fn push_run(runs: &mut Vec<Run>, start: u64, len: u64) {
    match runs.last_mut() {
        Some(r) if r.start.saturating_add(r.len) == start => r.len += len,
        _ => runs.push(Run { start, len }),
    }
}

/// The part of one extent a block range covers: the unit of every range
/// walk in the cache ([`spans`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    /// The extent's first LBA.
    base: u64,
    /// The span's first LBA.
    lba: u64,
    /// Blocks in the span, 1 to [`EXTENT_BLOCKS`].
    len: u64,
    /// Blocks of the walk before this span: where the span's bytes start
    /// in a buffer that holds the whole range (or the runs' payload).
    skip: u64,
}

impl Span {
    /// The span's first block as an index into its extent.
    fn first(&self) -> usize {
        (self.lba - self.base) as usize
    }

    /// The span's LBAs.
    fn blocks(&self) -> std::ops::Range<u64> {
        self.lba..self.lba.saturating_add(self.len)
    }

    /// The span's blocks as an extent bitmap.
    fn mask(&self) -> u8 {
        (((1u16 << self.len) - 1) << self.first()) as u8
    }

    /// The span's bytes within its extent's data.
    fn slots(&self) -> std::ops::Range<usize> {
        let at = self.first() * BLOCK_SIZE;
        at..at + self.len as usize * BLOCK_SIZE
    }

    /// The span's bytes within the walk's buffer.
    fn bytes(&self) -> std::ops::Range<usize> {
        let at = self.skip as usize * BLOCK_SIZE;
        at..at + self.len as usize * BLOCK_SIZE
    }
}

/// Splits `[lba, lba + count)` into per-extent spans, in LBA order.
fn spans(lba: u64, count: u64) -> impl Iterator<Item = Span> {
    run_spans(std::iter::once(Run {
        start: lba,
        len: count,
    }))
}

/// The spans of `runs`, one run after another, with `skip` counted across
/// the runs as their blocks sit in a run-major payload.
fn run_spans(runs: impl IntoIterator<Item = Run>) -> impl Iterator<Item = Span> {
    let mut before = 0u64;
    runs.into_iter().flat_map(move |r| {
        let skip = before;
        before += r.len;
        let end = r.start.saturating_add(r.len);
        let mut next = r.start;
        std::iter::from_fn(move || {
            if next >= end {
                return None;
            }
            let base = BufCache::extent_base(next);
            let len = base.saturating_add(EXTENT_BLOCKS as u64).min(end) - next;
            let span = Span {
                base,
                lba: next,
                len,
                skip: skip + (next - r.start),
            };
            next += len;
            Some(span)
        })
    })
}

/// The maximal runs of set bits in an extent bitmap, lowest first, as
/// (first block index, blocks).
fn bit_runs(mut bits: u8) -> impl Iterator<Item = (usize, usize)> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let first = bits.trailing_zeros();
        let len = (bits >> first).trailing_ones();
        bits &= !((((1u16 << len) - 1) << first) as u8);
        Some((first as usize, len as usize))
    })
}

/// Appends the blocks of the extent at `base` set in `bits` to `runs`.
fn push_bits(runs: &mut Vec<Run>, base: u64, bits: u8) {
    for (i, n) in bit_runs(bits) {
        push_run(runs, base + i as u64, n as u64);
    }
}

/// Packs sorted, disjoint dirty runs into scatter-gather chains bounded by
/// `max_blocks` and `max_runs` control blocks each, splitting oversized runs
/// at the block bound. A full-cache drain therefore pipelines as several
/// queue entries — the device starts chain N+1's data phase right after
/// chain N — and a torn or faulted chain re-dirties at most `max_blocks`.
fn pack_chains(runs: &[Run], max_blocks: u64, max_runs: usize) -> Vec<Vec<Run>> {
    let mut chains: Vec<Vec<Run>> = Vec::new();
    let mut cur: Vec<Run> = Vec::new();
    let mut cur_blocks = 0u64;
    for r in runs {
        let mut start = r.start;
        let mut left = r.len;
        while left > 0 {
            if cur_blocks >= max_blocks || cur.len() >= max_runs {
                chains.push(std::mem::take(&mut cur));
                cur_blocks = 0;
            }
            let take = left.min(max_blocks - cur_blocks);
            cur.push(Run { start, len: take });
            cur_blocks += take;
            start += take;
            left -= take;
        }
    }
    if !cur.is_empty() {
        chains.push(cur);
    }
    chains
}

/// The sharded, extent-based, write-back buffer cache.
#[derive(Debug, Clone)]
pub struct BufCache {
    shards: Vec<Shard>,
    extents_per_shard: usize,
    /// When true (the default), fills and write-backs use the device's
    /// multi-block range commands; when false every transfer is a
    /// single-block command (the §5.2 ablation / xv6-baseline policy).
    coalesce: bool,
    /// When true, the cache tracks sequential streams and callers above it
    /// (FAT32's `read_at`) may issue [`BufCache::prefetch_range`] for them.
    /// Off by default; the kernel switches it on for the FAT cache per its
    /// config.
    prefetch: bool,
    /// Write-order dependencies: a dirty metadata block (key LBA) must not
    /// reach the device before every block of its recorded runs is clean.
    /// Entries are dropped when the metadata block is written back.
    deps: BTreeMap<u64, Vec<Run>>,
    /// What the open undo scope recorded ([`BufCache::begin_scope`]);
    /// `None` outside a scope and once the scope's writes are kept.
    scope: Option<UndoScope>,
    /// The scope's logged mode: the metadata sectors its transaction
    /// touched, each pinned against eviction until the scope ends, so no
    /// half of a multi-sector update can leak to the device before the log
    /// commits it.
    meta_txn: Option<Vec<u64>>,
    /// The intent log's group-commit accumulator: the sectors of logged
    /// transactions whose commit record has not been written yet. Payloads
    /// are captured at *commit* time (so a record can never roll back an
    /// interleaved non-logged write to a shared sector); until then the
    /// sectors' extents stay pinned against eviction and the budgeted
    /// drain's cycle backstop leaves them alone. Owned by the cache, which
    /// does the pinning and the draining; the transaction layer drives it
    /// through the `group_*` methods.
    group: BTreeSet<u64>,
    /// Logged transactions sitting in the open group.
    group_ops: u64,
    /// Allocation units (FAT cluster numbers) freed by a transaction whose
    /// commit record is not yet durable. The allocator must not hand these
    /// out again until the frees commit: reusing one would let new data
    /// overwrite blocks the *old* tree still references, so a cut before
    /// the commit point could expose a blend instead of old-XOR-new.
    /// Cleared when the group commits or a full flush makes the frees
    /// durable.
    pending_frees: BTreeSet<u32>,
    /// In-flight asynchronous fills: command id → the runs it will install.
    inflight_reads: BTreeMap<u64, Vec<Run>>,
    /// In-flight asynchronous write-backs: command id → the runs it persists.
    inflight_writes: BTreeMap<u64, Vec<Run>>,
    /// When true, a demand read that must wait for the device returns
    /// [`crate::FsError::WouldBlock`] instead of spin-reaping completions,
    /// so the kernel can park the task on the completion interrupt.
    block_demand: bool,
    /// Demand chains submitted in blocking mode: a completion error on one
    /// of these must surface to the retrying reader, not vanish like a
    /// failed prefetch.
    blocking_reads: BTreeSet<u64>,
    /// First error reported by a failed blocking demand chain; taken by the
    /// next blocking read retry.
    demand_read_error: Option<crate::FsError>,
    /// First error reported by an asynchronous write-back completion since
    /// the last barrier/poll took it — how `kbio` and `fsync` observe
    /// failures that surfaced after their submit returned.
    async_error: Option<crate::FsError>,
    /// Consecutive write-back failures per block, reset on a confirmed
    /// write. When a block's count exceeds [`WRITE_RETRY_BUDGET`] it moves to
    /// `gave_up` and the cache latches `degraded`.
    write_fail_counts: BTreeMap<u64, u32>,
    /// Blocks past their retry budget. They stay cached dirty (the data is
    /// preserved for inspection / a repaired device) but every run
    /// collector skips them, so they are never resubmitted; durability
    /// barriers fail while this set is non-empty.
    gave_up: BTreeSet<u64>,
    /// Exponential backoff for the *budgeted* drain: a block with `k`
    /// consecutive failures sits out `2^k` [`BufCache::flush_some`] passes
    /// before the background flusher retries it. Full barriers
    /// ([`BufCache::flush`] and friends) ignore the backoff — an fsync
    /// retries immediately because its caller is waiting on the answer.
    write_backoff: BTreeMap<u64, u32>,
    /// Latched once any block exhausts its retry budget: the cache refuses
    /// new writes (`FsError::Io`) while still serving reads — the
    /// read-only degraded mode a filesystem surfaces to its callers.
    degraded: bool,
    /// The counters [`BufCache::stats`] reports, kept in place. Its hits,
    /// misses, write-backs and evictions stay 0: those are per shard.
    stats: BufCacheStats,
    /// Completions ever applied (any path). The kernel compares this across
    /// scheduler passes to wake tasks parked on the block-I/O channel even
    /// when a completion was reaped inside some other task's cache call
    /// rather than by the interrupt handler.
    completions_applied: u64,
    /// Histogram of the device queue's occupancy observed right after each
    /// queued write-chain submission (index = commands in flight, clamped to
    /// the last bucket) — how deep the write path actually keeps the queue.
    wb_occupancy: [u64; 9],
    /// Block lookups classified by the read paths — every lookup lands in
    /// exactly one shard's hit or miss counter, so `hits + misses ==
    /// lookups` at all times (the sanitizer's conservation check).
    lookups: u64,
    /// Countdown to the next sampled sanitizer sweep (see
    /// [`SANITIZE_SAMPLE`]); interior-mutable so the read-only check hooks
    /// can tick it.
    #[cfg(feature = "sanitize")]
    sanitize_skip: std::cell::Cell<u32>,
    tick: u64,
    /// Sequential-stream tracking table (see [`STREAM_SLOTS`]).
    streams: [Stream; STREAM_SLOTS],
}

impl Default for BufCache {
    fn default() -> Self {
        Self::new(DEFAULT_NBUF)
    }
}

impl BufCache {
    /// Creates a cache holding at most (roughly) `capacity_blocks` blocks,
    /// spread over [`DEFAULT_SHARDS`] shards. Capacity is rounded up to a
    /// whole extent per shard.
    pub fn new(capacity_blocks: usize) -> Self {
        let shards = DEFAULT_SHARDS;
        let extents = capacity_blocks
            .div_ceil(EXTENT_BLOCKS)
            .div_ceil(shards)
            .max(1);
        Self::with_geometry(shards, extents)
    }

    /// Creates a cache with an explicit geometry: `shards` shards of
    /// `extents_per_shard` extents each.
    pub fn with_geometry(shards: usize, extents_per_shard: usize) -> Self {
        let shards = shards.max(1);
        BufCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            extents_per_shard: extents_per_shard.max(1),
            coalesce: true,
            prefetch: false,
            deps: BTreeMap::new(),
            scope: None,
            meta_txn: None,
            group: BTreeSet::new(),
            group_ops: 0,
            pending_frees: BTreeSet::new(),
            inflight_reads: BTreeMap::new(),
            inflight_writes: BTreeMap::new(),
            block_demand: false,
            blocking_reads: BTreeSet::new(),
            demand_read_error: None,
            async_error: None,
            write_fail_counts: BTreeMap::new(),
            gave_up: BTreeSet::new(),
            write_backoff: BTreeMap::new(),
            degraded: false,
            stats: BufCacheStats::default(),
            completions_applied: 0,
            wb_occupancy: [0; 9],
            lookups: 0,
            #[cfg(feature = "sanitize")]
            sanitize_skip: std::cell::Cell::new(0),
            tick: 0,
            streams: [Stream::default(); STREAM_SLOTS],
        }
    }

    /// Enables or disables range-command coalescing (the §5.2 ablation
    /// switch). On by default.
    pub fn set_coalescing(&mut self, coalesce: bool) {
        self.coalesce = coalesce;
    }

    /// Whether fills and write-backs use range commands.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// Enables or disables the streaming-prefetch policy and the stream
    /// tracking it reads. Off by default; the kernel turns it on for the FAT
    /// cache of configurations with async prefetch.
    pub fn set_prefetch(&mut self, prefetch: bool) {
        self.prefetch = prefetch;
    }

    /// Whether callers may prefetch ahead of sequential streams.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch
    }

    /// Occupancy histogram of the device command queue, sampled right after
    /// each write-chain submission (index = in-flight commands, clamped to
    /// the last bucket).
    pub fn queue_occupancy(&self) -> [u64; 9] {
        self.wb_occupancy
    }

    /// Enables or disables blocking-demand mode: with it on, a demand read
    /// that must wait for an in-flight chain returns
    /// [`crate::FsError::WouldBlock`] instead of spin-reaping, so the kernel
    /// can park the calling task on the completion interrupt and retry.
    pub fn set_block_demand(&mut self, on: bool) {
        self.block_demand = on;
    }

    /// Applies every chain `dev` has finished, oldest first, without
    /// waiting. The kernel's completion interrupt calls this, and the
    /// cache's reads, drains and evictions call it first.
    ///
    /// Outside this crate, completions reach the cache only through this
    /// call; a caller cannot apply one itself:
    ///
    /// ```compile_fail
    /// use protofs::block::{BlockDevice, MemDisk};
    /// use protofs::bufcache::BufCache;
    ///
    /// let mut dev = MemDisk::new(64);
    /// let mut bc = BufCache::new(64);
    /// for c in dev.poll_completions() {
    ///     bc.apply_completion(&c);
    /// }
    /// ```
    pub fn reap_completions(&mut self, dev: &mut dyn BlockDevice) {
        for c in dev.poll_completions() {
            self.apply_completion(&c);
        }
    }

    /// Total completions applied through any path, monotone. The kernel's
    /// scheduler pass compares this against its last observation to wake
    /// block-I/O waiters even when a completion was reaped inside another
    /// task's cache call instead of by the interrupt handler.
    pub fn completions_applied(&self) -> u64 {
        self.completions_applied
    }

    /// Records a writer that found the device queue full and yielded its
    /// slice (parked on the block-I/O channel) instead of spin-reaping —
    /// the kernel's back-pressure fairness path calls this as it blocks
    /// the task.
    pub fn note_queue_full_yield(&mut self) {
        self.stats.queue_full_yields += 1;
    }

    // ---- the intent log's group-commit accumulator ---------------------------------------

    /// Adds one logged sector to the open commit group (idempotent). The
    /// sector's extent is pinned against eviction until
    /// [`BufCache::group_clear_committed`]; its payload is read from the
    /// cache at commit time.
    pub fn group_append(&mut self, lba: u64) {
        self.group.insert(lba);
    }

    /// Counts one logged transaction folded into the open group.
    pub fn group_note_txn(&mut self) {
        self.group_ops += 1;
        self.stats.log_txns += 1;
    }

    /// Logged transactions sitting in the open (uncommitted) group.
    pub fn group_txns(&self) -> u64 {
        self.group_ops
    }

    /// Distinct sectors the open group would log.
    pub fn group_sectors(&self) -> usize {
        self.group.len()
    }

    /// The open group's sectors, sorted.
    pub fn group_entries(&self) -> Vec<u64> {
        self.group.iter().copied().collect()
    }

    /// Whether the open group already logs `lba`.
    pub fn group_contains(&self, lba: u64) -> bool {
        self.group.contains(&lba)
    }

    /// Whether the open group pins so many extents of some shard that the
    /// next transaction could leave the shard with no victim to evict. An
    /// extent the group pins is never evicted ([`BufCache::make_room`]), so
    /// the group may hold at most `extents_per_shard - 2` extents of a shard:
    /// that leaves one for the next transaction's own pin and one victim
    /// for its fills. [`crate::txn::TxnLog`] commits the group early once
    /// this holds; the default geometry's 16-extent shards never get there.
    pub(crate) fn group_crowds_a_shard(&self) -> bool {
        let mut pinned = vec![0usize; self.shards.len()];
        let bases: BTreeSet<u64> = self.group.iter().map(|&l| Self::extent_base(l)).collect();
        for base in bases {
            pinned[self.shard_of(base)] += 1;
        }
        pinned.iter().any(|&n| n + 2 > self.extents_per_shard)
    }

    /// Clears the group after its commit record reached the device, counting
    /// one commit and releasing the eviction pins and the pending-free
    /// reservations.
    pub fn group_clear_committed(&mut self) {
        self.group.clear();
        self.group_ops = 0;
        self.pending_frees.clear();
        self.stats.log_commits += 1;
        self.sanitize_check_always("group_clear_committed");
    }

    /// Reserves an allocation unit (a FAT cluster number) freed by a
    /// not-yet-committed transaction: [`BufCache::is_pending_free`] stays
    /// true — and the allocator must skip the unit — until the free is
    /// durable (group commit or full flush). A failed call's reservations
    /// go with the rest of its undo scope ([`BufCache::abort_scope`]).
    pub fn note_pending_free(&mut self, cluster: u32) {
        if self.pending_frees.insert(cluster) {
            if let Some(scope) = self.scope.as_mut() {
                scope.frees.push(cluster);
            }
        }
    }

    /// Whether an allocation unit awaits a durable free and must not be
    /// reused yet.
    pub fn is_pending_free(&self, cluster: u32) -> bool {
        self.pending_frees.contains(&cluster)
    }

    /// Classifies `count` blocks starting at `lba` as filesystem metadata.
    /// Callers (the FAT32 and xv6fs write paths) invoke this right after
    /// writing a FAT sector, dirent, inode, bitmap or indirect block; the
    /// ordered drain then writes these blocks only after every dirty data
    /// block. A later plain write reclassifies the block as data. Blocks not
    /// currently cached are skipped (classification only matters while a
    /// block is dirty, and a dirty block is always cached).
    pub fn note_metadata(&mut self, lba: u64, count: u64) {
        for b in lba..lba + count {
            let base = Self::extent_base(b);
            let si = self.shard_of(base);
            if let Some(ei) = self.shards[si].find(base) {
                self.shards[si].extents[ei].meta |= Extent::bit(b);
            }
            if let Some(txn) = self.meta_txn.as_mut() {
                if !txn.contains(&b) {
                    txn.push(b);
                }
            }
        }
    }

    /// Records a write-order dependency: the metadata blocks
    /// `[meta_lba, meta_lba + meta_count)` must not reach the device while
    /// any block of `[dep_lba, dep_lba + dep_count)` is still dirty. This is
    /// how a dirent is ordered after the FAT sectors and data clusters it
    /// references. Dependencies are dropped once the metadata block is
    /// written back, and a failed call's edges with the rest of its undo
    /// scope ([`BufCache::abort_scope`]).
    pub fn add_dependency(&mut self, meta_lba: u64, meta_count: u64, dep_lba: u64, dep_count: u64) {
        let run = Run {
            start: dep_lba,
            len: dep_count,
        };
        for m in meta_lba..meta_lba.saturating_add(meta_count) {
            let runs = self.deps.entry(m).or_default();
            if !runs.contains(&run) {
                runs.push(run);
                if let Some(scope) = self.scope.as_mut() {
                    scope.edges.push((m, run));
                }
            }
        }
    }

    // ---- the undo scope ---------------------------------------------------------------

    /// Opens the undo scope, or joins the open one, and returns whether this
    /// call opened it: only the opener ends it. `logged` switches the scope
    /// to logged mode, the metadata-transaction recorder: from then on every
    /// [`BufCache::note_metadata`] sector is collected and its extent pinned
    /// against eviction until [`BufCache::end_scope`].
    ///
    /// While the scope records, the first write to each block keeps a host
    /// copy of the block if it held data and marks it fresh if it did not,
    /// and the scope notes the dependency edges and pending frees it adds.
    /// The one abort rule: a call that fails ends its scope with
    /// [`BufCache::abort_scope`] and changes nothing. One that succeeds
    /// forgets the copies ([`BufCache::keep_scope`]) — no pin, no device
    /// command — and ends the scope once its log, if any, has committed.
    pub fn begin_scope(&mut self, logged: bool) -> bool {
        let opened = self.scope.is_none() && self.meta_txn.is_none();
        if opened {
            self.scope = Some(UndoScope::default());
            for e in self.shards.iter_mut().flat_map(|s| s.extents.iter_mut()) {
                e.undo = 0;
            }
        }
        if logged {
            self.meta_txn.get_or_insert_with(Vec::new);
        }
        opened
    }

    /// Keeps every write of the open scope: forgets its copies and records
    /// nothing more. Returns the sectors logged mode collected (none in an
    /// unlogged scope); their pins stay until [`BufCache::end_scope`], so the
    /// transaction layer commits under them.
    pub fn keep_scope(&mut self) -> Option<Vec<u64>> {
        self.scope = None;
        self.meta_txn.clone()
    }

    /// Ends the open scope, keeping its writes and releasing its logged
    /// pins.
    pub fn end_scope(&mut self) {
        self.scope = None;
        self.meta_txn = None;
        self.sanitize_check_always("end_scope");
    }

    /// Ends the open scope by undoing it: drops the blocks it marked fresh,
    /// puts the copies back (with their metadata class) and removes the
    /// dependency edges and pending frees it added. A copy goes back clean
    /// only if its block was clean at the scope's first write, its extent
    /// stayed resident and none of it went to write-back during the scope,
    /// since the device then still holds those bytes; any other goes back
    /// dirty. A block that rides an in-flight write-back keeps its data,
    /// since its chain carries it anyway; a copy whose extent was evicted
    /// meanwhile is put back in a newly allocated one, if the cache can make
    /// room for it.
    pub fn abort_scope(&mut self, dev: &mut dyn BlockDevice) {
        let scope = self.scope.take().unwrap_or_default();
        for (m, run) in scope.edges {
            if let Some(runs) = self.deps.get_mut(&m) {
                runs.retain(|r| *r != run);
            }
        }
        self.deps.retain(|_, runs| !runs.is_empty());
        for c in scope.frees {
            self.pending_frees.remove(&c);
        }
        for sp in run_spans(scope.fresh) {
            if let Some(e) = self.resident_mut(sp.base) {
                let dropped = sp.mask() & !e.writing;
                e.dirty &= !sp.mask();
                e.valid &= !dropped;
                e.meta &= !dropped;
                e.copied &= !dropped;
            }
        }
        for (base, (data, blocks, meta, dirty)) in scope.saved {
            // A block's `undo` bit survives only while its extent does.
            let stayed = self.resident(base).map_or(0, |e| e.undo);
            let written = scope.written.get(&base).copied().unwrap_or(0);
            let clean = blocks & !dirty & stayed & !written;
            let Ok(e) = self.extent_for(dev, base, 1) else {
                continue;
            };
            for (i, n) in bit_runs(blocks) {
                let r = i * BLOCK_SIZE..(i + n) * BLOCK_SIZE;
                e.data[r.clone()].copy_from_slice(&data[r]);
            }
            e.valid |= blocks;
            e.dirty = (e.dirty | blocks) & !clean;
            e.pending &= !blocks;
            e.copied &= !blocks;
            e.meta = e.meta & !blocks | meta;
        }
        self.end_scope();
    }

    /// Records the blocks of `sp` the open scope, if one records, writes
    /// for the first time: a copy of those that hold data (the first copy
    /// wins), the rest as fresh. A block recorded before its extent was
    /// evicted can be recorded again; [`BufCache::abort_scope`] drops fresh
    /// blocks before it puts copies back, so the pre-scope copy still wins.
    fn record_first_write(&mut self, sp: &Span) {
        let Some(mut scope) = self.scope.take() else {
            return;
        };
        let ext = self.resident(sp.base);
        let (valid, undo) = ext.map_or((0, 0), |e| (e.valid, e.undo));
        let first = sp.mask() & !undo;
        if let Some(e) = ext.filter(|_| first & valid != 0) {
            let (data, blocks, meta, dirty) = scope
                .saved
                .entry(sp.base)
                .or_insert_with(|| (vec![0; EXTENT_BYTES], 0, 0, 0));
            let held = first & valid & !*blocks;
            for (i, n) in bit_runs(held) {
                let r = i * BLOCK_SIZE..(i + n) * BLOCK_SIZE;
                data[r.clone()].copy_from_slice(&e.data[r]);
            }
            *blocks |= held;
            *meta |= e.meta & held;
            *dirty |= (e.dirty | e.writing) & held;
        }
        push_bits(&mut scope.fresh, sp.base, first & !valid);
        self.scope = Some(scope);
    }

    /// Drops the write-order dependencies keyed on the given blocks. The
    /// intent log calls this right after its commit point: a committed
    /// record repairs any torn home write at replay, so the logged sectors'
    /// mutual order — which may be deliberately cyclic (frees ≺ dirent ≺
    /// new FAT on a shared sector) — no longer needs to constrain the
    /// drain.
    pub fn clear_dependencies(&mut self, lbas: &[u64]) {
        for lba in lbas {
            self.deps.remove(lba);
        }
    }

    /// The streak of the most recently touched sequential stream: how many
    /// consecutive cluster-sized (or larger) range reads continued exactly
    /// where a previous one ended. This is the sequential-stream signal
    /// FAT32's `read_at` consults right after its own data read (which is,
    /// by construction, the most recent stream touch). Single-block reads
    /// (FAT sectors) are ignored entirely, and up to `STREAM_SLOTS`
    /// interleaved streams are tracked independently, so metadata or a
    /// second file's reads do not reset a media stream's streak.
    pub fn sequential_streak(&self) -> u32 {
        self.streams
            .iter()
            .max_by_key(|s| s.tick)
            .map(|s| s.streak)
            .unwrap_or(0)
    }

    /// The most recently touched stream's own read-ahead window, in blocks.
    /// Each slot ramps independently ([`INITIAL_READAHEAD_BLOCKS`] doubling
    /// to [`MAX_READAHEAD_BLOCKS`] per continuation), so this reflects *that
    /// stream's* depth: an interleaved second stream reports its own (fresh)
    /// window without having reset this one's.
    pub fn stream_window(&self) -> u64 {
        self.streams
            .iter()
            .max_by_key(|s| s.tick)
            .map(|s| s.window)
            .unwrap_or(0)
    }

    /// Records a qualifying (cluster-sized or larger) range read in the
    /// stream table: extends the stream it continues, or claims the
    /// least-recently-touched slot for a new stream.
    fn note_stream_read(&mut self, lba: u64, count: u64) {
        let tick = self.next_tick();
        if let Some(s) = self
            .streams
            .iter_mut()
            .find(|s| s.next_lba == lba && s.next_lba != 0)
        {
            s.streak = s.streak.saturating_add(1);
            s.next_lba = lba + count;
            // The slot's own ramp: double the window per continuation. Other
            // slots' windows are untouched, so an interleaved stream cannot
            // reset an established one's depth.
            s.window = (s.window * 2).min(MAX_READAHEAD_BLOCKS);
            s.tick = tick;
            return;
        }
        if let Some(s) = self
            .streams
            .iter_mut()
            .find(|s| s.next_lba == lba + count && s.next_lba != 0)
        {
            // The same read noted twice: a blocking demand read that parked
            // on the completion interrupt retries the whole call. The retry
            // must not steal a stream slot or reset the streak it already
            // advanced.
            s.tick = tick;
            return;
        }
        if let Some(slot) = self.streams.iter_mut().min_by_key(|s| s.tick) {
            *slot = Stream {
                next_lba: lba + count,
                streak: 0,
                window: INITIAL_READAHEAD_BLOCKS,
                tick,
            };
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of cached blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.shards.len() * self.extents_per_shard * EXTENT_BLOCKS
    }

    /// Per-shard statistics.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Aggregate statistics: the cache's counters plus the per-shard sums.
    pub fn stats(&self) -> BufCacheStats {
        let mut out = self.stats;
        for s in &self.shards {
            out.hits += s.stats.hits;
            out.misses += s.stats.misses;
            out.writebacks += s.stats.writeback_blocks;
            out.evictions += s.stats.evictions;
        }
        out
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.extents.iter())
            .map(|e| e.valid.count_ones() as usize)
            .sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks not yet durable: dirty in the cache, or riding an
    /// asynchronous write-back chain whose completion has not been reaped.
    /// "Zero dirty blocks" therefore still means "everything persisted".
    pub fn dirty_blocks(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.extents.iter())
            .map(|e| (e.dirty | e.writing).count_ones() as usize)
            .sum()
    }

    /// Asynchronous commands this cache has in flight (fills + write-backs).
    pub fn inflight_cmds(&self) -> usize {
        self.inflight_reads.len() + self.inflight_writes.len()
    }

    /// Drops every cached buffer **including dirty data** — call
    /// [`BufCache::flush`] first unless the device contents are being
    /// discarded too (unmount of a scratch volume, tests).
    pub fn invalidate_all(&mut self) {
        for s in &mut self.shards {
            s.extents.clear();
        }
        self.deps.clear();
        self.scope = None;
        self.meta_txn = None;
        // An uncommitted group dies with the cache contents it described.
        self.group.clear();
        self.group_ops = 0;
        self.pending_frees.clear();
        // Completions for dropped extents are ignored when they arrive.
        self.inflight_reads.clear();
        self.inflight_writes.clear();
        self.blocking_reads.clear();
        self.demand_read_error = None;
        // The retry ledger described cached dirty data that no longer
        // exists; a fresh mount starts with a clean slate (and a full
        // budget) against whatever device it finds.
        self.reset_degraded();
        self.sanitize_check_always("invalidate_all");
    }

    // ---- transient-fault retry budgets and degraded mode --------------------------------
    //
    // A failed write-back re-dirties its blocks for retry, but retries are
    // *budgeted*: `WRITE_RETRY_BUDGET` consecutive failures per block, with
    // exponential pass-count backoff on the background drain in between.
    // A block past its budget is parked in `gave_up` — its data stays
    // cached (nothing is lost), every run collector skips it, durability
    // barriers report `FsError::Io`, and the cache latches `degraded`:
    // reads keep working, new writes are refused. This is the read-only
    // degraded mode the filesystems surface; `reset_degraded` re-arms the
    // cache once the device is repaired or replaced.

    /// Whether the cache has latched read-only degraded mode: some block
    /// exhausted its write retry budget, so new writes return
    /// [`FsError::Io`](crate::FsError::Io) while reads keep working.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Blocks currently parked past their retry budget (still cached dirty,
    /// never resubmitted).
    pub fn gave_up_blocks(&self) -> Vec<u64> {
        self.gave_up.iter().copied().collect()
    }

    /// Re-arms a degraded cache after the device was repaired or replaced:
    /// clears the give-up set, failure counts and backoff, and lifts the
    /// write refusal. The parked blocks are still cached dirty, so the next
    /// flush retries them with a full budget.
    pub fn reset_degraded(&mut self) {
        self.gave_up.clear();
        self.write_fail_counts.clear();
        self.write_backoff.clear();
        self.degraded = false;
    }

    /// Records one write-back failure for block `b`: within budget the
    /// block is re-queued (counted in [`BufCacheStats::write_retries`]) with
    /// exponential backoff against the budgeted drain; past budget it is
    /// parked and the cache degrades.
    fn note_write_failure(&mut self, b: u64) {
        let fails = self.write_fail_counts.entry(b).or_insert(0);
        *fails += 1;
        if *fails > WRITE_RETRY_BUDGET {
            if self.gave_up.insert(b) {
                self.stats.write_gave_up += 1;
            }
            self.degraded = true;
        } else {
            self.stats.write_retries += 1;
            // Counters tick down at the start of each budgeted pass, so a
            // value of 2^(k-1) means "sit out 2^(k-1) - 1 passes": the
            // first failure retries on the very next pass, repeat offenders
            // wait 1, 3, 7... passes (clamped so the shift cannot
            // overflow).
            let k = (*fails - 1).min(16);
            self.write_backoff.insert(b, 1u32 << k);
        }
    }

    /// Clears block `b`'s failure ledger after a confirmed write.
    fn note_write_success(&mut self, b: u64) {
        self.write_fail_counts.remove(&b);
        self.write_backoff.remove(&b);
    }

    /// Ticks every backoff counter one budgeted pass and returns the blocks
    /// still sitting out this pass. Only [`BufCache::flush_some`] calls
    /// this — full barriers retry immediately.
    fn backoff_tick(&mut self) -> BTreeSet<u64> {
        let mut deferred = BTreeSet::new();
        self.write_backoff.retain(|&b, left| {
            *left -= 1;
            if *left > 0 {
                deferred.insert(b);
                true
            } else {
                false
            }
        });
        deferred
    }

    /// `runs` minus the blocks in `skip`, re-coalesced.
    fn without_blocks(runs: Vec<Run>, skip: &BTreeSet<u64>) -> Vec<Run> {
        if skip.is_empty() {
            return runs;
        }
        let mut out: Vec<Run> = Vec::new();
        for r in runs {
            for b in r.start..r.start + r.len {
                if !skip.contains(&b) {
                    push_block(&mut out, b);
                }
            }
        }
        out
    }

    /// Whether any block of the extent at `base` is parked past its retry
    /// budget — such extents hold unreplaceable dirty data and must never
    /// be chosen as eviction victims.
    fn extent_gave_up(&self, base: u64) -> bool {
        !self.gave_up.is_empty()
            && self
                .gave_up
                .range(base..base + EXTENT_BLOCKS as u64)
                .next()
                .is_some()
    }

    /// A durability barrier cannot succeed while parked blocks hold dirty
    /// data that never reached the device; called after the device-level
    /// flush so everything that *could* drain did.
    fn gave_up_barrier_check(&self) -> FsResult<()> {
        if self.gave_up.is_empty() {
            Ok(())
        } else {
            Err(crate::FsError::Io(format!(
                "{} block(s) exhausted their write retry budget; cache is read-only",
                self.gave_up.len()
            )))
        }
    }

    // ---- the runtime sanitizer (`--features sanitize`) ----------------------------------

    /// Re-checks the cache's full invariant set (module header, "Sanitized
    /// invariants") and asserts with `ctx` on the first violation. Compiled
    /// to a no-op without the `sanitize` feature.
    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn sanitize_check(&self, _ctx: &str) {}

    /// Unsampled variant of [`BufCache::sanitize_check`]; a no-op without
    /// the `sanitize` feature.
    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn sanitize_check_always(&self, _ctx: &str) {}

    /// Mid-transition variant of [`BufCache::sanitize_check`]; a no-op
    /// without the `sanitize` feature.
    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn sanitize_check_completion(&self, _ctx: &str) {}

    /// Re-checks the cache's full invariant set (module header, "Sanitized
    /// invariants") and asserts with `ctx` on the first violation. Called at
    /// the end of every public cache operation, but *sampled*: the sweep is
    /// O(cache), and per-block loops in the suites call public operations
    /// millions of times. A violated invariant is persistent state, so
    /// checking every [`SANITIZE_SAMPLE`]th transition still catches every
    /// violation — only the blamed `ctx` can be up to a sample window late.
    #[cfg(feature = "sanitize")]
    fn sanitize_check(&self, ctx: &str) {
        if self.sanitize_tick() {
            self.sanitize_check_always(ctx);
        }
    }

    /// Decrements the sampling countdown; true when this call should sweep.
    #[cfg(feature = "sanitize")]
    fn sanitize_tick(&self) -> bool {
        let n = self.sanitize_skip.get();
        if n == 0 {
            self.sanitize_skip.set(SANITIZE_SAMPLE - 1);
            true
        } else {
            self.sanitize_skip.set(n - 1);
            false
        }
    }

    /// [`BufCache::sanitize_check`] without sampling, for the rare
    /// high-stakes boundaries (commit-group release, metadata-transaction
    /// close, full invalidation) where a violation must be blamed on the
    /// operation that caused it.
    #[cfg(feature = "sanitize")]
    fn sanitize_check_always(&self, ctx: &str) {
        self.sanitize_sweep(ctx);
        // Fill-chain coverage can only be asserted at an operation
        // boundary: the demand/prefetch paths pin their target blocks
        // `pending` *before* the submitted chain id exists, so a reap or
        // eviction inside that window observes the pin without the chain.
        let cover = Self::sanitize_chain_cover(&self.inflight_reads);
        for shard in &self.shards {
            for e in &shard.extents {
                for b in e.base..e.base.saturating_add(EXTENT_BLOCKS as u64) {
                    if e.pending & Extent::bit(b) != 0 {
                        assert!(
                            cover.contains(&b),
                            "sanitize[{ctx}]: block {b} is fill-pending but no in-flight read chain covers it"
                        );
                    }
                }
            }
        }
    }

    /// The subset of the sanitizer that holds even in the middle of a cache
    /// operation (inline reaps, evictions): block state-machine legality,
    /// write-chain coverage, dependency-graph acyclicity, pin residency,
    /// and statistics conservation. Sampled like
    /// [`BufCache::sanitize_check`].
    #[cfg(feature = "sanitize")]
    fn sanitize_check_completion(&self, ctx: &str) {
        if self.sanitize_tick() {
            self.sanitize_sweep(ctx);
        }
    }

    /// The mid-transition invariant sweep itself, unsampled.
    #[cfg(feature = "sanitize")]
    fn sanitize_sweep(&self, ctx: &str) {
        self.sanitize_bitmaps(ctx);
        self.sanitize_chains(ctx);
        self.sanitize_deps(ctx);
        self.sanitize_pins(ctx);
        self.sanitize_stats(ctx);
    }

    /// Every block sits in a legal state of the block state machine:
    /// `pending` and `writing` are mutually exclusive, a pending block is
    /// not yet valid, and only valid blocks can be dirty or carry an
    /// in-flight write-back snapshot.
    #[cfg(feature = "sanitize")]
    fn sanitize_bitmaps(&self, ctx: &str) {
        for shard in &self.shards {
            for e in &shard.extents {
                let base = e.base;
                assert!(
                    e.pending & e.writing == 0,
                    "sanitize[{ctx}]: extent {base} has blocks both fill-pending and writing back \
                     (pending={:#04x} writing={:#04x})",
                    e.pending,
                    e.writing
                );
                assert!(
                    e.pending & e.valid == 0,
                    "sanitize[{ctx}]: extent {base} has valid blocks still marked fill-pending \
                     (pending={:#04x} valid={:#04x})",
                    e.pending,
                    e.valid
                );
                assert!(
                    e.dirty & !e.valid == 0,
                    "sanitize[{ctx}]: extent {base} has dirty bits on invalid blocks \
                     (dirty={:#04x} valid={:#04x})",
                    e.dirty,
                    e.valid
                );
                assert!(
                    e.writing & !e.valid == 0,
                    "sanitize[{ctx}]: extent {base} has write-back bits on invalid blocks \
                     (writing={:#04x} valid={:#04x})",
                    e.writing,
                    e.valid
                );
                assert!(
                    e.copied & !e.valid == 0,
                    "sanitize[{ctx}]: extent {base} has copied-out bits on invalid blocks \
                     (copied={:#04x} valid={:#04x})",
                    e.copied,
                    e.valid
                );
            }
        }
    }

    /// Expands an in-flight map's runs into the set of block LBAs covered.
    #[cfg(feature = "sanitize")]
    fn sanitize_chain_cover(map: &BTreeMap<u64, Vec<Run>>) -> BTreeSet<u64> {
        let mut cover = BTreeSet::new();
        for runs in map.values() {
            for r in runs {
                for b in r.start..r.start.saturating_add(r.len) {
                    cover.insert(b);
                }
            }
        }
        cover
    }

    /// Chain accounting: every `writing` bit rides a run of some entry in
    /// `inflight_writes`.
    #[cfg(feature = "sanitize")]
    fn sanitize_chains(&self, ctx: &str) {
        let cover = Self::sanitize_chain_cover(&self.inflight_writes);
        for shard in &self.shards {
            for e in &shard.extents {
                for b in e.base..e.base.saturating_add(EXTENT_BLOCKS as u64) {
                    if e.writing & Extent::bit(b) != 0 {
                        assert!(
                            cover.contains(&b),
                            "sanitize[{ctx}]: block {b} is marked writing back but no in-flight \
                             write chain covers it"
                        );
                    }
                }
            }
        }
    }

    /// Whether `lba` is pinned by the open commit group or an open metadata
    /// transaction — the only sectors allowed to sit on a dependency cycle.
    #[cfg(feature = "sanitize")]
    fn sanitize_sector_pinned(&self, lba: u64) -> bool {
        self.group.contains(&lba) || self.meta_txn.as_ref().is_some_and(|t| t.contains(&lba))
    }

    /// The write-order dependency graph is acyclic, except among sectors
    /// pinned by the open commit group or metadata transaction (the intent
    /// log's deliberately cyclic renames). Iterative colouring DFS over the
    /// metadata keys; an edge `a → b` exists when key `b` lies inside one
    /// of `a`'s recorded dependency runs.
    #[cfg(feature = "sanitize")]
    fn sanitize_deps(&self, ctx: &str) {
        let keys: Vec<u64> = self.deps.keys().copied().collect();
        let adj: Vec<Vec<usize>> = keys
            .iter()
            .map(|&k| {
                let mut out: Vec<usize> = Vec::new();
                for run in self.deps.get(&k).into_iter().flatten() {
                    for (i2, &k2) in keys.iter().enumerate() {
                        if k2 >= run.start && k2 < run.start.saturating_add(run.len) {
                            out.push(i2);
                        }
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        // 0 = unvisited, 1 = on the current DFS path, 2 = done.
        let mut colour = vec![0u8; keys.len()];
        let mut path: Vec<usize> = Vec::new();
        for start in 0..keys.len() {
            if colour[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            colour[start] = 1;
            path.push(start);
            while let Some(&(n, edge)) = stack.last() {
                if edge >= adj[n].len() {
                    colour[n] = 2;
                    stack.pop();
                    path.pop();
                    continue;
                }
                if let Some(frame) = stack.last_mut() {
                    frame.1 += 1;
                }
                let m = adj[n][edge];
                match colour[m] {
                    0 => {
                        colour[m] = 1;
                        path.push(m);
                        stack.push((m, 0));
                    }
                    1 => {
                        let pos = path.iter().position(|&x| x == m).unwrap_or(0);
                        let cycle: Vec<u64> = path
                            .get(pos..)
                            .into_iter()
                            .flatten()
                            .map(|&i| keys[i])
                            .collect();
                        for &s in &cycle {
                            assert!(
                                self.sanitize_sector_pinned(s),
                                "sanitize[{ctx}]: write-order dependency cycle {cycle:?} \
                                 includes sector {s}, which no open group/txn pins"
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Every sector the open commit group or metadata transaction pins is
    /// actually resident and valid in the cache — i.e. the pin against
    /// eviction held. A violation here means an eviction dropped a sector
    /// whose only durable copy was the cached one.
    #[cfg(feature = "sanitize")]
    fn sanitize_pins(&self, ctx: &str) {
        let pinned: Vec<u64> = self
            .group
            .iter()
            .copied()
            .chain(self.meta_txn.iter().flatten().copied())
            .collect();
        for lba in pinned {
            let base = Self::extent_base(lba);
            let si = self.shard_of(base);
            let resident = self
                .shards
                .get(si)
                .and_then(|s| s.find(base).map(|ei| (s, ei)))
                .map(|(s, ei)| {
                    s.extents
                        .get(ei)
                        .is_some_and(|e| e.valid & Extent::bit(lba) != 0)
                })
                .unwrap_or(false);
            assert!(
                resident,
                "sanitize[{ctx}]: pinned sector {lba} (open group/txn) is not resident+valid — \
                 the eviction pin failed"
            );
        }
    }

    /// Statistics conservation: every lookup the read paths classified
    /// landed in exactly one shard's hit or miss counter.
    #[cfg(feature = "sanitize")]
    fn sanitize_stats(&self, ctx: &str) {
        let classified: u64 = self
            .shards
            .iter()
            .map(|s| s.stats.hits.saturating_add(s.stats.misses))
            .sum();
        assert!(
            classified == self.lookups,
            "sanitize[{ctx}]: hits + misses = {classified} but {} lookups were classified — \
             a read path double-counted or dropped a block",
            self.lookups
        );
    }

    // ---- internal helpers ---------------------------------------------------------------

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn extent_base(lba: u64) -> u64 {
        lba - lba % EXTENT_BLOCKS as u64
    }

    /// The shard extent `base` lives in: consecutive extents on consecutive
    /// shards.
    fn shard_of(&self, base: u64) -> usize {
        ((base / EXTENT_BLOCKS as u64) % self.shards.len() as u64) as usize
    }

    /// Whether block `lba` is not yet durable: cached dirty, or in flight on
    /// an unconfirmed asynchronous write-back (dependency checks must treat
    /// both the same — metadata may not drain until its references are *on
    /// the device*, not merely on the wire).
    fn is_block_dirty(&self, lba: u64) -> bool {
        self.block_has(lba, |e| e.dirty | e.writing)
    }

    /// Whether block `lba` is cached and classified as metadata.
    fn block_is_meta(&self, lba: u64) -> bool {
        self.block_has(lba, |e| e.meta)
    }

    /// Whether block `lba` is cached with its bit set in the bitmap `map`
    /// picks from its extent.
    fn block_has(&self, lba: u64, map: impl Fn(&Extent) -> u8) -> bool {
        self.resident(Self::extent_base(lba))
            .is_some_and(|e| map(e) & Extent::bit(lba) != 0)
    }

    /// The cached extent at `base`, if resident.
    fn resident(&self, base: u64) -> Option<&Extent> {
        let shard = &self.shards[self.shard_of(base)];
        shard.find(base).map(|ei| &shard.extents[ei])
    }

    /// The cached extent at `base`, if resident, for update.
    fn resident_mut(&mut self, base: u64) -> Option<&mut Extent> {
        let si = self.shard_of(base);
        let shard = &mut self.shards[si];
        shard.find(base).map(|ei| &mut shard.extents[ei])
    }

    /// Whether every recorded write-order dependency of metadata block `lba`
    /// is clean (no dependencies counts as satisfied).
    fn deps_clean(&self, lba: u64) -> bool {
        self.deps.get(&lba).is_none_or(|runs| {
            run_spans(runs.iter().copied()).all(|sp| {
                self.resident(sp.base)
                    .is_none_or(|e| (e.dirty | e.writing) & sp.mask() == 0)
            })
        })
    }

    /// Whether the extent is pinned by an open metadata transaction or by a
    /// logged sector awaiting its group's commit record.
    fn extent_txn_pinned(&self, base: u64) -> bool {
        self.meta_txn
            .iter()
            .flatten()
            .chain(&self.group)
            .any(|&l| Self::extent_base(l) == base)
    }

    /// All dirty blocks — minus any parked past their retry budget — split
    /// into (data runs, metadata runs), each sorted by LBA and coalesced
    /// into contiguous same-class runs.
    fn classed_dirty_runs(&self) -> (Vec<Run>, Vec<Run>) {
        let mut data: Vec<u64> = Vec::new();
        let mut meta: Vec<u64> = Vec::new();
        for s in &self.shards {
            for e in &s.extents {
                for i in 0..EXTENT_BLOCKS as u64 {
                    let b = e.base + i;
                    if e.dirty & Extent::bit(b) != 0 && !self.gave_up.contains(&b) {
                        if e.meta & Extent::bit(b) != 0 {
                            meta.push(b);
                        } else {
                            data.push(b);
                        }
                    }
                }
            }
        }
        data.sort_unstable();
        meta.sort_unstable();
        let collect = |blocks: Vec<u64>| {
            let mut runs: Vec<Run> = Vec::new();
            for b in blocks {
                push_block(&mut runs, b);
            }
            runs
        };
        (collect(data), collect(meta))
    }

    /// Whether `lba` is a logged sector awaiting its group's commit record.
    /// Such sectors are deliberately held back by their (cyclic) ordering
    /// edges until the commit clears them — the budgeted drain's cycle
    /// backstop must not mistake them for stuck blocks and force them out,
    /// or a power cut could tear the uncommitted transaction.
    fn group_holds(&self, lba: u64) -> bool {
        self.group.contains(&lba)
    }

    /// `runs` minus every block the open commit group holds.
    fn without_group_sectors(&self, runs: Vec<Run>) -> Vec<Run> {
        let mut out: Vec<Run> = Vec::new();
        for r in runs {
            for b in r.start..r.start + r.len {
                if !self.group_holds(b) {
                    push_block(&mut out, b);
                }
            }
        }
        out
    }

    /// Ready metadata a drain may write: dependency-clean runs minus the
    /// open commit group's sectors. A group-held sector must wait for its
    /// commit record even when its own dependencies are clean — draining,
    /// say, a pending rename's new dirent early would expose a
    /// half-applied transaction the record has not protected yet. Every
    /// drain honours this, the full [`BufCache::flush`] barrier included
    /// (its kernel callers commit the group first, so there the exclusion
    /// is moot).
    fn drainable_meta_runs(&self) -> Vec<Run> {
        let ready = self.ready_meta_runs();
        self.without_group_sectors(ready)
    }

    /// Dirty metadata runs whose recorded dependencies are all clean — the
    /// blocks the ordered drain may write right now.
    fn ready_meta_runs(&self) -> Vec<Run> {
        let (_, meta) = self.classed_dirty_runs();
        let mut runs: Vec<Run> = Vec::new();
        for r in meta {
            for b in r.start..r.start + r.len {
                if self.deps_clean(b) {
                    push_block(&mut runs, b);
                }
            }
        }
        runs
    }

    /// Whether any not-yet-durable *data*-class block remains (dirty or on
    /// an unconfirmed write-back chain) — the gate metadata waits behind.
    fn any_dirty_data(&self) -> bool {
        self.shards.iter().any(|s| {
            s.extents
                .iter()
                .any(|e| (e.dirty | e.writing) & !e.meta != 0)
        })
    }

    /// Flushes the transitive closure of not-yet-durable blocks the given
    /// metadata blocks depend on, honouring the data-before-metadata order
    /// inside the closure. Called before an eviction may write a dirty
    /// metadata block early, so "evict a dirent extent" implies "its
    /// clusters and FAT sectors reach the device first". Each batch goes
    /// down as chains and is drained before the next batch (and the
    /// victim's own chain) is submitted. The device queue is FIFO, so a
    /// re-dirtied block's newer snapshot lands after any older chain still
    /// carrying it.
    fn flush_dependency_closure(
        &mut self,
        dev: &mut dyn BlockDevice,
        roots: &[u64],
    ) -> FsResult<()> {
        let mut set: BTreeSet<u64> = BTreeSet::new();
        let mut work: Vec<u64> = roots.to_vec();
        while let Some(m) = work.pop() {
            let runs = match self.deps.get(&m) {
                Some(r) => r.clone(),
                None => continue,
            };
            for r in runs {
                for b in r.start..r.start + r.len {
                    if self.is_block_dirty(b) && set.insert(b) {
                        work.push(b);
                    }
                }
            }
        }
        while !set.is_empty() {
            let mut batch: Vec<u64> = set
                .iter()
                .copied()
                .filter(|&b| !self.block_is_meta(b) || self.deps_clean(b))
                .collect();
            if batch.is_empty() {
                // Dependency cycle inside the closure: force the remainder
                // out (counted) rather than deadlocking the eviction.
                self.stats.forced_meta_writes += set.len() as u64;
                batch = set.iter().copied().collect();
            }
            // Blocks only riding an older chain need no new one; the drain
            // below waits for them.
            let mut runs: Vec<Run> = Vec::new();
            for &b in &batch {
                if self.block_has(b, |e| e.dirty) {
                    push_block(&mut runs, b);
                }
            }
            self.submit_chains(dev, &runs)?;
            self.drain_writes(dev)?;
            if batch.iter().any(|&b| self.is_block_dirty(b)) {
                // A dependency failed to persist: evicting the metadata
                // block now would put it on the device ahead of that data.
                return Err(self.async_error.take().unwrap_or_else(|| {
                    crate::FsError::Io("an evicted block's dependency failed to write back".into())
                }));
            }
            for b in batch {
                set.remove(&b);
            }
        }
        Ok(())
    }

    /// Returns a mutable reference to the extent covering `lba`, allocating
    /// (and evicting, with write-back) as needed, and stamps it for the LRU
    /// on behalf of `blocks` blocks of one span: the clock advances once
    /// per block, the first tick taken before any eviction, and the extent
    /// keeps the last.
    fn extent_for(
        &mut self,
        dev: &mut dyn BlockDevice,
        lba: u64,
        blocks: u64,
    ) -> FsResult<&mut Extent> {
        let base = Self::extent_base(lba);
        let si = self.shard_of(base);
        self.next_tick();
        if self.shards[si].find(base).is_none()
            && self.shards[si].extents.len() >= self.extents_per_shard
        {
            self.make_room(dev, si)?;
        }

        self.tick += blocks.saturating_sub(1);
        let shard = &mut self.shards[si];
        let idx = match shard.find(base) {
            Some(i) => i,
            None => {
                shard.extents.push(Extent::new(base));
                shard.extents.len() - 1
            }
        };
        let ext = &mut shard.extents[idx];
        ext.tick = self.tick;
        Ok(ext)
    }

    /// Frees one slot in a full shard, taking the victim in
    /// [`Extent::victim_key`] order: consumed cold extents, then unread cold
    /// extents, then hot ones, oldest first within each class. An extent
    /// pinned by an open metadata transaction or an uncommitted group is
    /// never a victim, since evicting it would let a logged sector reach
    /// home before its commit record: a shard holding nothing else fails
    /// the allocation. [`crate::txn::TxnLog`] commits its group before the
    /// group can crowd a shard that far ([`BufCache::group_crowds_a_shard`]).
    /// Extents that are a live DMA target (an in-flight fill or write-back
    /// chain) are never victims — when no other candidate exists the caller
    /// reaps the queue first.
    ///
    /// A dirty victim does not serialise the allocator behind its own chain:
    /// see [`BufCache::evict_batched`].
    fn make_room(&mut self, dev: &mut dyn BlockDevice, si: usize) -> FsResult<()> {
        // A completion that already fired may hand us a settled victim for
        // free.
        self.reap_completions(dev);
        let victim = loop {
            let pick = self.shards[si]
                .extents
                .iter()
                .enumerate()
                // An extent holding blocks past their retry budget is never
                // a victim: evicting it means writing it, and its dirty data
                // is the only copy left.
                .filter(|(_, e)| {
                    e.pending == 0
                        && e.writing == 0
                        && !self.extent_gave_up(e.base)
                        && !self.extent_txn_pinned(e.base)
                })
                .min_by_key(|(_, e)| e.victim_key())
                .map(|(i, _)| i);
            if let Some(v) = pick {
                break v;
            }
            // Every other extent in the shard rides a chain: reap (waiting
            // if necessary) until one settles, then retry the selection.
            let reaped = dev.wait_some()?;
            if reaped.is_empty() {
                if self.degraded {
                    return Err(crate::FsError::Io(
                        "cache shard pinned by blocks past their write retry budget".into(),
                    ));
                }
                return Err(crate::FsError::Io(
                    "full cache shard has no eviction victim: an open transaction pins it".into(),
                ));
            }
            for c in reaped {
                self.apply_completion(&c);
            }
        };
        let victim_base = self.shards[si].extents[victim].base;
        if self.shards[si].extents[victim].dirty != 0 {
            // Writing a dirty metadata block early is only safe once
            // everything it references is on the device.
            let e = &self.shards[si].extents[victim];
            let roots: Vec<u64> = (0..EXTENT_BLOCKS as u64)
                .map(|i| e.base + i)
                .filter(|&b| e.dirty & Extent::bit(b) != 0 && e.meta & Extent::bit(b) != 0)
                .collect();
            if !roots.is_empty() {
                self.flush_dependency_closure(dev, &roots)?;
            }
            // The closure flush never adds or removes extents.
            let e = &self.shards[si].extents[victim];
            let mut runs: Vec<Run> = Vec::new();
            for i in 0..EXTENT_BLOCKS as u64 {
                if e.dirty & Extent::bit(e.base + i) != 0 {
                    push_block(&mut runs, e.base + i);
                }
            }
            return self.evict_batched(dev, si, victim_base, runs);
        }
        self.shards[si].extents.swap_remove(victim);
        self.shards[si].stats.evictions += 1;
        self.sanitize_check_completion("make_room");
        Ok(())
    }

    /// Batched eviction — the deep-queue write path.
    /// The victim's dirty runs are merged with every other ready dirty
    /// *data* run across the cache (data carries no write-order constraints
    /// of its own, so draining more of it early is always safe under the
    /// data-before-metadata contract), packed into bounded multi-CB chains
    /// ([`WB_CHAIN_BLOCKS`]/[`WB_CHAIN_RUNS`]) and submitted back-to-back
    /// until the queue is full. The allocator then takes whichever extent of
    /// the shard settles first — usually one whose chain completed while
    /// later chains were still being submitted — instead of draining the
    /// victim's own chain. One cache-pressure stall therefore pays for many
    /// future evictions, and the queue stays deep instead of one-deep.
    fn evict_batched(
        &mut self,
        dev: &mut dyn BlockDevice,
        si: usize,
        victim_base: u64,
        victim_runs: Vec<Run>,
    ) -> FsResult<()> {
        // The victim's metadata runs (dependency closure just flushed) are
        // not in the data class; carry them explicitly. Data runs across the
        // cache already include the victim's own data blocks.
        let mut runs: Vec<Run> = self.classed_dirty_runs().0;
        for r in victim_runs {
            for b in r.start..r.start + r.len {
                if !runs.iter().any(|q| q.start <= b && b < q.start + q.len) {
                    runs.push(Run { start: b, len: 1 });
                }
            }
        }
        runs.sort_unstable_by_key(|r| r.start);
        // Merge adjacent runs (victim metadata next to drained data, data
        // runs from neighbouring extents) into single control blocks.
        let mut merged: Vec<Run> = Vec::new();
        for r in runs {
            match merged.last_mut() {
                Some(m) if m.start + m.len == r.start => m.len += r.len,
                _ => merged.push(r),
            }
        }
        let victim_end = victim_base + EXTENT_BLOCKS as u64;
        for chain in pack_chains(&merged, WB_CHAIN_BLOCKS, WB_CHAIN_RUNS) {
            let has_victim = chain
                .iter()
                .any(|r| r.start < victim_end && victim_base < r.start + r.len);
            if !dev.can_submit() && !has_victim {
                // Opportunistic batching only: never stall the allocator for
                // blocks that are not holding its slot hostage. Skip — do
                // not abandon the loop — so a victim chain sorted later by
                // LBA still submits (blocking if it must) and the wait
                // below always has the victim's write-back in flight.
                continue;
            }
            self.submit_write_runs(dev, &chain)?;
        }
        self.stats.batched_evictions += 1;
        // Take the first extent of the shard whose blocks settled. Chains
        // complete strictly in submission order, so the early chains free
        // their extents while the later ones are still on the wire.
        loop {
            if let Some(idx) = self.settled_victim(si) {
                self.shards[si].extents.swap_remove(idx);
                self.shards[si].stats.evictions += 1;
                self.sanitize_check_completion("evict_batched");
                return Ok(());
            }
            let reaped = self.reap_blocking(dev)?;
            if !reaped.is_empty() {
                continue;
            }
            // Nothing in flight and still no settled extent: every chain
            // failed and re-dirtied its blocks (faulted card). Surface the
            // failure to the allocating writer; the dirty data is retained.
            if let Some(e) = self.async_error.take() {
                return Err(e);
            }
            return Err(crate::FsError::Corrupt(
                "full cache shard has no eviction victim".into(),
            ));
        }
    }

    /// An evictable extent of shard `si`: nothing dirty, nothing in flight,
    /// not pinned by an open transaction or group. Among candidates the
    /// [`Extent::victim_key`] order matches [`BufCache::make_room`].
    fn settled_victim(&self, si: usize) -> Option<usize> {
        self.shards[si]
            .extents
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dirty == 0 && e.writing == 0 && e.pending == 0)
            .filter(|(_, e)| !self.extent_txn_pinned(e.base))
            .min_by_key(|(_, e)| e.victim_key())
            .map(|(i, _)| i)
    }

    // ---- the device pipeline ---------------------------------------------------------------
    //
    // Fills and write-backs are *submitted* as scatter-gather chains. On a
    // queued device they complete later: the data phase runs on the device
    // timeline while the CPU does other work. The cache tracks per-block
    // in-flight state (`pending` fills, `writing` write-backs) so demand
    // reads wait on an in-flight range instead of re-issuing it, and a power
    // cut or fault that surfaces in a completion converts `writing` back to
    // dirty — nothing is lost. A chain that completes inside its submit call
    // passes through the same state and is settled before the call returns.
    // `fsync`/`flush` are queue-drain barriers: they return only after every
    // chain's completion is reaped.

    /// Applies one device completion to the cache's in-flight state. Called
    /// by [`BufCache::reap_completions`] and the waiting paths.
    /// Unknown command ids (cache invalidated since submission) are ignored.
    pub(crate) fn apply_completion(&mut self, comp: &SgCompletion) {
        self.completions_applied += 1;
        let was_blocking_read = self.blocking_reads.remove(&comp.id);
        if comp.write {
            if let Some(runs) = self.inflight_writes.remove(&comp.id) {
                self.settle_write(&runs, &comp.result);
            }
        } else if let Some(runs) = self.inflight_reads.remove(&comp.id) {
            // A failed fill's blocks simply stay missing: a demand read
            // covering them re-issues and surfaces the error. For a chain
            // submitted by a *blocking* demand reader the error must reach
            // the parked task, not vanish like a failed prefetch: record it
            // for the reader's retry.
            if let Err(e) = self.settle_fill(&runs, comp) {
                if was_blocking_read && self.demand_read_error.is_none() {
                    self.demand_read_error = Some(e);
                }
            }
        }
        self.sanitize_check_completion("apply_completion");
    }

    /// Settles a finished write chain over `runs`.
    fn settle_write(&mut self, runs: &[Run], result: &FsResult<()>) {
        match result {
            Ok(()) => {
                for sp in run_spans(runs.iter().copied()) {
                    let si = self.shard_of(sp.base);
                    let shard = &mut self.shards[si];
                    let Some(ei) = shard.find(sp.base) else {
                        continue;
                    };
                    let e = &mut shard.extents[ei];
                    let done = e.writing & sp.mask();
                    e.writing &= !done;
                    let still_dirty = e.dirty & done;
                    shard.stats.writeback_blocks += u64::from(done.count_ones());
                    for b in sp.blocks() {
                        if done & Extent::bit(b) == 0 {
                            continue;
                        }
                        self.note_write_success(b);
                        // Durable now. A write-order dependency keyed on this
                        // block is settled unless a later cache write
                        // re-dirtied it.
                        if still_dirty & Extent::bit(b) == 0 {
                            self.deps.remove(&b);
                        }
                    }
                }
            }
            Err(e) => {
                // The chain failed (fault, torn power-cut write): every
                // unconfirmed block converts back to dirty for retry — a
                // *budgeted* retry: a block that keeps failing is parked and
                // the cache degrades to read-only instead of resubmitting
                // the same doomed chain forever.
                for sp in run_spans(runs.iter().copied()) {
                    let Some(ext) = self.resident_mut(sp.base) else {
                        continue;
                    };
                    let failed = ext.writing & sp.mask();
                    ext.writing &= !failed;
                    ext.dirty |= failed;
                    for b in sp.blocks() {
                        if failed & Extent::bit(b) != 0 {
                            self.stats.async_write_errors += 1;
                            self.note_write_failure(b);
                        }
                    }
                }
                if self.async_error.is_none() {
                    self.async_error = Some(e.clone());
                }
            }
        }
    }

    /// Settles a finished fill chain over `runs`: installs its blocks, or
    /// drops their pending marks and returns the chain's error.
    fn settle_fill(&mut self, runs: &[Run], comp: &SgCompletion) -> FsResult<()> {
        let bytes = match (&comp.result, &comp.data) {
            (Ok(()), Some(bytes)) => bytes,
            (result, _) => {
                self.clear_pending_runs(runs);
                return Err(match result {
                    Err(e) => e.clone(),
                    Ok(()) => crate::FsError::Io("fill chain lost its data".into()),
                });
            }
        };
        let total: u64 = runs.iter().map(|r| r.len).sum();
        let cold = total >= SCAN_RESIST_BLOCKS;
        for sp in run_spans(runs.iter().copied()) {
            let Some(e) = self.resident_mut(sp.base) else {
                continue;
            };
            // A write issued after the fill was submitted supersedes it (the
            // write cancelled the pending bit); never clobber newer data.
            let filled = e.pending & sp.mask();
            e.pending &= !filled;
            let install = filled & !e.dirty;
            // One copy for the span when it installs whole.
            for (i, n) in bit_runs(install) {
                let at = i * BLOCK_SIZE;
                let from = sp.bytes().start + (i - sp.first()) * BLOCK_SIZE;
                let len = n * BLOCK_SIZE;
                e.data[at..at + len].copy_from_slice(&bytes[from..from + len]);
            }
            e.valid |= install;
            e.copied &= !install;
            if cold && install != 0 {
                e.cold = true;
            }
        }
        Ok(())
    }

    /// The device runs for `runs`: as they are, or split into one-block
    /// runs with coalescing off, so the xv6 baseline issues one command per
    /// block.
    fn sg_runs(&self, runs: &[Run]) -> Vec<SgRun> {
        if self.coalesce {
            return runs.iter().map(|r| (r.start, r.len)).collect();
        }
        runs.iter()
            .flat_map(|r| (r.start..r.start + r.len).map(|b| (b, 1)))
            .collect()
    }

    /// Counts the device commands a submission issued: one per queued
    /// chain, one per run of a chain that completed at submit.
    fn count_cmds(&mut self, submitted: &Submission) -> u64 {
        match submitted {
            Submission::Queued(_) => {
                self.stats.coalesced_ranges += 1;
                1
            }
            Submission::Done(c) => {
                for &(_, count) in &c.runs {
                    if count > 1 {
                        self.stats.coalesced_ranges += 1;
                    } else {
                        self.stats.single_cmds += 1;
                    }
                }
                c.runs.len() as u64
            }
        }
    }

    /// Submits one fill chain over `runs`, whose blocks the caller already
    /// marked `pending`. Returns the command id while the chain is in
    /// flight, or `None` once a chain that completed at submit has been
    /// installed; its failure is returned as the error.
    fn submit_fill(
        &mut self,
        dev: &mut dyn BlockDevice,
        runs: &[Run],
        prefetch: bool,
    ) -> FsResult<Option<u64>> {
        let submitted = match dev.submit_read_sg(&self.sg_runs(runs)) {
            Ok(s) => s,
            Err(e) => {
                // Unpin: a failed submit leaves nothing in flight, and
                // pinned-but-never-filled extents must not dodge eviction
                // forever.
                self.clear_pending_runs(runs);
                return Err(e);
            }
        };
        let cmds = self.count_cmds(&submitted);
        if prefetch {
            self.stats.prefetch_cmds += cmds;
        }
        match submitted {
            Submission::Queued(id) => {
                self.inflight_reads.insert(id, runs.to_vec());
                Ok(Some(id))
            }
            Submission::Done(c) => self.settle_fill(runs, &c).map(|()| None),
        }
    }

    /// Marks the blocks of `runs` as a fill in flight (`pending`), allocating
    /// their extents now. A failed allocation drops the marks already set,
    /// so no block stays pinned without a chain.
    fn pin_fill(&mut self, dev: &mut dyn BlockDevice, runs: &[Run]) -> FsResult<()> {
        for sp in run_spans(runs.iter().copied()) {
            match self.extent_for(dev, sp.lba, sp.len) {
                Ok(ext) => ext.pending |= sp.mask(),
                Err(e) => {
                    self.clear_pending_runs(runs);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Clears the `pending` (fill-in-flight) marks of `runs` — the cleanup
    /// for a fill that failed to submit or whose chain was lost.
    fn clear_pending_runs(&mut self, runs: &[Run]) {
        for sp in run_spans(runs.iter().copied()) {
            if let Some(e) = self.resident_mut(sp.base) {
                e.pending &= !sp.mask();
            }
        }
    }

    /// Waits for at least one in-flight command and applies it. Returns the
    /// completions that arrived (empty = nothing was in flight).
    fn reap_blocking(&mut self, dev: &mut dyn BlockDevice) -> FsResult<Vec<SgCompletion>> {
        let comps = dev.wait_some()?;
        for c in &comps {
            self.apply_completion(c);
        }
        Ok(comps)
    }

    /// Queue-drain barrier: blocks until every in-flight *write* chain has
    /// completed and been applied (fills may remain; durability does not
    /// depend on them).
    fn drain_writes(&mut self, dev: &mut dyn BlockDevice) -> FsResult<()> {
        self.reap_completions(dev);
        while !self.inflight_writes.is_empty() {
            if self.reap_blocking(dev)?.is_empty() {
                // The device lost track of chains we think are in flight
                // (cache survived a device swap in tests): convert them back
                // to dirty rather than spinning.
                let stale: Vec<u64> = self.inflight_writes.keys().copied().collect();
                for id in stale {
                    if let Some(runs) = self.inflight_writes.remove(&id) {
                        for sp in run_spans(runs) {
                            if let Some(e) = self.resident_mut(sp.base) {
                                let lost = e.writing & sp.mask();
                                e.writing &= !lost;
                                e.dirty |= lost;
                            }
                        }
                    }
                }
                break;
            }
        }
        Ok(())
    }

    /// Submits one scatter-gather write chain covering `runs`: snapshots the
    /// payload from the extents, trades the blocks' dirty bits for `writing`,
    /// and waits for queue space if needed. Returns the blocks submitted,
    /// or 0 when the chain failed inside the submit call.
    fn submit_write_runs(&mut self, dev: &mut dyn BlockDevice, runs: &[Run]) -> FsResult<u64> {
        if runs.is_empty() {
            return Ok(0);
        }
        if let Some(scope) = self.scope.as_mut() {
            for sp in run_spans(runs.iter().copied()) {
                *scope.written.entry(sp.base).or_default() |= sp.mask();
            }
        }
        let missing_extent =
            || crate::FsError::Corrupt("dirty block has no backing cache extent".into());
        let total: u64 = runs.iter().map(|r| r.len).sum();
        let mut bytes = vec![0u8; total as usize * BLOCK_SIZE];
        for sp in run_spans(runs.iter().copied()) {
            let e = self.resident(sp.base).ok_or_else(missing_extent)?;
            bytes[sp.bytes()].copy_from_slice(&e.data[sp.slots()]);
        }
        if !dev.can_submit() {
            // The writer is about to spin-reap someone's chains to make
            // queue room; count the stall so the kernel's backlog heuristics
            // (kick the flusher before spinning) have a signal to act on.
            self.stats.queue_full_stalls += 1;
            while !dev.can_submit() {
                if self.reap_blocking(dev)?.is_empty() {
                    return Err(crate::FsError::Io(
                        "SD queue full with nothing in flight".into(),
                    ));
                }
            }
        }
        let submitted = dev.submit_write_sg(&self.sg_runs(runs), &bytes)?;
        for sp in run_spans(runs.iter().copied()) {
            let e = self.resident_mut(sp.base).ok_or_else(missing_extent)?;
            e.dirty &= !sp.mask();
            e.writing |= sp.mask();
        }
        self.count_cmds(&submitted);
        match submitted {
            Submission::Queued(id) => {
                self.inflight_writes.insert(id, runs.to_vec());
                let bucket = dev.inflight().min(self.wb_occupancy.len() - 1);
                self.wb_occupancy[bucket] += 1;
                Ok(total)
            }
            Submission::Done(c) => {
                self.settle_write(runs, &c.result);
                Ok(if c.result.is_ok() { total } else { 0 })
            }
        }
    }

    // ---- the range-first API ------------------------------------------------------------

    /// Reads `count` contiguous blocks starting at `lba` through the cache
    /// into `out` (`count * BLOCK_SIZE` bytes). Cached blocks are served from
    /// their extents; blocks already in flight under an earlier prefetch
    /// chain are *waited for* (never re-issued — the transfer overlap is the
    /// point of the DMA pipeline); genuinely missing blocks are coalesced
    /// into contiguous runs and fetched as one scatter-gather chain (one
    /// range command for a fully cold read — the same cost as the retired
    /// bypass path).
    ///
    /// The request is served in windows of at most a quarter of the cache:
    /// a window's fill extents are pinned (`pending`) until they install, so
    /// bounding the window keeps a huge read from pinning a whole shard with
    /// nothing evictable — and lets reads far larger than the cache itself
    /// stream through it. A window never drops below the scan-resistance
    /// threshold while half the cache holds it, so a streaming read of a
    /// small cache still installs cold.
    pub fn read_range(
        &mut self,
        dev: &mut dyn BlockDevice,
        lba: u64,
        count: u64,
        out: &mut [u8],
    ) -> FsResult<()> {
        if out.len() != count as usize * BLOCK_SIZE {
            return Err(crate::FsError::Invalid(
                "read_range buffer size mismatch".into(),
            ));
        }
        // Sequential-stream detection, while read-ahead is on (nothing else
        // reads the stream table): cluster-sized (or larger) reads that
        // start exactly where a tracked stream ended extend that stream's
        // streak. Single-block metadata reads are ignored so an interleaved
        // FAT lookup does not break a data stream.
        if self.prefetch && count >= EXTENT_BLOCKS as u64 {
            self.note_stream_read(lba, count);
        }
        self.reap_completions(dev);
        // Classify once for the statistics: a valid block is a hit; a block
        // riding an in-flight fill is a hit that waits (`demand_waits`); the
        // rest are misses.
        for sp in spans(lba, count) {
            let si = self.shard_of(sp.base);
            let shard = &mut self.shards[si];
            let (valid, pending) = shard.find(sp.base).map_or((0, 0), |ei| {
                (shard.extents[ei].valid, shard.extents[ei].pending)
            });
            let hits = u64::from((valid & sp.mask()).count_ones());
            let waits = u64::from((pending & !valid & sp.mask()).count_ones());
            shard.stats.hits += hits + waits;
            shard.stats.misses += sp.len - hits - waits;
            self.stats.demand_waits += waits;
            self.lookups += sp.len;
        }
        let cap = self.capacity_blocks() as u64;
        let window = (cap / 4)
            .max(SCAN_RESIST_BLOCKS)
            .min(cap / 2)
            .max(EXTENT_BLOCKS as u64);
        let mut start = 0u64;
        while start < count {
            let len = window.min(count - start);
            let off = start as usize * BLOCK_SIZE;
            self.read_window(
                dev,
                lba + start,
                len,
                &mut out[off..off + len as usize * BLOCK_SIZE],
            )?;
            start += len;
        }
        self.sanitize_check("read_range");
        Ok(())
    }

    /// Serves one bounded window of [`BufCache::read_range`].
    ///
    /// In spin mode (the default) the window loop reaps the device queue
    /// until every block is resident. In blocking mode
    /// ([`BufCache::set_block_demand`]) it never reaps on the caller's
    /// clock: any iteration that would have to wait — queue full before
    /// submitting, or the window's blocks riding an in-flight chain —
    /// returns [`crate::FsError::WouldBlock`] instead, the kernel parks the
    /// task on the completion interrupt, and the retried call finds the
    /// installed blocks as hits.
    fn read_window(
        &mut self,
        dev: &mut dyn BlockDevice,
        lba: u64,
        count: u64,
        out: &mut [u8],
    ) -> FsResult<()> {
        let mut own_cmds: Vec<u64> = Vec::new();
        loop {
            if self.block_demand {
                // A torn/failed blocking chain surfaces to the retry here.
                if let Some(e) = self.demand_read_error.take() {
                    return Err(e);
                }
            }
            // What still needs the device this iteration?
            let mut missing: Vec<Run> = Vec::new();
            let mut waiting = false;
            for sp in spans(lba, count) {
                let (valid, pending) = self
                    .resident(sp.base)
                    .map_or((0, 0), |e| (e.valid, e.pending));
                waiting |= pending & !valid & sp.mask() != 0;
                push_bits(&mut missing, sp.base, sp.mask() & !valid & !pending);
            }
            if missing.is_empty() && !waiting {
                break;
            }
            if !missing.is_empty() {
                if self.block_demand && !dev.can_submit() {
                    // Queue full means chains are in flight and a completion
                    // interrupt is coming; park the caller before pinning
                    // anything instead of reaping other tasks' chains on its
                    // clock.
                    self.stats.demand_blocks += 1;
                    return Err(crate::FsError::WouldBlock);
                }
                // Pin target extents (allocating/evicting now, while nothing
                // is half-installed) and mark the fill in flight.
                self.pin_fill(dev, &missing)?;
                while !dev.can_submit() {
                    self.stats.demand_spin_reaps += 1;
                    if self.reap_blocking(dev)?.is_empty() {
                        return Err(crate::FsError::Io(
                            "SD queue full with nothing in flight".into(),
                        ));
                    }
                }
                // A chain that completed at submit is installed (or its
                // error returned) already: re-check, nothing to wait for.
                let Some(id) = self.submit_fill(dev, &missing, false)? else {
                    continue;
                };
                if self.block_demand {
                    self.blocking_reads.insert(id);
                }
                own_cmds.push(id);
            }
            if self.block_demand {
                if dev.inflight() > 0 {
                    // The window's fill (ours or an earlier prefetch) is on
                    // the wire: sleep on the completion interrupt instead of
                    // spinning the clock forward.
                    self.stats.demand_blocks += 1;
                    return Err(crate::FsError::WouldBlock);
                }
                // Pending marks with nothing in flight: stale state (the
                // queue was torn down under us). The read chains we think
                // are on the wire are lost too — drop them whole (their
                // pending marks and their blocking registration), not just
                // this window's bits, and re-issue.
                let stale: Vec<u64> = self.inflight_reads.keys().copied().collect();
                for id in stale {
                    if let Some(runs) = self.inflight_reads.remove(&id) {
                        self.clear_pending_runs(&runs);
                    }
                    self.blocking_reads.remove(&id);
                }
                self.clear_pending_runs(&[Run {
                    start: lba,
                    len: count,
                }]);
                continue;
            }
            self.stats.demand_spin_reaps += 1;
            let comps = self.reap_blocking(dev)?;
            // A failed *demand* chain is this caller's error (a failed
            // prefetch chain just reverts its blocks to missing and the next
            // iteration re-issues them as demand).
            for c in &comps {
                if own_cmds.contains(&c.id) {
                    if let Err(e) = &c.result {
                        return Err(e.clone());
                    }
                }
            }
            if comps.is_empty() {
                // Nothing in flight at the device but blocks still marked
                // pending: stale state (the queue was torn down under us).
                // Drop the marks so the next iteration re-issues them.
                self.clear_pending_runs(&[Run {
                    start: lba,
                    len: count,
                }]);
            }
        }
        // Everything is resident: copy out, and touch for the LRU every
        // extent but a consumed one (use-once, see `Extent::victim_key`).
        // Each block takes a tick and is tested on its own, so an extent
        // consumed part-way through the span keeps the tick it had then.
        for sp in spans(lba, count) {
            let si = self.shard_of(sp.base);
            let shard = &mut self.shards[si];
            let ei = shard
                .find(sp.base)
                .ok_or_else(|| crate::FsError::Corrupt("resident block lost its extent".into()))?;
            let ext = &mut shard.extents[ei];
            out[sp.bytes()].copy_from_slice(&ext.data[sp.slots()]);
            for i in sp.first()..sp.first() + sp.len as usize {
                self.tick += 1;
                ext.copied |= 1 << i;
                if !ext.consumed() {
                    ext.tick = self.tick;
                }
            }
        }
        Ok(())
    }

    /// Speculatively fills the cache with any uncached blocks of
    /// `[lba, lba + count)` without copying them anywhere — the streaming
    /// read-ahead primitive. Missing blocks are coalesced into runs and
    /// submitted as one chain like a demand fill, but the commands are
    /// counted in [`BufCacheStats::prefetch_cmds`] so the kernel can account
    /// their command-setup latency as overlapped with the previous transfer.
    /// Speculative I/O never blocks: a full queue drops the read-ahead.
    /// Returns the number of blocks fetched. Does not touch hit/miss
    /// statistics and does not disturb the sequential-streak detector.
    pub fn prefetch_range(
        &mut self,
        dev: &mut dyn BlockDevice,
        lba: u64,
        count: u64,
    ) -> FsResult<u64> {
        self.reap_completions(dev);
        let mut missing: Vec<Run> = Vec::new();
        for sp in spans(lba, count) {
            // Blocks already riding an earlier chain need no re-issue.
            let held = self.resident(sp.base).map_or(0, |e| e.valid | e.pending);
            push_bits(&mut missing, sp.base, sp.mask() & !held);
        }
        // Demand will cover the blocks if they matter.
        if missing.is_empty() || !dev.can_submit() {
            return Ok(0);
        }
        self.pin_fill(dev, &missing)?;
        let fetched: u64 = missing.iter().map(|r| r.len).sum();
        self.submit_fill(dev, &missing, true)?;
        self.stats.prefetched_blocks += fetched;
        self.sanitize_check("prefetch_range");
        Ok(fetched)
    }

    /// Writes `count` contiguous blocks through the cache (write-back: the
    /// device is updated on eviction or [`BufCache::flush`]).
    pub fn write_range(
        &mut self,
        dev: &mut dyn BlockDevice,
        lba: u64,
        count: u64,
        data: &[u8],
    ) -> FsResult<()> {
        if data.len() != count as usize * BLOCK_SIZE {
            return Err(crate::FsError::Invalid(
                "write_range buffer size mismatch".into(),
            ));
        }
        self.write_range_padded(dev, lba, count, data)
    }

    /// [`BufCache::write_range`] for `data` that may end before the range
    /// does: the range's bytes past its end are written as zeros. FAT32
    /// writes a file's cluster runs this way, so a partial last cluster
    /// needs no padded copy of the run.
    pub(crate) fn write_range_padded(
        &mut self,
        dev: &mut dyn BlockDevice,
        lba: u64,
        count: u64,
        data: &[u8],
    ) -> FsResult<()> {
        if data.len() > count as usize * BLOCK_SIZE {
            return Err(crate::FsError::Invalid(
                "write_range data longer than the range".into(),
            ));
        }
        // Read-only degraded mode: a block exhausted its write retry budget,
        // so accepting more dirty data the device demonstrably cannot absorb
        // would only grow the unflushable set. Reads keep working.
        if self.degraded {
            return Err(crate::FsError::Io(
                "buffer cache is read-only: a block exhausted its write retry budget".into(),
            ));
        }
        // Scan resistance applies to writes too: a large streaming write
        // (asset install, file copy) installs cold extents, so it recycles
        // itself instead of pinning the whole cache hot and starving later
        // streams. Small writes (FAT sectors, dirents) stay hot.
        let cold = count >= SCAN_RESIST_BLOCKS;
        for sp in spans(lba, count) {
            self.record_first_write(&sp);
            let ext = self.extent_for(dev, sp.lba, sp.len)?;
            let bytes = sp.bytes();
            let given = &data[bytes.start.min(data.len())..bytes.end.min(data.len())];
            let (head, tail) = ext.data[sp.slots()].split_at_mut(given.len());
            head.copy_from_slice(given);
            tail.fill(0);
            let m = sp.mask();
            ext.valid |= m;
            ext.dirty |= m;
            ext.copied &= !m;
            // A plain write reclassifies the block as data; a metadata
            // writer re-tags it via `note_metadata` immediately after.
            ext.meta &= !m;
            // A write supersedes any in-flight fill of the same block: the
            // completion must not clobber this newer data.
            ext.pending &= !m;
            ext.cold = cold;
            ext.undo |= m;
        }
        self.sanitize_check("write_range");
        Ok(())
    }

    /// Reads block `lba` through the cache into `out` (512 bytes).
    pub fn read(&mut self, dev: &mut dyn BlockDevice, lba: u64, out: &mut [u8]) -> FsResult<()> {
        self.read_range(dev, lba, 1, out)
    }

    /// Writes block `lba` through the cache (write-back).
    pub fn write(&mut self, dev: &mut dyn BlockDevice, lba: u64, data: &[u8]) -> FsResult<()> {
        self.write_range(dev, lba, 1, data)
    }

    /// Writes every dirty block back to the device, coalescing adjacent
    /// dirty blocks — across extents and shards — into bounded chains
    /// ([`WB_CHAIN_BLOCKS`] / [`WB_CHAIN_RUNS`] each), then flushes the
    /// device itself.
    ///
    /// The drain is staged: all dirty *data* blocks first, then metadata
    /// blocks as their recorded dependencies become clean — so a power cut
    /// at any point during the flush leaves either the old tree or a
    /// complete new one, never a dirent or FAT chain pointing at unwritten
    /// clusters.
    ///
    /// This is a **queue-drain barrier**: each stage submits its runs as
    /// scatter-gather chains and then drains the queue, so data is
    /// *confirmed durable* before the first metadata chain is even
    /// submitted, and the call returns only once every completion —
    /// including any failure that surfaced after submission — has been
    /// reaped. `fsync` and `sync_all` get their durability semantics from
    /// exactly this.
    /// Sectors held by an *uncommitted* intent-log group are the one
    /// exception to "flush drains everything": their durability point is
    /// the group's commit record, and force-draining them here would tear
    /// the group's transactions apart with no record to repair them. The
    /// kernel's barriers run the log's `commit_pending` before flushing, so
    /// there the group is always empty; a raw caller flushing around a
    /// pending group (e.g. retrying after a failed commit) simply leaves
    /// those sectors cached dirty for the commit to handle.
    pub fn flush(&mut self, dev: &mut dyn BlockDevice) -> FsResult<()> {
        // Surface errors from chains that completed since the last barrier
        // only after this flush has retried their (re-dirtied) blocks — but
        // do clear the stale flag so an old failure cannot fail a clean run.
        self.reap_completions(dev);
        self.async_error = None;
        self.drain_ordered(dev)?;
        // Anything still dirty (group sectors aside) sits on a dependency
        // cycle (the filesystem layers are built not to create one). A full
        // flush must drain regardless; force the stragglers out and count
        // them. Degraded cache exception: metadata stuck behind a *parked*
        // data block is not a cycle — forcing it out would put the metadata
        // on the device ahead of data that never made it, and this flush is
        // failing anyway.
        let (_, stuck) = self.classed_dirty_runs();
        let stuck = self.without_group_sectors(stuck);
        if !stuck.is_empty() && self.gave_up.is_empty() {
            self.stats.forced_meta_writes += stuck.iter().map(|r| r.len).sum::<u64>();
            self.drain_chains(dev, &stuck)?;
        }
        self.stats.flushes += 1;
        dev.flush()?;
        // Parked blocks hold dirty data the device never absorbed: the
        // barrier must fail (and pending frees stay pending) even though
        // everything else drained.
        self.gave_up_barrier_check()?;
        // A completed full flush made every pending free durable — unless a
        // pending group still holds the freed sectors back.
        if self.group.is_empty() {
            self.pending_frees.clear();
        }
        self.sanitize_check("flush");
        Ok(())
    }

    /// Submits `runs` as back-to-back bounded chains ([`WB_CHAIN_BLOCKS`] /
    /// [`WB_CHAIN_RUNS`] each). Used by the barriers: blocking on a full
    /// queue is fine there — the whole point of a barrier is to wait — and
    /// splitting keeps the queue pipelined instead of monolithic, and bounds
    /// what one torn or faulted chain can re-dirty.
    fn submit_chains(&mut self, dev: &mut dyn BlockDevice, runs: &[Run]) -> FsResult<()> {
        for chain in pack_chains(runs, WB_CHAIN_BLOCKS, WB_CHAIN_RUNS) {
            self.submit_write_runs(dev, &chain)?;
        }
        Ok(())
    }

    /// Submits `runs` as bounded chains, drains the queue, and returns the
    /// first error a completion reported.
    fn drain_chains(&mut self, dev: &mut dyn BlockDevice, runs: &[Run]) -> FsResult<()> {
        self.submit_chains(dev, runs)?;
        self.drain_writes(dev)?;
        self.async_error.take().map_or(Ok(()), Err)
    }

    /// The ordered drain's stages, repeated until nothing moves: dirty data,
    /// then metadata whose dependencies are clean (minus the open commit
    /// group's sectors). Each stage is confirmed durable before the next is
    /// submitted.
    fn drain_ordered(&mut self, dev: &mut dyn BlockDevice) -> FsResult<()> {
        loop {
            let (data, _) = self.classed_dirty_runs();
            self.drain_chains(dev, &data)?;
            let ready = self.drainable_meta_runs();
            self.drain_chains(dev, &ready)?;
            if data.is_empty() && ready.is_empty() {
                return Ok(());
            }
        }
    }

    /// Drains everything the ordered contract allows *right now* — dirty
    /// data first, then metadata whose recorded dependencies are clean —
    /// but, unlike [`BufCache::flush`], never forces a dependency cycle and
    /// never touches sectors held by the open commit group. The intent
    /// log's commit protocol runs every one of its drains through this:
    /// before the record, so every non-group sector a group sector's
    /// *commit-time* payload might reference (an interleaved non-logged
    /// writer sharing a sector with the group) is durable before the record
    /// that could replay over it; then to send the record itself, whose
    /// closing FLUSH is the commit point; after it (the group now cleared
    /// and its cyclic edges dropped), as the home drain — leaving a
    /// *still-open* transaction's deliberately cyclic sectors cached and
    /// untouched instead of force-breaking them the way a full flush would;
    /// and last to send the header clear.
    pub fn flush_ready(&mut self, dev: &mut dyn BlockDevice) -> FsResult<()> {
        self.reap_completions(dev);
        self.async_error = None;
        self.drain_ordered(dev)?;
        self.sanitize_check("flush_ready");
        dev.flush()?;
        self.gave_up_barrier_check()
    }

    /// Writes back dirty blocks up to a budget of `max_blocks` and returns
    /// how many blocks it handed to the device. This is the incremental
    /// drain the kernel's `kbio` flusher thread calls on a timer: each pass
    /// is bounded so the background thread never monopolises the SD bus,
    /// and the device-level barrier (`dev.flush()`) is deliberately *not*
    /// issued — only a full [`BufCache::flush`] (fsync, unmount) is a
    /// durability point.
    ///
    /// The pass first reaps any completions that arrived since the last one
    /// and surfaces their errors — this is how `kbio` learns that a chain it
    /// submitted two wakeups ago hit a fault or a power cut. It then submits
    /// one chain per contiguous run and returns without waiting: on a
    /// queued device the data phase runs on the device timeline, and a full
    /// queue ends the pass. A run that keeps failing (bad sector)
    /// re-dirties only itself, so the healthy runs around it still drain;
    /// blocks whose chain failed inside the submit call use no budget, and
    /// the pass returns their error once it completes.
    ///
    /// Ordering: data runs drain first; metadata runs are considered only
    /// once no data block is dirty *or in flight* — i.e. only after the
    /// data chains' completions confirmed durability — and only those whose
    /// dependencies are clean, so cutting power between two budgeted passes
    /// is no worse than cutting it mid-flush. While budget remains, ready
    /// metadata keeps draining down chains of dependencies that the pass's
    /// own completions settled.
    pub fn flush_some(&mut self, dev: &mut dyn BlockDevice, max_blocks: u64) -> FsResult<u64> {
        self.reap_completions(dev);
        if let Some(e) = self.async_error.take() {
            return Err(e);
        }
        // Blocks in failure backoff sit this pass out (gave-up blocks are
        // excluded by the run collectors themselves).
        let deferred = self.backoff_tick();
        let data_runs = Self::without_blocks(self.classed_dirty_runs().0, &deferred);
        let mut submitted = self.submit_budgeted(dev, data_runs, max_blocks)?;
        // Metadata drains only once every data block is durable, and stops
        // at the pass's first failure.
        while submitted < max_blocks && !self.any_dirty_data() && self.async_error.is_none() {
            let ready = Self::without_blocks(self.drainable_meta_runs(), &deferred);
            let n = self.submit_budgeted(dev, ready, max_blocks - submitted)?;
            if n == 0 {
                break;
            }
            submitted += n;
        }
        // Liveness backstop: metadata stuck on a dependency cycle (the
        // filesystem layers are built not to create one) must not pin the
        // cache dirty forever — force it out, counted. Metadata waiting on
        // a *parked* block is not a cycle; leave it to the failing barrier
        // rather than writing it out of order.
        if submitted < max_blocks
            && !self.any_dirty_data()
            && self.inflight_writes.is_empty()
            && self.gave_up.is_empty()
            && self.drainable_meta_runs().is_empty()
        {
            let (_, stuck) = self.classed_dirty_runs();
            let stuck = self.without_group_sectors(stuck);
            let stuck = Self::without_blocks(stuck, &deferred);
            let budget = max_blocks - submitted;
            self.stats.forced_meta_writes += stuck.iter().map(|r| r.len).sum::<u64>().min(budget);
            submitted += self.submit_budgeted(dev, stuck, budget)?;
        }
        if submitted > 0 {
            self.stats.partial_flushes += 1;
        }
        self.sanitize_check("flush_some");
        match self.async_error.take() {
            Some(e) => Err(e),
            None => Ok(submitted),
        }
    }

    /// Submits `runs` one chain per run, clipped to `budget` blocks, and
    /// stops early on a full queue. Returns the blocks submitted; blocks
    /// whose chain failed inside the submit call do not count.
    fn submit_budgeted(
        &mut self,
        dev: &mut dyn BlockDevice,
        runs: Vec<Run>,
        budget: u64,
    ) -> FsResult<u64> {
        let mut submitted = 0u64;
        for run in runs {
            if submitted >= budget || !dev.can_submit() {
                break;
            }
            let len = run.len.min(budget - submitted);
            submitted += self.submit_write_runs(
                dev,
                &[Run {
                    start: run.start,
                    len,
                }],
            )?;
        }
        Ok(submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;

    #[test]
    fn pack_chains_bounds_blocks_and_control_blocks() {
        // A 300-block run splits at the block bound.
        let runs = [Run { start: 0, len: 300 }];
        let chains = pack_chains(&runs, 128, 16);
        assert_eq!(chains.len(), 3);
        assert_eq!(chains[0], vec![Run { start: 0, len: 128 }]);
        assert_eq!(
            chains[1],
            vec![Run {
                start: 128,
                len: 128
            }]
        );
        assert_eq!(
            chains[2],
            vec![Run {
                start: 256,
                len: 44
            }]
        );
        // Many small runs split at the control-block bound.
        let frags: Vec<Run> = (0..20)
            .map(|i| Run {
                start: i * 10,
                len: 1,
            })
            .collect();
        let chains = pack_chains(&frags, 128, 16);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].len(), 16);
        assert_eq!(chains[1].len(), 4);
        // Total coverage is exact.
        let total: u64 = chains.iter().flatten().map(|r| r.len).sum();
        assert_eq!(total, 20);
        assert!(pack_chains(&[], 128, 16).is_empty());
    }

    fn span(base: u64, lba: u64, len: u64, skip: u64) -> Span {
        Span {
            base,
            lba,
            len,
            skip,
        }
    }

    #[test]
    fn range_walk_splits_at_extent_boundaries() {
        let walk = |lba, count| spans(lba, count).collect::<Vec<_>>();
        // One block, and exactly one extent.
        assert_eq!(walk(21, 1), [span(16, 21, 1, 0)]);
        assert_eq!(walk(16, 8), [span(16, 16, 8, 0)]);
        assert_eq!(walk(16, 8)[0].mask(), 0xFF);
        // A partial head and a partial tail around one whole extent.
        let parts = walk(13, 14);
        assert_eq!(
            parts,
            [span(8, 13, 3, 0), span(16, 16, 8, 3), span(24, 24, 3, 11)]
        );
        assert_eq!(
            parts.iter().map(Span::mask).collect::<Vec<_>>(),
            [0xE0, 0xFF, 0x07]
        );
        assert_eq!(parts[0].slots(), 5 * BLOCK_SIZE..8 * BLOCK_SIZE);
        assert_eq!(parts[2].bytes(), 11 * BLOCK_SIZE..14 * BLOCK_SIZE);
        // Many extents cover the range once, in order.
        let many = walk(3, 1000);
        assert_eq!(many.len(), 126);
        assert_eq!(many.iter().map(|s| s.len).sum::<u64>(), 1000);
        assert!(many.windows(2).all(|w| w[1].lba == w[0].lba + w[0].len));
        assert!(many.iter().all(|s| s.skip == s.lba - 3));
        assert!(walk(40, 0).is_empty());
        // Across runs, `skip` keeps counting through the payload.
        let runs = [Run { start: 6, len: 4 }, Run { start: 30, len: 2 }];
        assert_eq!(
            run_spans(runs).collect::<Vec<_>>(),
            [span(0, 6, 2, 0), span(8, 8, 2, 2), span(24, 30, 2, 4)]
        );
        // A range at the top of the LBA space ends there.
        assert_eq!(walk(u64::MAX - 2, 8).iter().map(|s| s.len).sum::<u64>(), 2);
    }

    #[test]
    fn bit_runs_are_maximal_and_ascending() {
        assert_eq!(bit_runs(0).count(), 0);
        assert_eq!(bit_runs(0xFF).collect::<Vec<_>>(), [(0, 8)]);
        assert_eq!(
            bit_runs(0b1011_0110).collect::<Vec<_>>(),
            [(1, 2), (4, 2), (7, 1)]
        );
        let mut runs = vec![Run { start: 14, len: 2 }];
        push_bits(&mut runs, 16, 0b1000_0011);
        assert_eq!(runs, [Run { start: 14, len: 4 }, Run { start: 23, len: 1 }]);
    }

    #[test]
    fn dependency_runs_near_the_lba_ceiling_do_not_panic() {
        // A corrupt metadata LBA near u64::MAX must not overflow the
        // `meta_lba + meta_count` walk; the range saturates instead.
        let mut bc = BufCache::default();
        bc.add_dependency(u64::MAX - 2, 8, 0, 1);
        bc.add_dependency(u64::MAX, 1, 4, 2);
    }

    #[test]
    fn per_stream_readahead_windows_ramp_independently() {
        let mut dev = MemDisk::new(8192);
        let mut bc = BufCache::default();
        bc.set_prefetch(true);
        let mut buf = vec![0u8; BLOCK_SIZE * 8];
        // Stream A: three sequential cluster reads ramp its window
        // 64 -> 128 -> 256 blocks.
        bc.read_range(&mut dev, 0, 8, &mut buf).unwrap();
        bc.read_range(&mut dev, 8, 8, &mut buf).unwrap();
        assert_eq!(bc.stream_window(), 2 * INITIAL_READAHEAD_BLOCKS);
        bc.read_range(&mut dev, 16, 8, &mut buf).unwrap();
        assert_eq!(bc.stream_window(), MAX_READAHEAD_BLOCKS);
        // Stream B starts elsewhere: it reports its own fresh window...
        bc.read_range(&mut dev, 4000, 8, &mut buf).unwrap();
        bc.read_range(&mut dev, 4008, 8, &mut buf).unwrap();
        assert_eq!(bc.stream_window(), 2 * INITIAL_READAHEAD_BLOCKS);
        // ...and did NOT reset stream A's ramp: returning to A continues at
        // the ceiling, not back at the initial window.
        bc.read_range(&mut dev, 24, 8, &mut buf).unwrap();
        assert_eq!(bc.stream_window(), MAX_READAHEAD_BLOCKS);
        assert!(bc.sequential_streak() >= 3, "A's streak survived B");
    }

    #[test]
    fn group_accumulator_dedupes_sectors_and_counts_commits() {
        let mut bc = BufCache::default();
        assert_eq!(bc.group_sectors(), 0);
        bc.group_append(40);
        bc.group_append(41);
        bc.group_note_txn();
        // A second transaction re-logging sector 40 does not grow the
        // record: payloads are captured once, at commit time.
        bc.group_append(40);
        bc.group_note_txn();
        assert_eq!(bc.group_sectors(), 2);
        assert_eq!(bc.group_txns(), 2);
        assert!(bc.group_contains(40) && bc.group_contains(41));
        assert_eq!(bc.group_entries(), vec![40, 41]);
        bc.group_clear_committed();
        assert_eq!(bc.group_sectors(), 0);
        assert_eq!(bc.group_txns(), 0);
        let s = bc.stats();
        assert_eq!((s.log_txns, s.log_commits), (2, 1));
        // Pending-free reservations clear with the commit too.
        bc.note_pending_free(7);
        assert!(bc.is_pending_free(7));
        bc.group_clear_committed();
        assert!(!bc.is_pending_free(7));
    }

    #[test]
    fn second_read_hits_the_cache() {
        let mut dev = MemDisk::new(64);
        let mut bc = BufCache::default();
        let block = [0x42u8; BLOCK_SIZE];
        dev.write_block(1, &block).unwrap();
        let mut out = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 1, &mut out).unwrap();
        bc.read(&mut dev, 1, &mut out).unwrap();
        assert_eq!(out, block);
        assert_eq!(bc.stats().hits, 1);
        assert_eq!(bc.stats().misses, 1);
        // Only the priming write and the miss touched the device.
        assert_eq!(dev.stats().single_cmds, 2);
    }

    #[test]
    fn writes_are_write_back_and_reach_the_device_on_flush() {
        let mut dev = MemDisk::new(64);
        let mut bc = BufCache::default();
        let block = [7u8; BLOCK_SIZE];
        bc.write(&mut dev, 3, &block).unwrap();
        // Nothing on the device yet: the write is cached dirty.
        assert_eq!(dev.stats().single_cmds + dev.stats().range_cmds, 0);
        assert_eq!(bc.dirty_blocks(), 1);
        // The cache serves it back without any device traffic.
        let mut out = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 3, &mut out).unwrap();
        assert_eq!(out, block);
        assert_eq!(dev.stats().single_cmds + dev.stats().range_cmds, 0);
        // Flush writes it through.
        bc.flush(&mut dev).unwrap();
        assert_eq!(bc.dirty_blocks(), 0);
        let mut raw = [0u8; BLOCK_SIZE];
        dev.read_block(3, &mut raw).unwrap();
        assert_eq!(raw, block);
    }

    #[test]
    fn cold_range_read_costs_one_device_command() {
        let mut dev = MemDisk::new(64);
        let mut bc = BufCache::default();
        let mut big = vec![0u8; BLOCK_SIZE * 16];
        bc.read_range(&mut dev, 3, 16, &mut big).unwrap();
        assert_eq!(dev.stats().range_cmds, 1, "one coalesced fill");
        assert_eq!(dev.stats().single_cmds, 0);
        assert_eq!(bc.stats().misses, 16);
        assert_eq!(bc.stats().coalesced_ranges, 1);
        // Warm read: zero device commands.
        bc.read_range(&mut dev, 3, 16, &mut big).unwrap();
        assert_eq!(dev.stats().range_cmds, 1);
        assert_eq!(bc.stats().hits, 16);
    }

    #[test]
    fn partially_cached_range_reads_fetch_only_the_holes() {
        let mut dev = MemDisk::new(64);
        for lba in 0..24 {
            let block = [lba as u8; BLOCK_SIZE];
            dev.write_block(lba, &block).unwrap();
        }
        let mut bc = BufCache::default();
        let mut one = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 10, &mut one).unwrap();
        let before = dev.stats();
        let mut big = vec![0u8; BLOCK_SIZE * 16];
        bc.read_range(&mut dev, 4, 16, &mut big).unwrap();
        let after = dev.stats();
        // Two holes around the cached block 10 → two fills, 15 blocks moved.
        assert_eq!(after.range_cmds - before.range_cmds, 2);
        assert_eq!(after.blocks - before.blocks, 15);
        for (i, chunk) in big.chunks(BLOCK_SIZE).enumerate() {
            assert!(
                chunk.iter().all(|b| *b == (4 + i) as u8),
                "block {i} content"
            );
        }
    }

    #[test]
    fn range_writes_stay_dirty_and_coalesce_on_flush() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        // Two adjacent cluster-sized writes plus one distant block: the flush
        // should issue exactly two device commands (one 16-block range, one
        // single).
        let data = vec![9u8; BLOCK_SIZE * 8];
        bc.write_range(&mut dev, 16, 8, &data).unwrap();
        bc.write_range(&mut dev, 24, 8, &data).unwrap();
        bc.write(&mut dev, 200, &data[..BLOCK_SIZE]).unwrap();
        assert_eq!(bc.dirty_blocks(), 17);
        bc.flush(&mut dev).unwrap();
        let s = dev.stats();
        assert_eq!(
            s.range_cmds, 1,
            "adjacent dirty blocks coalesced across extents"
        );
        assert_eq!(s.single_cmds, 1);
        assert_eq!(s.blocks, 17);
        assert_eq!(bc.stats().writebacks, 17);
        // Everything really reached the device.
        let mut back = vec![0u8; BLOCK_SIZE * 16];
        dev.read_range(16, 16, &mut back).unwrap();
        assert!(back.iter().all(|b| *b == 9));
    }

    #[test]
    fn eviction_writes_back_dirty_extents_and_bounds_memory() {
        let mut dev = MemDisk::new(4096);
        // Tiny cache: 2 shards × 2 extents = 32 blocks max.
        let mut bc = BufCache::with_geometry(2, 2);
        assert_eq!(bc.capacity_blocks(), 32);
        let data = vec![5u8; BLOCK_SIZE];
        for lba in 0..256 {
            bc.write(&mut dev, lba, &data).unwrap();
        }
        assert!(bc.len() <= 32, "cache stayed within capacity");
        assert!(bc.stats().evictions > 0);
        // Evicted data reached the device even before a flush.
        let mut raw = [0u8; BLOCK_SIZE];
        dev.read_block(0, &mut raw).unwrap();
        assert_eq!(raw, [5u8; BLOCK_SIZE]);
        // After a flush the whole run is on the device.
        bc.flush(&mut dev).unwrap();
        let mut all = vec![0u8; BLOCK_SIZE * 256];
        dev.read_range(0, 256, &mut all).unwrap();
        assert!(all.iter().all(|b| *b == 5));
    }

    #[test]
    fn work_spreads_across_shards() {
        let mut dev = MemDisk::new(1024);
        let mut bc = BufCache::default();
        let mut big = vec![0u8; BLOCK_SIZE * 128];
        bc.read_range(&mut dev, 0, 128, &mut big).unwrap();
        let touched = bc
            .shard_stats()
            .iter()
            .filter(|s| s.hits + s.misses > 0)
            .count();
        assert_eq!(
            touched,
            bc.shard_count(),
            "sequential run touches every shard"
        );
    }

    #[test]
    fn coalescing_off_issues_single_block_commands() {
        let mut dev = MemDisk::new(64);
        let mut bc = BufCache::default();
        bc.set_coalescing(false);
        let mut big = vec![0u8; BLOCK_SIZE * 16];
        bc.read_range(&mut dev, 0, 16, &mut big).unwrap();
        assert_eq!(dev.stats().range_cmds, 0);
        assert_eq!(dev.stats().single_cmds, 16);
        let data = vec![1u8; BLOCK_SIZE * 16];
        bc.write_range(&mut dev, 0, 16, &data).unwrap();
        bc.flush(&mut dev).unwrap();
        assert_eq!(
            dev.stats().range_cmds,
            0,
            "write-back stays single-block too"
        );
        assert_eq!(bc.stats().single_cmds, 32);
    }

    #[test]
    fn device_faults_propagate_through_fills_and_writebacks() {
        let mut dev = MemDisk::new(64);
        dev.inject_fault(9);
        let mut bc = BufCache::default();
        // Fill across the faulty block fails.
        let mut big = vec![0u8; BLOCK_SIZE * 4];
        assert!(bc.read_range(&mut dev, 8, 4, &mut big).is_err());
        // Writes succeed (write-back) but the flush fails and keeps the data
        // dirty rather than dropping it.
        let data = vec![1u8; BLOCK_SIZE * 4];
        bc.write_range(&mut dev, 8, 4, &data).unwrap();
        assert!(bc.flush(&mut dev).is_err());
        assert_eq!(bc.dirty_blocks(), 4, "failed write-back loses nothing");
        // Clearing the fault lets the same flush succeed.
        let mut fresh = MemDisk::new(64);
        bc.flush(&mut fresh).unwrap();
        assert_eq!(bc.dirty_blocks(), 0);
        let mut raw = [0u8; BLOCK_SIZE];
        fresh.read_block(9, &mut raw).unwrap();
        assert_eq!(raw, [1u8; BLOCK_SIZE]);
    }

    #[test]
    fn flush_some_drains_incrementally_within_budget() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        let data = vec![3u8; BLOCK_SIZE * 8];
        for i in 0..4 {
            bc.write_range(&mut dev, i * 8, 8, &data).unwrap();
        }
        assert_eq!(bc.dirty_blocks(), 32);
        // A 10-block budget writes exactly 10 blocks (splitting the run).
        assert_eq!(bc.flush_some(&mut dev, 10).unwrap(), 10);
        assert_eq!(bc.dirty_blocks(), 22);
        assert_eq!(bc.stats().partial_flushes, 1);
        // Draining to quiescence leaves nothing dirty and the data intact.
        while bc.dirty_blocks() > 0 {
            assert!(bc.flush_some(&mut dev, 10).unwrap() > 0);
        }
        let mut back = vec![0u8; BLOCK_SIZE * 32];
        dev.read_range(0, 32, &mut back).unwrap();
        assert!(back.iter().all(|b| *b == 3));
        // Nothing left: a further pass writes zero blocks.
        assert_eq!(bc.flush_some(&mut dev, 10).unwrap(), 0);
    }

    #[test]
    fn flush_some_keeps_blocks_dirty_when_the_device_faults() {
        let mut dev = MemDisk::new(64);
        dev.inject_fault(4);
        let mut bc = BufCache::default();
        let data = vec![9u8; BLOCK_SIZE * 8];
        bc.write_range(&mut dev, 0, 8, &data).unwrap();
        assert!(bc.flush_some(&mut dev, 64).is_err());
        assert_eq!(bc.dirty_blocks(), 8, "failed write-back loses nothing");
        dev.clear_faults();
        assert_eq!(bc.flush_some(&mut dev, 64).unwrap(), 8);
        assert_eq!(bc.dirty_blocks(), 0);
    }

    #[test]
    fn exhausted_write_retry_budget_parks_the_run_and_degrades_the_cache() {
        let mut dev = MemDisk::new(64);
        dev.inject_fault(4);
        let mut bc = BufCache::default();
        let data = vec![9u8; BLOCK_SIZE * 8];
        bc.write_range(&mut dev, 0, 8, &data).unwrap();
        // Keep flushing: retries (spaced by backoff passes) burn the budget
        // until the faulty run's blocks are parked and the cache degrades.
        // The backoff doubles per failure, so the ninth consecutive failure
        // lands on pass 256.
        let mut passes = 0;
        while !bc.degraded() {
            assert!(passes < 256, "budget must exhaust within bounded passes");
            let _ = bc.flush_some(&mut dev, 64);
            passes += 1;
        }
        assert_eq!(passes, 256, "the ninth failure parks the run");
        let s = bc.stats();
        assert!(s.write_retries >= 2, "retries were counted");
        assert!(s.write_gave_up >= 1, "give-ups were counted");
        assert!(bc.gave_up_blocks().contains(&4));
        // Parked blocks: excluded from every drain, never evicted, still
        // dirty, still readable from residency.
        assert_eq!(bc.flush_some(&mut dev, 64).unwrap(), 0);
        assert_eq!(bc.dirty_blocks(), 8);
        let mut back = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 4, &mut back).unwrap();
        assert!(back.iter().all(|b| *b == 9));
        // Durability barriers must fail — the device does not hold the data.
        assert!(bc.flush(&mut dev).is_err());
        // Degraded mode: new writes are refused (read-only), reads still OK.
        assert!(matches!(
            bc.write_range(&mut dev, 16, 1, &vec![1u8; BLOCK_SIZE]),
            Err(crate::FsError::Io(_))
        ));
        bc.read(&mut dev, 20, &mut back).unwrap();
        // Recovery: the card comes back, the operator resets the budget
        // state, and the parked blocks drain normally.
        dev.clear_faults();
        bc.reset_degraded();
        assert!(!bc.degraded());
        bc.flush(&mut dev).unwrap();
        assert_eq!(bc.dirty_blocks(), 0);
        let mut out = vec![0u8; BLOCK_SIZE * 8];
        dev.read_range(0, 8, &mut out).unwrap();
        assert!(out.iter().all(|b| *b == 9), "parked data survived to disk");
    }

    #[test]
    fn first_write_failure_retries_on_the_very_next_pass() {
        // The backoff ramp starts at zero delay: a single transient fault
        // must not make the block sit out the immediately following pass
        // (cards hiccup; the common case is a clean retry).
        let mut dev = MemDisk::new(64);
        dev.inject_fault(2);
        let mut bc = BufCache::default();
        bc.write_range(&mut dev, 0, 4, &vec![7u8; BLOCK_SIZE * 4])
            .unwrap();
        assert!(bc.flush_some(&mut dev, 64).is_err());
        assert!(bc.stats().write_retries >= 1);
        dev.clear_faults();
        assert_eq!(bc.flush_some(&mut dev, 64).unwrap(), 4);
        assert_eq!(bc.dirty_blocks(), 0);
        assert!(!bc.degraded());
        assert_eq!(bc.stats().write_gave_up, 0);
    }

    #[test]
    fn prefetch_fills_the_cache_ahead_of_demand() {
        let mut dev = MemDisk::new(128);
        for lba in 0..32 {
            dev.write_block(lba, &[lba as u8; BLOCK_SIZE]).unwrap();
        }
        let mut bc = BufCache::default();
        bc.set_prefetch(true);
        assert_eq!(bc.prefetch_range(&mut dev, 8, 16).unwrap(), 16);
        let s = bc.stats();
        assert_eq!(s.prefetch_cmds, 1, "one coalesced speculative fill");
        assert_eq!(s.prefetched_blocks, 16);
        assert_eq!(s.misses, 0, "prefetch is not a demand miss");
        // The demand read is now a pure cache hit: zero device traffic.
        let before = dev.stats();
        let mut out = vec![0u8; BLOCK_SIZE * 16];
        bc.read_range(&mut dev, 8, 16, &mut out).unwrap();
        assert_eq!(dev.stats(), before);
        assert_eq!(bc.stats().hits, 16);
        assert!(out[..BLOCK_SIZE].iter().all(|b| *b == 8));
        // Prefetching an already-cached range is free.
        assert_eq!(bc.prefetch_range(&mut dev, 8, 16).unwrap(), 0);
    }

    #[test]
    fn streams_are_tracked_only_while_read_ahead_is_on() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        let mut buf = vec![0u8; BLOCK_SIZE * 8];
        for lba in [8, 16, 24] {
            bc.read_range(&mut dev, lba, 8, &mut buf).unwrap();
        }
        assert_eq!((bc.sequential_streak(), bc.stream_window()), (0, 0));
        bc.set_prefetch(true);
        for lba in [32, 40] {
            bc.read_range(&mut dev, lba, 8, &mut buf).unwrap();
        }
        assert_eq!(bc.sequential_streak(), 1);
        assert_eq!(bc.stream_window(), 2 * INITIAL_READAHEAD_BLOCKS);
    }

    #[test]
    fn sequential_streaks_are_detected_and_metadata_reads_do_not_break_them() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        bc.set_prefetch(true);
        let mut buf = vec![0u8; BLOCK_SIZE * 8];
        bc.read_range(&mut dev, 8, 8, &mut buf).unwrap();
        assert_eq!(bc.sequential_streak(), 0, "first read starts a stream");
        bc.read_range(&mut dev, 16, 8, &mut buf).unwrap();
        assert_eq!(bc.sequential_streak(), 1);
        // A single-block metadata read in between is ignored.
        let mut one = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 200, &mut one).unwrap();
        bc.read_range(&mut dev, 24, 8, &mut buf).unwrap();
        assert_eq!(bc.sequential_streak(), 2);
        // An interleaved cluster-sized read elsewhere (a directory cluster,
        // a second file) occupies its own stream slot without resetting the
        // first stream's streak...
        bc.read_range(&mut dev, 100, 8, &mut buf).unwrap();
        assert_eq!(bc.sequential_streak(), 0, "new stream starts at 0");
        bc.read_range(&mut dev, 32, 8, &mut buf).unwrap();
        assert_eq!(bc.sequential_streak(), 3, "original stream kept its streak");
        // ...and both streams can advance independently.
        bc.read_range(&mut dev, 108, 8, &mut buf).unwrap();
        assert_eq!(bc.sequential_streak(), 1);
    }

    #[test]
    fn streaming_fills_do_not_evict_hot_metadata() {
        let mut dev = MemDisk::new(8192);
        // Tiny cache: 2 shards x 2 extents = 32 blocks.
        let mut bc = BufCache::with_geometry(2, 2);
        // A hot "metadata" block, touched once.
        let mut one = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 4000, &mut one).unwrap();
        let miss_before = bc.stats().misses;
        // Stream 4x the cache capacity through it.
        let mut big = vec![0u8; BLOCK_SIZE * 16];
        for i in 0..8 {
            bc.read_range(&mut dev, i * 16, 16, &mut big).unwrap();
        }
        // Re-reading the metadata block is still a hit: the scan recycled its
        // own extents instead of evicting it.
        let h = bc.stats().hits;
        bc.read(&mut dev, 4000, &mut one).unwrap();
        assert_eq!(bc.stats().hits, h + 1, "metadata survived the scan");
        assert_eq!(bc.stats().misses, miss_before + 128);
    }

    /// Use-once eviction. Four interleaved streams each read a window and
    /// then prefetch their next one. Four demand windows plus four
    /// read-ahead windows overflow the cache, while the four read-ahead
    /// windows alone fit. Evicting what the streams have already copied out
    /// first keeps each read-ahead window until its stream reads it, so the
    /// device moves barely more blocks than the streams read.
    #[test]
    fn interleaved_streams_read_their_read_ahead_before_it_is_evicted() {
        const STREAMS: u64 = 4;
        // One extent in each of the 8 shards.
        const WINDOW: u64 = 64;
        const WINDOWS: u64 = 16;
        let mut dev = MemDisk::new(STREAMS * WINDOWS * WINDOW);
        for lba in 0..STREAMS * WINDOWS * WINDOW {
            dev.write_block(lba, &[lba as u8; BLOCK_SIZE]).unwrap();
        }
        // Five extents a shard: room for the four read-ahead windows, not
        // for the demand windows too.
        let mut bc = BufCache::with_geometry(8, 5);
        let mut buf = vec![0u8; WINDOW as usize * BLOCK_SIZE];
        for w in 0..WINDOWS {
            for s in 0..STREAMS {
                let lba = (s * WINDOWS + w) * WINDOW;
                bc.read_range(&mut dev, lba, WINDOW, &mut buf).unwrap();
                for (i, block) in buf.chunks_exact(BLOCK_SIZE).enumerate() {
                    assert!(block.iter().all(|&x| x == (lba + i as u64) as u8));
                }
                // Read-ahead stops at the end of the stream, as FAT32's
                // stops at the end of a cluster chain.
                if w + 1 < WINDOWS {
                    bc.prefetch_range(&mut dev, lba + WINDOW, WINDOW).unwrap();
                }
            }
        }
        let st = bc.stats();
        let read = STREAMS * WINDOWS * WINDOW;
        let moved = st.misses + st.prefetched_blocks;
        assert!(
            moved as f64 <= 1.05 * read as f64,
            "{moved} blocks moved for {read} read ({} misses, {} prefetched)",
            st.misses,
            st.prefetched_blocks
        );
    }

    /// A cold extent a reader stopped in the middle of is not consumed: it
    /// outlives the extents whose every block was copied out, so the rest
    /// of it is still a hit when the reader comes back.
    #[test]
    fn a_partly_read_cold_extent_outlives_consumed_ones() {
        let mut dev = MemDisk::new(4096);
        let mut bc = BufCache::with_geometry(1, 4);
        let mut buf = vec![0u8; 16 * BLOCK_SIZE];
        // Read-ahead of two extents; the reader stops half-way through the
        // second one.
        bc.prefetch_range(&mut dev, 0, 16).unwrap();
        bc.read_range(&mut dev, 0, 12, &mut buf[..12 * BLOCK_SIZE])
            .unwrap();
        // Two more streamed extents fill the cache, then two more need
        // room: the consumed extents go, the half-read one stays.
        bc.read_range(&mut dev, 800, 16, &mut buf).unwrap();
        bc.read_range(&mut dev, 1600, 16, &mut buf).unwrap();
        let misses = bc.stats().misses;
        bc.read_range(&mut dev, 12, 4, &mut buf[..4 * BLOCK_SIZE])
            .unwrap();
        assert_eq!(bc.stats().misses, misses, "the unread blocks were evicted");
    }

    #[test]
    fn ordered_flush_writes_data_before_metadata() {
        // Metadata at a *low* LBA, data at a high one: pure LBA order would
        // write the metadata first; the ordered drain must not.
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        let meta = [0xAEu8; BLOCK_SIZE];
        let data = vec![0xDAu8; BLOCK_SIZE * 8];
        bc.write(&mut dev, 2, &meta).unwrap();
        bc.note_metadata(2, 1);
        bc.write_range(&mut dev, 100, 8, &data).unwrap();
        bc.add_dependency(2, 1, 100, 8);
        // Cut power after the 8 data blocks: the metadata block must still
        // be unwritten on the device.
        dev.power_cut_after(8);
        assert!(bc.flush(&mut dev).is_err(), "cut fails the flush");
        dev.power_restored();
        let mut raw = [0u8; BLOCK_SIZE];
        dev.read_block(2, &mut raw).unwrap();
        assert_eq!(raw, [0u8; BLOCK_SIZE], "metadata never preceded its data");
        dev.read_block(100, &mut raw).unwrap();
        assert_eq!(raw, [0xDAu8; BLOCK_SIZE], "data was drained first");
        // The metadata is still dirty; a retried flush completes the pair.
        bc.flush(&mut dev).unwrap();
        dev.read_block(2, &mut raw).unwrap();
        assert_eq!(raw, meta);
    }

    #[test]
    fn flush_some_defers_metadata_until_data_and_dependencies_drain() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        // Two metadata blocks: B depends on A (dirent -> FAT), A on the data.
        bc.write(&mut dev, 0, &[1u8; BLOCK_SIZE]).unwrap();
        bc.note_metadata(0, 1);
        bc.write(&mut dev, 16, &[2u8; BLOCK_SIZE]).unwrap();
        bc.note_metadata(16, 1);
        let data = vec![3u8; BLOCK_SIZE * 8];
        bc.write_range(&mut dev, 64, 8, &data).unwrap();
        bc.add_dependency(0, 1, 64, 8);
        bc.add_dependency(16, 1, 0, 1);
        // Budget smaller than the data: the pass drains data only.
        assert_eq!(bc.flush_some(&mut dev, 4).unwrap(), 4);
        let mut raw = [0u8; BLOCK_SIZE];
        dev.read_block(0, &mut raw).unwrap();
        assert_eq!(
            raw, [0u8; BLOCK_SIZE],
            "metadata untouched while data dirty"
        );
        // Second pass finishes the data and cascades through the metadata
        // dependency chain (A then B) in one go.
        assert_eq!(bc.flush_some(&mut dev, 64).unwrap(), 6);
        assert_eq!(bc.dirty_blocks(), 0);
        dev.read_block(16, &mut raw).unwrap();
        assert_eq!(raw, [2u8; BLOCK_SIZE]);
        assert_eq!(bc.stats().forced_meta_writes, 0, "no cycle was forced");
    }

    #[test]
    fn flush_some_skips_faulty_runs_and_still_drains_healthy_ones() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        dev.inject_fault(4);
        let data = vec![5u8; BLOCK_SIZE * 8];
        bc.write_range(&mut dev, 0, 8, &data).unwrap(); // covers the fault
        bc.write_range(&mut dev, 64, 8, &data).unwrap(); // healthy
                                                         // The pass reports the fault but the healthy extent drained anyway,
                                                         // and only persisted blocks were charged against the budget.
        assert!(bc.flush_some(&mut dev, 16).is_err());
        assert_eq!(bc.dirty_blocks(), 8, "healthy run drained, faulty retained");
        let mut raw = [0u8; BLOCK_SIZE];
        dev.read_block(64, &mut raw).unwrap();
        assert_eq!(raw, [5u8; BLOCK_SIZE]);
        dev.clear_faults();
        assert_eq!(bc.flush_some(&mut dev, 64).unwrap(), 8);
        assert_eq!(bc.dirty_blocks(), 0);
    }

    #[test]
    fn eviction_flushes_a_metadata_blocks_dependencies_first() {
        let mut dev = MemDisk::new(8192);
        // Tiny cache so writes force evictions: 2 shards x 2 extents.
        let mut bc = BufCache::with_geometry(2, 2);
        // A dirty metadata block depending on dirty data elsewhere.
        bc.write(&mut dev, 0, &[8u8; BLOCK_SIZE]).unwrap();
        bc.note_metadata(0, 1);
        bc.write(&mut dev, 40, &[9u8; BLOCK_SIZE]).unwrap();
        bc.add_dependency(0, 1, 40, 1);
        // Stream enough new extents through to evict everything.
        let data = vec![1u8; BLOCK_SIZE];
        for lba in 1000..1100 {
            bc.write(&mut dev, lba, &data).unwrap();
        }
        // Whenever the metadata block was evicted, its dependency had to be
        // written first — both are on the device and consistent.
        let mut raw = [0u8; BLOCK_SIZE];
        dev.read_block(0, &mut raw).unwrap();
        assert_eq!(raw, [8u8; BLOCK_SIZE]);
        dev.read_block(40, &mut raw).unwrap();
        assert_eq!(raw, [9u8; BLOCK_SIZE]);
    }

    #[test]
    fn a_fill_whose_eviction_fails_leaves_no_block_pinned() {
        let mut dev = MemDisk::new(256);
        // Two shards of one extent each. Shard 1 holds block 24's extent
        // dirty, and its write-back faults.
        let mut bc = BufCache::with_geometry(2, 1);
        bc.write(&mut dev, 24, &[1u8; BLOCK_SIZE]).unwrap();
        dev.inject_fault(24);
        // One window pins blocks 4..8 in shard 0, then cannot evict shard
        // 1 for blocks 8..12.
        let mut out = vec![0u8; BLOCK_SIZE * 8];
        assert!(bc.read_range(&mut dev, 4, 8, &mut out).is_err());
        // The re-read fills from the device: no stale pin to wait on.
        bc.read_range(&mut dev, 4, 4, &mut out[..BLOCK_SIZE * 4])
            .unwrap();
        let s = bc.stats();
        assert_eq!((s.demand_waits, s.demand_spin_reaps), (0, 0));
    }

    #[test]
    fn meta_txn_records_touched_metadata_and_pins_it() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        assert!(bc.begin_scope(true));
        bc.write(&mut dev, 33, &[1u8; BLOCK_SIZE]).unwrap();
        bc.note_metadata(33, 1);
        bc.write(&mut dev, 7, &[2u8; BLOCK_SIZE]).unwrap();
        bc.note_metadata(7, 1);
        bc.note_metadata(7, 1); // duplicates collapse
        assert!(!bc.begin_scope(false), "a nested call joins the scope");
        let mut touched = bc.keep_scope().unwrap();
        touched.sort_unstable();
        assert_eq!(touched, vec![7, 33]);
        // The pins outlast the kept undo record, for the commit.
        assert!(bc.extent_txn_pinned(0) && bc.extent_txn_pinned(32));
        bc.end_scope();
        assert!(!bc.extent_txn_pinned(0) && !bc.extent_txn_pinned(32));
        assert!(bc.begin_scope(false));
        assert_eq!(bc.keep_scope(), None, "an unlogged scope collects nothing");
        bc.end_scope();
    }

    #[test]
    fn an_aborted_scope_puts_back_every_write_edge_and_free() {
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        let block = |b: u8| [b; BLOCK_SIZE];
        // Block 40 is cached dirty metadata, block 41 cached clean data;
        // block 50 sits on the device only.
        dev.write_block(41, &block(4)).unwrap();
        dev.write_block(50, &block(5)).unwrap();
        bc.write(&mut dev, 40, &block(1)).unwrap();
        bc.note_metadata(40, 1);
        let mut out = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 41, &mut out).unwrap();
        bc.add_dependency(40, 1, 100, 1);
        bc.note_pending_free(9);
        let deps = bc.deps.clone();
        assert!(bc.begin_scope(true));
        bc.write(&mut dev, 40, &block(2)).unwrap();
        bc.write(&mut dev, 40, &block(3)).unwrap();
        bc.write_range(&mut dev, 41, 1, &block(6)).unwrap();
        bc.write(&mut dev, 50, &block(7)).unwrap();
        bc.note_metadata(50, 1);
        bc.add_dependency(40, 1, 50, 1);
        bc.add_dependency(40, 1, 100, 1); // already there: not the scope's
        bc.note_pending_free(9);
        bc.note_pending_free(10);
        bc.abort_scope(&mut dev);
        // The first copy wins, dirty, with its metadata class.
        bc.read(&mut dev, 40, &mut out).unwrap();
        assert_eq!(out, block(1));
        assert!(bc.block_is_meta(40) && bc.is_block_dirty(40));
        bc.read(&mut dev, 41, &mut out).unwrap();
        assert_eq!(out, block(4));
        assert!(
            !bc.block_is_meta(41) && !bc.is_block_dirty(41),
            "clean as found"
        );
        // The fresh block is dropped: a read fetches the device's bytes.
        assert!(!bc.block_has(50, |e| e.valid));
        bc.read(&mut dev, 50, &mut out).unwrap();
        assert_eq!(out, block(5));
        assert_eq!(bc.deps, deps);
        assert!(bc.is_pending_free(9) && !bc.is_pending_free(10));
        assert!(!bc.extent_txn_pinned(40), "the logged pins went with it");
        // A clean block the scope wrote back goes back dirty: the device
        // holds the scope's bytes.
        bc.flush(&mut dev).unwrap();
        assert!(bc.begin_scope(false));
        bc.write(&mut dev, 41, &block(9)).unwrap();
        bc.flush(&mut dev).unwrap();
        bc.abort_scope(&mut dev);
        bc.read(&mut dev, 41, &mut out).unwrap();
        assert_eq!(out, block(4));
        assert!(bc.is_block_dirty(41), "rewritten by the next drain");
        // A scope that succeeds keeps its writes.
        assert!(bc.begin_scope(false));
        bc.write(&mut dev, 50, &block(8)).unwrap();
        assert_eq!(bc.keep_scope(), None);
        bc.end_scope();
        bc.read(&mut dev, 50, &mut out).unwrap();
        assert_eq!(out, block(8));
    }

    mod dma {
        use super::*;
        use crate::block::{SdBlockDevice, SdDmaCtx};
        use hal::clock::Clock;
        use hal::cost::CostModel;
        use hal::dma::DmaEngine;
        use hal::sdhost::{SdDataMode, SdHost};

        struct Rig {
            sd: SdHost,
            engine: DmaEngine,
            clock: Clock,
            cost: CostModel,
        }

        impl Rig {
            fn new(blocks: u64) -> Self {
                let mut sd = SdHost::new(blocks);
                sd.init().unwrap();
                sd.set_data_mode(SdDataMode::Dma);
                Rig {
                    sd,
                    engine: DmaEngine::new(),
                    clock: Clock::new(1, 1_000_000_000),
                    cost: CostModel::pi3(),
                }
            }

            fn dev(&mut self) -> SdBlockDevice<'_> {
                SdBlockDevice::with_dma(
                    &mut self.sd,
                    0,
                    u64::MAX / 1024, // partition covers the card
                    Some(SdDmaCtx {
                        engine: &mut self.engine,
                        clock: &mut self.clock,
                        cost: &self.cost,
                        core: 0,
                    }),
                )
            }
        }

        #[test]
        fn async_flush_is_a_queue_drain_barrier() {
            let mut rig = Rig::new(4096);
            let mut bc = BufCache::default();
            let data = vec![0x77u8; BLOCK_SIZE * 24];
            bc.write_range(&mut rig.dev(), 100, 24, &data).unwrap();
            assert_eq!(bc.dirty_blocks(), 24);
            let before = rig.clock.cycles(0);
            bc.flush(&mut rig.dev()).unwrap();
            assert_eq!(bc.dirty_blocks(), 0, "barrier confirmed durability");
            assert_eq!(bc.inflight_cmds(), 0);
            assert!(
                rig.clock.cycles(0) > before,
                "the wait advanced the core clock by the chain's duration"
            );
            assert_eq!(rig.sd.dma_cmds(), 1, "one scatter-gather chain");
            let mut back = vec![0u8; BLOCK_SIZE * 24];
            rig.sd.read_range(100, 24, &mut back).unwrap();
            assert_eq!(back, data);
            assert_eq!(bc.stats().writebacks, 24);
        }

        #[test]
        fn flush_some_submits_without_draining_and_dirty_tracks_inflight() {
            let mut rig = Rig::new(4096);
            let mut bc = BufCache::default();
            let data = vec![0x55u8; BLOCK_SIZE * 16];
            bc.write_range(&mut rig.dev(), 0, 16, &data).unwrap();
            let submitted = bc.flush_some(&mut rig.dev(), 8).unwrap();
            assert_eq!(submitted, 8, "budget clips the chain");
            assert_eq!(
                bc.dirty_blocks(),
                16,
                "submitted blocks still count until their completion confirms"
            );
            assert_eq!(bc.inflight_cmds(), 1);
            // Reap by waiting: the next pass applies the completion first.
            let mut dev = rig.dev();
            let comps = dev.wait_some().unwrap();
            for c in &comps {
                bc.apply_completion(c);
            }
            assert_eq!(bc.dirty_blocks(), 8, "confirmed blocks are durable");
        }

        #[test]
        fn one_faulty_run_does_not_starve_healthy_background_writeback() {
            // The no-starvation contract of the polled flush_some, kept under
            // DMA: each contiguous run rides its own chain, so a permanently
            // bad sector re-dirties only its run while the rest drains.
            let mut rig = Rig::new(4096);
            rig.sd.card.inject_fault(4);
            let mut bc = BufCache::default();
            let data = vec![0xABu8; BLOCK_SIZE * 8];
            bc.write_range(&mut rig.dev(), 0, 8, &data).unwrap(); // covers fault
            bc.write_range(&mut rig.dev(), 64, 8, &data).unwrap(); // healthy
            let mut passes = 0;
            while bc.dirty_blocks() > 8 && passes < 10 {
                // Background cadence: submit, let chains complete, reap on
                // the next pass (errors surface there; keep going).
                let _ = bc.flush_some(&mut rig.dev(), 64);
                let mut dev = rig.dev();
                let comps = dev.wait_some().unwrap();
                for c in &comps {
                    bc.apply_completion(c);
                }
                passes += 1;
            }
            assert_eq!(
                bc.dirty_blocks(),
                8,
                "healthy run drained while the faulty one is retained"
            );
            let mut raw = [0u8; BLOCK_SIZE];
            rig.sd.read_block(64, &mut raw).unwrap();
            assert_eq!(raw, [0xABu8; BLOCK_SIZE]);
            // The fault clears: the retained run drains too.
            rig.sd.card.clear_faults();
            while bc.dirty_blocks() > 0 {
                let _ = bc.flush_some(&mut rig.dev(), 64);
                let mut dev = rig.dev();
                let comps = dev.wait_some().unwrap();
                for c in &comps {
                    bc.apply_completion(c);
                }
            }
            rig.sd.read_block(4, &mut raw).unwrap();
            assert_eq!(raw, [0xABu8; BLOCK_SIZE]);
        }

        #[test]
        fn reads_larger_than_the_cache_stream_through_it() {
            // The demand path serves requests in bounded windows, so a read
            // bigger than the whole cache must not wedge on pinned extents.
            let mut rig = Rig::new(16384);
            for lba in 0..4096u64 {
                rig.sd
                    .write_block(lba, &[(lba % 251) as u8; BLOCK_SIZE])
                    .unwrap();
            }
            // Tiny cache: 2 shards x 2 extents = 32 blocks; read 2048.
            let mut bc = BufCache::with_geometry(2, 2);
            let mut out = vec![0u8; 2048 * BLOCK_SIZE];
            bc.read_range(&mut rig.dev(), 0, 2048, &mut out).unwrap();
            for (i, chunk) in out.chunks(BLOCK_SIZE).enumerate() {
                assert!(
                    chunk.iter().all(|b| *b == (i as u64 % 251) as u8),
                    "block {i} content"
                );
            }
        }

        #[test]
        fn demand_read_waits_on_an_inflight_prefetch_instead_of_reissuing() {
            let mut rig = Rig::new(4096);
            for lba in 0..64 {
                rig.sd.write_block(lba, &[lba as u8; BLOCK_SIZE]).unwrap();
            }
            let mut bc = BufCache::default();
            bc.set_prefetch(true);
            assert_eq!(bc.prefetch_range(&mut rig.dev(), 8, 16).unwrap(), 16);
            assert_eq!(bc.inflight_cmds(), 1, "prefetch submitted, not waited");
            assert_eq!(bc.stats().prefetch_cmds, 1);
            // The demand read covers the in-flight range: it must wait for
            // the same chain, not issue a second one.
            let mut out = vec![0u8; BLOCK_SIZE * 16];
            bc.read_range(&mut rig.dev(), 8, 16, &mut out).unwrap();
            assert_eq!(rig.sd.dma_cmds(), 1, "no re-issue");
            assert_eq!(bc.stats().demand_waits, 16);
            assert_eq!(bc.stats().hits, 16, "waited blocks count as hits");
            assert!(out[..BLOCK_SIZE].iter().all(|b| *b == 8));
        }

        #[test]
        fn failed_async_writeback_leaves_blocks_dirty_and_retryable() {
            let mut rig = Rig::new(4096);
            rig.sd.card.inject_fault(5);
            let mut bc = BufCache::default();
            let data = vec![0xEEu8; BLOCK_SIZE * 8];
            bc.write_range(&mut rig.dev(), 0, 8, &data).unwrap();
            assert!(
                bc.flush(&mut rig.dev()).is_err(),
                "fault surfaces at the barrier"
            );
            assert_eq!(bc.dirty_blocks(), 8, "failed chain loses nothing");
            assert!(bc.stats().async_write_errors > 0);
            rig.sd.card.clear_faults();
            bc.flush(&mut rig.dev()).unwrap();
            assert_eq!(bc.dirty_blocks(), 0);
            let mut back = [0u8; BLOCK_SIZE];
            rig.sd.read_block(5, &mut back).unwrap();
            assert_eq!(back, [0xEEu8; BLOCK_SIZE]);
        }

        #[test]
        fn torn_dma_chain_persists_a_prefix_and_ordered_metadata_never_precedes_data() {
            let mut rig = Rig::new(4096);
            let mut bc = BufCache::default();
            // Metadata at a low LBA depending on data at a high LBA: the
            // ordered async drain submits the data chain first and the
            // metadata chain only after the data completion confirmed.
            bc.write(&mut rig.dev(), 2, &[0xAEu8; BLOCK_SIZE]).unwrap();
            bc.note_metadata(2, 1);
            let data = vec![0xDAu8; BLOCK_SIZE * 8];
            bc.write_range(&mut rig.dev(), 100, 8, &data).unwrap();
            bc.add_dependency(2, 1, 100, 8);
            rig.sd.card.power_cut_after(5);
            assert!(
                bc.flush(&mut rig.dev()).is_err(),
                "torn chain fails the barrier"
            );
            assert_eq!(rig.sd.card.torn_writes(), 1);
            rig.sd.card.power_restored();
            let mut raw = [0u8; BLOCK_SIZE];
            rig.sd.read_block(2, &mut raw).unwrap();
            assert_eq!(raw, [0u8; BLOCK_SIZE], "metadata never hit the wire");
            rig.sd.read_block(105, &mut raw).unwrap();
            assert_eq!(raw, [0u8; BLOCK_SIZE], "past the cut nothing landed");
            rig.sd.read_block(100, &mut raw).unwrap();
            assert_eq!(raw, [0xDAu8; BLOCK_SIZE], "prefix persisted");
            // Power back: the retried barrier completes the pair.
            bc.flush(&mut rig.dev()).unwrap();
            rig.sd.read_block(2, &mut raw).unwrap();
            assert_eq!(raw, [0xAEu8; BLOCK_SIZE]);
            assert_eq!(bc.stats().forced_meta_writes, 0);
        }

        #[test]
        fn blocking_demand_read_parks_instead_of_spinning() {
            let mut rig = Rig::new(4096);
            for lba in 0..64 {
                rig.sd.write_block(lba, &[lba as u8; BLOCK_SIZE]).unwrap();
            }
            let mut bc = BufCache::default();
            bc.set_prefetch(true);
            bc.set_block_demand(true);
            // A prefetch chain is on the wire; the demand read covering it
            // parks on the completion interrupt — it neither re-issues the
            // transfer nor spin-advances the clock on the reader's behalf.
            assert_eq!(bc.prefetch_range(&mut rig.dev(), 8, 16).unwrap(), 16);
            let mut out = vec![0u8; BLOCK_SIZE * 16];
            assert!(matches!(
                bc.read_range(&mut rig.dev(), 8, 16, &mut out),
                Err(crate::FsError::WouldBlock)
            ));
            assert_eq!(rig.sd.dma_cmds(), 1, "no re-issue before parking");
            assert_eq!(bc.stats().demand_waits, 16, "the read waited on the chain");
            assert!(bc.stats().demand_blocks > 0);
            assert_eq!(bc.stats().demand_spin_reaps, 0);
            // The completion interrupt reaps the chain (here: the test reaps
            // on the cache's behalf, as the kernel's `Dma0` handler does)...
            let comps = rig.dev().wait_some().unwrap();
            assert!(!comps.is_empty());
            for c in &comps {
                bc.apply_completion(c);
            }
            // ...and the woken retry completes from residency: same bytes,
            // no second chain, still no spin-reaping billed to the reader.
            bc.read_range(&mut rig.dev(), 8, 16, &mut out).unwrap();
            assert_eq!(rig.sd.dma_cmds(), 1, "no re-issue on retry");
            assert!(out[..BLOCK_SIZE].iter().all(|b| *b == 8));
            assert_eq!(bc.stats().demand_spin_reaps, 0);
        }

        #[test]
        fn blocking_read_retry_is_idempotent_for_the_stream_table() {
            let mut rig = Rig::new(4096);
            let mut bc = BufCache::default();
            bc.set_block_demand(true);
            bc.set_prefetch(true);
            let mut out = vec![0u8; BLOCK_SIZE * 8];
            // Two parked-and-retried sequential reads: the retries must not
            // steal stream slots or reset the ramp, so the streak counts
            // each *distinct* cluster once.
            for lba in [0u64, 8, 16] {
                while let Err(e) = bc.read_range(&mut rig.dev(), lba, 8, &mut out) {
                    assert!(matches!(e, crate::FsError::WouldBlock));
                    for c in rig.dev().wait_some().unwrap() {
                        bc.apply_completion(&c);
                    }
                }
            }
            // A fresh slot starts at streak 0 and each continuation adds
            // one: three clusters = streak 2 — iff the parked retries were
            // absorbed instead of claiming slots of their own.
            assert_eq!(bc.sequential_streak(), 2, "retries did not double-count");
        }

        #[test]
        fn failed_blocking_chain_surfaces_the_error_on_retry_not_a_deadlock() {
            let mut rig = Rig::new(4096);
            rig.sd.card.inject_fault(10);
            let mut bc = BufCache::default();
            bc.set_block_demand(true);
            let mut out = vec![0u8; BLOCK_SIZE * 16];
            assert!(matches!(
                bc.read_range(&mut rig.dev(), 8, 16, &mut out),
                Err(crate::FsError::WouldBlock)
            ));
            for c in rig.dev().wait_some().unwrap() {
                bc.apply_completion(&c);
            }
            // The woken retry gets the chain's real error, not WouldBlock —
            // a parked reader is never lost on a torn or failed chain.
            match bc.read_range(&mut rig.dev(), 8, 16, &mut out) {
                Err(crate::FsError::WouldBlock) => panic!("retry must surface the error"),
                Err(_) => {}
                Ok(_) => panic!("the faulted chain cannot have filled the window"),
            }
            // The fault cleared, the next attempt re-issues and completes.
            rig.sd.card.clear_faults();
            let mut attempts = 0;
            loop {
                match bc.read_range(&mut rig.dev(), 8, 16, &mut out) {
                    Ok(()) => break,
                    Err(crate::FsError::WouldBlock) => {
                        for c in rig.dev().wait_some().unwrap() {
                            bc.apply_completion(&c);
                        }
                    }
                    Err(e) => panic!("unexpected error after the fault cleared: {e}"),
                }
                attempts += 1;
                assert!(attempts < 8, "retry loop failed to converge");
            }
        }

        #[test]
        fn eviction_never_lands_a_stale_dma_chain_over_newer_data() {
            let mut rig = Rig::new(4096);
            // One shard of two extents: a third extent forces an eviction.
            let mut bc = BufCache::with_geometry(1, 2);
            bc.write(&mut rig.dev(), 100, &[0x11u8; BLOCK_SIZE])
                .unwrap();
            bc.flush_some(&mut rig.dev(), 64).unwrap();
            assert_eq!(bc.inflight_cmds(), 1, "the 0x11 chain is on the wire");
            // Re-dirty the block while its older snapshot is in flight, and
            // order a metadata block after it.
            bc.write(&mut rig.dev(), 100, &[0x22u8; BLOCK_SIZE])
                .unwrap();
            bc.write(&mut rig.dev(), 8, &[0x33u8; BLOCK_SIZE]).unwrap();
            bc.note_metadata(8, 1);
            bc.add_dependency(8, 1, 100, 1);
            // Extent 96 rides a chain, so the eviction takes extent 8 and
            // flushes its dependency closure (block 100) first.
            let polled = |sd: &SdHost| (sd.single_block_cmds(), sd.range_cmds());
            let before = polled(&rig.sd);
            bc.write(&mut rig.dev(), 200, &[0x44u8; BLOCK_SIZE])
                .unwrap();
            assert_eq!(bc.stats().evictions, 1);
            assert_eq!(
                polled(&rig.sd),
                before,
                "(single, range) polled commands of the eviction"
            );
            // The 0x22 snapshot queued behind the 0x11 chain, so it landed
            // last.
            bc.flush(&mut rig.dev()).unwrap();
            bc.invalidate_all();
            let mut out = [0u8; BLOCK_SIZE];
            bc.read(&mut rig.dev(), 100, &mut out).unwrap();
            assert!(
                out.iter().all(|&b| b == 0x22),
                "block 100 reads back {:#04x}",
                out[0]
            );
        }

        #[test]
        fn full_prefetch_queue_drops_the_speculation() {
            let mut rig = Rig::new(65536);
            let mut bc = BufCache::default();
            bc.set_prefetch(true);
            // Fill the queue with distinct prefetch chains.
            let mut issued = 0;
            for i in 0..hal::sdhost::SD_QUEUE_DEPTH as u64 + 3 {
                issued +=
                    u64::from(bc.prefetch_range(&mut rig.dev(), 1000 + i * 64, 8).unwrap() > 0);
            }
            assert_eq!(
                issued,
                hal::sdhost::SD_QUEUE_DEPTH as u64,
                "overflow prefetches were dropped, not blocked on"
            );
        }

        /// Drives a small cache over a queued SD card with a seeded mix of
        /// reads, read-ahead and writes, checks every read against the last
        /// bytes written to each block, and returns the cache's statistics,
        /// its LRU clock and the sum of its extents' ticks.
        fn seeded_mix(seed: u64) -> (BufCacheStats, u64, u64) {
            // 4 shards x 4 extents = 128 blocks over a 1024-block region:
            // every range may start and end mid-extent and crosses shards,
            // the cache evicts constantly, and demand reads and writes land
            // on read-ahead still in flight.
            const REGION: u64 = 1024;
            let mut rig = Rig::new(4096);
            let mut want: Vec<[u8; BLOCK_SIZE]> =
                (0..REGION).map(|b| [(b % 251) as u8; BLOCK_SIZE]).collect();
            for (lba, block) in (0..).zip(&want) {
                rig.sd.write_block(lba, block).unwrap();
            }
            let mut bc = BufCache::with_geometry(4, 4);
            let mut rng = seed;
            let mut next = move |bound: u64| {
                // xorshift64: a fixed sequence per seed.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            for step in 0..2000u64 {
                let lba = next(REGION);
                let count = 1 + next(48.min(REGION - lba));
                match next(8) {
                    0..=3 => {
                        let mut out = vec![0u8; count as usize * BLOCK_SIZE];
                        bc.read_range(&mut rig.dev(), lba, count, &mut out).unwrap();
                        for (i, got) in out.chunks_exact(BLOCK_SIZE).enumerate() {
                            let b = lba as usize + i;
                            assert!(got == want[b], "seed {seed} step {step} block {b}");
                        }
                    }
                    4..=5 => {
                        bc.prefetch_range(&mut rig.dev(), lba, count).unwrap();
                    }
                    _ => {
                        let mut data = vec![0u8; count as usize * BLOCK_SIZE];
                        for (i, block) in data.chunks_exact_mut(BLOCK_SIZE).enumerate() {
                            block.fill((step as usize * 7 + i) as u8);
                            want[lba as usize + i].copy_from_slice(block);
                        }
                        bc.write_range(&mut rig.dev(), lba, count, &data).unwrap();
                    }
                }
            }
            bc.flush(&mut rig.dev()).unwrap();
            let mut card = vec![0u8; REGION as usize * BLOCK_SIZE];
            rig.sd.read_range(0, REGION, &mut card).unwrap();
            assert!(
                card.chunks_exact(BLOCK_SIZE)
                    .zip(&want)
                    .all(|(c, w)| c == w),
                "seed {seed}: the card does not hold the last writes"
            );
            let ticks = bc.shards.iter().flat_map(|s| &s.extents).map(|e| e.tick);
            (bc.stats(), bc.tick, ticks.sum())
        }

        #[test]
        fn seeded_reads_prefetches_and_writes_keep_data_and_statistics() {
            // The figures, LRU clock and extent ticks the per-block walks
            // produced. The ticks pick every eviction victim, so a walk that
            // advanced them by a different amount, or counted a lookup
            // twice, moves these. Read-ahead is off, so no read takes a
            // stream-table tick.
            for (seed, want, clock, ticks) in [
                (
                    1u64,
                    [2309, 22204, 132, 6752, 10885, 398, 11385, 485],
                    69279,
                    1106317,
                ),
                (
                    29,
                    [2301, 21864, 193, 6800, 10389, 432, 12369, 457],
                    68990,
                    1102240,
                ),
            ] {
                let (s, got_clock, got_ticks) = seeded_mix(seed);
                let got = [
                    s.hits,
                    s.misses,
                    s.demand_waits,
                    s.evictions,
                    s.prefetched_blocks,
                    s.batched_evictions,
                    s.writebacks,
                    s.prefetch_cmds,
                ];
                assert_eq!(got, want, "seed {seed}");
                assert_eq!((got_clock, got_ticks), (clock, ticks), "seed {seed}");
            }
        }
    }

    #[test]
    fn invalidate_all_empties_the_cache() {
        let mut dev = MemDisk::new(64);
        let mut bc = BufCache::default();
        let mut out = [0u8; BLOCK_SIZE];
        bc.read(&mut dev, 10, &mut out).unwrap();
        assert!(!bc.is_empty());
        bc.invalidate_all();
        assert!(bc.is_empty());
        assert_eq!(bc.len(), 0);
    }
}
