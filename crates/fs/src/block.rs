//! Block devices.
//!
//! Everything above this layer (the unified buffer cache, xv6fs, FAT32)
//! reads and writes 512-byte sectors through the [`BlockDevice`] trait. Two
//! device classes exist in Proto: the ramdisk linked into the kernel image
//! (Prototype 4) and the SD card (Prototype 5). Both keep their blocks in
//! hal's simulated disk ([`hal::disk::Disk`]): the ramdisk is one, mounted
//! bare as [`MemDisk`], and the card is the SD host's `card`, so faults,
//! power cuts and the posted write cache behave alike on both. The trait
//! mirrors the two access shapes the SD driver offers — single blocks and
//! contiguous ranges (CMD17/CMD24 vs CMD18/CMD25) — plus
//! [`BlockDevice::flush`] as the barrier the write-back cache drains
//! through, and a statistics hook so the kernel can charge the right
//! virtual-cycle costs for each shape. The range methods have
//! loop-over-single-blocks defaults so simple devices stay simple; both
//! devices here override them with the disk's real multi-block commands.
//!
//! The buffer cache moves every transfer through the submit half of the
//! trait: [`BlockDevice::submit_read_sg`]/[`BlockDevice::submit_write_sg`]
//! take a scatter-gather chain of runs and return a [`Submission`]. A device
//! with an asynchronous command queue (the SD host in DMA mode) queues the
//! chain and returns its command id; completions are reaped with
//! [`BlockDevice::poll_completions`] (non-blocking) or
//! [`BlockDevice::wait_some`] (advances the submitting core's clock to the
//! next chain's completion deadline — the synchronous wait of a demand
//! read). A device without a queue (the ramdisk, the SD host in PIO mode)
//! keeps the trait's defaults: the chain runs as one polled command per run
//! inside the call, and the finished completion comes back with it.

use hal::clock::Clock;
use hal::cost::CostModel;
pub use hal::disk::{BlockIoStats, Disk as MemDisk, BLOCK_SIZE};
use hal::dma::DmaEngine;
use hal::sdhost::{DmaTraffic, SdDataMode, SdSgRun, SD_DMA_CHANNEL};

use crate::{FsError, FsResult};

/// A contiguous run of an asynchronous scatter-gather command: `(lba,
/// count)` in device blocks.
pub type SgRun = (u64, u64);

/// One finished scatter-gather command: reaped from a queued device, or
/// handed back by a submit that completed it.
#[derive(Debug, Clone)]
pub struct SgCompletion {
    /// Command id the submit call queued it under (0 for a chain that
    /// completed at submit).
    pub id: u64,
    /// Whether the command was a write.
    pub write: bool,
    /// The scatter-gather runs the command covered (device-relative LBAs).
    pub runs: Vec<SgRun>,
    /// Run-major payload for successful reads.
    pub data: Option<Vec<u8>>,
    /// Outcome of the data phase — injected faults and torn power-cut writes
    /// surface here, when the device actually moved the data.
    pub result: FsResult<()>,
}

/// What a submit call hands back.
#[derive(Debug, Clone)]
pub enum Submission {
    /// The chain is queued; its completion arrives later under this command
    /// id, through [`BlockDevice::poll_completions`] or
    /// [`BlockDevice::wait_some`].
    Queued(u64),
    /// The chain finished inside the call (a device without a command
    /// queue).
    Done(SgCompletion),
}

/// Runs a scatter-gather read as polled commands: one range command per
/// run, or a single-block command for a one-block run. The first failing
/// command ends the chain and fails the completion.
fn complete_read_sg<D: BlockDevice + ?Sized>(dev: &mut D, runs: &[SgRun]) -> Submission {
    let total: u64 = runs.iter().map(|&(_, count)| count).sum();
    let mut data = vec![0u8; total as usize * BLOCK_SIZE];
    let mut rest = data.as_mut_slice();
    let result = runs.iter().try_for_each(|&(lba, count)| {
        let (buf, tail) = std::mem::take(&mut rest).split_at_mut(count as usize * BLOCK_SIZE);
        rest = tail;
        match count {
            1 => dev.read_block(lba, buf),
            _ => dev.read_range(lba, count, buf),
        }
    });
    Submission::Done(SgCompletion {
        id: 0,
        write: false,
        runs: runs.to_vec(),
        data: result.is_ok().then_some(data),
        result,
    })
}

/// Runs a scatter-gather write of the run-major `data` as polled commands,
/// shaped like [`complete_read_sg`]'s.
fn complete_write_sg<D: BlockDevice + ?Sized>(
    dev: &mut D,
    runs: &[SgRun],
    data: &[u8],
) -> Submission {
    let mut rest = data;
    let result = runs.iter().try_for_each(|&(lba, count)| {
        let len = count as usize * BLOCK_SIZE;
        if rest.len() < len {
            return Err(FsError::Invalid("sg payload shorter than its runs".into()));
        }
        let (buf, tail) = rest.split_at(len);
        rest = tail;
        match count {
            1 => dev.write_block(lba, buf),
            _ => dev.write_range(lba, count, buf),
        }
    });
    Submission::Done(SgCompletion {
        id: 0,
        write: true,
        runs: runs.to_vec(),
        data: None,
        result,
    })
}

/// A 512-byte-sector block device.
pub trait BlockDevice {
    /// Total number of blocks.
    fn num_blocks(&self) -> u64;

    /// Reads one block into `out`.
    fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()>;

    /// Writes one block from `data`.
    fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()>;

    /// Reads `count` contiguous blocks into `out` (which must be
    /// `count * BLOCK_SIZE` bytes). The default implementation loops over
    /// single blocks; devices that support real range commands (the SD card)
    /// override it.
    fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
        if out.len() != count as usize * BLOCK_SIZE {
            return Err(FsError::Invalid("read_range buffer size mismatch".into()));
        }
        for i in 0..count {
            let s = i as usize * BLOCK_SIZE;
            let b = lba
                .checked_add(i)
                .ok_or_else(|| FsError::Invalid(format!("LBA overflow at {lba}+{i}")))?;
            self.read_block(b, &mut out[s..s + BLOCK_SIZE])?;
        }
        Ok(())
    }

    /// Writes `count` contiguous blocks from `data`.
    fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> FsResult<()> {
        if data.len() != count as usize * BLOCK_SIZE {
            return Err(FsError::Invalid("write_range buffer size mismatch".into()));
        }
        for i in 0..count {
            let s = i as usize * BLOCK_SIZE;
            let b = lba
                .checked_add(i)
                .ok_or_else(|| FsError::Invalid(format!("LBA overflow at {lba}+{i}")))?;
            self.write_block(b, &data[s..s + BLOCK_SIZE])?;
        }
        Ok(())
    }

    /// Flushes device-side buffers: the FLUSH barrier. The default is a
    /// no-op for devices that complete transfers synchronously; devices
    /// with a posted write cache ([`hal::disk::Disk::set_posted_writes`])
    /// override it to make every completed-but-volatile write durable. The
    /// write-back buffer cache calls this at the end of its own drains, so
    /// the transaction layer's commit point is the FLUSH closing the drain
    /// that sends its record down — with a posted cache enabled, skipping
    /// the barrier is demonstrably unsafe (see the crash suite's
    /// barrier-elision test).
    fn flush(&mut self) -> FsResult<()> {
        Ok(())
    }

    /// Returns accumulated I/O statistics.
    fn stats(&self) -> BlockIoStats;

    // ---- the submit/complete pipeline (the defaults complete at submit) ----

    /// Commands submitted and not yet reaped.
    fn inflight(&self) -> usize {
        0
    }

    /// Whether a submit would be accepted right now (queue not full).
    fn can_submit(&self) -> bool {
        true
    }

    /// Submits a scatter-gather read; the payload arrives in the
    /// completion. The default completes inside the call.
    fn submit_read_sg(&mut self, runs: &[SgRun]) -> FsResult<Submission> {
        Ok(complete_read_sg(self, runs))
    }

    /// Submits a scatter-gather write of the run-major `data`. The default
    /// completes inside the call.
    fn submit_write_sg(&mut self, runs: &[SgRun], data: &[u8]) -> FsResult<Submission> {
        Ok(complete_write_sg(self, runs, data))
    }

    /// Reaps already-finished commands without waiting.
    fn poll_completions(&mut self) -> Vec<SgCompletion> {
        Vec::new()
    }

    /// Waits until at least one in-flight command finishes (advancing the
    /// caller's virtual clock to its completion deadline) and reaps it.
    /// Returns an empty vector when nothing is in flight.
    fn wait_some(&mut self) -> FsResult<Vec<SgCompletion>> {
        Ok(Vec::new())
    }
}

/// The ramdisk: hal's simulated disk, mounted bare. Its own methods return
/// [`hal::HalError`]; as a [`BlockDevice`] they report [`FsError::Io`].
impl BlockDevice for MemDisk {
    fn num_blocks(&self) -> u64 {
        MemDisk::num_blocks(self)
    }

    fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()> {
        Ok(MemDisk::read_block(self, lba, out)?)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()> {
        Ok(MemDisk::write_block(self, lba, data)?)
    }

    fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
        Ok(MemDisk::read_range(self, lba, count, out)?)
    }

    fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> FsResult<()> {
        Ok(MemDisk::write_range(self, lba, count, data)?)
    }

    fn flush(&mut self) -> FsResult<()> {
        Ok(MemDisk::flush(self)?)
    }

    fn stats(&self) -> BlockIoStats {
        MemDisk::stats(self)
    }
}

/// The board-side context a DMA-mode [`SdBlockDevice`] drives: the engine
/// the chains run on, the clock that submits charge and waits advance, and
/// the cost model pricing each chain. All fields are disjoint board
/// members, so the kernel borrows them alongside the SD host without
/// conflict.
#[derive(Debug)]
pub struct SdDmaCtx<'a> {
    /// The DMA engine carrying the scatter-gather chains (channel 0).
    pub engine: &'a mut DmaEngine,
    /// The per-core virtual clock. Each write chain's driver CPU work
    /// ([`CostModel::sd_dma_cpu`]) is charged to `core`'s counter when the
    /// chain is submitted, and waits advance it to a chain's completion
    /// deadline.
    pub clock: &'a mut Clock,
    /// Platform cost model (chain durations and driver CPU work).
    pub cost: &'a CostModel,
    /// The core on whose behalf this adapter runs (write-chain charges,
    /// submission timestamps and wait advances).
    pub core: usize,
}

/// Adapter exposing the simulated SD card ([`hal::sdhost::SdHost`]) as a
/// [`BlockDevice`], so FAT32 can be mounted on partition 2 of the card.
/// With an [`SdDmaCtx`] attached (and the host in DMA mode) the adapter
/// queues submitted chains on the host's command queue; otherwise they
/// complete at submit as polled commands.
#[derive(Debug)]
pub struct SdBlockDevice<'a> {
    sd: &'a mut hal::sdhost::SdHost,
    /// First LBA of the partition this device exposes.
    partition_start: u64,
    /// Number of blocks in the partition.
    partition_blocks: u64,
    /// DMA context for the asynchronous data path, if the caller runs one.
    dma: Option<SdDmaCtx<'a>>,
}

impl<'a> SdBlockDevice<'a> {
    /// Wraps a partition of the SD card (synchronous polled access only).
    pub fn new(
        sd: &'a mut hal::sdhost::SdHost,
        partition_start: u64,
        partition_blocks: u64,
    ) -> Self {
        SdBlockDevice {
            sd,
            partition_start,
            partition_blocks,
            dma: None,
        }
    }

    /// Wraps a partition with an optional DMA context enabling the host's
    /// command queue.
    pub fn with_dma(
        sd: &'a mut hal::sdhost::SdHost,
        partition_start: u64,
        partition_blocks: u64,
        dma: Option<SdDmaCtx<'a>>,
    ) -> Self {
        SdBlockDevice {
            sd,
            partition_start,
            partition_blocks,
            dma,
        }
    }

    /// Whether chains ride the host's DMA command queue: the adapter holds
    /// a DMA context and the host is in DMA mode. Otherwise the adapter
    /// keeps the trait's defaults and completes each chain at submit.
    fn queued(&self) -> bool {
        self.dma.is_some() && self.sd.data_mode() == SdDataMode::Dma
    }

    fn check_sg(&self, runs: &[SgRun]) -> FsResult<()> {
        for &(lba, count) in runs {
            let end = lba
                .checked_add(count)
                .ok_or_else(|| FsError::Io(format!("sg run {lba}+{count} overflows")))?;
            if end > self.partition_blocks {
                return Err(FsError::Io(format!(
                    "sg run {lba}+{count} beyond partition of {} blocks",
                    self.partition_blocks
                )));
            }
        }
        Ok(())
    }

    fn to_card_runs(&self, runs: &[SgRun]) -> Vec<SdSgRun> {
        runs.iter()
            .map(|&(lba, count)| SdSgRun {
                lba: self.partition_start.saturating_add(lba),
                count,
            })
            .collect()
    }

    /// Programs the engine with the next queued command if the channel is
    /// idle (called after submits and after each reaped completion).
    fn kick(&mut self) {
        if let Some(ctx) = self.dma.as_mut() {
            let now = ctx.clock.cycles(ctx.core);
            self.sd.kick_dma(ctx.engine, now, ctx.cost);
        }
    }

    /// Finishes command ids reaped from the engine into [`SgCompletion`]s
    /// (partition-relative runs), kicking the next queued chain after each.
    fn finish_ids(&mut self, ids: Vec<u64>) -> Vec<SgCompletion> {
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(c) = self.sd.finish_dma(id) else {
                continue;
            };
            self.kick();
            out.push(SgCompletion {
                id: c.id,
                write: c.write,
                runs: c
                    .runs
                    .iter()
                    .map(|r| (r.lba - self.partition_start, r.count))
                    .collect(),
                data: c.data,
                result: c.result.map_err(FsError::from),
            });
        }
        out
    }
}

impl BlockDevice for SdBlockDevice<'_> {
    fn num_blocks(&self) -> u64 {
        self.partition_blocks
    }

    fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()> {
        self.sd
            .read_block(self.partition_start.saturating_add(lba), out)
            .map_err(FsError::from)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()> {
        self.sd
            .write_block(self.partition_start.saturating_add(lba), data)
            .map_err(FsError::from)
    }

    fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
        self.sd
            .read_range(self.partition_start.saturating_add(lba), count, out)
            .map_err(FsError::from)
    }

    fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> FsResult<()> {
        self.sd
            .write_range(self.partition_start.saturating_add(lba), count, data)
            .map_err(FsError::from)
    }

    /// The barrier: issues the card's cache FLUSH command. Like real
    /// hardware, a FLUSH covers writes the card has *completed* — the
    /// buffer cache drains its in-flight command queue before calling this,
    /// which is what makes the barrier cover everything it submitted. The
    /// host counts each FLUSH it serves ([`hal::sdhost::SdHost::flush_cmds`])
    /// and the caller prices the command from that count, like every other
    /// polled command.
    fn flush(&mut self) -> FsResult<()> {
        self.sd.flush_cache().map_err(FsError::from)
    }

    fn stats(&self) -> BlockIoStats {
        BlockIoStats {
            single_cmds: self.sd.single_block_cmds(),
            range_cmds: self.sd.range_cmds(),
            blocks: self.sd.blocks_transferred(),
        }
    }

    fn inflight(&self) -> usize {
        self.sd.queue_len()
    }

    fn can_submit(&self) -> bool {
        !self.queued() || self.sd.can_submit()
    }

    fn submit_read_sg(&mut self, runs: &[SgRun]) -> FsResult<Submission> {
        if !self.queued() {
            return Ok(complete_read_sg(self, runs));
        }
        self.check_sg(runs)?;
        let card_runs = self.to_card_runs(runs);
        let id = self.sd.submit_dma_read(&card_runs).map_err(FsError::from)?;
        self.kick();
        Ok(Submission::Queued(id))
    }

    fn submit_write_sg(&mut self, runs: &[SgRun], data: &[u8]) -> FsResult<Submission> {
        if !self.queued() {
            return Ok(complete_write_sg(self, runs, data));
        }
        self.check_sg(runs)?;
        let card_runs = self.to_card_runs(runs);
        let id = self
            .sd
            .submit_dma_write(&card_runs, data)
            .map_err(FsError::from)?;
        // The driver builds and issues the chain before its data phase can
        // start, so its CPU work lands on the submitting core now: a
        // streaming writer builds the next chains while this one transfers.
        if let Some(ctx) = self.dma.as_mut() {
            let chain = DmaTraffic {
                cmds: 1,
                control_blocks: runs.len() as u64,
                blocks: runs.iter().map(|&(_, count)| count).sum(),
            };
            ctx.clock.advance(ctx.core, ctx.cost.sd_dma_cpu(chain));
        }
        self.kick();
        Ok(Submission::Queued(id))
    }

    fn poll_completions(&mut self) -> Vec<SgCompletion> {
        let Some(ctx) = self.dma.as_mut() else {
            return Vec::new();
        };
        let now = ctx.clock.cycles(ctx.core);
        // Chains the board tick already completed (their IRQ may still be
        // pending; reaping here first is the polled fast path), plus any
        // whose deadline has passed without a tick.
        let mut ids = ctx.engine.take_finished_sd();
        if let Some(id) = ctx.engine.poll_channel(SD_DMA_CHANNEL, now) {
            ids.push(id);
        }
        self.finish_ids(ids)
    }

    fn wait_some(&mut self) -> FsResult<Vec<SgCompletion>> {
        loop {
            let done = self.poll_completions();
            if !done.is_empty() {
                return Ok(done);
            }
            let deadline = match self.dma.as_mut() {
                Some(ctx) => ctx.engine.busy_until(SD_DMA_CHANNEL),
                None => return Ok(Vec::new()),
            };
            match deadline {
                // Spin-wait on the channel status register: the core's clock
                // jumps to the chain's completion deadline.
                Some(done_at) => {
                    if let Some(ctx) = self.dma.as_mut() {
                        ctx.clock.advance_to(ctx.core, done_at);
                    }
                }
                None => {
                    if self.sd.queue_len() == 0 {
                        return Ok(Vec::new());
                    }
                    // Commands queued but the channel is idle: program it.
                    self.kick();
                    let started = self
                        .dma
                        .as_ref()
                        .is_some_and(|c| c.engine.busy_until(SD_DMA_CHANNEL).is_some());
                    if !started {
                        // The head command cannot start (engine wedged) —
                        // fail loudly rather than spin forever.
                        return Err(FsError::Io("SD queue stalled with idle engine".into()));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdisk_round_trips_blocks() {
        let mut d = MemDisk::new(16);
        let block = [7u8; BLOCK_SIZE];
        d.write_block(3, &block).unwrap();
        let mut back = [0u8; BLOCK_SIZE];
        d.read_block(3, &mut back).unwrap();
        assert_eq!(back, block);
        assert_eq!(d.stats().single_cmds, 2);
    }

    #[test]
    fn memdisk_range_ops_round_trip_and_count_separately() {
        let mut d = MemDisk::new(32);
        let data: Vec<u8> = (0..BLOCK_SIZE * 4).map(|i| (i % 256) as u8).collect();
        d.write_range(8, 4, &data).unwrap();
        let mut back = vec![0u8; BLOCK_SIZE * 4];
        d.read_range(8, 4, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(d.stats().range_cmds, 2);
        assert_eq!(d.stats().blocks, 8);
    }

    #[test]
    fn out_of_range_and_bad_buffers_error() {
        let mut d = MemDisk::new(4);
        let block = [0u8; BLOCK_SIZE];
        assert!(d.write_block(4, &block).is_err());
        assert!(d.write_block(0, &[0u8; 10]).is_err());
        let mut small = [0u8; 10];
        assert!(d.read_block(0, &mut small).is_err());
    }

    #[test]
    fn injected_faults_fail_access() {
        let mut d = MemDisk::new(8);
        d.inject_fault(5);
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(d.read_block(5, &mut buf).is_err());
        assert!(d.read_block(4, &mut buf).is_ok());
    }

    #[test]
    fn power_cut_tears_a_range_write_and_keeps_the_persisted_prefix() {
        let mut d = MemDisk::new(16);
        d.power_cut_after(3);
        let data: Vec<u8> = (0..BLOCK_SIZE * 8).map(|i| (i % 251) as u8).collect();
        // The cut fires after 3 of 8 blocks: the command fails, the prefix
        // persists, the tail never reaches the medium.
        assert!(d.write_range(4, 8, &data).is_err());
        assert_eq!(d.torn_writes(), 1);
        assert!(d.power_lost());
        // Everything (reads included) fails until power returns.
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(d.read_block(4, &mut buf).is_err());
        assert!(d.write_block(0, &data[..BLOCK_SIZE]).is_err());
        d.power_restored();
        d.read_block(4, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..BLOCK_SIZE], "persisted prefix survives");
        d.read_block(7, &mut buf).unwrap();
        assert_eq!(buf, [0u8; BLOCK_SIZE], "blocks past the cut never landed");
    }

    #[test]
    fn power_cut_on_a_block_boundary_is_not_torn() {
        let mut d = MemDisk::new(16);
        d.power_cut_after(4);
        let data = vec![7u8; BLOCK_SIZE * 4];
        d.write_range(0, 4, &data).unwrap();
        // Budget exactly exhausted: the next write fails cleanly, nothing is
        // counted as torn.
        assert!(d.write_block(4, &data[..BLOCK_SIZE]).is_err());
        assert_eq!(d.torn_writes(), 0);
    }

    #[test]
    fn from_image_pads_to_block_multiple() {
        let d = MemDisk::from_image(vec![1u8; 700]);
        assert_eq!(d.num_blocks(), 2);
        assert_eq!(d.image().len(), 1024);
    }

    #[test]
    fn sd_adapter_offsets_by_partition_start() {
        let mut sd = hal::sdhost::SdHost::new(1024);
        sd.init().unwrap();
        {
            let mut dev = SdBlockDevice::new(&mut sd, 100, 200);
            let block = [9u8; BLOCK_SIZE];
            dev.write_block(0, &block).unwrap();
            assert_eq!(dev.num_blocks(), 200);
        }
        let mut raw = [0u8; BLOCK_SIZE];
        sd.read_block(100, &mut raw).unwrap();
        assert_eq!(raw[0], 9);
    }
}
