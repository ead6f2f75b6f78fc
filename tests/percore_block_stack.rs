//! Tier-1 tests for the per-core block stack: demand readers that park on
//! the completion interrupt instead of spin-reaping the device, wakeups
//! routed per completed chain, and failed/torn chains that surface as
//! retryable errors rather than deadlocks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kernel::kernel::FAT_PARTITION_START;
use kernel::trace::TraceKind;
use kernel::vfs::OpenFlags;
use kernel::{KernelError, StepResult, TaskId, UserCtx, UserProgram};
use proto_repro::prelude::*;

const STREAMS: usize = 4;
const FILE_BYTES: usize = 256 * 1024;
const CHUNK: usize = 64 * 1024;

/// Byte `off` of stream `stream`'s file. The block number is mixed in, so
/// a block read from the wrong place never matches.
fn pattern(stream: usize, off: usize) -> u8 {
    let block = (off / 512) as u32;
    (block.wrapping_mul(0x9E37_79B9) >> 24) as u8 ^ (off + stream) as u8
}

/// A scheduled reader that streams `/r{i}.bin` once in `chunk`-byte reads
/// and verifies every byte against the installed [`pattern`].
/// `KernelError::WouldBlock` means the task parked on an in-flight chain
/// (or spun for it) and retries; any other error is fatal unless
/// `retry_errors` is set, in which case it is counted and the read retried
/// (the torn-chain tests drive this path).
struct VerifyingReader {
    path: String,
    stream: usize,
    /// The file's length, and the bytes asked for per `read()`.
    len: usize,
    chunk: usize,
    offset: usize,
    fd: Option<i32>,
    retry_errors: bool,
    io_errors: Arc<AtomicU64>,
}

impl VerifyingReader {
    fn new(stream: usize, retry_errors: bool, io_errors: Arc<AtomicU64>) -> Self {
        VerifyingReader {
            path: format!("/d/r{stream}.bin"),
            stream,
            len: FILE_BYTES,
            chunk: CHUNK,
            offset: 0,
            fd: None,
            retry_errors,
            io_errors,
        }
    }
}

impl UserProgram for VerifyingReader {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let fd = match self.fd {
            Some(fd) => fd,
            None => match ctx.open(&self.path, OpenFlags::rdonly()) {
                Ok(fd) => {
                    self.fd = Some(fd);
                    fd
                }
                Err(KernelError::WouldBlock) => return StepResult::Continue,
                Err(_) if self.retry_errors => {
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    return StepResult::Continue;
                }
                Err(_) => return StepResult::Exited(1),
            },
        };
        match ctx.read(fd, self.chunk) {
            Ok(chunk) if chunk.is_empty() => {
                let _ = ctx.close(fd);
                if self.offset == self.len {
                    StepResult::Exited(0)
                } else {
                    StepResult::Exited(2)
                }
            }
            Ok(chunk) => {
                for (k, &byte) in chunk.iter().enumerate() {
                    if byte != pattern(self.stream, self.offset + k) {
                        return StepResult::Exited(3);
                    }
                }
                self.offset += chunk.len();
                StepResult::Continue
            }
            Err(KernelError::WouldBlock) => StepResult::Continue,
            Err(_) if self.retry_errors => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                StepResult::Continue
            }
            Err(_) => StepResult::Exited(1),
        }
    }

    fn program_name(&self) -> &str {
        "verifyread"
    }
}

/// A 4-core benchmark system with the blocking block stack on, `STREAMS`
/// patterned files installed, caches dropped and every core's clock synced
/// to the device timeline (asset installation runs on one core; without the
/// barrier the other cores would submit chains into the device's past).
fn blocking_system() -> ProtoSystem {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    options.cores = 4;
    let mut sys = ProtoSystem::build(options).unwrap();
    sys.kernel.set_fat_cache_geometry(16, 128).unwrap();
    sys.kernel.set_blocking_io(true);
    for i in 0..STREAMS {
        let data: Vec<u8> = (0..FILE_BYTES).map(|b| pattern(i, b)).collect();
        sys.kernel
            .install_fat_file(&format!("/r{i}.bin"), &data)
            .unwrap();
    }
    sys.kernel.drop_fs_caches().unwrap();
    sys.kernel.sync_core_clocks();
    sys
}

fn spawn_readers(sys: &mut ProtoSystem, retry_errors: bool, errs: &Arc<AtomicU64>) -> Vec<TaskId> {
    (0..STREAMS)
        .map(|i| {
            let image = kernel::ProgramImage::small(&format!("verifyread{i}"));
            let reader = VerifyingReader::new(i, retry_errors, Arc::clone(errs));
            sys.kernel
                .spawn_user_program(&image, Box::new(reader), 0)
                .unwrap()
        })
        .collect()
}

fn all_exited(sys: &ProtoSystem, tids: &[TaskId]) -> bool {
    tids.iter()
        .all(|t| sys.kernel.task(*t).map(|t| t.is_zombie()).unwrap_or(true))
}

fn assert_clean_exits(sys: &ProtoSystem, tids: &[TaskId]) {
    for &tid in tids {
        let code = sys.kernel.task(tid).and_then(|t| t.exit_code);
        assert_eq!(code, Some(0), "reader {tid} exited {code:?}, wanted 0");
    }
}

#[test]
fn blocked_demand_readers_are_woken_by_chain_completions() {
    let mut sys = blocking_system();
    sys.kernel.trace.clear();
    let errs = Arc::new(AtomicU64::new(0));
    let before = sys.kernel.fat_cache_stats();
    let tids = spawn_readers(&mut sys, false, &errs);
    let finished = {
        let ids = tids.clone();
        sys.kernel.run_until(
            move |k| {
                ids.iter()
                    .all(|t| k.task(*t).map(|t| t.is_zombie()).unwrap_or(true))
            },
            60_000_000,
        )
    };
    assert!(finished, "cold readers did not finish");
    assert_clean_exits(&sys, &tids);
    let stats = sys.kernel.fat_cache_stats();
    assert!(
        stats.demand_blocks > before.demand_blocks,
        "concurrent cold streams must park on in-flight chains"
    );
    assert_eq!(
        stats.demand_spin_reaps, before.demand_spin_reaps,
        "a parked reader never reaps completions on its own clock"
    );
    // Every park was followed by a completion-routed wakeup — the readers
    // could not have exited otherwise — and those wakeups are visible in
    // the trace.
    let wakeups = sys.kernel.trace.of_kind(TraceKind::Wakeup);
    assert!(
        !wakeups.is_empty(),
        "chain completions wake parked readers through the trace-visible path"
    );
}

#[test]
fn faulted_chains_surface_as_retries_not_deadlocks() {
    let mut sys = blocking_system();
    // Fault the whole FAT partition: every demand chain the readers submit
    // fails at service time. Parked readers must still be woken (a failed
    // chain is a completion too), see the error, and retry — not deadlock.
    let total = sys.kernel.board.sdhost.total_blocks();
    for lba in FAT_PARTITION_START..total {
        sys.kernel.board.sdhost.inject_fault(lba);
    }
    let errs = Arc::new(AtomicU64::new(0));
    let tids = spawn_readers(&mut sys, true, &errs);
    sys.run_ms(50);
    assert!(
        errs.load(Ordering::Relaxed) > 0,
        "the faulted card surfaced I/O errors to the readers"
    );
    assert!(
        !all_exited(&sys, &tids),
        "readers keep retrying while the card faults"
    );
    // The card recovers: the same readers run to a verified clean exit.
    sys.kernel.board.sdhost.clear_faults();
    let finished = {
        let ids = tids.clone();
        sys.kernel.run_until(
            move |k| {
                ids.iter()
                    .all(|t| k.task(*t).map(|t| t.is_zombie()).unwrap_or(true))
            },
            60_000_000,
        )
    };
    assert!(finished, "readers finished once the faults cleared");
    assert_clean_exits(&sys, &tids);
}

#[test]
fn four_cores_four_streams_wait_on_chains_without_spinning() {
    let mut sys = blocking_system();
    let errs = Arc::new(AtomicU64::new(0));
    let before = sys.kernel.fat_cache_stats();
    let tids = spawn_readers(&mut sys, false, &errs);
    let finished = {
        let ids = tids.clone();
        sys.kernel.run_until(
            move |k| {
                ids.iter()
                    .all(|t| k.task(*t).map(|t| t.is_zombie()).unwrap_or(true))
            },
            60_000_000,
        )
    };
    assert!(finished, "cold readers did not finish");
    assert_clean_exits(&sys, &tids);
    let stats = sys.kernel.fat_cache_stats();
    assert!(
        stats.demand_waits > before.demand_waits,
        "demand reads found their blocks pinned under in-flight chains"
    );
    assert_eq!(
        stats.demand_spin_reaps, before.demand_spin_reaps,
        "the four-stream cold run never spin-reaped a completion"
    );
}

/// Use-once eviction through real syscalls, as the `stream_read` benchmark
/// drives it: four scheduled readers on four cores each stream their own
/// 4 MB file in 256 KB `read()`s through the default 512 KB FAT cache. A
/// stream's read-ahead is read before the other streams' reads evict it,
/// so the card moves barely more blocks than the readers receive. An LRU
/// whose copy-out keeps consumed extents young evicts the unread read-ahead
/// first instead, and the card moves about 1.25 blocks per block read.
#[test]
fn concurrent_streams_read_their_read_ahead_before_it_is_evicted() {
    const LEN: usize = 4 * 1024 * 1024;
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    options.cores = 4;
    let mut sys = ProtoSystem::build(options).unwrap();
    for i in 0..STREAMS {
        let data: Vec<u8> = (0..LEN).map(|b| pattern(i, b)).collect();
        sys.kernel
            .install_fat_file(&format!("/s{i}.bin"), &data)
            .unwrap();
    }
    sys.kernel.drop_fs_caches().unwrap();
    sys.kernel.sync_core_clocks();
    let before = sys.kernel.board.sdhost.blocks_transferred();
    let errs = Arc::new(AtomicU64::new(0));
    let tids: Vec<TaskId> = (0..STREAMS)
        .map(|i| {
            let image = kernel::ProgramImage::small(&format!("streamread{i}"));
            let reader = VerifyingReader {
                path: format!("/d/s{i}.bin"),
                len: LEN,
                chunk: 256 * 1024,
                ..VerifyingReader::new(i, false, Arc::clone(&errs))
            };
            sys.kernel
                .spawn_user_program(&image, Box::new(reader), 0)
                .unwrap()
        })
        .collect();
    let finished = {
        let ids = tids.clone();
        sys.kernel.run_until(
            move |k| {
                ids.iter()
                    .all(|t| k.task(*t).map(|t| t.is_zombie()).unwrap_or(true))
            },
            60_000_000,
        )
    };
    assert!(finished, "the readers did not finish");
    assert_clean_exits(&sys, &tids);
    let moved = sys.kernel.board.sdhost.blocks_transferred() - before;
    let returned = (STREAMS * LEN / 512) as u64;
    assert!(
        moved as f64 <= 1.05 * returned as f64,
        "the card moved {moved} blocks for {returned} returned ({:.3}x)",
        moved as f64 / returned as f64
    );
}
