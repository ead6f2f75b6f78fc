//! `stream_read`: four scheduled readers, one per modelled core, each
//! streaming its own 4 MB FAT32 file cold from the SD card in 256 KB
//! `read()` calls (DOOM's asset-loader size); the files are eight times the
//! 512 KB cache. The caches
//! are dropped before every pass. Four streams thrash the cache, and how
//! often a read finds its blocks prefetched depends on exactly how the
//! streams interleave, so one pass is a poor sample: each pass hands the
//! files to the readers in a seeded order and has each reader stop a
//! seeded number of clusters short of the end, and a round averages
//! `PASSES_PER_ROUND` such passes.
//!
//! With 128 KB reads about half the reads are cache hits and half wait for
//! the card, so the median read sits on the edge between the two and moved
//! by 10-25% between seeds; every 256 KB read waits for the card.

use kernel::vfs::OpenFlags;
use kernel::{KernelError, StepResult, TaskId, UserCtx, UserProgram};

use crate::bench::{begin_op, end_op, fail_op, Bench, Class, Op, SetupLog};
use crate::stats::{content, Rng};
use crate::trace;
use crate::workloads::{class_us, Named, Workload};

const READERS: usize = 4;
const CHUNK: usize = 256 * 1024;
const FILE_BYTES: usize = 4 * 1024 * 1024;
const CLUSTER: usize = 4096;
/// A reader stops up to this many clusters short of the end of its file.
const MAX_TRIM_CLUSTERS: u64 = 32;
const PASSES_PER_ROUND: usize = 12;

struct Reader {
    seed: u64,
    stream: u64,
    path: String,
    /// Bytes to read: the whole file or a prefix of it.
    len: usize,
    fd: Option<i32>,
    off: usize,
    req: Option<u64>,
}

impl Reader {
    fn fail(&self, req: Option<u64>, why: String) -> StepResult {
        fail_op(req, format!("{}: {why}", self.path));
        StepResult::Exited(1)
    }
}

impl UserProgram for Reader {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let core = ctx.core();
        let fd = match self.fd {
            Some(fd) => fd,
            None => match trace::in_step("kernel.vfs", "open", 0, core, || {
                ctx.open(&self.path, OpenFlags::rdonly())
            }) {
                Ok(fd) => *self.fd.insert(fd),
                Err(KernelError::WouldBlock) => return StepResult::Continue,
                Err(e) => return self.fail(None, format!("open: {e:?}")),
            },
        };
        if self.off == self.len {
            // At the end of the file the next read must return nothing.
            if self.len == FILE_BYTES {
                match ctx.read(fd, CHUNK) {
                    Ok(rest) if rest.is_empty() => {}
                    Ok(rest) => return self.fail(None, format!("{} bytes past EOF", rest.len())),
                    Err(KernelError::WouldBlock) => return StepResult::Continue,
                    Err(e) => return self.fail(None, format!("EOF read: {e:?}")),
                }
            }
            return match ctx.close(fd) {
                Ok(()) => StepResult::Exited(0),
                Err(e) => self.fail(None, format!("close: {e:?}")),
            };
        }
        let want = CHUNK.min(self.len - self.off);
        let req = *self.req.get_or_insert_with(|| begin_op(Class::Read, core));
        match trace::in_step("kernel.vfs", "read", req, core, || ctx.read(fd, want)) {
            Ok(chunk) => {
                self.req = None;
                if chunk != content(self.seed, self.stream, self.off, want) {
                    return self.fail(Some(req), format!("wrong bytes at offset {}", self.off));
                }
                end_op(req, core);
                self.off += want;
                StepResult::Continue
            }
            // Parked on (or spun for) an in-flight chain: retried next step,
            // still timed from the first attempt.
            Err(KernelError::WouldBlock) => StepResult::Continue,
            Err(e) => self.fail(Some(req), format!("read: {e:?}")),
        }
    }

    fn program_name(&self) -> &str {
        "streamread"
    }
}

pub struct StreamRead {
    seed: u64,
    bench: Bench,
    rng: Rng,
    /// Bytes read in each round.
    round_bytes: Vec<u64>,
}

impl StreamRead {
    /// One pass; returns the bytes it read.
    fn pass(&mut self, round: u32) -> u64 {
        self.bench.drop_caches();
        self.bench.sync_clocks();
        let mut files: Vec<usize> = (0..READERS).collect();
        self.rng.shuffle(&mut files);
        let mut bytes = 0;
        let mut tids: Vec<TaskId> = Vec::new();
        for i in files {
            let len = FILE_BYTES - CLUSTER * self.rng.range(0, MAX_TRIM_CLUSTERS) as usize;
            bytes += len as u64;
            let reader = Reader {
                seed: self.seed,
                stream: i as u64,
                path: format!("/d/stream{i}.bin"),
                len,
                fd: None,
                off: 0,
                req: None,
            };
            tids.push(
                self.bench
                    .spawn(&format!("streamread{round}.{i}"), Box::new(reader)),
            );
        }
        self.bench.run_to_exit("stream_pass", &tids, 120_000_000);
        self.bench.read_bytes += bytes;
        bytes
    }
}

impl Workload for StreamRead {
    fn setup(seed: u64, log: &mut SetupLog) -> Self {
        let mut bench = Bench::build(false, 4, log);
        for i in 0..READERS {
            let data = content(seed, i as u64, 0, FILE_BYTES);
            bench.install_fat(log, &format!("/stream{i}.bin"), &data);
        }
        let mut w = StreamRead {
            seed,
            bench,
            rng: Rng::new(seed, 1),
            round_bytes: Vec::new(),
        };
        log.timed("warmup", "one untimed pass".into(), 0.0, || {
            w.pass(u32::MAX)
        });
        w.bench.take_ops();
        w
    }

    fn round(&mut self, round: u32) -> (Vec<Op>, f64) {
        let mut ops = Vec::new();
        let mut secs = 0.0;
        let mut bytes = 0;
        for _ in 0..PASSES_PER_ROUND {
            bytes += self.pass(round);
            let pass = self.bench.take_ops();
            // Four concurrent clients: a pass takes from the first read's
            // start to the last read's end.
            let begin = pass.iter().map(|o| o.begin_ns).min().unwrap_or(0);
            let end = pass.iter().map(|o| o.end_ns).max().unwrap_or(0);
            secs += (end - begin) as f64 / 1e9;
            ops.extend(pass);
        }
        self.round_bytes.push(bytes);
        (ops, secs)
    }

    fn benches(&self) -> Vec<&Bench> {
        vec![&self.bench]
    }

    fn benches_mut(&mut self) -> Vec<&mut Bench> {
        vec![&mut self.bench]
    }

    fn named(&self, ops: &[Op], sim_s: f64, rounds: u32) -> Vec<Named> {
        let reads = class_us(ops, Class::Read);
        let bytes: u64 = self.round_bytes.iter().take(rounds as usize).sum();
        vec![
            ("read_mb_s", bytes as f64 / 1e6 / sim_s, "MB/s", None),
            ("read_ms_p50", reads.p50 / 1e3, "ms", None),
            ("read_ms_p99", reads.p99 / 1e3, "ms", None),
        ]
    }
}
