//! `fs_write`: one bench task runs a write mix through syscalls. Each round:
//!
//! 1. creates a FAT32 file several times the cache size on `/d`, writes it
//!    in one call, `fsync`s and closes it;
//! 2. overwrites a burst of small FAT32 files that together fit in the
//!    cache (each overwrite is an intent-log transaction; the log commits
//!    them in groups);
//! 3. creates, writes and closes a burst of small files on the xv6fs root
//!    (journaled metadata);
//!
//! then drops the caches, reads every file back and compares it, and
//! unlinks the new files so the next round starts from the same state.
//! Between steps the scheduler runs briefly, so the `kbio` flusher works as
//! it does on an idle system.

use kernel::vfs::OpenFlags;
use kernel::{KResult, UserCtx};

use crate::bench::{Bench, Class, Op, SetupLog};
use crate::stats::{content, Rng};
use crate::workloads::{class_us, Named, Workload};

const SMALL_FILES: usize = 24;
const XV6_FILES: usize = 32;
/// Board time the scheduler runs between the steps of a round.
const THINK_US: u64 = 2_000;

fn read_all(ctx: &mut UserCtx<'_>, path: &str) -> KResult<Vec<u8>> {
    let fd = ctx.open(path, OpenFlags::rdonly())?;
    let mut out = Vec::new();
    loop {
        let chunk = ctx.read(fd, 256 * 1024)?;
        if chunk.is_empty() {
            break;
        }
        out.extend_from_slice(&chunk);
    }
    ctx.close(fd)?;
    Ok(out)
}

pub struct FsWrite {
    seed: u64,
    bench: Bench,
    seq_size: usize,
    small_sizes: Vec<usize>,
    xv6_sizes: Vec<usize>,
    order: Rng,
}

impl FsWrite {
    fn stream(&self, round: u32, kind: u64, i: usize) -> u64 {
        ((round as u64) << 32) | (kind << 16) | i as u64
    }

    /// Opens `path`, writes `data` in one call, optionally `fsync`s, and
    /// closes it: one `file` operation, timed from the open to the close,
    /// with each syscall also timed under its own class.
    fn write_file(
        &mut self,
        path: &str,
        data: &[u8],
        file: Class,
        [open, write]: [Class; 2],
        fsync: bool,
    ) {
        let flags = OpenFlags::wronly_create();
        let first = self.bench.ops.len();
        self.bench.attempted += 1;
        let Ok(fd) = self.bench.call(open, |ctx| ctx.open(path, flags)) else {
            return;
        };
        if self.bench.call(write, |ctx| ctx.write(fd, data)).is_ok() {
            self.bench.write_bytes += data.len() as u64;
        }
        if fsync {
            let _ = self.bench.call(Class::Fsync, |ctx| ctx.fsync(fd));
        }
        if self.bench.call(Class::Close, |ctx| ctx.close(fd)).is_ok() {
            let op = Op {
                class: file,
                begin_ns: self.bench.ops[first].begin_ns,
                end_ns: self.bench.ops[self.bench.ops.len() - 1].end_ns,
            };
            self.bench.ops.push(op);
        }
    }

    fn think(&mut self) {
        let until = self.bench.kernel().now_us() + THINK_US;
        self.bench
            .run_until("think", |k| k.now_us() >= until, THINK_US);
    }

    fn verify(&mut self, path: &str, stream: u64, size: usize) {
        match self.bench.check_call(|ctx| read_all(ctx, path)) {
            Ok(data) => {
                self.bench.read_bytes += data.len() as u64;
                if data != content(self.seed, stream, 0, size) {
                    self.bench.fail(format!(
                        "{path}: read back {} bytes that differ",
                        data.len()
                    ));
                }
            }
            Err(e) => self.bench.fail(format!("{path}: read back: {e:?}")),
        }
    }

    fn mix(&mut self, round: u32) {
        let seq = content(self.seed, self.stream(round, 1, 0), 0, self.seq_size);
        let classes = [Class::FatCreate, Class::SeqWrite];
        self.write_file("/d/seq.bin", &seq, Class::FatSeqFile, classes, true);
        self.think();

        let mut order: Vec<usize> = (0..SMALL_FILES).collect();
        self.order.shuffle(&mut order);
        for &i in &order {
            let data = content(self.seed, self.stream(round, 2, i), 0, self.small_sizes[i]);
            let classes = [Class::FatOpen, Class::FatOverwrite];
            self.write_file(
                &format!("/d/w/s{i}.bin"),
                &data,
                Class::FatSmallFile,
                classes,
                false,
            );
        }
        self.think();

        for i in 0..XV6_FILES {
            let data = content(self.seed, self.stream(round, 3, i), 0, self.xv6_sizes[i]);
            let classes = [Class::Xv6Create, Class::Xv6Write];
            self.write_file(&format!("/wb/f{i}"), &data, Class::Xv6File, classes, false);
        }
        self.think();

        self.bench.drop_caches();
        self.verify("/d/seq.bin", self.stream(round, 1, 0), self.seq_size);
        for i in 0..SMALL_FILES {
            self.verify(
                &format!("/d/w/s{i}.bin"),
                self.stream(round, 2, i),
                self.small_sizes[i],
            );
        }
        for i in 0..XV6_FILES {
            self.verify(
                &format!("/wb/f{i}"),
                self.stream(round, 3, i),
                self.xv6_sizes[i],
            );
        }

        let _ = self
            .bench
            .call(Class::Unlink, |ctx| ctx.unlink("/d/seq.bin"));
        for i in 0..XV6_FILES {
            let path = format!("/wb/f{i}");
            let _ = self.bench.call(Class::Unlink, |ctx| ctx.unlink(&path));
        }
        self.think();
        // Make the unlinks durable, so every round starts from the same
        // on-card state.
        self.bench.sync_all();
    }
}

impl Workload for FsWrite {
    fn setup(seed: u64, log: &mut SetupLog) -> Self {
        let mut bench = Bench::build(false, 4, log);
        let mut rng = Rng::new(seed, 2);
        // About four times the 512 KB cache, so the write evicts. Sizes
        // vary by a few percent between seeds, so the figures differ
        // between seeds without the spread swamping a real change.
        let seq_size = rng.range(1984, 2048) as usize * 1024;
        let small_sizes: Vec<usize> = (0..SMALL_FILES)
            .map(|_| rng.range(6 * 1024, 8 * 1024) as usize)
            .collect();
        let xv6_sizes: Vec<usize> = (0..XV6_FILES)
            .map(|_| rng.range(2048, 2560) as usize)
            .collect();
        bench.install_fat_dir(log, "/w");
        for (i, &size) in small_sizes.iter().enumerate() {
            let data = content(seed, 0xFFFF_0000 | i as u64, 0, size);
            bench.install_fat(log, &format!("/w/s{i}.bin"), &data);
        }
        bench.install_root_dir(log, "/wb");
        bench.sync_clocks();
        let mut w = FsWrite {
            seed,
            bench,
            seq_size,
            small_sizes,
            xv6_sizes,
            order: Rng::new(seed, 3),
        };
        log.timed("warmup", "one untimed round".into(), 0.0, || {
            w.mix(u32::MAX)
        });
        w.bench.take_ops();
        w
    }

    fn round(&mut self, round: u32) -> (Vec<Op>, f64) {
        self.mix(round);
        let ops = self.bench.take_ops();
        // One closed-loop client: the mix takes the sum of its calls.
        let busy: f64 = ops
            .iter()
            .filter(|o| !o.class.primary())
            .map(|o| o.us())
            .sum();
        (ops, busy / 1e6)
    }

    fn benches(&self) -> Vec<&Bench> {
        vec![&self.bench]
    }

    fn benches_mut(&mut self) -> Vec<&mut Bench> {
        vec![&mut self.bench]
    }

    fn named(&self, ops: &[Op], _sim_s: f64, rounds: u32) -> Vec<Named> {
        let seq = class_us(ops, Class::FatSeqFile);
        // Metadata operations: small-file overwrites and creates, and
        // unlinks, each a logged transaction.
        let meta = [Class::FatSmallFile, Class::Xv6File, Class::Unlink].map(|c| class_us(ops, c));
        let meta_n: usize = meta.iter().map(|c| c.n).sum();
        let meta_us: f64 = meta.iter().map(|c| c.sum).sum();
        let all = crate::stats::sorted(
            ops.iter()
                .filter(|o| !o.class.primary())
                .map(Op::us)
                .collect(),
        );
        vec![
            (
                "write_mb_s",
                self.seq_size as f64 * rounds as f64 / 1e6 / (seq.sum / 1e6),
                "MB/s",
                None,
            ),
            (
                "meta_ops_per_s",
                meta_n as f64 / (meta_us / 1e6),
                "1/s",
                None,
            ),
            (
                "write_op_ms_p99",
                crate::stats::percentile(&all, 99.0) / 1e3,
                "ms",
                None,
            ),
        ]
    }
}
