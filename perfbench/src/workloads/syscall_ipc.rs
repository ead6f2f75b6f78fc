//! `syscall_ipc`: Figure 8's syscall and IPC micro-benchmarks, driven as
//! closed loops. Each round runs, in a seeded order:
//!
//! * a `getpid` loop on the bench task;
//! * a ping-pong of 1- to 64-byte messages between two scheduled tasks over
//!   a pair of pipes, so every round trip blocks the pinger, wakes the
//!   ponger and wakes the pinger again;
//! * a fork + child-exit + wait loop in a scheduled parent with a 4 MB
//!   heap, which fork copies eagerly.
//!
//! Every message is echoed back and checked, and every child's exit code
//! is checked against the one it was given.
//!
//! The system has one active core. With four, each cross-core wakeup waits
//! for the idle core's next timer deadline (its WFI jumps ahead of the
//! waking core), so every round trip and every fork + wait reads one timer
//! period, 40 ms, whatever the pipe and fork code cost.

use kernel::{KernelError, StepResult, TaskId, UserCtx, UserProgram};

use crate::bench::{begin_op, end_op, fail_op, Bench, Class, Op, SetupLog};
use crate::stats::Rng;
use crate::trace;
use crate::workloads::{class_us, Named, Workload};

// Sized so the median operation is a round trip and the 99th percentile a
// fork + wait.
const GETPIDS: usize = 10;
const ROUND_TRIPS: usize = 500;
const FORKS: usize = 10;
const MAX_MESSAGE: usize = 64;
/// Exited tasks leak page frames in this kernel (about five each); the run
/// stops starting rounds before the free frames run out.
const MIN_FREE_FRAMES: usize = 16 * 1024;

fn failed(why: String) -> StepResult {
    fail_op(None, why);
    StepResult::Exited(1)
}

/// Echoes `left` messages from pipe `rx` to pipe `tx`.
struct Pong {
    rx: i32,
    tx: i32,
    left: usize,
}

impl UserProgram for Pong {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        if self.left == 0 {
            return StepResult::Exited(0);
        }
        let core = ctx.core();
        match trace::in_step("kernel.pipe", "read", 0, core, || {
            ctx.read(self.rx, MAX_MESSAGE)
        }) {
            Ok(msg) if !msg.is_empty() => {
                if let Err(e) =
                    trace::in_step("kernel.pipe", "write", 0, core, || ctx.write(self.tx, &msg))
                {
                    return failed(format!("pong write: {e:?}"));
                }
                self.left -= 1;
                StepResult::Continue
            }
            Ok(_) => failed("pong read end of file".into()),
            Err(KernelError::WouldBlock) => StepResult::Continue,
            Err(e) => failed(format!("pong read: {e:?}")),
        }
    }

    fn program_name(&self) -> &str {
        "pong"
    }
}

/// Sends seeded messages through the ponger and checks each echo.
struct Ping {
    payload: Vec<Vec<u8>>,
    sent: usize,
    fds: Option<(i32, i32)>,
    req: Option<u64>,
    waiting: bool,
}

impl UserProgram for Ping {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let core = ctx.core();
        let (rx, tx) = match self.fds {
            Some(fds) => fds,
            None => {
                let pipes = ctx.pipe().and_then(|a| Ok((a, ctx.pipe()?)));
                let ((a_rx, a_tx), (b_rx, b_tx)) = match pipes {
                    Ok(p) => p,
                    Err(e) => return failed(format!("pipe: {e:?}")),
                };
                let pong = Pong {
                    rx: a_rx,
                    tx: b_tx,
                    left: self.payload.len(),
                };
                if let Err(e) = ctx.fork(Box::new(pong)) {
                    return failed(format!("fork pong: {e:?}"));
                }
                // The first round trip starts on the next step, so its time
                // holds no set-up.
                self.fds = Some((b_rx, a_tx));
                return StepResult::Continue;
            }
        };
        if self.waiting {
            return match ctx.wait_child() {
                Ok(Some((_, 0))) => StepResult::Exited(0),
                Ok(Some((pid, code))) => failed(format!("pong {pid} exited with {code}")),
                Ok(None) | Err(KernelError::WouldBlock) => StepResult::Continue,
                Err(e) => failed(format!("wait pong: {e:?}")),
            };
        }
        let msg = &self.payload[self.sent];
        let req = match self.req {
            Some(req) => req,
            None => {
                let req = begin_op(Class::Ipc, core);
                if let Err(e) =
                    trace::in_step("kernel.pipe", "write", req, core, || ctx.write(tx, msg))
                {
                    fail_op(Some(req), format!("ping write: {e:?}"));
                    return StepResult::Exited(1);
                }
                *self.req.insert(req)
            }
        };
        match trace::in_step("kernel.pipe", "read", req, core, || ctx.read(rx, msg.len())) {
            Ok(echo) if echo == *msg => {
                end_op(req, core);
                self.req = None;
                self.sent += 1;
                self.waiting = self.sent == self.payload.len();
                StepResult::Continue
            }
            Ok(echo) => {
                fail_op(Some(req), format!("echo {echo:?} for {msg:?}"));
                StepResult::Exited(1)
            }
            Err(KernelError::WouldBlock) => StepResult::Continue,
            Err(e) => {
                fail_op(Some(req), format!("ping read: {e:?}"));
                StepResult::Exited(1)
            }
        }
    }

    fn program_name(&self) -> &str {
        "ping"
    }
}

struct Child(i32);

impl UserProgram for Child {
    fn step(&mut self, _ctx: &mut UserCtx<'_>) -> StepResult {
        StepResult::Exited(self.0)
    }
}

/// Forks children that exit at once with seeded codes, and waits for each.
struct Forker {
    codes: Vec<i32>,
    done: usize,
    pending: Option<(u64, TaskId)>,
}

impl UserProgram for Forker {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let core = ctx.core();
        if self.done == self.codes.len() {
            return StepResult::Exited(0);
        }
        let code = self.codes[self.done];
        let (req, child) = match self.pending {
            Some(p) => p,
            None => {
                let req = begin_op(Class::Fork, core);
                match trace::in_step("kernel.mm", "fork", req, core, || {
                    ctx.fork(Box::new(Child(code)))
                }) {
                    Ok(child) => *self.pending.insert((req, child)),
                    Err(e) => {
                        fail_op(Some(req), format!("fork: {e:?}"));
                        return StepResult::Exited(1);
                    }
                }
            }
        };
        match trace::in_step("kernel.sched", "wait", req, core, || ctx.wait_child()) {
            Ok(Some((pid, got))) if pid == child && got == code => {
                end_op(req, core);
                self.pending = None;
                self.done += 1;
                StepResult::Continue
            }
            Ok(Some((pid, got))) => {
                fail_op(
                    Some(req),
                    format!("child {pid} exited {got}, expected {child} with {code}"),
                );
                StepResult::Exited(1)
            }
            Ok(None) | Err(KernelError::WouldBlock) => StepResult::Continue,
            Err(e) => {
                fail_op(Some(req), format!("wait: {e:?}"));
                StepResult::Exited(1)
            }
        }
    }

    fn program_name(&self) -> &str {
        "forker"
    }
}

pub struct SyscallIpc {
    bench: Bench,
    rng: Rng,
    heap: i64,
}

impl SyscallIpc {
    fn getpids(&mut self) {
        let tid = self.bench.task;
        for _ in 0..GETPIDS {
            if let Ok(pid) = self.bench.call(Class::Getpid, |ctx| Ok(ctx.getpid())) {
                if pid != tid {
                    self.bench
                        .fail(format!("getpid returned {pid}, expected {tid}"));
                }
            }
        }
    }

    fn ping_pong(&mut self, round: u32) {
        let payload: Vec<Vec<u8>> = (0..ROUND_TRIPS)
            .map(|_| {
                let len = self.rng.range(1, MAX_MESSAGE as u64) as usize;
                (0..len).map(|_| self.rng.next_u64() as u8).collect()
            })
            .collect();
        let ping = Ping {
            payload,
            sent: 0,
            fds: None,
            req: None,
            waiting: false,
        };
        let tid = self.bench.spawn(&format!("ping{round}"), Box::new(ping));
        self.bench.run_to_exit("ping_pong", &[tid], 10_000_000);
    }

    fn forks(&mut self, round: u32) {
        let codes: Vec<i32> = (0..FORKS).map(|_| self.rng.range(1, 120) as i32).collect();
        let forker = Forker {
            codes,
            done: 0,
            pending: None,
        };
        let tid = self
            .bench
            .spawn(&format!("forker{round}"), Box::new(forker));
        // Fork copies the parent's address space eagerly; give the parent
        // a seeded heap so the copy has something to do.
        let heap = self.heap;
        if let Err(e) = self
            .bench
            .sys
            .kernel
            .with_task_ctx(tid, |ctx| ctx.sbrk(heap))
        {
            self.bench.fail(format!("sbrk: {e:?}"));
        }
        self.bench.run_to_exit("fork_wait", &[tid], 10_000_000);
    }

    fn mix(&mut self, round: u32) {
        let mut order = [0, 1, 2];
        self.rng.shuffle(&mut order);
        for step in order {
            match step {
                0 => self.getpids(),
                1 => self.ping_pong(round),
                _ => self.forks(round),
            }
        }
    }
}

impl Workload for SyscallIpc {
    fn setup(seed: u64, log: &mut SetupLog) -> Self {
        let mut bench = Bench::build(false, 1, log);
        bench.sync_clocks();
        let mut rng = Rng::new(seed, 4);
        let heap = rng.range(1008, 1024) as i64 * 4096;
        let mut w = SyscallIpc { bench, rng, heap };
        log.timed("warmup", "one untimed round".into(), 0.0, || {
            w.mix(u32::MAX)
        });
        w.bench.take_ops();
        w
    }

    fn round(&mut self, round: u32) -> (Vec<Op>, f64) {
        self.mix(round);
        let ops = self.bench.take_ops();
        let busy: f64 = ops.iter().map(|o| o.us()).sum();
        (ops, busy / 1e6)
    }

    fn benches(&self) -> Vec<&Bench> {
        vec![&self.bench]
    }

    fn benches_mut(&mut self) -> Vec<&mut Bench> {
        vec![&mut self.bench]
    }

    fn exhausted(&self) -> bool {
        self.bench.kernel().mm.frames.free_frames() < MIN_FREE_FRAMES
    }

    fn named(&self, ops: &[Op], _sim_s: f64, _rounds: u32) -> Vec<Named> {
        vec![
            (
                "getpid_us_p50",
                class_us(ops, Class::Getpid).p50,
                "us",
                Some(3.4),
            ),
            (
                "ipc_us_p50",
                class_us(ops, Class::Ipc).p50,
                "us",
                Some(21.0),
            ),
            ("fork_us_p50", class_us(ops, Class::Fork).p50, "us", None),
        ]
    }
}
