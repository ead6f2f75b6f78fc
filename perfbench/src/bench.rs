//! One system under test, the scheduler loop, and the operation log.
//!
//! Every timed operation is measured on the calling core's cycle counter.
//! Calls made through [`Bench::call`] run synchronously on a bench task, so
//! their cycles are exact. Operations issued by scheduled programs are
//! marked from inside the step ([`begin_op`]/[`end_op`]); the benchmark runs one
//! scheduler slice at a time and stamps each mark with the core's clock
//! before (begin) or after (end) the slice that made it. A program makes at
//! most one timed call per step, so a one-step operation is timed to the
//! slice, and one that blocks and retries is timed from its first attempt to
//! its completing retry.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

use kernel::{KResult, Kernel, KernelError, ProgramImage, TaskId, UserCtx, UserProgram};
use proto::{ProtoSystem, SystemOptions};

use crate::trace;

/// The kinds of timed operation, with the module whose public call they
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Read,
    FatSeqFile,
    FatSmallFile,
    Xv6File,
    FatCreate,
    SeqWrite,
    Fsync,
    FatOpen,
    FatOverwrite,
    Close,
    Xv6Create,
    Xv6Write,
    Unlink,
    Getpid,
    Ipc,
    Fork,
    DoomFrame,
    WmFrame,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::FatSeqFile => "fat_seq_file",
            Class::FatSmallFile => "fat_small_file",
            Class::Xv6File => "xv6_file",
            Class::FatCreate => "fat_create",
            Class::SeqWrite => "seq_write",
            Class::Fsync => "fsync",
            Class::FatOpen => "fat_open",
            Class::FatOverwrite => "fat_overwrite",
            Class::Close => "close",
            Class::Xv6Create => "xv6_create",
            Class::Xv6Write => "xv6_write",
            Class::Unlink => "unlink",
            Class::Getpid => "getpid",
            Class::Ipc => "ipc_round_trip",
            Class::Fork => "fork_exit_wait",
            Class::DoomFrame => "doom_frame",
            Class::WmFrame => "wm_frame",
        }
    }

    /// Whether the end-to-end figures count this class. The others break a
    /// counted operation down into its syscalls.
    pub fn primary(self) -> bool {
        !matches!(
            self,
            Class::FatCreate
                | Class::SeqWrite
                | Class::Fsync
                | Class::FatOpen
                | Class::FatOverwrite
                | Class::Close
                | Class::Xv6Create
                | Class::Xv6Write
                | Class::Unlink
        )
    }

    /// The span module a call of this class is charged to.
    pub fn module(self) -> &'static str {
        match self {
            Class::Getpid => "kernel.syscalls",
            Class::Ipc => "kernel.pipe",
            Class::Fork => "kernel.mm",
            Class::DoomFrame | Class::WmFrame => "kernel.sched",
            _ => "kernel.vfs",
        }
    }
}

/// One completed operation, in simulated nanoseconds on its core's clock.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub class: Class,
    pub begin_ns: u64,
    pub end_ns: u64,
}

impl Op {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.begin_ns) as f64 / 1e3
    }
}

enum Mark {
    Begin { req: u64, class: Class, core: usize },
    End { req: u64, core: usize },
    Fail { req: Option<u64>, why: String },
}

thread_local! {
    static MARKS: RefCell<Vec<Mark>> = const { RefCell::new(Vec::new()) };
    static NEXT_REQ: Cell<u64> = const { Cell::new(1) };
}

fn next_req() -> u64 {
    NEXT_REQ.with(|n| {
        let r = n.get();
        n.set(r + 1);
        r
    })
}

/// Marks the start of a timed operation made by a program step on `core`.
pub fn begin_op(class: Class, core: usize) -> u64 {
    let req = next_req();
    MARKS.with(|m| m.borrow_mut().push(Mark::Begin { req, class, core }));
    req
}

/// Marks the completion of operation `req`, made by the step on `core`.
pub fn end_op(req: u64, core: usize) {
    MARKS.with(|m| m.borrow_mut().push(Mark::End { req, core }));
}

/// Records a failed operation or a failed output check from inside a step.
pub fn fail_op(req: Option<u64>, why: String) {
    MARKS.with(|m| m.borrow_mut().push(Mark::Fail { req, why }));
}

/// Host time spent in each set-up step of one set-up.
#[derive(Debug, Default, Clone)]
pub struct SetupLog {
    /// `(step, detail, host seconds, MB installed)`.
    pub rows: Vec<(&'static str, String, f64, f64)>,
}

impl SetupLog {
    pub fn total(&self, step: &str) -> (f64, f64) {
        self.rows
            .iter()
            .filter(|r| r.0 == step)
            .fold((0.0, 0.0), |a, r| (a.0 + r.2, a.1 + r.3))
    }

    pub fn timed<R>(
        &mut self,
        step: &'static str,
        detail: String,
        mb: f64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = trace::begin("setup", step, 0, None, None);
        let t = Instant::now();
        let r = f();
        self.rows
            .push((step, detail, t.elapsed().as_secs_f64(), mb));
        trace::end(span, None);
        r
    }
}

pub struct Bench {
    pub sys: ProtoSystem,
    /// The bench task.
    pub task: TaskId,
    open: HashMap<u64, (Class, u64)>,
    /// Operations completed since the last [`Bench::take_ops`].
    pub ops: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Bytes returned by and passed to file `read`/`write` calls, for the
    /// amplification ratios.
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// SD cycles charged to programs that have exited.
    exited_sd_cycles: u64,
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

impl Bench {
    /// Builds and boots a Prototype 5 system on the Pi 3 model with the
    /// small default asset set (workloads install their own seeded inputs),
    /// and spawns the bench task: the benchmark's own process, which issues
    /// the synchronous calls and is the parent of every program it starts.
    pub fn build(window_manager: bool, cores: usize, log: &mut SetupLog) -> Bench {
        let mut options = SystemOptions::benchmark(hal::cost::Platform::Pi3);
        options.small_assets = true;
        options.window_manager = window_manager;
        options.cores = cores;
        let mut sys = log.timed("build", "ProtoSystem::build".into(), 0.0, || {
            ProtoSystem::build(options).expect("system builds and boots")
        });
        let task = sys
            .kernel
            .spawn_bench_task("perfbench")
            .expect("bench task");
        Bench {
            sys,
            task,
            open: HashMap::new(),
            ops: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            read_bytes: 0,
            write_bytes: 0,
            exited_sd_cycles: 0,
        }
    }

    /// Advances every core's clock to the furthest-ahead one. Installing
    /// charges one core for seconds of board time; without this barrier the
    /// other cores' tasks would run in the device's past, and a sleeper
    /// queued on the far-ahead core would not run until the rest caught up.
    pub fn sync_clocks(&mut self) {
        self.sys.kernel.sync_core_clocks();
    }

    pub fn kernel(&self) -> &Kernel {
        &self.sys.kernel
    }

    pub fn install_fat(&mut self, log: &mut SetupLog, path: &str, data: &[u8]) {
        let k = &mut self.sys.kernel;
        log.timed("install_fat_file", path.into(), mb(data.len()), || {
            k.install_fat_file(path, data).expect("install FAT file")
        });
    }

    pub fn install_fat_dir(&mut self, log: &mut SetupLog, path: &str) {
        let k = &mut self.sys.kernel;
        log.timed("install_fat_dir", path.into(), 0.0, || {
            k.install_fat_dir(path).expect("install FAT dir")
        });
    }

    pub fn install_root(&mut self, log: &mut SetupLog, path: &str, data: &[u8]) {
        let k = &mut self.sys.kernel;
        log.timed("install_root_file", path.into(), mb(data.len()), || {
            k.install_root_file(path, data).expect("install root file")
        });
    }

    pub fn install_root_dir(&mut self, log: &mut SetupLog, path: &str) {
        let k = &mut self.sys.kernel;
        log.timed("install_root_dir", path.into(), 0.0, || {
            k.install_root_dir(path).expect("install root dir")
        });
    }

    pub fn spawn(&mut self, name: &str, program: Box<dyn UserProgram>) -> TaskId {
        let image = ProgramImage::small(name);
        self.sys
            .kernel
            .spawn_user_program(&image, program, self.task)
            .expect("spawn benchmark program")
    }

    /// Storage-stack cycles charged to the benchmark's own tasks.
    pub fn task_sd_cycles(&self) -> u64 {
        self.exited_sd_cycles + self.kernel().task_sd_cycles(self.task)
    }

    fn clocks(&self) -> [u64; hal::NUM_CORES] {
        let clock = &self.sys.kernel.board.clock;
        std::array::from_fn(|c| clock.cycles(c))
    }

    fn ns(&self, cycles: u64) -> u64 {
        self.sys.kernel.board.clock.cycles_to_ns(cycles)
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Runs scheduler slices until `done` holds or `max_us` of board time
    /// passes, stamping the operations the stepped programs mark. `done`
    /// sees the kernel before every slice. Returns whether `done` held.
    pub fn run_until(
        &mut self,
        label: &'static str,
        mut done: impl FnMut(&Kernel) -> bool,
        max_us: u64,
    ) -> bool {
        let span = trace::begin(
            "kernel.sched",
            label,
            0,
            None,
            Some(self.kernel().board.clock.global_cycles()),
        );
        let deadline = self.kernel().now_us() + max_us;
        let finished = loop {
            if done(&self.sys.kernel) {
                break true;
            }
            if self.kernel().now_us() >= deadline {
                break false;
            }
            self.slice();
        };
        trace::end(span, Some(self.kernel().board.clock.global_cycles()));
        finished
    }

    /// Runs until every task in `tids` has exited, checks each exit code
    /// and reaps them. A task still running at the deadline is a failure.
    pub fn run_to_exit(&mut self, label: &'static str, tids: &[TaskId], max_us: u64) {
        let ids = tids.to_vec();
        let exited = |k: &Kernel| ids.iter().all(|t| k.task(*t).is_none_or(|t| t.is_zombie()));
        if !self.run_until(label, exited, max_us) {
            self.fail(format!(
                "{label}: tasks {tids:?} still running after {max_us} us"
            ));
        }
        for &t in tids {
            self.exited_sd_cycles += self.kernel().task_sd_cycles(t);
            let code = self.kernel().task(t).and_then(|t| t.exit_code);
            if code.is_some_and(|c| c != 0) {
                self.fail(format!("{label}: task {t} exited with {code:?}"));
            }
        }
        let task = self.task;
        let zombies = tids
            .iter()
            .filter(|&&t| self.kernel().task(t).is_some_and(|t| t.is_zombie()))
            .count();
        for _ in 0..zombies {
            if let Err(e) = self.sys.kernel.with_task_ctx(task, |ctx| ctx.wait_child()) {
                self.fail(format!("{label}: reaping: {e:?}"));
            }
        }
    }

    /// Runs one scheduler slice and stamps what the stepped program marked.
    fn slice(&mut self) {
        let before = self.clocks();
        self.sys.kernel.run_slice();
        let after = self.clocks();
        trace::stamp_slice(&before, &after);
        self.collect(&before, &after);
    }

    fn collect(&mut self, before: &[u64], after: &[u64]) {
        let marks = MARKS.with(|m| std::mem::take(&mut *m.borrow_mut()));
        for mark in marks {
            match mark {
                Mark::Begin { req, class, core } => {
                    self.attempted += 1;
                    self.open.insert(req, (class, before[core]));
                }
                Mark::End { req, core } => {
                    if let Some((class, begin)) = self.open.remove(&req) {
                        let op = Op {
                            class,
                            begin_ns: self.ns(begin),
                            end_ns: self.ns(after[core]),
                        };
                        self.ops.push(op);
                    }
                }
                Mark::Fail { req, why } => {
                    if let Some(r) = req {
                        self.open.remove(&r);
                    }
                    self.fail(why);
                }
            }
        }
    }

    /// Issues one timed syscall sequence from the bench task, synchronously
    /// on its core. A `WouldBlock` is retried after a scheduler slice.
    pub fn call<R>(
        &mut self,
        class: Class,
        mut f: impl FnMut(&mut UserCtx<'_>) -> KResult<R>,
    ) -> KResult<R> {
        self.attempted += 1;
        let tid = self.task;
        let core = self.kernel().task(tid).map_or(0, |t| t.core);
        let begin = self.kernel().board.clock.cycles(core);
        let span = trace::begin(class.module(), class.name(), 0, None, Some(begin));
        let result = loop {
            match self.sys.kernel.with_task_ctx(tid, &mut f) {
                Err(KernelError::WouldBlock) => self.slice(),
                r => break r,
            }
        };
        let end = self.kernel().board.clock.cycles(core);
        trace::end(span, Some(end));
        match &result {
            Ok(_) => {
                let op = Op {
                    class,
                    begin_ns: self.ns(begin),
                    end_ns: self.ns(end),
                };
                self.ops.push(op);
            }
            Err(e) => self.fail(format!("{}: {e:?}", class.name())),
        }
        result
    }

    /// An untimed check-side syscall sequence from the bench task.
    pub fn check_call<R>(&mut self, f: impl FnOnce(&mut UserCtx<'_>) -> KResult<R>) -> KResult<R> {
        let span = trace::begin("kernel.vfs", "check", 0, None, None);
        let r = self.sys.kernel.with_task_ctx(self.task, f);
        trace::end(span, None);
        r
    }

    /// `drop_fs_caches`: drains both write-back caches and drops every
    /// clean block, so the next read starts cold.
    pub fn drop_caches(&mut self) {
        let span = trace::begin("fs.bufcache", "drop_fs_caches", 0, None, None);
        if let Err(e) = self.sys.kernel.drop_fs_caches() {
            self.fail(format!("drop_fs_caches: {e:?}"));
        }
        trace::end(span, None);
    }

    pub fn sync_all(&mut self) {
        let span = trace::begin("fs.bufcache", "sync_all", 0, None, None);
        if let Err(e) = self.sys.kernel.sync_all() {
            self.fail(format!("sync_all: {e:?}"));
        }
        trace::end(span, None);
    }

    pub fn take_ops(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.ops)
    }
}
