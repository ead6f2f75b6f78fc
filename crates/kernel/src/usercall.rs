//! The user/kernel interface: programs, steps and the syscall surface.
//!
//! Proto exposes 29 UNIX-like syscalls in three groups — task management,
//! file system, and threading/synchronisation (§3) — plus the device and
//! proc files. In the reproduction, applications are Rust types implementing
//! [`UserProgram`]; the scheduler runs them in cooperative *steps* (typically
//! one frame or one unit of work per step), and each step receives a
//! [`UserCtx`] through which every syscall is made. Syscalls charge the
//! platform's syscall-entry cost, may block the calling task (it is then not
//! stepped again until woken), and are gated on the prototype stage exactly
//! as Table 1 prescribes.
//!
//! # The numbered syscalls
//!
//! Numbers follow Table 1's groups; a retired number is never reused. Each
//! trapping stub enters through `Kernel::syscall`, which charges the entry,
//! records `SyscallEnter` and mints the `Entry` its `sys_*` dispatch method
//! takes.
//!
//! | group | number | syscall | [`UserCtx`] stub |
//! |---|---|---|---|
//! | task management & time | 0 | getpid | `getpid` |
//! | | 1 | fork | `fork` |
//! | | 2 | exec | `spawn` (its image's `open`, `read`s and `close` trap too) |
//! | | 3 | exit | none: a step returns [`StepResult::Exited`] |
//! | | 4 | wait | `wait_child` |
//! | | 5 | kill | `kill` |
//! | | 6 | sleep | `sleep_us`, `sleep_ms` |
//! | | 7 | yield | `yield_now` |
//! | | 8 | sbrk | `sbrk` |
//! | | 9 | priority | `set_priority` |
//! | | 10 | uptime | `now_us` (reads the clock, no trap) |
//! | file system | 11 | open | `open` |
//! | | 12 | close | `close` |
//! | | 13 | read | `read`, and `read_key_event` on top of it |
//! | | 14 | write | `write` |
//! | | 15 | lseek | `lseek` |
//! | | 16 | fsync | `fsync` |
//! | | 17 | stat | `stat` |
//! | | 18 | mkdir | `mkdir` |
//! | | 19 | unlink | `unlink` |
//! | | 20 | readdir | `list_dir` |
//! | | 21 | pipe | `pipe` |
//! | | 22 | dup | `dup` |
//! | | 23 | mmap_fb | `fb_map` |
//! | | 24 | fb_flush | `fb_flush` |
//! | threading & synchronisation | 25 | clone | `clone_thread` |
//! | | 26 | sem_create | `sem_create` |
//! | | 27 | sem_wait | `sem_wait` |
//! | | 28 | sem_post | `sem_post` |
//!
//! Three un-numbered calls trap as well: `fb_info` (the framebuffer mailbox
//! query), `surface_create` and `surface_configure` (the window manager's
//! protocol). `fb_write` and `surface_present` do not trap: they copy pixels
//! through the caller's mapping or surface and pay only for the copy.
//!
//! Every stub here has a row in the boundary sweep of
//! `tests/syscall_hardening.rs`, which drives it with integer edges and odd
//! paths on both mounts and fails on any panic. A new stub adds a row there;
//! the sweep's table check fails until it does.

use hal::cost::CostModel;
use protousb::KeyEvent;

use crate::error::KResult;
use crate::kernel::Kernel;
use crate::syscalls::Entry;
use crate::task::TaskId;
use crate::vfs::OpenFlags;
use crate::wm::Rect;

/// What a program step tells the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Keep scheduling the task (it may have put itself to sleep or blocked
    /// inside the step; the kernel tracks that separately).
    Continue,
    /// The task exits with the given code.
    Exited(i32),
}

/// A user program (or kernel thread body).
///
/// Programs are state machines: a step that hits a blocking syscall should
/// remember where it was, return [`StepResult::Continue`] and retry on the
/// next step once the kernel wakes it.
pub trait UserProgram: Send {
    /// Runs one cooperative step of the program.
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult;

    /// A short name for diagnostics.
    fn program_name(&self) -> &str {
        "user"
    }
}

/// File metadata returned by [`UserCtx::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Size in bytes (0 for directories and most device files).
    pub size: u64,
    /// True if the path is a directory.
    pub is_dir: bool,
}

/// Per-frame phase breakdown reported by instrumented apps; this is the data
/// behind the rendering-latency breakdown of Figure 11a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FramePhases {
    /// Cycles spent in application logic (game engine, decoding).
    pub app_logic_cycles: u64,
    /// Cycles spent drawing into the app's buffer (library code).
    pub draw_cycles: u64,
    /// Cycles spent presenting (kernel: framebuffer write / surface submit).
    pub present_cycles: u64,
}

impl FramePhases {
    /// Total cycles in the frame.
    pub fn total(&self) -> u64 {
        self.app_logic_cycles + self.draw_cycles + self.present_cycles
    }
}

/// The syscall interface handed to each program step.
pub struct UserCtx<'a> {
    pub(crate) kernel: &'a mut Kernel,
    pub(crate) task: TaskId,
    pub(crate) core: usize,
}

impl<'a> UserCtx<'a> {
    pub(crate) fn new(kernel: &'a mut Kernel, task: TaskId, core: usize) -> Self {
        UserCtx { kernel, task, core }
    }

    /// Traps into the kernel: `Kernel::syscall` charges the entry and runs
    /// `f` with the `Entry` that a trapping `sys_*` method takes.
    fn trap<R>(&mut self, f: impl FnOnce(&mut Kernel, Entry) -> R) -> R {
        self.kernel.syscall(self.task, self.core, f)
    }

    // ---- identity, time, cost ------------------------------------------------------

    /// The calling task's id (`getpid`).
    pub fn getpid(&mut self) -> TaskId {
        self.trap(|k, e| k.sys_getpid(e))
    }

    /// Current board time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.kernel.now_us()
    }

    /// The platform cost model (apps use it to convert work units to cycles).
    pub fn cost(&self) -> CostModel {
        self.kernel.cost_model()
    }

    /// Charges user-level compute to the calling task.
    pub fn charge_user(&mut self, cycles: u64) {
        self.kernel.charge_user_cycles(self.task, self.core, cycles);
    }

    /// Which core this step is running on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Writes a line to the kernel console (the UART `printf` path).
    pub fn print(&mut self, text: &str) {
        self.kernel.console_print(self.core, text);
    }

    /// Records a trace marker (shows up in `TraceBuffer::dump`).
    pub fn trace_marker(&mut self, detail: &str) {
        self.kernel.trace_marker(self.task, self.core, detail);
    }

    /// Reports a finished frame with its phase breakdown (drives FPS and
    /// latency metrics).
    pub fn record_frame(&mut self, phases: FramePhases) {
        self.kernel.record_frame(self.task, phases);
    }

    // ---- task & time syscalls --------------------------------------------------------

    /// Sleeps for `ms` milliseconds: the task will not be stepped again until
    /// the deadline passes. The conversion saturates, so `sleep_ms(u64::MAX)`
    /// parks forever as `sleep_us(u64::MAX)` does.
    pub fn sleep_ms(&mut self, ms: u64) -> KResult<()> {
        self.trap(|k, e| k.sys_sleep_us(e, ms.saturating_mul(1000)))
    }

    /// Sleeps for `us` microseconds.
    pub fn sleep_us(&mut self, us: u64) -> KResult<()> {
        self.trap(|k, e| k.sys_sleep_us(e, us))
    }

    /// Yields the CPU without sleeping.
    pub fn yield_now(&mut self) -> KResult<()> {
        self.trap(|k, e| k.sys_yield(e))
    }

    /// Grows the heap by `delta` bytes, returning the old break (`sbrk`).
    pub fn sbrk(&mut self, delta: i64) -> KResult<u64> {
        self.trap(|k, e| k.sys_sbrk(e, delta))
    }

    /// Forks the calling process: the child gets a full copy of the address
    /// space (eager, no copy-on-write) and runs `child_program`.
    pub fn fork(&mut self, child_program: Box<dyn UserProgram>) -> KResult<TaskId> {
        self.trap(|k, e| k.sys_fork(e, child_program))
    }

    /// Spawns a program from an executable image on the filesystem
    /// (fork + exec): parses the image, builds the address space, and
    /// instantiates the registered program.
    pub fn spawn(&mut self, path: &str, args: &[String]) -> KResult<TaskId> {
        self.trap(|k, e| k.sys_spawn(e, path, args))
    }

    /// Reaps an exited child. While children exist but none has exited,
    /// the caller parks and gets [`crate::KernelError::WouldBlock`]; with
    /// no children it gets [`crate::KernelError::NotFound`]. A reaped child
    /// always comes back as `Some`: the `Option` stays until the
    /// benchmark's callers stop matching on `None`.
    pub fn wait_child(&mut self) -> KResult<Option<(TaskId, i32)>> {
        self.trap(|k, e| k.sys_wait(e)).map(Some)
    }

    /// Kills another task.
    pub fn kill(&mut self, pid: TaskId) -> KResult<()> {
        self.trap(|k, e| k.sys_kill(e, pid))
    }

    /// Sets the calling task's scheduling priority.
    pub fn set_priority(&mut self, priority: u8) -> KResult<()> {
        self.trap(|k, e| k.sys_set_priority(e, priority))
    }

    // ---- threading & synchronisation ---------------------------------------------------

    /// Creates a thread sharing the caller's address space
    /// (`clone(CLONE_VM)`).
    pub fn clone_thread(&mut self, thread_program: Box<dyn UserProgram>) -> KResult<TaskId> {
        self.trap(|k, e| k.sys_clone_thread(e, thread_program))
    }

    /// Creates a semaphore with an initial value.
    pub fn sem_create(&mut self, value: i64) -> KResult<u64> {
        self.trap(|k, e| k.sys_sem_create(e, value))
    }

    /// Semaphore wait (P). Blocks the task when the count is zero.
    pub fn sem_wait(&mut self, sem: u64) -> KResult<()> {
        self.trap(|k, e| k.sys_sem_wait(e, sem))
    }

    /// Semaphore post (V).
    pub fn sem_post(&mut self, sem: u64) -> KResult<()> {
        self.trap(|k, e| k.sys_sem_post(e, sem))
    }

    // ---- file syscalls ----------------------------------------------------------------------

    /// Opens a path.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> KResult<i32> {
        self.trap(|k, e| k.sys_open(e, path, flags))
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: i32) -> KResult<()> {
        self.trap(|k, e| k.sys_close(e, fd))
    }

    /// Reads up to `max` bytes.
    pub fn read(&mut self, fd: i32, max: usize) -> KResult<Vec<u8>> {
        self.trap(|k, e| k.sys_read(e, fd, max))
    }

    /// Writes bytes, returning how many were accepted.
    pub fn write(&mut self, fd: i32, data: &[u8]) -> KResult<usize> {
        self.trap(|k, e| k.sys_write(e, fd, data))
    }

    /// Repositions the file offset.
    pub fn lseek(&mut self, fd: i32, offset: u64) -> KResult<u64> {
        self.trap(|k, e| k.sys_lseek(e, fd, offset))
    }

    /// Flushes a file's dirty blocks from the write-back buffer cache to the
    /// underlying device (`fsync`).
    pub fn fsync(&mut self, fd: i32) -> KResult<()> {
        self.trap(|k, e| k.sys_fsync(e, fd))
    }

    /// Stats a path.
    pub fn stat(&mut self, path: &str) -> KResult<FileStat> {
        self.trap(|k, e| k.sys_stat(e, path))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> KResult<()> {
        self.trap(|k, e| k.sys_mkdir(e, path))
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> KResult<()> {
        self.trap(|k, e| k.sys_unlink(e, path))
    }

    /// Lists a directory.
    pub fn list_dir(&mut self, path: &str) -> KResult<Vec<String>> {
        self.trap(|k, e| k.sys_list_dir(e, path))
    }

    /// Creates a pipe, returning (read fd, write fd).
    pub fn pipe(&mut self) -> KResult<(i32, i32)> {
        self.trap(|k, e| k.sys_pipe(e))
    }

    /// Duplicates a descriptor.
    pub fn dup(&mut self, fd: i32) -> KResult<i32> {
        self.trap(|k, e| k.sys_dup(e, fd))
    }

    /// Convenience for event descriptors: reads and decodes one key event.
    /// Honours the descriptor's non-blocking flag (`Ok(None)` when empty and
    /// non-blocking).
    pub fn read_key_event(&mut self, fd: i32) -> KResult<Option<KeyEvent>> {
        self.trap(|k, e| k.sys_read_key_event(e, fd))
    }

    // ---- graphics -------------------------------------------------------------------------------

    /// The framebuffer geometry (width, height) in pixels.
    pub fn fb_info(&mut self) -> KResult<(u32, u32)> {
        self.trap(|k, e| k.sys_fb_info(e))
    }

    /// Maps the framebuffer into the caller's address space, returning the
    /// user virtual address of the mapping (identity-mapped when possible).
    pub fn fb_map(&mut self) -> KResult<u64> {
        self.trap(|k, e| k.sys_fb_map(e))
    }

    /// Writes pixels through the framebuffer mapping (direct rendering).
    pub fn fb_write(&mut self, offset_px: usize, pixels: &[u32]) -> KResult<()> {
        self.kernel
            .sys_fb_write(self.task, self.core, offset_px, pixels)
    }

    /// Cleans the CPU cache for the framebuffer (must be called every frame
    /// when rendering directly, §4.3).
    pub fn fb_flush(&mut self) -> KResult<()> {
        self.trap(|k, e| k.sys_fb_flush(e))
    }

    /// Creates a window-manager surface (opens `/dev/surface`), returning its
    /// descriptor.
    pub fn surface_create(&mut self, title: &str) -> KResult<i32> {
        self.trap(|k, e| k.sys_surface_create(e, title))
    }

    /// Configures a surface's geometry and floating flag.
    pub fn surface_configure(&mut self, fd: i32, rect: Rect, floating: bool) -> KResult<()> {
        self.trap(|k, e| k.sys_surface_configure(e, fd, rect, floating))
    }

    /// Submits a full frame of pixels to a surface (indirect rendering).
    pub fn surface_present(&mut self, fd: i32, pixels: &[u32]) -> KResult<()> {
        self.kernel
            .sys_surface_present(self.task, self.core, fd, pixels)
    }
}
