//! The kernel side of the syscall surface: the syscall table ([`Sysno`])
//! and the `sys_*` functions behind [`crate::usercall::UserCtx`]'s stubs.
//!
//! Every trapping entry point takes an `Entry`, which only `Kernel::syscall`
//! mints, after charging the platform's syscall entry cost and checking the
//! call's stage gate (Table 1). Each then performs the operation and — when
//! the operation cannot complete — parks the calling task on the right wait
//! queue and returns [`KernelError::WouldBlock`]. Device I/O charges
//! additional cycles derived from the device statistics so that the
//! microbenchmarks (Figure 8/9) and the app benchmarks (Table 5) come out of
//! the same accounting.

use hal::framebuffer::BYTES_PER_PIXEL;
use hal::sdhost::SdDataMode;
use protofs::{FsError, FsResult};

use crate::config::{Feature, KernelConfig};
use crate::error::{KResult, KernelError};
use crate::exec::ProgramImage;
use crate::kernel::Kernel;
use crate::mm::addrspace::RegionKind;
use crate::mm::pagetable::MapFlags;
use crate::sync::SemWaitResult;
use crate::task::{MmRef, Task, TaskId, TaskState, WaitChannel};
use crate::trace::TraceKind;
use crate::usercall::{FileStat, UserProgram};
use crate::vfs::{DeviceFile, FileKind, Mount, MountTarget, OpenFile, OpenFlags, VolumeIo};
use crate::wm::Rect;

pub(crate) use entry::Entry;

/// Declares [`Sysno`] from its rows: each call's number and, for a call a
/// prototype stage gates, the [`Feature`] it needs and the name its error
/// reports.
macro_rules! syscalls {
    ($($(#[$doc:meta])* $call:ident = $no:literal $(needs $feature:ident $what:literal)?,)*) => {
        /// A syscall's number. Numbers follow Table 1's groups, and a retired
        /// number is never reused.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Sysno {
            $($(#[$doc])* $call = $no,)*
        }

        impl Sysno {
            /// Every syscall, in number order.
            pub const ALL: &'static [Sysno] = &[$(Sysno::$call),*];

            /// The call's stage gate: fails with
            /// [`KernelError::NotSupported`] when `config`'s prototype does
            /// not have the call yet.
            pub(crate) fn gate(self, config: &KernelConfig) -> KResult<()> {
                match self {
                    $(Sysno::$call => syscalls!(@gate config $($feature $what)?),)*
                }
            }
        }
    };
    (@gate $config:ident) => {
        Ok(())
    };
    (@gate $config:ident $feature:ident $what:literal) => {
        $config.require($config.has(Feature::$feature), $what)
    };
}

syscalls! {
    /// `UserCtx::getpid`.
    Getpid = 0,
    /// `UserCtx::fork`.
    Fork = 1 needs SyscallsTasks "fork",
    /// `UserCtx::spawn`; the image's open, reads and close trap too.
    Exec = 2 needs SyscallsFiles "exec from a file",
    /// No stub traps with it: a step returns `StepResult::Exited`.
    Exit = 3,
    /// `UserCtx::wait_child`.
    Wait = 4,
    /// `UserCtx::kill`.
    Kill = 5,
    /// `UserCtx::sleep_us` and `UserCtx::sleep_ms`.
    Sleep = 6,
    /// `UserCtx::yield_now`.
    Yield = 7,
    /// `UserCtx::sbrk`.
    Sbrk = 8 needs VirtualMemory "sbrk",
    /// `UserCtx::set_priority`.
    Priority = 9,
    /// No stub traps with it: `UserCtx::now_us` reads the clock.
    Uptime = 10,
    /// `UserCtx::open`.
    Open = 11 needs SyscallsFiles "file syscalls",
    /// `UserCtx::close`.
    Close = 12,
    /// `UserCtx::read`, and `UserCtx::read_key_event` on top of it.
    Read = 13,
    /// `UserCtx::write`.
    Write = 14,
    /// `UserCtx::lseek`.
    Lseek = 15,
    /// `UserCtx::fsync`.
    Fsync = 16,
    /// `UserCtx::stat`.
    Stat = 17 needs SyscallsFiles "stat",
    /// `UserCtx::mkdir`.
    Mkdir = 18 needs SyscallsFiles "mkdir",
    /// `UserCtx::unlink`.
    Unlink = 19 needs SyscallsFiles "unlink",
    /// `UserCtx::list_dir`.
    Readdir = 20 needs SyscallsFiles "readdir",
    /// `UserCtx::pipe`.
    Pipe = 21 needs SyscallsFiles "pipes",
    /// `UserCtx::dup`.
    Dup = 22,
    /// `UserCtx::fb_map`. `UserCtx::fb_write` stores through the mapping
    /// without a trap.
    MmapFb = 23 needs Framebuffer "framebuffer",
    /// `UserCtx::fb_flush`.
    FbFlush = 24 needs Framebuffer "framebuffer",
    /// `UserCtx::clone_thread`.
    Clone = 25 needs SyscallsThreading "clone(CLONE_VM)",
    /// `UserCtx::sem_create`.
    SemCreate = 26 needs SyscallsThreading "semaphores",
    /// `UserCtx::sem_wait`.
    SemWait = 27 needs SyscallsThreading "semaphores",
    /// `UserCtx::sem_post`.
    SemPost = 28 needs SyscallsThreading "semaphores",
    /// `UserCtx::fb_info`, the framebuffer mailbox query.
    FbInfo = 29 needs Framebuffer "framebuffer",
    /// `UserCtx::surface_create`.
    SurfaceCreate = 30 needs WindowManager "window manager",
    /// `UserCtx::surface_configure`. `UserCtx::surface_present` copies
    /// into the surface without a trap.
    SurfaceConfigure = 31,
}

/// When a volume call may stop with `WouldBlock`, so that its caller parks
/// on the block-I/O channel instead of spinning on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// Never: the call spins until it completes.
    Never,
    /// When a demand read meets an in-flight chain: open's lookup and read,
    /// which a retry repeats harmlessly.
    OnRead,
    /// When the SD queue is full, before the call touches the cache: write,
    /// which is not retry-idempotent once blocks dirty.
    OnFullQueue,
}

/// The one way into a trapping syscall. `Entry`'s fields are private to this
/// module, so nothing outside it, the dispatch functions below included, can
/// mint one.
mod entry {
    use super::Sysno;
    use crate::error::KResult;
    use crate::kernel::Kernel;
    use crate::task::TaskId;
    use crate::trace::TraceKind;

    /// Proof that a syscall trapped, paid its entry and passed its stage
    /// gate: the calling task and the core it trapped on. Every trapping
    /// `sys_*` function takes one, so none can run without its entry charge.
    pub(crate) struct Entry {
        task: TaskId,
        core: usize,
    }

    impl Entry {
        /// The calling task.
        pub(crate) fn task(&self) -> TaskId {
            self.task
        }

        /// The core the call trapped on.
        pub(crate) fn core(&self) -> usize {
            self.core
        }
    }

    impl Kernel {
        /// Enters syscall `no`: charges `core` the platform's syscall entry
        /// cost, records `SyscallEnter` with the number for `task`, checks
        /// the call's stage gate, and runs `f` with the [`Entry`] it mints.
        pub(crate) fn syscall<R>(
            &mut self,
            no: Sysno,
            task: TaskId,
            core: usize,
            f: impl FnOnce(&mut Kernel, Entry) -> KResult<R>,
        ) -> KResult<R> {
            let c = self.board.cost.trivial_syscall();
            self.board.charge(core, c);
            let now = self.board.now_us();
            self.trace
                .record(now, core, TraceKind::SyscallEnter, Some(task), no as u64);
            no.gate(&self.config)?;
            f(self, Entry { task, core })
        }
    }
}

impl Kernel {
    /// Charges `core` (and attributes to `task`) the cycles implied by the
    /// SD commands issued since `before`: DMA read chains, polled (PIO)
    /// commands and cache FLUSHes. Commands the cache issued as *prefetch*
    /// get their command-setup latency discounted: the read-ahead is
    /// dispatched while the previous transfer's data is still streaming, so
    /// its setup overlaps instead of serialising. Polled commands still pay
    /// their full data phase on the CPU; DMA read chains instead charge the
    /// CPU-side work only ([`hal::cost::CostModel::sd_dma_cpu`]) — command
    /// issue, control-block construction (`dma_setup` per scatter-gather
    /// run), per-block cache bookkeeping on the completion path, and the
    /// bounce copy between the DMA region and the extents — while the data
    /// phase itself elapses on the device timeline and shows up as wait
    /// time when (and only when) a demand read has to block on it. With the
    /// card's posted write cache on, each cache FLUSH costs its latency;
    /// with the cache off none is served.
    ///
    /// DMA write chains are not charged here: the SD adapter charged each
    /// one's CPU work, at the same price, to the submitting core when it
    /// built the chain, so the cycles overlap the data phases of the chains
    /// ahead of it in the queue. This only attributes them to `task`.
    pub(crate) fn charge_sd_delta(
        &mut self,
        core: usize,
        task: TaskId,
        before: crate::kernel::SdSnapshot,
    ) {
        let after = self.sd_snapshot();
        let singles = after.single_cmds - before.single_cmds;
        let ranges = after.range_cmds - before.range_cmds;
        let reads = after.dma_reads.since(before.dma_reads);
        let writes = after.dma_writes.since(before.dma_writes);
        let pio_blocks =
            (after.blocks - before.blocks).saturating_sub(reads.blocks + writes.blocks);
        let prefetched = after.prefetch_cmds - before.prefetch_cmds;
        let flushes = after.flush_cmds - before.flush_cmds;
        let cost = &self.board.cost;
        let prefetch_discount = prefetched.min(singles + ranges + reads.cmds) * cost.sd_cmd_latency;
        let mut cycles = (singles + ranges) * cost.sd_cmd_latency
            + singles * cost.sd_block_poll_transfer
            + flushes * cost.sd_flush_latency
            + pio_blocks.saturating_sub(singles) * cost.sd_range_block_transfer
            + cost.sd_dma_cpu(reads)
            - prefetch_discount;
        if self.config.variant == crate::config::KernelVariant::Xv6Baseline {
            // The baseline's simpler SD driver is measurably slower (§7.2).
            cycles = cycles * 8 / 5;
        }
        let charged_at_submit = cost.sd_dma_cpu(writes);
        self.board.charge(core, cycles);
        if let Some(t) = self.tasks_mut(task) {
            t.sd_cycles += cycles + charged_at_submit;
        }
    }

    // =====================================================================================
    // Task management & time
    // =====================================================================================

    pub(crate) fn sys_sleep_us(&mut self, entry: Entry, us: u64) -> KResult<()> {
        let task = entry.task();
        // Saturate: `sleep(u64::MAX)` must park the task forever, not
        // overflow the deadline in debug builds.
        let wake_at = self.now_us().saturating_add(us.max(1));
        if let Some(t) = self.tasks_mut(task) {
            t.state = TaskState::Sleeping(wake_at);
        }
        self.dequeue_task(task);
        Ok(())
    }

    pub(crate) fn sys_yield(&mut self, _entry: Entry) -> KResult<()> {
        Ok(())
    }

    pub(crate) fn sys_sbrk(&mut self, entry: Entry, delta: i64) -> KResult<u64> {
        let (task, core) = (entry.task(), entry.core());
        let asid = self.task_asid(task)?;
        let cost = self.board.cost.clone();
        let space = self
            .address_space_mut(asid)
            .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
        let pages_before = space.stats().mapped_pages;
        // Split borrows: sbrk needs frames + mem, both on self but disjoint
        // from address_spaces; do it with a temporary remove/insert.
        let mut space = self
            .take_address_space(asid)
            .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
        let result = space.sbrk(&mut self.mm.frames, &mut self.board.mem, delta);
        let pages_after = space.stats().mapped_pages;
        self.put_address_space(asid, space);
        let new_pages = pages_after.saturating_sub(pages_before) as u64;
        self.board
            .charge_kernel(core, new_pages * (cost.frame_alloc + cost.pte_write));
        result
    }

    pub(crate) fn sys_fork(
        &mut self,
        entry: Entry,
        child_program: Box<dyn UserProgram>,
    ) -> KResult<TaskId> {
        let (task, core) = (entry.task(), entry.core());
        let cost = self.board.cost.clone();
        self.board.charge_kernel(core, cost.fork_base);
        // Copy the address space if the parent owns one.
        let parent_mm = self.task(task).map(|t| t.mm).unwrap_or(MmRef::KernelOnly);
        let child_mm = match parent_mm {
            MmRef::Owns(asid) => {
                let mut parent_space = self
                    .take_address_space(asid)
                    .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
                let forked = parent_space.fork_copy(&mut self.mm.frames, &mut self.board.mem);
                self.put_address_space(asid, parent_space);
                let (child_space, copied) = forked?;
                self.board
                    .charge_kernel(core, copied * cost.fork_copy_per_page);
                let child_asid = self.alloc_asid();
                self.put_address_space(child_asid, child_space);
                MmRef::Owns(child_asid)
            }
            other => other,
        };
        // Child task: inherits fds (bumping pipe refs), cwd and priority.
        let child_name = self
            .task(task)
            .map(|t| format!("{}-child", t.name))
            .unwrap_or_else(|| "child".into());
        let image = ProgramImage {
            name: child_name,
            code_size: 0,
            data_size: 0,
            heap_size: 0,
            args: Vec::new(),
        };
        // Spawn without building a new address space (we already copied one).
        let child = self.spawn_forked_child(task, &image.name, child_program, child_mm)?;
        self.inherit_fds(task, child);
        Ok(child)
    }

    pub(crate) fn sys_spawn(
        &mut self,
        entry: Entry,
        path: &str,
        args: &[String],
    ) -> KResult<TaskId> {
        let (task, core) = (entry.task(), entry.core());
        // Read the image through the normal file path so exec pays real I/O,
        // entries included: each open, read and close traps on its own.
        let fd = self.syscall(Sysno::Open, task, core, |k, e| {
            k.sys_open(e, path, OpenFlags::rdonly())
        })?;
        let mut image_bytes = Vec::new();
        loop {
            match self.syscall(Sysno::Read, task, core, |k, e| k.sys_read(e, fd, 64 * 1024)) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => image_bytes.extend_from_slice(&chunk),
                Err(err) => {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "the read's error is the one to return, and a failed close must not mask it"
                    )]
                    let _ = self.syscall(Sysno::Close, task, core, |k, e| k.sys_close(e, fd));
                    return Err(err);
                }
            }
        }
        self.syscall(Sysno::Close, task, core, |k, e| k.sys_close(e, fd))?;
        let image = ProgramImage::parse(&image_bytes)?;
        let mut full_args = image.args.clone();
        full_args.extend_from_slice(args);
        let program = self.registry.instantiate(&image.name, &full_args)?;
        self.spawn_user_program(&image, program, task)
    }

    pub(crate) fn sys_wait(&mut self, entry: Entry) -> KResult<(TaskId, i32)> {
        let task = entry.task();
        // Reap a pending child if any.
        let pending = self
            .tasks_mut(task)
            .and_then(|t| (!t.pending_children.is_empty()).then(|| t.pending_children.remove(0)));
        if let Some((child, code)) = pending {
            self.remove_task(child);
            return Ok((child, code));
        }
        // Children still running: park until one exits.
        if self.any_child_of(task) {
            self.block_current(task, WaitChannel::ChildExit);
            Err(KernelError::WouldBlock)
        } else {
            Err(KernelError::NotFound("no children".into()))
        }
    }

    /// Kills user task `pid` with exit code -9. Kernel threads cannot be
    /// killed, and a task that has already exited stays as it exited, so
    /// its parent reaps it once, with its own code.
    pub(crate) fn sys_kill(&mut self, _entry: Entry, pid: TaskId) -> KResult<()> {
        let target = self
            .task(pid)
            .ok_or_else(|| KernelError::NotFound(format!("task {pid}")))?;
        if target.kernel_thread {
            return Err(KernelError::Permission(format!(
                "task {pid} is a kernel thread"
            )));
        }
        if !target.is_zombie() {
            self.handle_exit(pid, -9);
        }
        Ok(())
    }

    pub(crate) fn sys_set_priority(&mut self, entry: Entry, priority: u8) -> KResult<()> {
        let task = entry.task();
        self.caller(task)?.set_priority(priority)
    }

    // =====================================================================================
    // Threading & synchronisation
    // =====================================================================================

    pub(crate) fn sys_clone_thread(
        &mut self,
        entry: Entry,
        thread_program: Box<dyn UserProgram>,
    ) -> KResult<TaskId> {
        let task = entry.task();
        let mm = match self.task(task).map(|t| t.mm) {
            Some(MmRef::Owns(asid)) | Some(MmRef::Shares(asid)) => MmRef::Shares(asid),
            _ => MmRef::KernelOnly,
        };
        let name = self
            .task(task)
            .map(|t| format!("{}-thr", t.name))
            .unwrap_or_else(|| "thread".into());
        let tid = self.spawn_forked_child(task, &name, thread_program, mm)?;
        // Threads share the file table conceptually; we copy it (offsets are
        // private).
        self.inherit_fds(task, tid);
        Ok(tid)
    }

    pub(crate) fn sys_sem_create(&mut self, _entry: Entry, value: i64) -> KResult<u64> {
        Ok(self.sems_create(value))
    }

    pub(crate) fn sys_sem_wait(&mut self, entry: Entry, sem: u64) -> KResult<()> {
        let task = entry.task();
        match self.sems_wait(sem, task)? {
            SemWaitResult::Acquired => Ok(()),
            SemWaitResult::MustBlock => {
                self.block_current(task, WaitChannel::Semaphore(sem));
                Err(KernelError::WouldBlock)
            }
        }
    }

    pub(crate) fn sys_sem_post(&mut self, _entry: Entry, sem: u64) -> KResult<()> {
        if let Some(waiter) = self.sems_post(sem)? {
            self.wake_task(waiter);
        }
        Ok(())
    }

    // =====================================================================================
    // Files
    // =====================================================================================

    pub(crate) fn sys_open(&mut self, entry: Entry, path: &str, flags: OpenFlags) -> KResult<i32> {
        let (task, core) = (entry.task(), entry.core());
        let (target, inner) = self.resolve(path);
        let kind = match target {
            MountTarget::Dev => {
                let dev = DeviceFile::from_path(&inner)
                    .ok_or_else(|| KernelError::NotFound(inner.clone()))?;
                if dev == DeviceFile::Surface {
                    self.config.require(
                        self.config.has(Feature::WindowManager),
                        "window manager surfaces",
                    )?;
                    let title = self
                        .task(task)
                        .map(|t| t.name.clone())
                        .unwrap_or_else(|| "app".into());
                    let surface_id = self.wm.create_surface(task, title);
                    FileKind::SurfaceHandle { surface_id }
                } else {
                    FileKind::Device(dev)
                }
            }
            MountTarget::Proc => FileKind::Proc { name: inner },
            MountTarget::Volume(mount) => {
                // The lookup is read-only, so a scheduled task may park on
                // an in-flight chain and retry the whole open; the create
                // mutates and stays synchronous.
                let found = self.volume_op(mount, task, core, Park::OnRead, |io| {
                    io.lookup(&inner, flags.write)
                });
                let inum = match found {
                    Err(KernelError::NotFound(_)) if flags.create => {
                        self.volume_op(mount, task, core, Park::Never, |io| {
                            io.create(&inner, false)
                        })?
                    }
                    found => found?,
                };
                FileKind::File { mount, inum }
            }
        };
        self.caller(task)?.fds.install(OpenFile::new(kind, flags))
    }

    pub(crate) fn sys_close(&mut self, entry: Entry, fd: i32) -> KResult<()> {
        let (task, core) = (entry.task(), entry.core());
        let file = self.caller(task)?.fds.remove(fd)?;
        // The buffer cache is write-back. Without the background flusher,
        // closing a descriptor that wrote to a disk filesystem drains its
        // dirty blocks synchronously (errors propagate to the caller — a
        // failed write-back must not vanish into `close`); with the `kbio`
        // flusher running, the dirty extents stay cached and drain in the
        // background, charged to `kbio`.
        if let FileKind::File { mount, .. } = file.kind {
            if file.written && self.kbio_task() == 0 {
                self.flush_volume(mount, core, task)?;
            }
        }
        self.drop_open_file(file);
        Ok(())
    }

    /// Runs `f` on `mount`'s filesystem, device and cache for `task` on
    /// `core`, and charges the SD commands it issued (none on the ramdisk)
    /// to `core`, billing `task`; a call that fails is charged too. `park`
    /// says whether the call may stop with [`KernelError::WouldBlock`]
    /// instead of spinning; `task` then parks on the block-I/O channel, and
    /// the call is issued again whole when a completion wakes it.
    pub(crate) fn volume_op<R>(
        &mut self,
        mount: Mount,
        task: TaskId,
        core: usize,
        park: Park,
        f: impl FnOnce(&mut VolumeIo<'_>) -> FsResult<R>,
    ) -> KResult<R> {
        // Only a task inside `run_slice` can park. Benches driving syscalls
        // through `with_task_ctx` have no scheduler to run the device
        // forward, so there the cache keeps spinning.
        let parks = self.config.blocking_io && self.in_scheduled_step;
        let dma = self.board.sdhost.data_mode() == SdDataMode::Dma;
        let demand = parks && dma && park == Park::OnRead;
        let before = self.sd_snapshot();
        let vol = self.volumes[mount as usize]
            .as_mut()
            .ok_or_else(|| mount.not_mounted())?;
        let result = vol.io(&mut self.board, core, |io| {
            if parks && park == Park::OnFullQueue && !io.dev.can_submit() {
                io.cache.note_queue_full_yield();
                return Err(FsError::WouldBlock);
            }
            io.cache.set_block_demand(demand);
            let result = f(io);
            io.cache.set_block_demand(false);
            result
        });
        self.charge_sd_delta(core, task, before);
        if matches!(result, Err(FsError::WouldBlock)) {
            self.block_current(task, WaitChannel::BlockIo);
        }
        result.map_err(KernelError::from)
    }

    /// Ends a call that cannot complete yet. A non-blocking descriptor
    /// reports [`KernelError::WouldBlock`] at once; a blocking one also
    /// parks `task` on `channel`, and the call is issued again when the
    /// channel wakes it.
    fn would_block<R>(
        &mut self,
        task: TaskId,
        flags: OpenFlags,
        channel: WaitChannel,
    ) -> KResult<R> {
        if !flags.nonblock {
            self.block_current(task, channel);
        }
        Err(KernelError::WouldBlock)
    }

    /// The durability barrier `close` and `fsync` run: commits `mount`'s
    /// open commit group, then drains its whole cache to the medium,
    /// charging `core` and billing `task`. The group must close first:
    /// flushing around an open group would force its deliberately cyclic
    /// ordering edges instead of committing them atomically.
    pub(crate) fn flush_volume(&mut self, mount: Mount, core: usize, task: TaskId) -> KResult<()> {
        if self.volume(mount).is_none() {
            return Ok(());
        }
        self.commit_group(mount, core, task)?;
        self.write_back(mount, core, task, None)
    }

    /// Commits `mount`'s open commit group, if one is open, charging `core`
    /// and billing `task`.
    pub(crate) fn commit_group(&mut self, mount: Mount, core: usize, task: TaskId) -> KResult<()> {
        if self.volume(mount).is_none_or(|v| v.cache.group_txns() == 0) {
            return Ok(());
        }
        let committed = self.volume_op(mount, task, core, Park::Never, |io| io.commit_pending());
        if let Some(vol) = self.volumes[mount as usize].as_mut() {
            vol.group_seen = None;
        }
        committed
    }

    /// Writes `mount`'s dirty blocks back to the medium, all of them or at
    /// most `budget`, charging `core` and billing `task` for the SD
    /// commands and for the medium's per-block copies.
    pub(crate) fn write_back(
        &mut self,
        mount: Mount,
        core: usize,
        task: TaskId,
        budget: Option<u64>,
    ) -> KResult<()> {
        let (written, blocks) = self.volume_op(mount, task, core, Park::Never, |io| {
            let before = io.cache.stats().writebacks;
            let written = match budget {
                None => io.cache.flush(io.dev),
                Some(max) => io.cache.flush_some(io.dev, max).map(drop),
            };
            Ok((written, io.cache.stats().writebacks - before))
        })?;
        let cost = &self.board.cost;
        let cycles = self
            .volume(mount)
            .map_or(0, |v| v.medium.writeback_cycles(cost, blocks));
        self.board.charge(core, cycles);
        if let Some(t) = self.tasks_mut(task) {
            t.sd_cycles += cycles;
        }
        written.map_err(KernelError::from)
    }

    /// Charges `core` the CPU copy of `n` file bytes between a call and
    /// `mount`'s cache.
    fn charge_copy(&mut self, mount: Mount, core: usize, n: usize, write: bool) {
        let cost = &self.board.cost;
        let cycles = self
            .volume(mount)
            .map_or(0, |v| v.medium.copy_cycles(cost, n as u64, write));
        self.board.charge(core, cycles);
    }

    /// `fsync`: drains a file's dirty blocks from the write-back buffer
    /// cache to the backing device. Proto has no per-file dirty lists, so
    /// this flushes the owning filesystem's cache — the cost accounting
    /// still lands on the calling task, which is the point.
    pub(crate) fn sys_fsync(&mut self, entry: Entry, fd: i32) -> KResult<()> {
        let (task, core) = (entry.task(), entry.core());
        let kind = self.caller(task)?.fds.get(fd)?.kind.clone();
        match kind {
            FileKind::File { mount, .. } => self.flush_volume(mount, core, task)?,
            FileKind::Device(_) | FileKind::Proc { .. } => {}
            FileKind::Pipe { .. } | FileKind::SurfaceHandle { .. } => {
                return Err(KernelError::Invalid("fsync on an unsyncable file".into()));
            }
        }
        if let Some(t) = self.tasks_mut(task) {
            if let Ok(f) = t.fds.get_mut(fd) {
                f.written = false;
            }
        }
        Ok(())
    }

    pub(crate) fn sys_dup(&mut self, entry: Entry, fd: i32) -> KResult<i32> {
        let task = entry.task();
        let fds = &mut self.caller(task)?.fds;
        let new_fd = fds.dup(fd)?;
        let kind = fds.get(new_fd)?.kind.clone();
        if let FileKind::Pipe { id, write_end } = kind {
            self.pipes_add_ref(id, write_end)?;
        }
        Ok(new_fd)
    }

    pub(crate) fn sys_pipe(&mut self, entry: Entry) -> KResult<(i32, i32)> {
        let task = entry.task();
        let id = self.pipes_create();
        let fds = &mut self.caller(task)?.fds;
        let r = fds.install(OpenFile::new(
            FileKind::Pipe {
                id,
                write_end: false,
            },
            OpenFlags::rdonly(),
        ))?;
        let w = fds.install(OpenFile::new(
            FileKind::Pipe {
                id,
                write_end: true,
            },
            OpenFlags {
                write: true,
                ..Default::default()
            },
        ))?;
        Ok((r, w))
    }

    pub(crate) fn sys_lseek(&mut self, entry: Entry, fd: i32, offset: u64) -> KResult<u64> {
        let task = entry.task();
        let f = self.caller(task)?.fds.get_mut(fd)?;
        match f.kind {
            FileKind::File { .. } => {
                f.offset = offset;
                Ok(offset)
            }
            _ => Err(KernelError::Invalid("lseek on an unseekable file".into())),
        }
    }

    pub(crate) fn sys_stat(&mut self, entry: Entry, path: &str) -> KResult<FileStat> {
        let (task, core) = (entry.task(), entry.core());
        let (target, inner) = self.resolve(path);
        match target {
            MountTarget::Volume(mount) => {
                self.volume_op(mount, task, core, Park::Never, |io| io.stat(&inner))
            }
            MountTarget::Dev => Ok(FileStat {
                size: 0,
                is_dir: inner == "/dev",
            }),
            MountTarget::Proc => Ok(FileStat {
                size: 0,
                is_dir: inner == "/proc",
            }),
        }
    }

    pub(crate) fn sys_mkdir(&mut self, entry: Entry, path: &str) -> KResult<()> {
        let (task, core) = (entry.task(), entry.core());
        let (MountTarget::Volume(mount), inner) = self.resolve(path) else {
            return Err(KernelError::Permission(
                "cannot mkdir in /dev or /proc".into(),
            ));
        };
        self.volume_op(mount, task, core, Park::Never, |io| {
            io.create(&inner, true).map(drop)
        })
    }

    pub(crate) fn sys_unlink(&mut self, entry: Entry, path: &str) -> KResult<()> {
        let (task, core) = (entry.task(), entry.core());
        let (MountTarget::Volume(mount), inner) = self.resolve(path) else {
            return Err(KernelError::Permission(
                "cannot unlink in /dev or /proc".into(),
            ));
        };
        self.volume_op(mount, task, core, Park::Never, |io| io.unlink(&inner))
    }

    pub(crate) fn sys_list_dir(&mut self, entry: Entry, path: &str) -> KResult<Vec<String>> {
        let (task, core) = (entry.task(), entry.core());
        let (target, inner) = self.resolve(path);
        match target {
            MountTarget::Volume(mount) => {
                self.volume_op(mount, task, core, Park::Never, |io| io.list_dir(&inner))
            }
            MountTarget::Dev => Ok(DeviceFile::ALL
                .iter()
                .map(|d| d.path().trim_start_matches("/dev/").to_string())
                .collect()),
            MountTarget::Proc => Ok(vec![
                "cpuinfo".into(),
                "meminfo".into(),
                "uptime".into(),
                "tasks".into(),
            ]),
        }
    }

    pub(crate) fn sys_read(&mut self, entry: Entry, fd: i32, max: usize) -> KResult<Vec<u8>> {
        let (task, core) = (entry.task(), entry.core());
        let (kind, offset, flags) = {
            let f = self.caller(task)?.fds.get(fd)?;
            if !f.flags.read {
                return Err(KernelError::BadFd(fd));
            }
            (f.kind.clone(), f.offset, f.flags)
        };
        match kind {
            FileKind::File { mount, inum } => {
                // Both filesystems address files with 32-bit offsets; past
                // them lies end of file.
                let Ok(offset) = u32::try_from(offset) else {
                    return Ok(Vec::new());
                };
                // A scheduled task whose read window hits an in-flight
                // chain parks and retries the whole syscall when the
                // completion wakes it: the offset only advances on
                // success, so the retry is idempotent.
                let data = self.volume_op(mount, task, core, Park::OnRead, |io| {
                    io.read(inum, offset, max)
                })?;
                self.charge_copy(mount, core, data.len(), false);
                self.advance_offset(task, fd, data.len() as u64)?;
                Ok(data)
            }
            FileKind::Device(dev) => self.read_device(task, core, dev, max, flags),
            FileKind::Proc { name } => {
                // The descriptor's first read takes the file's snapshot, and
                // every read serves the next slice of it.
                if self.open_file(task, fd)?.proc_snapshot.is_none() {
                    let snapshot = self.procfs_content(&name)?;
                    self.open_file(task, fd)?.proc_snapshot = Some(snapshot);
                }
                let f = self.open_file(task, fd)?;
                let snapshot = f.proc_snapshot.as_deref().unwrap_or_default();
                let start = (offset as usize).min(snapshot.len());
                let end = start.saturating_add(max).min(snapshot.len());
                let out = snapshot[start..end].to_vec();
                self.advance_offset(task, fd, out.len() as u64)?;
                Ok(out)
            }
            FileKind::Pipe { id, write_end } => {
                if write_end {
                    return Err(KernelError::Invalid("read from a pipe write end".into()));
                }
                let cost = self.board.cost.clone();
                self.board.charge_kernel(core, cost.pipe_op);
                match self.pipes_read(id, max)? {
                    crate::pipe::PipeReadResult::Data(d) => {
                        self.board.charge_kernel(
                            core,
                            cost.per_byte(cost.pipe_copy_per_byte_milli, d.len() as u64),
                        );
                        self.wake_all(WaitChannel::PipeWrite(id));
                        Ok(d)
                    }
                    crate::pipe::PipeReadResult::Eof => Ok(Vec::new()),
                    crate::pipe::PipeReadResult::WouldBlock => {
                        self.would_block(task, flags, WaitChannel::PipeRead(id))
                    }
                }
            }
            FileKind::SurfaceHandle { .. } => Err(KernelError::Invalid(
                "surfaces are write-only; read events from /dev/event1".into(),
            )),
        }
    }

    fn read_device(
        &mut self,
        task: TaskId,
        core: usize,
        dev: DeviceFile,
        max: usize,
        flags: OpenFlags,
    ) -> KResult<Vec<u8>> {
        match dev {
            DeviceFile::Events | DeviceFile::WmEvents => {
                let use_dispatched = dev == DeviceFile::WmEvents;
                let mut out = Vec::new();
                let now = self.now_us();
                loop {
                    if out.len() + crate::kbd::EVENT_RECORD_SIZE > max {
                        break;
                    }
                    let ev = if use_dispatched {
                        self.kbd.dispatched_queue.pop()
                    } else {
                        self.kbd.raw_queue.pop()
                    };
                    match ev {
                        Some(e) => {
                            self.trace.record(
                                now,
                                core,
                                TraceKind::KeyEventApp,
                                Some(task),
                                e.timestamp_us,
                            );
                            out.extend_from_slice(&crate::kbd::encode_event(&e));
                        }
                        None => break,
                    }
                }
                if out.is_empty() {
                    return self.would_block(task, flags, WaitChannel::KeyEvent);
                }
                Ok(out)
            }
            DeviceFile::Null => Ok(Vec::new()),
            DeviceFile::Console => {
                // With the receive interrupt on, the handler has drained the
                // FIFO into `console_input`; with it off, the bytes are
                // still in the FIFO.
                while let Some(b) = self.board.uart.read_byte() {
                    self.console_input.push_back(b);
                }
                if self.console_input.is_empty() {
                    return self.would_block(task, flags, WaitChannel::KeyEvent);
                }
                let n = max.min(self.console_input.len());
                Ok(self.console_input.drain(..n).collect())
            }
            DeviceFile::Framebuffer | DeviceFile::SoundBuffer | DeviceFile::Surface => Err(
                KernelError::Invalid(format!("{} is not readable", dev.path())),
            ),
        }
    }

    pub(crate) fn sys_write(&mut self, entry: Entry, fd: i32, data: &[u8]) -> KResult<usize> {
        let (task, core) = (entry.task(), entry.core());
        let (kind, offset, flags) = {
            let f = self.caller(task)?.fds.get(fd)?;
            if !f.flags.write {
                return Err(KernelError::BadFd(fd));
            }
            (f.kind.clone(), f.offset, f.flags)
        };
        match kind {
            FileKind::Device(DeviceFile::Console) | FileKind::Device(DeviceFile::Null) => {
                if matches!(kind, FileKind::Device(DeviceFile::Console)) {
                    let cost = self
                        .board
                        .cost
                        .uart_tx_per_byte
                        .saturating_mul(data.len() as u64);
                    self.board.charge(core, cost);
                    self.board.uart.write_bytes(data);
                }
                Ok(data.len())
            }
            FileKind::Device(DeviceFile::Framebuffer) => {
                // Raw byte writes to /dev/fb at the descriptor offset.
                let px_off = (offset / BYTES_PER_PIXEL as u64) as usize;
                let pixels: Vec<u32> = data
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                self.sys_fb_write(task, core, px_off, &pixels)?;
                self.advance_offset(task, fd, (pixels.len() * 4) as u64)?;
                Ok(pixels.len() * 4)
            }
            FileKind::Device(DeviceFile::SoundBuffer) => {
                self.config
                    .require(self.config.has(Feature::Sound), "sound output")?;
                let now = self.now_us();
                let cost = self.board.cost.clone();
                let outcome = self.sound.write_samples(&mut self.board.pwm, now, data)?;
                match outcome {
                    crate::sound::SoundWriteOutcome::Accepted(n) => {
                        self.board.charge(
                            core,
                            cost.dma_setup
                                + cost.per_byte(cost.memmove_fast_per_byte_milli, n as u64),
                        );
                        Ok(n)
                    }
                    crate::sound::SoundWriteOutcome::WouldBlock => {
                        self.would_block(task, flags, WaitChannel::SoundSpace)
                    }
                }
            }
            FileKind::Device(DeviceFile::Events)
            | FileKind::Device(DeviceFile::WmEvents)
            | FileKind::Device(DeviceFile::Surface) => Err(KernelError::Invalid(format!(
                "{:?} is not writable via write()",
                kind
            ))),
            FileKind::File { mount, inum } => {
                // Kick a sleeping flusher *before* the write: if the caches
                // are already past the high-water mark, kbio gets scheduled
                // to absorb the backlog instead of this writer paying for
                // the whole drain (or spin-reaping a full SD queue) itself.
                self.maybe_kick_kbio();
                // Both filesystems cap a file at 4 GiB.
                let fits = offset
                    .checked_add(data.len() as u64)
                    .is_some_and(|end| end <= u64::from(u32::MAX));
                let offset = u32::try_from(offset).ok().filter(|_| fits).ok_or_else(|| {
                    KernelError::Invalid(format!(
                        "write of {} bytes at {offset} passes the 4 GiB file limit",
                        data.len()
                    ))
                })?;
                // A scheduled writer that finds the SD queue full yields
                // its slice instead of spin-reaping other tasks' chains: the
                // write path is not retry-idempotent once blocks dirty, so
                // it parks before touching the cache.
                self.volume_op(mount, task, core, Park::OnFullQueue, |io| {
                    io.write(inum, offset, data)
                })?;
                self.charge_copy(mount, core, data.len(), true);
                self.advance_offset(task, fd, data.len() as u64)?;
                self.mark_written(task, fd);
                self.maybe_kick_kbio();
                Ok(data.len())
            }
            FileKind::Proc { .. } => {
                Err(KernelError::Permission("proc files are read-only".into()))
            }
            FileKind::Pipe { id, write_end } => {
                if !write_end {
                    return Err(KernelError::Invalid("write to a pipe read end".into()));
                }
                let cost = self.board.cost.clone();
                self.board.charge_kernel(core, cost.pipe_op);
                match self.pipes_write(id, data)? {
                    crate::pipe::PipeWriteResult::Wrote(n) => {
                        self.board.charge_kernel(
                            core,
                            cost.per_byte(cost.pipe_copy_per_byte_milli, n as u64),
                        );
                        self.wake_all(WaitChannel::PipeRead(id));
                        Ok(n)
                    }
                    crate::pipe::PipeWriteResult::Broken => Err(KernelError::BrokenPipe),
                    crate::pipe::PipeWriteResult::WouldBlock => {
                        self.would_block(task, flags, WaitChannel::PipeWrite(id))
                    }
                }
            }
            FileKind::SurfaceHandle { surface_id } => {
                // Raw pixel writes: a full ARGB frame per write().
                let pixels: Vec<u32> = data
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                let cost = self.board.cost.clone();
                self.board.charge(
                    core,
                    cost.per_byte(cost.memmove_fast_per_byte_milli, data.len() as u64),
                );
                self.wm.submit_frame(surface_id, &pixels)?;
                Ok(data.len())
            }
        }
    }

    pub(crate) fn sys_read_key_event(
        &mut self,
        entry: Entry,
        fd: i32,
    ) -> KResult<Option<protousb::KeyEvent>> {
        let task = entry.task();
        match self.sys_read(entry, fd, crate::kbd::EVENT_RECORD_SIZE) {
            Ok(bytes) if bytes.len() >= crate::kbd::EVENT_RECORD_SIZE => {
                Ok(crate::kbd::decode_event(&bytes))
            }
            Ok(_) => Ok(None),
            Err(KernelError::WouldBlock) => {
                // Non-blocking descriptors simply report "no event yet".
                let nonblock = self
                    .task(task)
                    .and_then(|t| t.fds.get(fd).ok().map(|f| f.flags.nonblock))
                    .unwrap_or(false);
                if nonblock {
                    Ok(None)
                } else {
                    Err(KernelError::WouldBlock)
                }
            }
            Err(e) => Err(e),
        }
    }

    // =====================================================================================
    // Graphics
    // =====================================================================================

    pub(crate) fn sys_fb_info(&mut self, _entry: Entry) -> KResult<(u32, u32)> {
        let info = self
            .board
            .framebuffer
            .info()
            .ok_or_else(|| KernelError::Device("framebuffer not allocated".into()))?;
        Ok((info.width, info.height))
    }

    pub(crate) fn sys_fb_map(&mut self, entry: Entry) -> KResult<u64> {
        let (task, core) = (entry.task(), entry.core());
        let info = self
            .board
            .framebuffer
            .info()
            .ok_or_else(|| KernelError::Device("framebuffer not allocated".into()))?;
        if let Some(va) = self.fb_mappings.get(&task) {
            return Ok(*va);
        }
        let va = info.phys_addr; // identity mapping, as §4.3 prefers
        if self.config.has(Feature::VirtualMemory) {
            if let Ok(asid) = self.task_asid(task) {
                let cost = self.board.cost.clone();
                let mut space = self
                    .take_address_space(asid)
                    .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
                let result = space.map_physical_range(
                    &mut self.mm.frames,
                    &mut self.board.mem,
                    RegionKind::Framebuffer,
                    va,
                    info.phys_addr,
                    info.size as u64,
                    MapFlags::user_framebuffer(),
                );
                self.put_address_space(asid, space);
                result?;
                let pages = (info.size as u64).div_ceil(4096);
                self.board.charge_kernel(core, pages * cost.pte_write);
            }
        }
        self.fb_mappings.insert(task, va);
        Ok(va)
    }

    pub(crate) fn sys_fb_write(
        &mut self,
        task: TaskId,
        core: usize,
        offset_px: usize,
        pixels: &[u32],
    ) -> KResult<()> {
        // Note: deliberately *no* syscall charge — this is a store through the
        // user's framebuffer mapping, not a trap. Only the pixel cost applies.
        self.config
            .require(self.config.has(Feature::Framebuffer), "framebuffer")?;
        if self.config.has(Feature::VirtualMemory) && !self.fb_mappings.contains_key(&task) {
            // Touching an unmapped framebuffer is a fault.
            return Err(KernelError::Fault(
                "framebuffer not mapped; call fb_map() first".into(),
            ));
        }
        let cost = &self.board.cost;
        let cycles = cost.per_byte(cost.pixel_draw_per_px_milli, pixels.len() as u64);
        self.board.charge_user(core, cycles);
        self.board
            .framebuffer
            .write_pixels(offset_px, pixels, true)?;
        Ok(())
    }

    pub(crate) fn sys_fb_flush(&mut self, entry: Entry) -> KResult<()> {
        let core = entry.core();
        let lines = self.board.framebuffer.flush_all();
        let cost = self.board.cost.cache_flush_per_line * lines as u64;
        self.board.charge_kernel(core, cost);
        Ok(())
    }

    pub(crate) fn sys_surface_create(&mut self, entry: Entry, title: &str) -> KResult<i32> {
        let task = entry.task();
        let surface_id = self.wm.create_surface(task, title);
        let file = OpenFile::new(FileKind::SurfaceHandle { surface_id }, OpenFlags::rdwr());
        self.caller(task)?.fds.install(file)
    }

    pub(crate) fn sys_surface_configure(
        &mut self,
        entry: Entry,
        fd: i32,
        rect: Rect,
        floating: bool,
    ) -> KResult<()> {
        let task = entry.task();
        let surface_id = self.surface_id_for(task, fd)?;
        self.wm.configure(surface_id, rect, floating)
    }

    pub(crate) fn sys_surface_present(
        &mut self,
        task: TaskId,
        core: usize,
        fd: i32,
        pixels: &[u32],
    ) -> KResult<()> {
        // Like fb_write, the copy itself is the cost; no trap charge.
        let surface_id = self.surface_id_for(task, fd)?;
        let cost = self.board.cost.clone();
        self.board.charge_user(
            core,
            cost.per_byte(cost.memmove_fast_per_byte_milli, (pixels.len() * 4) as u64),
        );
        self.wm.submit_frame(surface_id, pixels)
    }

    // =====================================================================================
    // Small internal helpers
    // =====================================================================================

    /// Gives `child` a copy of `parent`'s descriptor table, bumping the
    /// reference count of each inherited pipe end.
    fn inherit_fds(&mut self, parent: TaskId, child: TaskId) {
        let Some(fds) = self.task(parent).map(|t| t.fds.clone_for_fork()) else {
            return;
        };
        for fd in 0..crate::vfs::MAX_FDS as i32 {
            if let Ok(f) = fds.get(fd) {
                if let FileKind::Pipe { id, write_end } = f.kind {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "adding a reference fails only for a pipe that is gone, and the parent's descriptor keeps this one alive"
                    )]
                    let _ = self.pipes_add_ref(id, write_end);
                }
            }
        }
        if let Some(t) = self.tasks_mut(child) {
            t.fds = fds;
        }
    }

    fn surface_id_for(&mut self, task: TaskId, fd: i32) -> KResult<u64> {
        match self.caller(task)?.fds.get(fd)?.kind {
            FileKind::SurfaceHandle { surface_id } => Ok(surface_id),
            _ => Err(KernelError::Invalid("fd is not a surface".into())),
        }
    }

    /// The calling task `task`, which a failed lookup reports as missing.
    fn caller(&mut self, task: TaskId) -> KResult<&mut Task> {
        self.tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))
    }

    /// Task `task`'s open file behind `fd`.
    fn open_file(&mut self, task: TaskId, fd: i32) -> KResult<&mut OpenFile> {
        self.caller(task)?.fds.get_mut(fd)
    }

    fn advance_offset(&mut self, task: TaskId, fd: i32, by: u64) -> KResult<()> {
        if let Ok(f) = self.caller(task)?.fds.get_mut(fd) {
            f.offset = f.offset.saturating_add(by);
        }
        Ok(())
    }

    fn mark_written(&mut self, task: TaskId, fd: i32) {
        if let Some(t) = self.tasks_mut(task) {
            if let Ok(f) = t.fds.get_mut(fd) {
                f.written = true;
            }
        }
    }

    /// Generates the contents of a `/proc` file.
    pub(crate) fn procfs_content(&mut self, name: &str) -> KResult<Vec<u8>> {
        let text = match name {
            "/proc/cpuinfo" | "cpuinfo" => {
                let mut s = String::new();
                for core in 0..self.config.cores {
                    s.push_str(&format!(
                        "processor\t: {core}\nmodel name\t: ARM Cortex-A53 @ 1000 MHz\nfeatures\t: fp asimd\n\n"
                    ));
                }
                s
            }
            "/proc/meminfo" | "meminfo" => {
                let snap = self.memory_snapshot();
                format!(
                    "MemTotal: {} kB\nMemUsed: {} kB\nKernelImage: {} kB\nKmalloc: {} kB\nFrames: {} kB\n",
                    snap.total_bytes / 1024,
                    snap.used_bytes() / 1024,
                    snap.kernel_image_bytes / 1024,
                    snap.kmalloc_bytes / 1024,
                    snap.frames_bytes / 1024,
                )
            }
            "/proc/uptime" | "uptime" => {
                format!("{:.3}\n", self.now_us() as f64 / 1e6)
            }
            "/proc/tasks" | "tasks" => {
                let mut s = String::from("pid\tstate\tprio\tcpu_cycles\tname\n");
                for id in self.task_ids() {
                    if let Some(t) = self.task(id) {
                        s.push_str(&format!(
                            "{}\t{:?}\t{}\t{}\t{}\n",
                            id, t.state, t.priority, t.cpu_cycles, t.name
                        ));
                    }
                }
                s
            }
            other => {
                return Err(KernelError::NotFound(format!("/proc entry '{other}'")));
            }
        };
        Ok(text.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use protofs::BlockDevice;

    /// Runs `op` on the FAT volume's SD device for core 0, uncharged.
    fn on_sd_device(k: &mut Kernel, op: impl FnOnce(&mut dyn BlockDevice)) {
        let vol = k.volumes[Mount::Fat as usize].as_mut().unwrap();
        vol.io(&mut k.board, 0, |io| op(io.dev));
    }

    /// Runs `op` on the FAT volume's SD device for core 0, charges the SD
    /// commands it issued to `task`, and returns the cycles charged.
    fn charged(k: &mut Kernel, task: TaskId, op: impl FnOnce(&mut dyn BlockDevice)) -> u64 {
        let before = k.sd_snapshot();
        let (clock0, task0) = (k.board.clock.cycles(0), k.task_sd_cycles(task));
        on_sd_device(k, |dev| op(dev));
        k.charge_sd_delta(0, task, before);
        let clock = k.board.clock.cycles(0) - clock0;
        assert_eq!(clock, k.task_sd_cycles(task) - task0, "billed to the task");
        clock
    }

    #[test]
    fn the_syscall_table_is_in_number_order() {
        let numbers: Vec<u64> = Sysno::ALL.iter().map(|&no| no as u64).collect();
        assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{numbers:?}");
        assert_eq!(numbers.len(), 32);
    }

    /// With the card's posted write cache on, a FLUSH sent through the FAT
    /// volume's DMA-mode adapter is charged exactly once, at its own price,
    /// by `charge_sd_delta`.
    #[test]
    fn posted_cache_flush_is_charged_once() {
        let mut k = Kernel::desktop_pi3();
        k.boot().unwrap();
        assert_eq!(
            k.board.sdhost.data_mode(),
            SdDataMode::Dma,
            "the adapter carries a DMA context"
        );
        let task = k.spawn_bench_task("barrier").unwrap();
        k.board.sdhost.card.set_posted_writes(true);
        let flush = charged(&mut k, task, |dev| dev.flush().unwrap());
        assert_eq!(k.board.sdhost.flush_cmds(), 1);
        assert_eq!(flush, k.board.cost.sd_flush_latency);
    }

    /// A DMA write chain's driver CPU work is charged to the submitting
    /// core inside the submit, before the chain's data phase starts, and
    /// `charge_sd_delta` then bills exactly that to the task without
    /// advancing the clock again.
    #[test]
    fn dma_write_chain_is_charged_at_submit_and_billed_once() {
        use hal::sdhost::{DmaTraffic, SD_DMA_CHANNEL};
        let mut k = Kernel::desktop_pi3();
        k.boot().unwrap();
        assert_eq!(
            k.board.sdhost.data_mode(),
            SdDataMode::Dma,
            "the adapter carries a DMA context"
        );
        assert_eq!(k.board.sdhost.queue_len(), 0, "boot left the queue empty");
        let task = k.spawn_bench_task("writer").unwrap();
        let chain = DmaTraffic {
            cmds: 1,
            control_blocks: 2,
            blocks: 24,
        };
        let price = k.board.cost.sd_dma_cpu(chain);
        let before = k.sd_snapshot();
        let (clock0, task0) = (k.board.clock.cycles(0), k.task_sd_cycles(task));
        on_sd_device(&mut k, |dev| {
            let top = dev.num_blocks();
            let runs = [(top - 64, 16), (top - 32, 8)];
            let data = vec![0x5Au8; 24 * protofs::block::BLOCK_SIZE];
            dev.submit_write_sg(&runs, &data).unwrap();
            assert_eq!(dev.inflight(), 1, "the chain has not completed");
        });
        assert_eq!(k.board.clock.cycles(0) - clock0, price, "charged at submit");
        let data_phase = k.board.cost.sd_dma_run(16) + k.board.cost.sd_dma_run(8);
        assert_eq!(
            k.board.dma.busy_until(SD_DMA_CHANNEL),
            Some(clock0 + price + data_phase),
            "the data phase starts after the driver built the chain"
        );
        k.charge_sd_delta(0, task, before);
        assert_eq!(k.board.clock.cycles(0) - clock0, price, "charged once");
        assert_eq!(k.task_sd_cycles(task) - task0, price, "billed to the task");
    }
}
