//! The kernel side of the syscall surface (29 syscalls across task, file and
//! threading groups; `usercall.rs` lists them with their numbers).
//!
//! Every trapping entry point takes an `Entry`, which only `Kernel::syscall`
//! mints, after charging the platform's syscall entry cost. Each then checks
//! the prototype stage it belongs to (Table 1), performs the operation, and
//! — when the operation cannot complete — parks the calling task on the
//! right wait queue and returns [`KernelError::WouldBlock`]. Device I/O
//! charges additional cycles derived from the device statistics so that the
//! microbenchmarks (Figure 8/9) and the app benchmarks (Table 5) come out of
//! the same accounting.

use hal::framebuffer::BYTES_PER_PIXEL;

use crate::error::{KResult, KernelError};
use crate::exec::ProgramImage;
use crate::kernel::{fat_dev, Kernel};
use crate::mm::addrspace::RegionKind;
use crate::mm::pagetable::MapFlags;
use crate::sync::SemWaitResult;
use crate::task::{MmRef, TaskId, TaskState, WaitChannel};
use crate::trace::TraceKind;
use crate::usercall::{FileStat, UserProgram};
use crate::vfs::{DeviceFile, FileKind, MountTarget, OpenFile, OpenFlags};
use crate::wm::Rect;

pub(crate) use entry::Entry;

/// The one way into a trapping syscall. `Entry`'s fields are private to this
/// module, so nothing outside it, the dispatch functions below included, can
/// mint one.
mod entry {
    use crate::kernel::Kernel;
    use crate::task::TaskId;
    use crate::trace::TraceKind;

    /// Proof that a syscall trapped and paid its entry: the calling task and
    /// the core it trapped on. Every trapping `sys_*` function takes one, so
    /// none can run without its entry charge.
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
        /// Enters a trapping syscall: charges `core` the platform's syscall
        /// entry cost, records `SyscallEnter` for `task`, and runs `f` with
        /// the [`Entry`] it mints.
        pub(crate) fn syscall<R>(
            &mut self,
            task: TaskId,
            core: usize,
            f: impl FnOnce(&mut Kernel, Entry) -> R,
        ) -> R {
            let c = self.board.cost.trivial_syscall();
            self.board.charge(core, c);
            self.trace.record(
                self.board.now_us(),
                core,
                TraceKind::SyscallEnter,
                Some(task),
                "",
            );
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
    /// ahead of it in the queue. This only attributes them to `task`. The
    /// FAT arms of `sys_mkdir`, `sys_unlink` and `sys_list_dir` take no
    /// snapshot, so their write chains are charged to the clock at submit
    /// but attributed to no task.
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

    pub(crate) fn sys_getpid(&mut self, entry: Entry) -> TaskId {
        entry.task()
    }

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
        self.config.require(self.config.virtual_memory, "sbrk")?;
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
        self.config.require(self.config.syscalls_tasks, "fork")?;
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
        // Duplicate descriptor table.
        let fds = self.task(task).map(|t| t.fds.clone_for_fork());
        if let Some(fds) = fds {
            // Bump pipe reference counts for inherited pipe fds.
            for fd in 0..crate::vfs::MAX_FDS as i32 {
                if let Ok(f) = fds.get(fd) {
                    if let FileKind::Pipe { id, write_end } = f.kind {
                        let _ = self.pipes_add_ref(id, write_end);
                    }
                }
            }
            if let Some(t) = self.tasks_mut(child) {
                t.fds = fds;
            }
        }
        Ok(child)
    }

    pub(crate) fn sys_spawn(
        &mut self,
        entry: Entry,
        path: &str,
        args: &[String],
    ) -> KResult<TaskId> {
        let (task, core) = (entry.task(), entry.core());
        self.config
            .require(self.config.syscalls_files, "exec from a file")?;
        // Read the image through the normal file path so exec pays real I/O,
        // entries included: each open, read and close traps on its own.
        let fd = self.syscall(task, core, |k, e| k.sys_open(e, path, OpenFlags::rdonly()))?;
        let mut image_bytes = Vec::new();
        loop {
            match self.syscall(task, core, |k, e| k.sys_read(e, fd, 64 * 1024)) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => image_bytes.extend_from_slice(&chunk),
                Err(err) => {
                    let _ = self.syscall(task, core, |k, e| k.sys_close(e, fd));
                    return Err(err);
                }
            }
        }
        self.syscall(task, core, |k, e| k.sys_close(e, fd))?;
        let image = ProgramImage::parse(&image_bytes)?;
        let mut full_args = image.args.clone();
        full_args.extend_from_slice(args);
        let program = self.registry.instantiate(&image.name, &full_args)?;
        self.spawn_user_program(&image, program, task)
    }

    pub(crate) fn sys_wait(&mut self, entry: Entry) -> KResult<Option<(TaskId, i32)>> {
        let task = entry.task();
        // Reap a pending child if any.
        let pending = self
            .tasks_mut(task)
            .and_then(|t| (!t.pending_children.is_empty()).then(|| t.pending_children.remove(0)));
        if let Some((child, code)) = pending {
            self.remove_task(child);
            return Ok(Some((child, code)));
        }
        // Any children still running?
        let has_children = self.any_child_of(task);
        if has_children {
            self.block_current(task, WaitChannel::ChildExit);
            Ok(None)
        } else {
            Err(KernelError::NotFound("no children".into()))
        }
    }

    pub(crate) fn sys_kill(&mut self, _entry: Entry, pid: TaskId) -> KResult<()> {
        if self.task(pid).is_none() {
            return Err(KernelError::NotFound(format!("task {pid}")));
        }
        self.handle_exit(pid, -9);
        Ok(())
    }

    pub(crate) fn sys_set_priority(&mut self, entry: Entry, priority: u8) -> KResult<()> {
        let task = entry.task();
        self.tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .set_priority(priority)
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
        self.config
            .require(self.config.syscalls_threading, "clone(CLONE_VM)")?;
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
        // private), bumping pipe references.
        let fds = self.task(task).map(|t| t.fds.clone_for_fork());
        if let Some(fds) = fds {
            for fd in 0..crate::vfs::MAX_FDS as i32 {
                if let Ok(f) = fds.get(fd) {
                    if let FileKind::Pipe { id, write_end } = f.kind {
                        let _ = self.pipes_add_ref(id, write_end);
                    }
                }
            }
            if let Some(t) = self.tasks_mut(tid) {
                t.fds = fds;
            }
        }
        Ok(tid)
    }

    pub(crate) fn sys_sem_create(&mut self, _entry: Entry, value: i64) -> KResult<u64> {
        self.config
            .require(self.config.syscalls_threading, "semaphores")?;
        Ok(self.sems_create(value))
    }

    pub(crate) fn sys_sem_wait(&mut self, entry: Entry, sem: u64) -> KResult<()> {
        let task = entry.task();
        self.config
            .require(self.config.syscalls_threading, "semaphores")?;
        match self.sems_wait(sem, task)? {
            SemWaitResult::Acquired => Ok(()),
            SemWaitResult::MustBlock => {
                self.block_current(task, WaitChannel::Semaphore(sem));
                Err(KernelError::WouldBlock)
            }
        }
    }

    pub(crate) fn sys_sem_post(&mut self, _entry: Entry, sem: u64) -> KResult<()> {
        self.config
            .require(self.config.syscalls_threading, "semaphores")?;
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
        self.config
            .require(self.config.syscalls_files, "file syscalls")?;
        let (target, inner) = self.mounts.resolve(path);
        let kind = match target {
            MountTarget::Dev => {
                let dev = DeviceFile::from_path(&inner)
                    .ok_or_else(|| KernelError::NotFound(inner.clone()))?;
                if dev == DeviceFile::Surface {
                    self.config
                        .require(self.config.window_manager, "window manager surfaces")?;
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
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                let inum = match fs.lookup(dev, bc, &inner) {
                    Ok(i) => i,
                    Err(protofs::FsError::NotFound(_)) if flags.create => {
                        fs.create(dev, bc, &inner, protofs::xv6fs::InodeType::File)?
                    }
                    Err(e) => return Err(e.into()),
                };
                FileKind::Xv6 { inum }
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let before = self.sd_snapshot();
                // The directory lookup is read-only, so a scheduled task may
                // park on an in-flight chain and retry the whole open; the
                // create path below mutates and stays synchronous.
                let blocking =
                    self.config.blocking_io && self.in_scheduled_step && self.config.sd_dma;
                let looked_up = {
                    let mut dev = fat_dev!(self, core);
                    self.fat_bufcache.set_block_demand(blocking);
                    let r = fat.lookup(&mut dev, &mut self.fat_bufcache, &inner);
                    self.fat_bufcache.set_block_demand(false);
                    r
                };
                self.charge_sd_delta(core, task, before);
                match looked_up {
                    Ok(_) => {}
                    Err(protofs::FsError::WouldBlock) => {
                        self.block_current(task, WaitChannel::BlockIo);
                        return Err(KernelError::WouldBlock);
                    }
                    Err(protofs::FsError::NotFound(_)) if flags.create => {
                        let before = self.sd_snapshot();
                        let created = {
                            let mut dev = fat_dev!(self, core);
                            fat.create(&mut dev, &mut self.fat_bufcache, &inner, false)
                        };
                        self.charge_sd_delta(core, task, before);
                        created?;
                    }
                    Err(e) => return Err(e.into()),
                }
                let pseudo_inum = self.pseudo_inum_for(&inner);
                FileKind::Fat {
                    volume_path: inner,
                    pseudo_inum,
                }
            }
        };
        let file = OpenFile::new(kind, flags);
        self.tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .fds
            .install(file)
    }

    pub(crate) fn sys_close(&mut self, entry: Entry, fd: i32) -> KResult<()> {
        let (task, core) = (entry.task(), entry.core());
        let file = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .fds
            .remove(fd)?;
        // The buffer cache is write-back. Without the background flusher,
        // closing a descriptor that wrote to a disk filesystem drains its
        // dirty blocks synchronously (errors propagate to the caller — a
        // failed write-back must not vanish into `close`); with the `kbio`
        // flusher running, the dirty extents stay cached and drain in the
        // background, charged to `kbio`.
        if file.written && !self.config.background_flush {
            match file.kind {
                FileKind::Fat { .. } => self.flush_fat_cache(core, task)?,
                FileKind::Xv6 { .. } => self.flush_root_cache(core, task)?,
                _ => {}
            }
        }
        self.drop_open_file(file);
        Ok(())
    }

    /// Flushes the FAT32 buffer cache to the SD card, charging the issuing
    /// core — and attributing to `task` — the SD commands the write-back
    /// generates. A durability barrier must close the intent log's pending
    /// commit group first: flushing around an open group would force its
    /// deliberately cyclic ordering edges instead of committing them
    /// atomically.
    pub(crate) fn flush_fat_cache(&mut self, core: usize, task: TaskId) -> KResult<()> {
        if self.fatfs.is_none() {
            return Ok(());
        }
        self.commit_fat_group(core, task)?;
        let before = self.sd_snapshot();
        let result = {
            let mut dev = fat_dev!(self, core);
            self.fat_bufcache.flush(&mut dev)
        };
        self.charge_sd_delta(core, task, before);
        result.map_err(KernelError::from)
    }

    /// Flushes the root (xv6fs) buffer cache to the ramdisk, charging the
    /// memory-to-memory copy cost to `core` and attributing it to `task`.
    /// Mirrors [`Self::flush_fat_cache`]: a pending journal commit group
    /// must close before the barrier, or the flush would force the group's
    /// deliberately cyclic ordering edges instead of committing atomically.
    pub(crate) fn flush_root_cache(&mut self, core: usize, task: TaskId) -> KResult<()> {
        let dev = match self.ramdisk.as_mut() {
            Some(d) => d,
            None => return Ok(()),
        };
        if let Some(fs) = self.rootfs.as_ref() {
            fs.commit_pending(dev, &mut self.root_bufcache)?;
        }
        let before = self.root_bufcache.stats().writebacks;
        let result = self.root_bufcache.flush(dev);
        let blocks = self.root_bufcache.stats().writebacks - before;
        let cost = self.board.cost.clone();
        let cycles =
            cost.bufcache_op * blocks + cost.per_byte(cost.ramdisk_per_byte_milli, blocks * 512);
        self.board.charge(core, cycles);
        if let Some(t) = self.tasks_mut(task) {
            t.sd_cycles += cycles;
        }
        result.map_err(KernelError::from)
    }

    /// `fsync`: drains a file's dirty blocks from the write-back buffer
    /// cache to the backing device. Proto has no per-file dirty lists, so
    /// this flushes the owning filesystem's cache — the cost accounting
    /// still lands on the calling task, which is the point.
    pub(crate) fn sys_fsync(&mut self, entry: Entry, fd: i32) -> KResult<()> {
        let (task, core) = (entry.task(), entry.core());
        let kind = {
            let t = self
                .tasks_mut(task)
                .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
            t.fds.get(fd)?.kind.clone()
        };
        match kind {
            FileKind::Fat { .. } => self.flush_fat_cache(core, task)?,
            FileKind::Xv6 { .. } => self.flush_root_cache(core, task)?,
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
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        let new_fd = t.fds.dup(fd)?;
        let kind = t.fds.get(new_fd)?.kind.clone();
        if let FileKind::Pipe { id, write_end } = kind {
            self.pipes_add_ref(id, write_end)?;
        }
        Ok(new_fd)
    }

    pub(crate) fn sys_pipe(&mut self, entry: Entry) -> KResult<(i32, i32)> {
        let task = entry.task();
        self.config.require(self.config.syscalls_files, "pipes")?;
        let id = self.pipes_create();
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        let r = t.fds.install(OpenFile::new(
            FileKind::Pipe {
                id,
                write_end: false,
            },
            OpenFlags::rdonly(),
        ))?;
        let w = t.fds.install(OpenFile::new(
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
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        let f = t.fds.get_mut(fd)?;
        match f.kind {
            FileKind::Xv6 { .. } | FileKind::Fat { .. } => {
                f.offset = offset;
                Ok(offset)
            }
            _ => Err(KernelError::Invalid("lseek on an unseekable file".into())),
        }
    }

    pub(crate) fn sys_stat(&mut self, entry: Entry, path: &str) -> KResult<FileStat> {
        let (task, core) = (entry.task(), entry.core());
        self.config.require(self.config.syscalls_files, "stat")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                let inum = fs.lookup(dev, bc, &inner)?;
                let st = fs.stat(dev, bc, inum)?;
                Ok(FileStat {
                    size: st.size as u64,
                    is_dir: st.itype == protofs::xv6fs::InodeType::Dir,
                })
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let before = self.sd_snapshot();
                let found = {
                    let mut dev = fat_dev!(self, core);
                    fat.lookup(&mut dev, &mut self.fat_bufcache, &inner)
                };
                // Charge the SD work even when the lookup fails.
                self.charge_sd_delta(core, task, before);
                let entry = found?;
                Ok(FileStat {
                    size: entry.size as u64,
                    is_dir: entry.is_dir,
                })
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
        let core = entry.core();
        self.config.require(self.config.syscalls_files, "mkdir")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                fs.create(dev, bc, &inner, protofs::xv6fs::InodeType::Dir)?;
                Ok(())
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let mut dev = fat_dev!(self, core);
                fat.create(&mut dev, &mut self.fat_bufcache, &inner, true)?;
                Ok(())
            }
            _ => Err(KernelError::Permission(
                "cannot mkdir in /dev or /proc".into(),
            )),
        }
    }

    pub(crate) fn sys_unlink(&mut self, entry: Entry, path: &str) -> KResult<()> {
        let core = entry.core();
        self.config.require(self.config.syscalls_files, "unlink")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                fs.unlink(dev, bc, &inner)?;
                Ok(())
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let mut dev = fat_dev!(self, core);
                fat.remove(&mut dev, &mut self.fat_bufcache, &inner)?;
                Ok(())
            }
            _ => Err(KernelError::Permission(
                "cannot unlink in /dev or /proc".into(),
            )),
        }
    }

    pub(crate) fn sys_list_dir(&mut self, entry: Entry, path: &str) -> KResult<Vec<String>> {
        let core = entry.core();
        self.config.require(self.config.syscalls_files, "readdir")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                Ok(fs
                    .list_dir(dev, bc, &inner)?
                    .into_iter()
                    .map(|e| e.name)
                    .collect())
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let mut dev = fat_dev!(self, core);
                Ok(fat
                    .list_dir(&mut dev, &mut self.fat_bufcache, &inner)?
                    .into_iter()
                    .map(|e| e.name)
                    .collect())
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
            let t = self
                .tasks_mut(task)
                .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
            let f = t.fds.get(fd)?;
            (f.kind.clone(), f.offset, f.flags)
        };
        match kind {
            FileKind::Xv6 { inum } => {
                // Both filesystems address files with 32-bit offsets; past
                // them lies end of file.
                let Ok(offset) = u32::try_from(offset) else {
                    return Ok(Vec::new());
                };
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                // Clamp the scratch buffer: no xv6 file exceeds
                // MAXFILE_BYTES, so a huge `max` must not drive a huge
                // allocation.
                let mut buf = vec![0u8; max.min(protofs::xv6fs::MAXFILE_BYTES)];
                let n = fs.read(dev, bc, inum, offset, &mut buf)?;
                buf.truncate(n);
                let cost = self.board.cost.clone();
                self.board.charge(
                    core,
                    cost.per_byte(cost.ramdisk_per_byte_milli, n as u64)
                        + cost.bufcache_op * (n as u64 / 512 + 1),
                );
                self.advance_offset(task, fd, n as u64)?;
                Ok(buf)
            }
            FileKind::Fat { volume_path, .. } => {
                let Ok(offset) = u32::try_from(offset) else {
                    return Ok(Vec::new());
                };
                let fat = self.fatfs_clone()?;
                // Blocking demand mode: a scheduled task whose read window
                // hits an in-flight chain parks on the block-I/O channel
                // and retries the whole syscall when the completion router
                // wakes it (the offset only advances on success, so the
                // retry is idempotent). Outside `run_slice` — benches
                // driving syscalls via `with_task_ctx` — there is no
                // scheduler to run the device forward, so the cache keeps
                // its spin-reap path.
                let blocking =
                    self.config.blocking_io && self.in_scheduled_step && self.config.sd_dma;
                let before = self.sd_snapshot();
                self.fat_bufcache.set_block_demand(blocking);
                let result = {
                    let mut dev = fat_dev!(self, core);
                    fat.read_at(&mut dev, &mut self.fat_bufcache, &volume_path, offset, max)
                };
                self.fat_bufcache.set_block_demand(false);
                self.charge_sd_delta(core, task, before);
                match result {
                    Ok(data) => {
                        let cost = self.board.cost.clone();
                        self.board.charge(
                            core,
                            cost.per_byte(cost.bufcache_copy_per_byte_milli, data.len() as u64),
                        );
                        self.advance_offset(task, fd, data.len() as u64)?;
                        Ok(data)
                    }
                    Err(protofs::FsError::WouldBlock) => {
                        self.block_current(task, WaitChannel::BlockIo);
                        Err(KernelError::WouldBlock)
                    }
                    Err(e) => Err(e.into()),
                }
            }
            FileKind::Device(dev) => self.read_device(task, core, dev, max, flags),
            FileKind::Proc { name } => {
                // Generate (and cache) the snapshot, then serve from offset.
                let content = {
                    let t = self
                        .tasks_mut(task)
                        .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
                    let f = t.fds.get_mut(fd)?;
                    if f.proc_snapshot.is_none() {
                        f.proc_snapshot = Some(Vec::new()); // placeholder, filled below
                    }
                    f.proc_snapshot.clone().unwrap_or_default()
                };
                let content = if content.is_empty() {
                    let generated = self.procfs_content(&name)?;
                    let t = self
                        .tasks_mut(task)
                        .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
                    let f = t.fds.get_mut(fd)?;
                    f.proc_snapshot = Some(generated.clone());
                    generated
                } else {
                    content
                };
                let start = (offset as usize).min(content.len());
                let end = start.saturating_add(max).min(content.len());
                let out = content[start..end].to_vec();
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
                        if flags.nonblock {
                            Err(KernelError::WouldBlock)
                        } else {
                            self.block_current(task, WaitChannel::PipeRead(id));
                            Err(KernelError::WouldBlock)
                        }
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
                                format!("{}", e.timestamp_us),
                            );
                            out.extend_from_slice(&crate::kbd::encode_event(&e));
                        }
                        None => break,
                    }
                }
                if out.is_empty() {
                    if flags.nonblock {
                        return Err(KernelError::WouldBlock);
                    }
                    self.block_current(task, WaitChannel::KeyEvent);
                    return Err(KernelError::WouldBlock);
                }
                Ok(out)
            }
            DeviceFile::Null => Ok(Vec::new()),
            DeviceFile::Console => {
                if self.board.uart.rx_ready() {
                    let mut out = Vec::new();
                    while out.len() < max {
                        match self.board.uart.read_byte() {
                            Some(b) => out.push(b),
                            None => break,
                        }
                    }
                    Ok(out)
                } else if flags.nonblock {
                    Err(KernelError::WouldBlock)
                } else {
                    self.block_current(task, WaitChannel::KeyEvent);
                    Err(KernelError::WouldBlock)
                }
            }
            DeviceFile::Framebuffer | DeviceFile::SoundBuffer | DeviceFile::Surface => Err(
                KernelError::Invalid(format!("{} is not readable", dev.path())),
            ),
        }
    }

    pub(crate) fn sys_write(&mut self, entry: Entry, fd: i32, data: &[u8]) -> KResult<usize> {
        let (task, core) = (entry.task(), entry.core());
        let (kind, offset, flags) = {
            let t = self
                .tasks_mut(task)
                .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
            let f = t.fds.get(fd)?;
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
                self.config.require(self.config.sound, "sound output")?;
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
                        if flags.nonblock {
                            Err(KernelError::WouldBlock)
                        } else {
                            self.block_current(task, WaitChannel::SoundSpace);
                            Err(KernelError::WouldBlock)
                        }
                    }
                }
            }
            FileKind::Device(DeviceFile::Events)
            | FileKind::Device(DeviceFile::WmEvents)
            | FileKind::Device(DeviceFile::Surface) => Err(KernelError::Invalid(format!(
                "{:?} is not writable via write()",
                kind
            ))),
            FileKind::Xv6 { inum } => {
                // Kick a sleeping flusher *before* the write: if the caches
                // are already past the high-water mark, kbio gets scheduled
                // to absorb the backlog instead of this writer paying for
                // the whole drain itself.
                self.maybe_kick_kbio();
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                let offset = u32::try_from(offset).map_err(|_| {
                    KernelError::Invalid(format!("write offset {offset} past the 4 GiB file limit"))
                })?;
                let n = fs.write(dev, bc, inum, offset, data)?;
                let cost = self.board.cost.clone();
                self.board.charge(
                    core,
                    cost.per_byte(cost.ramdisk_per_byte_milli, n as u64)
                        + cost.bufcache_op * (n as u64 / 512 + 1),
                );
                self.advance_offset(task, fd, n as u64)?;
                self.mark_written(task, fd);
                self.maybe_kick_kbio();
                Ok(n)
            }
            FileKind::Fat { volume_path, .. } => {
                // A writer about to hit a full DMA queue would spin-reap its
                // own chains (`BufCacheStats::queue_full_stalls`); waking a
                // sleeping kbio first lets the flusher absorb the backlog.
                self.maybe_kick_kbio();
                // Back-pressure fairness: a scheduled writer that finds the
                // SD queue already full yields its slice — parked on the
                // block-I/O channel until a completion frees a queue slot —
                // instead of burning it spin-reaping other tasks' chains.
                // This gate sits *before* any cache mutation because the
                // write path is not retry-idempotent once blocks dirty.
                if self.config.blocking_io
                    && self.in_scheduled_step
                    && self.config.sd_dma
                    && !self.board.sdhost.can_submit()
                {
                    self.fat_bufcache.note_queue_full_yield();
                    self.block_current(task, WaitChannel::BlockIo);
                    return Err(KernelError::WouldBlock);
                }
                let fat = self.fatfs_clone()?;
                let before = self.sd_snapshot();
                let written = self.fat_write_at(core, &fat, &volume_path, offset, data);
                // Charge the SD work even when the write fails.
                self.charge_sd_delta(core, task, before);
                written?;
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
                        if flags.nonblock {
                            Err(KernelError::WouldBlock)
                        } else {
                            self.block_current(task, WaitChannel::PipeWrite(id));
                            Err(KernelError::WouldBlock)
                        }
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
        self.config
            .require(self.config.framebuffer, "framebuffer")?;
        let info = self
            .board
            .framebuffer
            .info()
            .ok_or_else(|| KernelError::Device("framebuffer not allocated".into()))?;
        Ok((info.width, info.height))
    }

    pub(crate) fn sys_fb_map(&mut self, entry: Entry) -> KResult<u64> {
        let (task, core) = (entry.task(), entry.core());
        self.config
            .require(self.config.framebuffer, "framebuffer")?;
        let info = self
            .board
            .framebuffer
            .info()
            .ok_or_else(|| KernelError::Device("framebuffer not allocated".into()))?;
        if let Some(va) = self.fb_mappings.get(&task) {
            return Ok(*va);
        }
        let va = info.phys_addr; // identity mapping, as §4.3 prefers
        if self.config.virtual_memory {
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
            .require(self.config.framebuffer, "framebuffer")?;
        if self.config.virtual_memory && !self.fb_mappings.contains_key(&task) {
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
        let (task, core) = (entry.task(), entry.core());
        self.config
            .require(self.config.framebuffer, "framebuffer")?;
        let lines = self.board.framebuffer.flush_all();
        let cost = self.board.cost.cache_flush_per_line * lines as u64;
        self.board.charge_kernel(core, cost);
        self.trace.record(
            self.board.now_us(),
            core,
            TraceKind::FramePresent,
            Some(task),
            "flush",
        );
        Ok(())
    }

    pub(crate) fn sys_surface_create(&mut self, entry: Entry, title: &str) -> KResult<i32> {
        let task = entry.task();
        self.config
            .require(self.config.window_manager, "window manager")?;
        let surface_id = self.wm.create_surface(task, title);
        let file = OpenFile::new(FileKind::SurfaceHandle { surface_id }, OpenFlags::rdwr());
        self.tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .fds
            .install(file)
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

    fn surface_id_for(&self, task: TaskId, fd: i32) -> KResult<u64> {
        let t = self
            .task(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        match t.fds.get(fd)?.kind {
            FileKind::SurfaceHandle { surface_id } => Ok(surface_id),
            _ => Err(KernelError::Invalid("fd is not a surface".into())),
        }
    }

    /// Writes `data` at `offset` of the FAT file `volume_path`: the whole
    /// file at offset 0, a read-modify-write of it anywhere else.
    fn fat_write_at(
        &mut self,
        core: usize,
        fat: &protofs::fat32::Fat32,
        volume_path: &str,
        offset: u64,
        data: &[u8],
    ) -> KResult<()> {
        let mut dev = fat_dev!(self, core);
        if offset == 0 {
            fat.write_file(&mut dev, &mut self.fat_bufcache, volume_path, data)?;
            return Ok(());
        }
        // FAT32 caps a file at u32::MAX bytes; reject anything that would
        // overflow or exceed it before sizing the buffer.
        let off = usize::try_from(offset)
            .ok()
            .filter(|&o| o <= u32::MAX as usize)
            .ok_or_else(|| KernelError::Invalid(format!("FAT write offset {offset} too large")))?;
        let end = off
            .checked_add(data.len())
            .filter(|&e| e <= u32::MAX as usize)
            .ok_or_else(|| {
                KernelError::Invalid(format!(
                    "FAT write of {} bytes at {offset} exceeds the FAT32 file size limit",
                    data.len()
                ))
            })?;
        let mut whole = fat.read_file(&mut dev, &mut self.fat_bufcache, volume_path)?;
        if whole.len() < end {
            whole.resize(end, 0);
        }
        whole[off..end].copy_from_slice(data);
        fat.write_file(&mut dev, &mut self.fat_bufcache, volume_path, &whole)?;
        Ok(())
    }

    fn advance_offset(&mut self, task: TaskId, fd: i32, by: u64) -> KResult<()> {
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        if let Ok(f) = t.fds.get_mut(fd) {
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
    use protofs::BlockDevice as _;

    /// Runs `op` on the FAT volume's SD adapter for core 0, charges the SD
    /// commands it issued to `task`, and returns the cycles charged.
    fn charged(
        k: &mut Kernel,
        task: TaskId,
        op: impl FnOnce(&mut protofs::block::SdBlockDevice<'_>),
    ) -> u64 {
        let before = k.sd_snapshot();
        let (clock0, task0) = (k.board.clock.cycles(0), k.task_sd_cycles(task));
        {
            let mut dev = fat_dev!(k, 0);
            op(&mut dev);
        }
        k.charge_sd_delta(0, task, before);
        let clock = k.board.clock.cycles(0) - clock0;
        assert_eq!(clock, k.task_sd_cycles(task) - task0, "billed to the task");
        clock
    }

    /// With the card's posted write cache on, a FLUSH sent through the FAT
    /// volume's DMA-mode adapter is charged exactly once, at its own price,
    /// by `charge_sd_delta`.
    #[test]
    fn posted_cache_flush_is_charged_once() {
        let mut k = Kernel::desktop_pi3();
        k.boot().unwrap();
        assert!(k.config.sd_dma, "the adapter carries a DMA context");
        let task = k.spawn_bench_task("barrier").unwrap();
        k.board.sdhost.set_posted_writes(true);
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
        assert!(k.config.sd_dma, "the adapter carries a DMA context");
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
        {
            let mut dev = fat_dev!(k, 0);
            let top = dev.num_blocks();
            let runs = [(top - 64, 16), (top - 32, 8)];
            let data = vec![0x5Au8; 24 * protofs::block::BLOCK_SIZE];
            dev.submit_write_sg(&runs, &data).unwrap();
            assert_eq!(dev.inflight(), 1, "the chain has not completed");
        }
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
