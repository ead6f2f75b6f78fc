//! Integration tests for the syscall surface: files, pipes, devices, fork,
//! threads and the framebuffer cache-flush behaviour.

use kernel::OpenFlags;
use proto_repro::prelude::*;

fn desktop() -> (ProtoSystem, kernel::TaskId) {
    let mut sys = ProtoSystem::desktop().unwrap();
    let tid = sys.kernel.spawn_bench_task("itest").unwrap();
    (sys, tid)
}

#[test]
fn files_round_trip_on_both_filesystems() {
    let (mut sys, tid) = desktop();
    for path in ["/notes.txt", "/d/notes.txt"] {
        let data = format!("hello via {path}").into_bytes();
        sys.kernel
            .with_task_ctx(tid, |ctx| {
                let fd = ctx.open(path, OpenFlags::wronly_create())?;
                ctx.write(fd, &data)?;
                ctx.close(fd)?;
                let fd = ctx.open(path, OpenFlags::rdonly())?;
                let back = ctx.read(fd, 1024)?;
                ctx.close(fd)?;
                assert_eq!(back, data);
                Ok::<(), kernel::KernelError>(())
            })
            .unwrap();
    }
}

#[test]
fn xv6fs_enforces_its_size_limit_but_fat_does_not() {
    let (mut sys, tid) = desktop();
    let big = vec![0u8; 400 * 1024];
    let on_root = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/too-big.bin", OpenFlags::wronly_create())?;
        let r = ctx.write(fd, &big);
        ctx.close(fd)?;
        r
    });
    assert!(on_root.is_err(), "root xv6fs refuses a 400 KB file");
    let on_fat = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/d/big.bin", OpenFlags::wronly_create())?;
        let r = ctx.write(fd, &big);
        ctx.close(fd)?;
        r
    });
    assert_eq!(on_fat.unwrap(), big.len(), "FAT32 accepts it");
}

#[test]
fn proc_files_report_cpu_memory_and_tasks() {
    let (mut sys, tid) = desktop();
    for (path, needle) in [
        ("/proc/cpuinfo", "Cortex-A53"),
        ("/proc/meminfo", "MemTotal"),
        ("/proc/tasks", "pid"),
        ("/proc/uptime", "."),
    ] {
        let text = sys
            .kernel
            .with_task_ctx(tid, |ctx| {
                let fd = ctx.open(path, OpenFlags::rdonly())?;
                let data = ctx.read(fd, 8192)?;
                ctx.close(fd)?;
                Ok::<String, kernel::KernelError>(String::from_utf8_lossy(&data).into_owned())
            })
            .unwrap();
        assert!(text.contains(needle), "{path} -> {text}");
    }
}

#[test]
fn nonblocking_event_reads_return_eagain_instead_of_blocking() {
    let (mut sys, tid) = desktop();
    let err = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/dev/events", OpenFlags::rdonly_nonblock())?;
        ctx.read(fd, 8)
    });
    assert!(matches!(err, Err(kernel::KernelError::WouldBlock)));
    // The task is NOT blocked: non-blocking reads leave it runnable.
    assert!(sys.kernel.task(tid).is_some());
}

#[test]
fn framebuffer_writes_are_invisible_until_flushed() {
    let (mut sys, tid) = desktop();
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            ctx.fb_map()?;
            ctx.fb_write(0, &[0xFFFF_FFFF; 256])
        })
        .unwrap();
    assert!(
        sys.kernel.board.framebuffer.stale_pixels() > 0,
        "cached write not yet visible"
    );
    sys.kernel.with_task_ctx(tid, |ctx| ctx.fb_flush()).unwrap();
    assert_eq!(sys.kernel.board.framebuffer.stale_pixels(), 0);
    assert_eq!(
        sys.kernel.board.framebuffer.scanout_at(0, 0).unwrap(),
        0xFFFF_FFFF
    );
}

#[test]
fn fork_gives_the_child_a_private_copy_of_memory() {
    let (mut sys, _tid) = desktop();
    struct Child;
    impl kernel::UserProgram for Child {
        fn step(&mut self, _ctx: &mut kernel::UserCtx<'_>) -> kernel::StepResult {
            kernel::StepResult::Exited(7)
        }
    }
    let parent = sys.spawn("helloworld", &[]).unwrap();
    let child = sys
        .kernel
        .with_task_ctx(parent, |ctx| ctx.fork(Box::new(Child)))
        .unwrap();
    let p_space = sys
        .kernel
        .address_space_of(parent)
        .unwrap()
        .page_table()
        .root();
    let c_space = sys
        .kernel
        .address_space_of(child)
        .unwrap()
        .page_table()
        .root();
    assert_ne!(p_space, c_space, "separate page tables");
    sys.run_ms(200);
    assert!(sys
        .kernel
        .task(child)
        .map(|t| t.is_zombie())
        .unwrap_or(true));
}

#[test]
fn fork_exit_wait_loop_leaves_the_free_frame_count_unchanged() {
    let (mut sys, tid) = desktop();
    struct Child;
    impl kernel::UserProgram for Child {
        fn step(&mut self, _ctx: &mut kernel::UserCtx<'_>) -> kernel::StepResult {
            kernel::StepResult::Exited(3)
        }
    }
    let before = sys.kernel.mm.frames.free_frames();
    for _ in 0..8 {
        let child = sys
            .kernel
            .with_task_ctx(tid, |ctx| ctx.fork(Box::new(Child)))
            .unwrap();
        assert!(sys.kernel.run_until(
            |k| k.task(child).map(|t| t.is_zombie()).unwrap_or(true),
            1_000_000
        ));
        let reaped = sys.kernel.with_task_ctx(tid, |ctx| ctx.wait_child());
        assert_eq!(reaped.unwrap(), Some((child, 3)));
    }
    assert_eq!(
        sys.kernel.mm.frames.free_frames(),
        before,
        "every exited child returned its data and page-table frames"
    );
}

#[test]
fn pipes_carry_data_between_fork_peers_and_break_cleanly() {
    let (mut sys, tid) = desktop();
    let (r, w) = sys.kernel.with_task_ctx(tid, |ctx| ctx.pipe()).unwrap();
    sys.kernel
        .with_task_ctx(tid, |ctx| ctx.write(w, b"ping"))
        .unwrap();
    let data = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.read(r, 16))
        .unwrap();
    assert_eq!(data, b"ping");
    sys.kernel.with_task_ctx(tid, |ctx| ctx.close(w)).unwrap();
    let eof = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.read(r, 16))
        .unwrap();
    assert!(eof.is_empty(), "EOF after all writers close");
}

#[test]
fn semaphores_block_and_wake_threads() {
    let (mut sys, tid) = desktop();
    let sem = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.sem_create(0))
        .unwrap();
    // Waiting on a zero semaphore blocks the task...
    let r = sys.kernel.with_task_ctx(tid, |ctx| ctx.sem_wait(sem));
    assert!(matches!(r, Err(kernel::KernelError::WouldBlock)));
    assert!(matches!(
        sys.kernel.task(tid).unwrap().state,
        kernel::TaskState::Blocked(_)
    ));
    // ...and a post from another task wakes it.
    let other = sys.kernel.spawn_bench_task("poster").unwrap();
    sys.kernel
        .with_task_ctx(other, |ctx| ctx.sem_post(sem))
        .unwrap();
    assert!(sys.kernel.task(tid).unwrap().is_ready());
}

#[test]
fn killing_a_task_releases_its_resources() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let doom = sys.spawn("doom", &["/d/doom.wad".into()]).unwrap();
    sys.run_ms(300);
    let frames_before = sys.kernel.task_metrics(doom).unwrap().frames;
    assert!(frames_before > 0);
    let killer = sys.kernel.spawn_bench_task("killer").unwrap();
    sys.kernel
        .with_task_ctx(killer, |ctx| ctx.kill(doom))
        .unwrap();
    sys.run_ms(300);
    let frames_after = sys
        .kernel
        .task_metrics(doom)
        .map(|m| m.frames)
        .unwrap_or(frames_before);
    assert_eq!(frames_before, frames_after, "killed task stops rendering");
}

#[test]
fn sd_card_faults_surface_as_io_errors_not_panics() {
    let (mut sys, tid) = desktop();
    // Inject a fault into the middle of the FAT data area and read the WAD.
    for b in 9000..9300 {
        sys.kernel.board.sdhost.inject_fault(b);
    }
    let result = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/d/doom.wad", OpenFlags::rdonly())?;
        let mut total = 0usize;
        loop {
            match ctx.read(fd, 64 * 1024) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => total += chunk.len(),
                Err(e) => {
                    ctx.close(fd)?;
                    return Err(e);
                }
            }
        }
        ctx.close(fd)?;
        Ok(total)
    });
    assert!(result.is_err(), "injected SD fault is reported");
    sys.kernel.board.sdhost.clear_faults();
}

/// A FAT syscall that fails still pays for the SD work it did: `stat` of a
/// missing name in a cold 100-entry directory reads the directory from the
/// card before it can report the name absent, and the caller is billed.
#[test]
fn a_failing_fat_stat_is_charged_for_the_directory_it_read() {
    let (mut sys, tid) = desktop();
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            for i in 0..100 {
                let fd = ctx.open(&format!("/d/entry{i}.txt"), OpenFlags::wronly_create())?;
                ctx.close(fd)?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    sys.kernel.drop_fs_caches().unwrap();
    let billed = |sys: &ProtoSystem| sys.kernel.task_sd_cycles(tid);
    let (billed0, cmds0) = (billed(&sys), sys.kernel.board.sdhost.dma_cmds());
    let missing = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.stat("/d/absent.txt"));
    assert!(missing.is_err(), "the name is not there");
    assert!(
        sys.kernel.board.sdhost.dma_cmds() > cmds0,
        "the lookup read the directory from the card"
    );
    assert!(
        billed(&sys) > billed0,
        "the failed stat was charged for its SD commands"
    );
}

/// The `SyscallEnter` events that one call of `f` on `tid`'s context
/// records.
fn entries<R>(
    sys: &mut ProtoSystem,
    tid: kernel::TaskId,
    f: impl FnOnce(&mut kernel::UserCtx<'_>) -> R,
) -> usize {
    sys.kernel.trace.clear();
    sys.kernel.with_task_ctx(tid, f);
    sys.kernel
        .trace
        .of_kind(kernel::trace::TraceKind::SyscallEnter)
        .iter()
        .filter(|e| e.task == Some(tid))
        .count()
}

#[test]
fn each_stub_records_one_entry_per_trap() {
    // Every numbered trapping stub, plus fb_info and the two surface calls,
    // enters the kernel exactly once; read_key_event enters once, through
    // read. The clock read and the two pixel copies do not trap.
    let (mut sys, tid) = desktop();
    struct Exit;
    impl kernel::UserProgram for Exit {
        fn step(&mut self, _ctx: &mut kernel::UserCtx<'_>) -> kernel::StepResult {
            kernel::StepResult::Exited(0)
        }
    }
    let victim = sys.kernel.spawn_bench_task("victim").unwrap();
    let (fd, events, surface, sem, image_size) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/traps.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, b"trap")?;
            ctx.close(fd)?;
            let fd = ctx.open("/traps.txt", OpenFlags::rdwr())?;
            let events = ctx.open("/dev/events", OpenFlags::rdonly_nonblock())?;
            let surface = ctx.surface_create("traps")?;
            let sem = ctx.sem_create(1)?;
            let image_size = ctx.stat("/bin/helloworld")?.size;
            Ok::<_, kernel::KernelError>((fd, events, surface, sem, image_size))
        })
        .unwrap();
    let rect = kernel::wm::Rect {
        x: 0,
        y: 0,
        w: 8,
        h: 8,
    };
    assert_eq!(entries(&mut sys, tid, |c| c.getpid()), 1, "getpid");
    assert_eq!(entries(&mut sys, tid, |c| c.now_us()), 0, "now_us");
    assert_eq!(entries(&mut sys, tid, |c| c.sleep_us(1)), 1, "sleep_us");
    assert_eq!(entries(&mut sys, tid, |c| c.sleep_ms(1)), 1, "sleep_ms");
    assert_eq!(entries(&mut sys, tid, |c| c.yield_now()), 1, "yield_now");
    assert_eq!(entries(&mut sys, tid, |c| c.sbrk(4096)), 1, "sbrk");
    assert_eq!(
        entries(&mut sys, tid, |c| c.fork(Box::new(Exit))),
        1,
        "fork"
    );
    assert_eq!(entries(&mut sys, tid, |c| c.wait_child()), 1, "wait_child");
    assert_eq!(entries(&mut sys, tid, |c| c.kill(victim)), 1, "kill");
    assert_eq!(
        entries(&mut sys, tid, |c| c.set_priority(1)),
        1,
        "set_priority"
    );
    assert_eq!(
        entries(&mut sys, tid, |c| c.clone_thread(Box::new(Exit))),
        1,
        "clone_thread"
    );
    assert_eq!(entries(&mut sys, tid, |c| c.sem_create(0)), 1, "sem_create");
    assert_eq!(entries(&mut sys, tid, |c| c.sem_wait(sem)), 1, "sem_wait");
    assert_eq!(entries(&mut sys, tid, |c| c.sem_post(sem)), 1, "sem_post");
    assert_eq!(
        entries(&mut sys, tid, |c| c.open("/traps.txt", OpenFlags::rdonly())),
        1,
        "open"
    );
    assert_eq!(entries(&mut sys, tid, |c| c.read(fd, 4)), 1, "read");
    assert_eq!(entries(&mut sys, tid, |c| c.write(fd, b"more")), 1, "write");
    assert_eq!(entries(&mut sys, tid, |c| c.lseek(fd, 0)), 1, "lseek");
    assert_eq!(entries(&mut sys, tid, |c| c.fsync(fd)), 1, "fsync");
    assert_eq!(entries(&mut sys, tid, |c| c.stat("/traps.txt")), 1, "stat");
    assert_eq!(entries(&mut sys, tid, |c| c.mkdir("/trapdir")), 1, "mkdir");
    assert_eq!(entries(&mut sys, tid, |c| c.list_dir("/")), 1, "list_dir");
    assert_eq!(
        entries(&mut sys, tid, |c| c.unlink("/trapdir")),
        1,
        "unlink"
    );
    assert_eq!(entries(&mut sys, tid, |c| c.pipe()), 1, "pipe");
    assert_eq!(entries(&mut sys, tid, |c| c.dup(fd)), 1, "dup");
    assert_eq!(entries(&mut sys, tid, |c| c.close(fd)), 1, "close");
    assert_eq!(
        entries(&mut sys, tid, |c| c.read_key_event(events)),
        1,
        "read_key_event"
    );
    assert_eq!(entries(&mut sys, tid, |c| c.fb_info()), 1, "fb_info");
    assert_eq!(entries(&mut sys, tid, |c| c.fb_map()), 1, "fb_map");
    assert_eq!(
        entries(&mut sys, tid, |c| c.fb_write(0, &[0; 8])),
        0,
        "fb_write"
    );
    assert_eq!(entries(&mut sys, tid, |c| c.fb_flush()), 1, "fb_flush");
    assert_eq!(
        entries(&mut sys, tid, |c| c.surface_create("more")),
        1,
        "surface_create"
    );
    assert_eq!(
        entries(&mut sys, tid, |c| c.surface_configure(surface, rect, false)),
        1,
        "surface_configure"
    );
    assert_eq!(
        entries(&mut sys, tid, |c| c.surface_present(surface, &[0; 64])),
        0,
        "surface_present"
    );
    // exec enters once itself, then reads its image through open, one read
    // per 64 KB until the empty read at end of file, and close.
    let reads = image_size.div_ceil(64 * 1024) as usize + 1;
    let spawned = entries(&mut sys, tid, |c| c.spawn("/bin/helloworld", &[]).unwrap());
    assert_eq!(spawned, 1 + 1 + reads + 1);
}
