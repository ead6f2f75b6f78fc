//! Integration tests for the syscall surface: files, pipes, devices, fork,
//! threads and the framebuffer cache-flush behaviour.

use kernel::{KResult, KernelError, OpenFlags, Sysno};
use proto_repro::prelude::*;

fn desktop() -> (ProtoSystem, kernel::TaskId) {
    let mut sys = ProtoSystem::desktop().unwrap();
    let tid = sys.kernel.spawn_bench_task("itest").unwrap();
    (sys, tid)
}

/// A call's outcome as a behaviour-table cell: the value on success, the
/// error's variant name (a filesystem error's own variant) on failure.
fn cell(r: KResult<String>) -> String {
    let name = match r {
        Ok(s) => return s,
        Err(KernelError::Fs(e)) => format!("{e:?}"),
        Err(e) => format!("{e:?}"),
    };
    name.split('(').next().unwrap().to_string()
}

/// Reads everything left behind `fd`.
fn read_text(ctx: &mut kernel::UserCtx<'_>, fd: i32) -> KResult<String> {
    Ok(String::from_utf8_lossy(&ctx.read(fd, 1024)?).into_owned())
}

/// One step of the behaviour table: what it does, given the mount's base
/// path (`""` for `/`, `"/d"`), and the cell it gives on `/` and on `/d`.
type Row = (
    &'static str,
    fn(&mut kernel::UserCtx<'_>, &str) -> KResult<String>,
    &'static str,
    &'static str,
);

#[test]
fn files_round_trip_on_both_filesystems() {
    // The same calls on both mounts, in order, each reading the state the
    // rows above it left. Where the cells differ, the row says why.
    let rows: [Row; 13] = [
        (
            "write, close, reopen and read back",
            |ctx, base| {
                let path = format!("{base}/notes.txt");
                let fd = ctx.open(&path, OpenFlags::wronly_create())?;
                ctx.write(fd, b"hello")?;
                ctx.close(fd)?;
                let fd = ctx.open(&path, OpenFlags::rdonly())?;
                let back = read_text(ctx, fd)?;
                ctx.close(fd)?;
                Ok(back)
            },
            "hello",
            "hello",
        ),
        (
            "open a missing file without create",
            |ctx, base| {
                Ok(ctx
                    .open(&format!("{base}/missing.txt"), OpenFlags::rdonly())?
                    .to_string())
            },
            "NotFound",
            "NotFound",
        ),
        (
            "stat a file",
            |ctx, base| Ok(format!("{:?}", ctx.stat(&format!("{base}/notes.txt"))?)),
            "FileStat { size: 5, is_dir: false }",
            "FileStat { size: 5, is_dir: false }",
        ),
        (
            "mkdir",
            |ctx, base| Ok(format!("{:?}", ctx.mkdir(&format!("{base}/sub"))?)),
            "()",
            "()",
        ),
        (
            "mkdir the same name again",
            |ctx, base| Ok(format!("{:?}", ctx.mkdir(&format!("{base}/sub"))?)),
            "AlreadyExists",
            "AlreadyExists",
        ),
        (
            "stat a directory",
            |ctx, base| Ok(format!("{:?}", ctx.stat(&format!("{base}/sub"))?)),
            "FileStat { size: 0, is_dir: true }",
            "FileStat { size: 0, is_dir: true }",
        ),
        (
            // FAT keeps 8.3 names, and lists them back upper-case.
            "list a directory",
            |ctx, base| {
                let fd = ctx.open(&format!("{base}/sub/inner.txt"), OpenFlags::wronly_create())?;
                ctx.close(fd)?;
                Ok(ctx.list_dir(&format!("{base}/sub"))?.join(","))
            },
            "inner.txt",
            "INNER.TXT",
        ),
        (
            "open a directory for writing",
            |ctx, base| {
                Ok(ctx
                    .open(&format!("{base}/sub"), OpenFlags::rdwr())?
                    .to_string())
            },
            "IsADirectory",
            "IsADirectory",
        ),
        (
            // xv6fs hands out the directory's entries; FAT32 reads only
            // files.
            "read a directory descriptor",
            |ctx, base| {
                let fd = ctx.open(&format!("{base}/sub"), OpenFlags::rdonly())?;
                let r = ctx.read(fd, 1024);
                ctx.close(fd)?;
                Ok(format!("{} bytes", r?.len()))
            },
            "32 bytes",
            "IsADirectory",
        ),
        (
            // `OpenFlags::truncate` is not honoured (ROADMAP open item 3):
            // a write at offset 0 replaces a FAT file, and overwrites the
            // start of an xv6fs one.
            "reopen with wronly_create and write a shorter text",
            |ctx, base| {
                let path = format!("{base}/over.txt");
                let fd = ctx.open(&path, OpenFlags::wronly_create())?;
                ctx.write(fd, b"LONG-ORIGINAL")?;
                ctx.close(fd)?;
                let fd = ctx.open(&path, OpenFlags::wronly_create())?;
                ctx.write(fd, b"new")?;
                ctx.close(fd)?;
                let fd = ctx.open(&path, OpenFlags::rdonly())?;
                let back = read_text(ctx, fd)?;
                ctx.close(fd)?;
                Ok(back)
            },
            "newG-ORIGINAL",
            "new",
        ),
        (
            "unlink",
            |ctx, base| Ok(format!("{:?}", ctx.unlink(&format!("{base}/notes.txt"))?)),
            "()",
            "()",
        ),
        (
            "open what was unlinked",
            |ctx, base| {
                Ok(ctx
                    .open(&format!("{base}/notes.txt"), OpenFlags::rdonly())?
                    .to_string())
            },
            "NotFound",
            "NotFound",
        ),
        (
            "unlink a missing name",
            |ctx, base| Ok(format!("{:?}", ctx.unlink(&format!("{base}/missing.txt"))?)),
            "NotFound",
            "NotFound",
        ),
    ];
    let (mut sys, tid) = desktop();
    for (mount, base) in [("/", ""), ("/d", "/d")] {
        for (step, run, on_root, on_fat) in rows {
            let want = if base.is_empty() { on_root } else { on_fat };
            let got = cell(sys.kernel.with_task_ctx(tid, |ctx| run(ctx, base)));
            assert_eq!(got, want, "{step} on {mount}");
        }
    }
}

/// Opening a directory for writing fails on both mounts, with or without
/// `create`, as POSIX's `open` fails with `EISDIR`: only the filesystem
/// writes a directory's entries. Opening one read-only still works.
#[test]
fn opening_a_directory_for_writing_is_refused_on_both_mounts() {
    let (mut sys, tid) = desktop();
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            ctx.mkdir("/dir")?;
            ctx.mkdir("/d/dir")
        })
        .unwrap();
    for dir in ["/", "/dir", "/d", "/d/dir"] {
        for flags in [OpenFlags::rdwr(), OpenFlags::wronly_create()] {
            let r = sys.kernel.with_task_ctx(tid, |ctx| ctx.open(dir, flags));
            assert!(
                matches!(
                    r,
                    Err(KernelError::Fs(
                        proto_repro::protofs::FsError::IsADirectory(_)
                    ))
                ),
                "{dir} with {flags:?}: {r:?}"
            );
        }
        let fd = sys
            .kernel
            .with_task_ctx(tid, |ctx| ctx.open(dir, OpenFlags::rdonly()))
            .unwrap();
        sys.kernel.with_task_ctx(tid, |ctx| ctx.close(fd)).unwrap();
    }
}

/// The core-cycle and `task_sd_cycles` deltas one call on `tid`'s context
/// moves.
fn charged(
    sys: &mut ProtoSystem,
    tid: kernel::TaskId,
    f: impl FnOnce(&mut kernel::UserCtx<'_>),
) -> (u64, u64) {
    let core = sys.kernel.task(tid).unwrap().core;
    let clock0 = sys.kernel.board.clock.cycles(core);
    let billed0 = sys.kernel.task_sd_cycles(tid);
    sys.kernel.with_task_ctx(tid, f);
    (
        sys.kernel.board.clock.cycles(core) - clock0,
        sys.kernel.task_sd_cycles(tid) - billed0,
    )
}

/// FAT's `mkdir`, `unlink` and `list_dir` are charged for the SD commands
/// they issue, like every other FAT call. On a cold 40-entry directory a
/// listing and an unlink read what a `stat` reads, and pay what it pays;
/// a `mkdir` is billed for its write chains.
#[test]
fn fat_mkdir_unlink_and_list_dir_are_charged_like_stat() {
    let (mut sys, tid) = desktop();
    sys.kernel.install_fat_dir("/pd").unwrap();
    for i in 0..40 {
        sys.kernel
            .install_fat_file(&format!("/pd/f{i}.txt"), b"x")
            .unwrap();
    }
    let mut cold = |f: &dyn Fn(&mut kernel::UserCtx<'_>)| {
        sys.kernel.drop_fs_caches().unwrap();
        charged(&mut sys, tid, f)
    };
    let stat = cold(&|ctx| assert!(!ctx.stat("/d/pd/f7.txt").unwrap().is_dir));
    let list = cold(&|ctx| assert_eq!(ctx.list_dir("/d/pd").unwrap().len(), 40));
    let unlink = cold(&|ctx| ctx.unlink("/d/pd/f7.txt").unwrap());
    let mkdir = cold(&|ctx| ctx.mkdir("/d/pd/sub").unwrap());
    assert!(stat.1 > 0, "a cold stat pays for its reads: {stat:?}");
    assert_eq!(list, stat, "list_dir");
    assert_eq!(unlink, stat, "unlink");
    assert!(mkdir.1 > 0, "mkdir is billed for its chains: {mkdir:?}");
}

/// Each file call's charge, on both mounts: the caller's core-cycle delta
/// and its `task_sd_cycles` delta, as the per-filesystem syscall arms
/// charged them. The one exception is FAT's `mkdir`, which the arms did
/// not charge for its SD commands: it moved the clock 61,227 cycles and
/// billed nothing. It is now charged its SD delta like every other FAT
/// call, and both figures grow by exactly that delta (791,896 cycles).
#[test]
fn each_file_call_is_charged_as_pinned_on_both_mounts() {
    let (mut sys, tid) = desktop();
    let data = vec![0xA5u8; 6 * 1024];
    let mut seen = Vec::new();
    for base in ["", "/d"] {
        let file = format!("{base}/pin.bin");
        let mut fd = 0;
        let mut row = |sys: &mut ProtoSystem,
                       call: &'static str,
                       f: &mut dyn FnMut(&mut kernel::UserCtx<'_>)| {
            seen.push((base, call, charged(sys, tid, f)));
        };
        row(&mut sys, "create", &mut |ctx| {
            fd = ctx.open(&file, OpenFlags::wronly_create()).unwrap()
        });
        row(&mut sys, "write", &mut |ctx| {
            assert_eq!(ctx.write(fd, &data).unwrap(), data.len())
        });
        row(&mut sys, "fsync", &mut |ctx| ctx.fsync(fd).unwrap());
        row(&mut sys, "close", &mut |ctx| ctx.close(fd).unwrap());
        sys.kernel.drop_fs_caches().unwrap();
        row(&mut sys, "open", &mut |ctx| {
            fd = ctx.open(&file, OpenFlags::rdonly()).unwrap()
        });
        row(&mut sys, "read", &mut |ctx| {
            assert_eq!(ctx.read(fd, data.len()).unwrap(), data)
        });
        row(&mut sys, "stat", &mut |ctx| {
            assert_eq!(ctx.stat(&file).unwrap().size, data.len() as u64)
        });
        row(&mut sys, "list_dir", &mut |ctx| {
            assert!(!ctx
                .list_dir(if base.is_empty() { "/" } else { base })
                .unwrap()
                .is_empty())
        });
        row(&mut sys, "mkdir", &mut |ctx| {
            ctx.mkdir(&format!("{base}/pindir")).unwrap()
        });
        row(&mut sys, "unlink", &mut |ctx| ctx.unlink(&file).unwrap());
    }
    let want = [
        ("", "create", (3400, 0)),
        ("", "write", (16257, 0)),
        ("", "fsync", (19476, 16076)),
        ("", "close", (3400, 0)),
        ("", "open", (3400, 0)),
        ("", "read", (16257, 0)),
        ("", "stat", (3400, 0)),
        ("", "list_dir", (3400, 0)),
        ("", "mkdir", (3400, 0)),
        ("", "unlink", (3400, 0)),
        ("/d", "create", (295104, 232752)),
        ("/d", "write", (974512, 905024)),
        ("/d", "fsync", (472409, 353304)),
        ("/d", "close", (3400, 0)),
        ("/d", "open", (295104, 232752)),
        ("/d", "read", (354706, 240176)),
        ("/d", "stat", (3400, 0)),
        ("/d", "list_dir", (3400, 0)),
        ("/d", "mkdir", (853123, 791896)),
        ("/d", "unlink", (3400, 0)),
    ];
    assert_eq!(seen, want);
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
fn a_proc_descriptor_serves_one_snapshot_across_reads() {
    let (mut sys, tid) = desktop();
    let (fd, head) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/proc/uptime", OpenFlags::rdonly())?;
            Ok::<_, KernelError>((fd, ctx.read(fd, 2)?))
        })
        .unwrap();
    sys.run_ms(250);
    let (tail, fresh) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let tail = ctx.read(fd, 64)?;
            ctx.close(fd)?;
            let fd = ctx.open("/proc/uptime", OpenFlags::rdonly())?;
            let fresh = ctx.read(fd, 64)?;
            ctx.close(fd)?;
            Ok::<_, KernelError>((tail, fresh))
        })
        .unwrap();
    assert_eq!(head.len(), 2, "the first read takes two bytes");
    // The second read continues the first read's snapshot: together they
    // hold the uptime from before `run_ms`, which a new descriptor no
    // longer reads.
    let seconds = |bytes: &[u8]| -> f64 {
        let text = String::from_utf8_lossy(bytes);
        text.trim_end()
            .parse()
            .unwrap_or_else(|e| panic!("{text:?}: {e}"))
    };
    let (then, now) = (seconds(&[head, tail].concat()), seconds(&fresh));
    assert!(
        now - then >= 0.25,
        "one snapshot at {then} s, a new one at {now} s"
    );
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
    // The woken task issues its wait again and takes the posted unit...
    sys.kernel
        .with_task_ctx(tid, |ctx| ctx.sem_wait(sem))
        .unwrap();
    // ...which was the only one: the poster's own wait now blocks.
    let r = sys.kernel.with_task_ctx(other, |ctx| ctx.sem_wait(sem));
    assert!(matches!(r, Err(kernel::KernelError::WouldBlock)));
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
        sys.kernel.board.sdhost.card.inject_fault(b);
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
    sys.kernel.board.sdhost.card.clear_faults();
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

/// The numbers of the `SyscallEnter` events that one call of `f` on
/// `tid`'s context records, in order.
fn entries<R>(
    sys: &mut ProtoSystem,
    tid: kernel::TaskId,
    f: impl FnOnce(&mut kernel::UserCtx<'_>) -> R,
) -> Vec<u64> {
    sys.kernel.trace.clear();
    sys.kernel.with_task_ctx(tid, f);
    sys.kernel
        .trace
        .of_kind(kernel::trace::TraceKind::SyscallEnter)
        .iter()
        .filter(|e| e.task == Some(tid))
        .map(|e| e.detail)
        .collect()
}

#[test]
fn each_stub_records_one_entry_per_trap() {
    // Every trapping stub enters the kernel exactly once, with its call's
    // number; read_key_event enters once, as read. The clock read and the
    // two pixel copies do not trap.
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
    // Each call, and the syscalls its entries record.
    macro_rules! traps {
        ($($f:expr => [$($no:ident),*],)*) => {$(
            let want = [$(Sysno::$no as u64),*];
            assert_eq!(entries(&mut sys, tid, $f), want, "{}", stringify!($f));
        )*};
    }
    traps! {
        |c| c.getpid() => [Getpid],
        |c| c.now_us() => [],
        |c| c.sleep_us(1) => [Sleep],
        |c| c.sleep_ms(1) => [Sleep],
        |c| c.yield_now() => [Yield],
        |c| c.sbrk(4096) => [Sbrk],
        |c| c.fork(Box::new(Exit)) => [Fork],
        |c| c.wait_child() => [Wait],
        |c| c.kill(victim) => [Kill],
        |c| c.set_priority(1) => [Priority],
        |c| c.clone_thread(Box::new(Exit)) => [Clone],
        |c| c.sem_create(0) => [SemCreate],
        |c| c.sem_wait(sem) => [SemWait],
        |c| c.sem_post(sem) => [SemPost],
        |c| c.open("/traps.txt", OpenFlags::rdonly()) => [Open],
        |c| c.read(fd, 4) => [Read],
        |c| c.write(fd, b"more") => [Write],
        |c| c.lseek(fd, 0) => [Lseek],
        |c| c.fsync(fd) => [Fsync],
        |c| c.stat("/traps.txt") => [Stat],
        |c| c.mkdir("/trapdir") => [Mkdir],
        |c| c.list_dir("/") => [Readdir],
        |c| c.unlink("/trapdir") => [Unlink],
        |c| c.pipe() => [Pipe],
        |c| c.dup(fd) => [Dup],
        |c| c.close(fd) => [Close],
        |c| c.read_key_event(events) => [Read],
        |c| c.fb_info() => [FbInfo],
        |c| c.fb_map() => [MmapFb],
        |c| c.fb_write(0, &[0; 8]) => [],
        |c| c.fb_flush() => [FbFlush],
        |c| c.surface_create("more") => [SurfaceCreate],
        |c| c.surface_configure(surface, rect, false) => [SurfaceConfigure],
        |c| c.surface_present(surface, &[0; 64]) => [],
    }
    // exec enters once itself, then reads its image through open, one read
    // per 64 KB until the empty read at end of file, and close.
    let reads = image_size.div_ceil(64 * 1024) as usize + 1;
    let mut exec = vec![Sysno::Exec as u64, Sysno::Open as u64];
    exec.extend(vec![Sysno::Read as u64; reads]);
    exec.push(Sysno::Close as u64);
    let spawned = entries(&mut sys, tid, |c| c.spawn("/bin/helloworld", &[]).unwrap());
    assert_eq!(spawned, exec);
}

/// A child that exits with its code on its first step.
struct ExitWith(i32);

impl kernel::UserProgram for ExitWith {
    fn step(&mut self, _ctx: &mut kernel::UserCtx<'_>) -> kernel::StepResult {
        kernel::StepResult::Exited(self.0)
    }
}

#[test]
fn kill_refuses_kernel_threads() {
    let (mut sys, tid) = desktop();
    let threads: Vec<kernel::TaskId> = (0..16)
        .filter(|&id| sys.kernel.task(id).is_some_and(|t| t.kernel_thread))
        .collect();
    let names: Vec<&str> = threads
        .iter()
        .map(|&id| sys.kernel.task(id).unwrap().name.as_str())
        .collect();
    assert_eq!(names, ["kwm", "kbio"]);
    for pid in threads {
        let killed = sys.kernel.with_task_ctx(tid, |ctx| ctx.kill(pid));
        assert!(
            matches!(killed, Err(KernelError::Permission(_))),
            "{killed:?}"
        );
        assert!(!sys.kernel.task(pid).unwrap().is_zombie());
    }
    // kbio still drains a closed write in the background.
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/kill.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x6B; 64 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(sys.kernel.fat_dirty_blocks() > 0);
    sys.run_ms(2000);
    assert_eq!(sys.kernel.fat_dirty_blocks(), 0);
}

#[test]
fn killing_a_zombie_leaves_its_exit_code_to_be_reaped_once() {
    let (mut sys, tid) = desktop();
    let child = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.fork(Box::new(ExitWith(7))))
        .unwrap();
    assert!(sys
        .kernel
        .run_until(|k| k.task(child).is_some_and(|t| t.is_zombie()), 1_000_000));
    assert_eq!(sys.kernel.with_task_ctx(tid, |ctx| ctx.kill(child)), Ok(()));
    assert_eq!(
        sys.kernel.task(child).unwrap().state,
        kernel::TaskState::Zombie(7)
    );
    let first = sys.kernel.with_task_ctx(tid, |ctx| ctx.wait_child());
    assert_eq!(first, Ok(Some((child, 7))));
    let second = sys.kernel.with_task_ctx(tid, |ctx| ctx.wait_child());
    assert!(
        matches!(second, Err(KernelError::NotFound(_))),
        "{second:?}"
    );
}

#[test]
fn reads_and_writes_honour_the_descriptors_access_mode() {
    let (mut sys, tid) = desktop();
    for path in ["/mode.txt", "/d/mode.txt"] {
        sys.kernel
            .with_task_ctx(tid, |ctx| {
                let fd = ctx.open(path, OpenFlags::wronly_create())?;
                ctx.write(fd, b"original")?;
                assert_eq!(ctx.read(fd, 64), Err(KernelError::BadFd(fd)), "{path}");
                ctx.close(fd)?;
                let fd = ctx.open(path, OpenFlags::rdonly())?;
                assert_eq!(
                    ctx.write(fd, b"CLOBBER!"),
                    Err(KernelError::BadFd(fd)),
                    "{path}"
                );
                assert_eq!(ctx.read(fd, 64)?, b"original", "{path}");
                ctx.close(fd)
            })
            .unwrap();
    }
    sys.kernel.sync_all().unwrap();
    let back = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/d/mode.txt", OpenFlags::rdonly())?;
        let data = ctx.read(fd, 64)?;
        ctx.close(fd)?;
        Ok::<_, KernelError>(data)
    });
    assert_eq!(back.unwrap(), b"original");
}

#[test]
fn fork_of_a_4mb_heap_is_an_eager_copy_with_private_pages() {
    // The simulated fork allocates, maps and charges a fresh frame per
    // page, whatever the host does with the bytes: these are the eager
    // copy's figures.
    let (mut sys, tid) = desktop();
    let heap = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.sbrk(4 << 20))
        .unwrap();
    let phys = |sys: &ProtoSystem, task| {
        let space = sys.kernel.address_space_of(task).unwrap();
        space
            .translate(&sys.kernel.board.mem, heap)
            .unwrap()
            .unwrap()
            .phys
    };
    let parent_page = phys(&sys, tid);
    sys.kernel
        .board
        .mem
        .write_u64(parent_page, 0x0123_4567_89AB_CDEF)
        .unwrap();
    let core = sys.kernel.task(tid).unwrap().core;
    let free_before = sys.kernel.mm.frames.free_frames();
    let cycles_before = sys.kernel.board.clock.cycles(core);
    let child = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.fork(Box::new(ExitWith(0))))
        .unwrap();
    let cycles = sys.kernel.board.clock.cycles(core) - cycles_before;
    let pages_copied = sys
        .kernel
        .address_space_of(tid)
        .unwrap()
        .stats()
        .pages_copied;
    let frames_taken = free_before - sys.kernel.mm.frames.free_frames();
    assert_eq!(
        (pages_copied, frames_taken, cycles),
        (1035, 1042, 1_513_150)
    );
    assert_eq!(
        sys.kernel.mm.frame_stats(),
        kernel::mm::FrameStats {
            total: 131_072,
            allocated: 2087,
            peak: 2087,
            alloc_ops: 2087,
            free_ops: 0,
        }
    );
    // The child's heap page is its own copy.
    let child_page = phys(&sys, child);
    assert_ne!(child_page, parent_page);
    let mem = &mut sys.kernel.board.mem;
    assert_eq!(mem.read_u64(child_page).unwrap(), 0x0123_4567_89AB_CDEF);
    mem.write_u64(child_page, 1).unwrap();
    assert_eq!(mem.read_u64(parent_page).unwrap(), 0x0123_4567_89AB_CDEF);
    mem.write_u64(parent_page + 8, 2).unwrap();
    assert_eq!(mem.read_u64(child_page + 8).unwrap(), 0);
    assert_eq!(mem.read_u64(child_page).unwrap(), 1);
}
