//! Hostile syscall arguments must end in an error, never a kernel panic.
//!
//! The boundary sweep drives every [`UserCtx`] syscall stub, one row per
//! [`Sysno`], with integer edges and odd paths on both mounts and asserts
//! only that each call returns: it does not say which error is right. The single-case tests
//! after it pin what one site does with one hostile argument (a clamp, a
//! rejection, a saturation), each named for the behaviour it keeps.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kernel::wm::Rect;
use kernel::{KResult, OpenFlags, Sysno, TaskId};
use proto_repro::prelude::*;

/// The integer edges of a parameter type: 0, 1, -1, MIN, MAX, MAX - 1,
/// `u32::MAX` and `u32::MAX + 1`, each truncated to the type the way a
/// 64-bit register is (so -1 is MAX for an unsigned type and `u32::MAX + 1`
/// is 0 for a 32-bit one), without repeats.
macro_rules! edges {
    ($t:ty) => {
        [
            0,
            1,
            -1,
            <$t>::MIN as i128,
            <$t>::MAX as i128,
            <$t>::MAX as i128 - 1,
            i128::from(u32::MAX),
            i128::from(u32::MAX) + 1,
        ]
        .into_iter()
        .map(|x| x as $t)
        .fold(Vec::<$t>::new(), |mut v, x| {
            if !v.contains(&x) {
                v.push(x);
            }
            v
        })
    };
}

/// The sweep's row for syscall `no`: the calls it makes. A stub that
/// shares its call's number shares its row, after a fresh caller of its own.
/// The `match` has no wildcard arm, so a new syscall does not compile until
/// it has a row.
fn row(no: Sysno, s: &mut Sweep) {
    match no {
        Sysno::Getpid => {
            s.call("getpid()", |ctx| Ok(ctx.getpid()));
        }
        Sysno::Fork => {
            s.call("fork()", |ctx| ctx.fork(Box::new(ExitAtOnce)));
        }
        Sysno::Exec => {
            for path in s.paths() {
                let args = [path.clone()];
                s.call(format_args!("spawn({path:?})"), |ctx| {
                    ctx.spawn(&path, &args)
                });
            }
        }
        // No stub traps with these: a step returns `StepResult::Exited`, and
        // `now_us` reads the clock.
        Sysno::Exit | Sysno::Uptime => {}
        Sysno::Wait => {
            s.call("wait_child() with no child", |ctx| ctx.wait_child());
            s.call("fork()", |ctx| ctx.fork(Box::new(ExitAtOnce)));
            s.call("wait_child()", |ctx| ctx.wait_child());
            s.call("wait_child() again", |ctx| ctx.wait_child());
        }
        // Its edges include the window manager's pid and its own caller.
        Sysno::Kill => {
            let mut pids = edges!(TaskId);
            pids.extend(s.call("fork()", |ctx| ctx.fork(Box::new(ExitAtOnce))));
            pids.extend(s.call("getpid()", |ctx| Ok(ctx.getpid())));
            for pid in pids {
                s.call(format_args!("kill({pid})"), |ctx| ctx.kill(pid));
            }
        }
        Sysno::Sleep => {
            for us in edges!(u64) {
                s.call(format_args!("sleep_us({us})"), |ctx| ctx.sleep_us(us));
            }
            s.fresh_caller("sleep_ms");
            for ms in edges!(u64) {
                s.call(format_args!("sleep_ms({ms})"), |ctx| ctx.sleep_ms(ms));
            }
        }
        Sysno::Yield => {
            s.call("yield_now()", |ctx| ctx.yield_now());
        }
        Sysno::Sbrk => {
            for delta in edges!(i64) {
                s.call(format_args!("sbrk({delta})"), |ctx| ctx.sbrk(delta));
            }
        }
        Sysno::Priority => {
            for p in edges!(u8) {
                s.call(format_args!("set_priority({p})"), |ctx| ctx.set_priority(p));
            }
        }
        Sysno::Open => {
            let flags = [
                OpenFlags::rdonly(),
                OpenFlags::wronly_create(),
                OpenFlags::rdwr(),
                OpenFlags::rdonly_nonblock(),
            ];
            for path in s.paths() {
                for f in flags {
                    if let Some(fd) = s.call(format_args!("open({path:?}, {f:?})"), |ctx| {
                        ctx.open(&path, f)
                    }) {
                        s.call(format_args!("close({fd})"), |ctx| ctx.close(fd));
                    }
                }
            }
        }
        Sysno::Close => {
            let fds = s.fds();
            // The second pass closes descriptors the first one already closed.
            for fd in fds.iter().chain(&fds).copied() {
                s.call(format_args!("close({fd})"), |ctx| ctx.close(fd));
            }
        }
        Sysno::Read => {
            for fd in s.fds() {
                for max in edges!(usize) {
                    s.call(format_args!("read({fd}, {max})"), |ctx| ctx.read(fd, max));
                }
            }
            let file = s.file_fd();
            for offset in edges!(u64) {
                for max in edges!(usize) {
                    s.call(format_args!("lseek({offset}) + read({max})"), |ctx| {
                        ctx.lseek(file, offset)?;
                        ctx.read(file, max)
                    });
                }
            }
            s.fresh_caller("read_key_event");
            for fd in s.fds() {
                s.call(format_args!("read_key_event({fd})"), |ctx| {
                    ctx.read_key_event(fd)
                });
            }
        }
        Sysno::Write => {
            for fd in s.fds() {
                for len in [0, 1, 4097] {
                    s.call(format_args!("write({fd}, {len} bytes)"), |ctx| {
                        ctx.write(fd, &vec![0x5A; len])
                    });
                }
            }
            let file = s.file_fd();
            for offset in edges!(u64) {
                s.call(format_args!("lseek({offset}) + write"), |ctx| {
                    ctx.lseek(file, offset)?;
                    ctx.write(file, b"tail")
                });
            }
        }
        Sysno::Lseek => {
            for fd in s.fds() {
                for offset in edges!(u64) {
                    s.call(format_args!("lseek({fd}, {offset})"), |ctx| {
                        ctx.lseek(fd, offset)
                    });
                }
            }
        }
        Sysno::Fsync => {
            for fd in s.fds() {
                s.call(format_args!("fsync({fd})"), |ctx| ctx.fsync(fd));
            }
        }
        Sysno::Stat => {
            for path in s.paths() {
                s.call(format_args!("stat({path:?})"), |ctx| ctx.stat(&path));
            }
        }
        Sysno::Mkdir => {
            for path in s.paths() {
                s.call(format_args!("mkdir({path:?})"), |ctx| ctx.mkdir(&path));
            }
        }
        Sysno::Unlink => {
            for path in s.paths() {
                s.call(format_args!("unlink({path:?})"), |ctx| ctx.unlink(&path));
            }
        }
        Sysno::Readdir => {
            for path in s.paths() {
                s.call(format_args!("list_dir({path:?})"), |ctx| {
                    ctx.list_dir(&path)
                });
            }
        }
        Sysno::Pipe => {
            s.call("pipe()", |ctx| ctx.pipe());
        }
        Sysno::Dup => {
            for fd in s.fds() {
                s.call(format_args!("dup({fd})"), |ctx| ctx.dup(fd));
            }
        }
        Sysno::MmapFb => {
            for _ in 0..2 {
                s.call("fb_map()", |ctx| ctx.fb_map());
            }
            s.fresh_caller("fb_write");
            s.call("fb_write(0) unmapped", |ctx| ctx.fb_write(0, &[0]));
            s.call("fb_map()", |ctx| ctx.fb_map());
            for offset in edges!(usize) {
                for len in [0, 1, 2] {
                    s.call(format_args!("fb_write({offset}, {len} px)"), |ctx| {
                        ctx.fb_write(offset, &vec![0xFF00_FF00; len])
                    });
                }
            }
        }
        Sysno::FbFlush => {
            s.call("fb_flush() unmapped", |ctx| ctx.fb_flush());
            s.call("fb_map()", |ctx| ctx.fb_map());
            s.call("fb_flush()", |ctx| ctx.fb_flush());
        }
        Sysno::Clone => {
            s.call("clone_thread()", |ctx| {
                ctx.clone_thread(Box::new(ExitAtOnce))
            });
        }
        Sysno::SemCreate => {
            for value in edges!(i64) {
                s.call(format_args!("sem_create({value})"), |ctx| {
                    ctx.sem_create(value)
                });
            }
        }
        Sysno::SemWait => {
            for (sem, what) in s.sems() {
                s.call(format_args!("sem_wait({what})"), |ctx| ctx.sem_wait(sem));
            }
        }
        Sysno::SemPost => {
            for (sem, what) in s.sems() {
                for _ in 0..2 {
                    s.call(format_args!("sem_post({what})"), |ctx| ctx.sem_post(sem));
                }
            }
        }
        Sysno::FbInfo => {
            s.call("fb_info()", |ctx| ctx.fb_info());
        }
        Sysno::SurfaceCreate => {
            for title in s.paths() {
                s.call(format_args!("surface_create({title:?})"), |ctx| {
                    ctx.surface_create(&title)
                });
            }
        }
        Sysno::SurfaceConfigure => {
            for fd in s.fds() {
                s.call(format_args!("surface_configure({fd})"), |ctx| {
                    ctx.surface_configure(fd, rect(0, 0, 8, 8), false)
                });
            }
            let surface = s.surface_fd();
            // The last edge, MAX - 1, leaves the surface far off screen for
            // the compositor to run over afterwards.
            let rects = edges!(u32).into_iter().flat_map(|e| {
                [
                    rect(0, 0, e, e),
                    rect(0, 0, e, 1),
                    rect(0, 0, 1, e),
                    rect(e, e, 8, 8),
                ]
            });
            for rect in rects {
                for floating in [false, true] {
                    s.call(
                        format_args!("surface_configure({rect:?}, {floating})"),
                        |ctx| ctx.surface_configure(surface, rect, floating),
                    );
                }
            }
            s.fresh_caller("surface_present");
            let surface = s.surface_fd();
            s.call("surface_present() unconfigured", |ctx| {
                ctx.surface_present(surface, &[])
            });
            s.call("surface_configure(8x8)", |ctx| {
                ctx.surface_configure(surface, rect(0, 0, 8, 8), false)
            });
            for fd in s.fds() {
                for len in [0, 1, 63, 64, 65] {
                    s.call(format_args!("surface_present({fd}, {len} px)"), |ctx| {
                        ctx.surface_present(fd, &vec![0xFF00_00FF; len])
                    });
                }
            }
        }
    }
}

fn rect(x: u32, y: u32, w: u32, h: u32) -> Rect {
    Rect { x, y, w, h }
}

/// A child or thread body that exits on its first step.
struct ExitAtOnce;

impl UserProgram for ExitAtOnce {
    fn step(&mut self, _ctx: &mut UserCtx<'_>) -> StepResult {
        StepResult::Exited(0)
    }
}

/// One booted desktop system with one mount under test. Each row calls
/// from a task of its own, so a row that sleeps, blocks or kills its caller
/// leaves the next row's caller as it was.
struct Sweep {
    sys: ProtoSystem,
    /// `""` for the root mount, `"/d"` for FAT32.
    mount: &'static str,
    caller: TaskId,
    panics: Vec<String>,
}

impl Sweep {
    fn new(mount: &'static str) -> Sweep {
        let sys = ProtoSystem::desktop().unwrap();
        let mut s = Sweep {
            sys,
            mount,
            caller: 0,
            panics: Vec::new(),
        };
        s.fresh_caller("setup");
        let file = format!("{mount}/sweep.bin");
        s.call("create sweep.bin", |ctx| {
            let fd = ctx.open(&file, OpenFlags::wronly_create())?;
            ctx.write(fd, &[0xA5; 4096])?;
            ctx.close(fd)
        })
        .expect("the sweep's file is created");
        s
    }

    /// Starts a row: later calls come from a fresh task.
    fn fresh_caller(&mut self, name: &str) {
        self.caller = self.sys.kernel.spawn_bench_task(name).unwrap();
    }

    /// Makes one call from the row's task and returns its value on `Ok`.
    /// The result is `Ok` or a `KernelError` by type; a panic is recorded
    /// with the call that raised it instead of ending the sweep.
    fn call<R>(
        &mut self,
        case: impl Display,
        f: impl FnOnce(&mut UserCtx<'_>) -> KResult<R>,
    ) -> Option<R> {
        let (kernel, caller) = (&mut self.sys.kernel, self.caller);
        match catch_unwind(AssertUnwindSafe(|| kernel.with_task_ctx(caller, f))) {
            Ok(result) => result.ok(),
            Err(_) => {
                self.panics.push(format!("{}: {case}", self.label()));
                None
            }
        }
    }

    fn label(&self) -> &'static str {
        if self.mount.is_empty() {
            "/"
        } else {
            self.mount
        }
    }

    /// Odd paths on the mount: empty, the mount itself, doubled and dot
    /// segments, a 300-byte name, an embedded NUL, non-ASCII, a relative
    /// path, a file used as a directory and a missing parent.
    fn paths(&self) -> Vec<String> {
        let m = self.mount;
        vec![
            String::new(),
            format!("{m}/"),
            format!("{m}//"),
            format!("{m}/."),
            format!("{m}/.."),
            format!("{m}/{}", "n".repeat(300)),
            format!("{m}/nul\0byte"),
            format!("{m}/ünï©ødé"),
            format!("{}relative", m.trim_start_matches('/')),
            format!("{m}/sweep.bin/child"),
            format!("{m}/missing/child"),
        ]
    }

    /// Integer-edge semaphore ids, then one live semaphore created with each
    /// integer edge as its count, each with how to name it in a report.
    fn sems(&mut self) -> Vec<(u64, String)> {
        let mut sems: Vec<(u64, String)> = edges!(u64)
            .into_iter()
            .map(|id| (id, id.to_string()))
            .collect();
        for value in edges!(i64) {
            let what = format!("sem_create({value})");
            if let Some(id) = self.call(&what, |ctx| ctx.sem_create(value)) {
                sems.push((id, what));
            }
        }
        sems
    }

    /// Opens the sweep's file read-write from the row's task, creating it
    /// again if an earlier call erased it: the sweep checks that calls
    /// return, and the single-case tests check what they leave behind.
    fn file_fd(&mut self) -> i32 {
        let file = format!("{}/sweep.bin", self.mount);
        let flags = OpenFlags {
            create: true,
            ..OpenFlags::rdwr()
        };
        self.call("open sweep.bin", |ctx| ctx.open(&file, flags))
            .expect("the sweep's file opens")
    }

    /// Creates a surface from the row's task.
    fn surface_fd(&mut self) -> i32 {
        self.call("surface_create", |ctx| ctx.surface_create("sweep"))
            .expect("a surface is created")
    }

    /// Integer-edge descriptors, the descriptor table's own edge, and one
    /// live descriptor of each kind opened from the row's task: the
    /// sweep's file, the mount's root directory, both ends of a pipe, each
    /// device file, a proc file and a surface.
    fn fds(&mut self) -> Vec<i32> {
        let mut fds = edges!(i32);
        let table = kernel::vfs::MAX_FDS as i32;
        fds.extend([table - 1, table]);
        fds.push(self.file_fd());
        let root = format!("{}/", self.mount);
        let opens = [
            (root.as_str(), OpenFlags::rdonly()),
            ("/dev/fb", OpenFlags::rdwr()),
            ("/dev/events", OpenFlags::rdonly_nonblock()),
            ("/dev/event1", OpenFlags::rdonly()),
            ("/dev/sb", OpenFlags::rdwr()),
            ("/dev/null", OpenFlags::rdwr()),
            ("/dev/console", OpenFlags::rdwr()),
            ("/proc/cpuinfo", OpenFlags::rdonly()),
        ];
        for (path, flags) in opens {
            fds.extend(self.call(format_args!("open({path})"), |ctx| ctx.open(path, flags)));
        }
        if let Some((r, w)) = self.call("pipe()", |ctx| ctx.pipe()) {
            fds.extend([r, w]);
        }
        fds.push(self.surface_fd());
        fds
    }
}

#[test]
fn boundary_values_through_every_stub_never_panic() {
    let mut panics = Vec::new();
    for mount in ["", "/d"] {
        let mut s = Sweep::new(mount);
        // kill runs last, because it kills its own caller.
        let kill_last = Sysno::ALL.iter().filter(|&&no| no != Sysno::Kill);
        for &no in kill_last.chain([&Sysno::Kill]) {
            s.fresh_caller(&format!("{no:?}"));
            row(no, &mut s);
        }
        // Let kbio, the window manager and the children work over what the
        // calls left behind.
        let sys = &mut s.sys;
        if catch_unwind(AssertUnwindSafe(|| sys.run_ms(200))).is_err() {
            s.panics
                .push(format!("{}: run_ms(200) after the sweep", s.label()));
        }
        panics.append(&mut s.panics);
    }
    assert!(
        panics.is_empty(),
        "calls that panicked:\n{}",
        panics.join("\n")
    );
}

fn desktop() -> (ProtoSystem, kernel::TaskId) {
    let mut sys = ProtoSystem::desktop().unwrap();
    let tid = sys.kernel.spawn_bench_task("hard").unwrap();
    (sys, tid)
}

#[test]
fn sleeping_forever_saturates_instead_of_overflowing() {
    // A forever sleep saturates instead of overflowing, both in the wake
    // deadline (`now_us() + us`) and in `sleep_ms`'s conversion to
    // microseconds, which runs in the stub before the trap (a wrapped
    // conversion would turn `sleep_ms(u64::MAX)` into a 384 us nap). The
    // task stays asleep for good.
    let forever: [fn(&mut UserCtx<'_>) -> KResult<()>; 2] =
        [|ctx| ctx.sleep_us(u64::MAX), |ctx| ctx.sleep_ms(u64::MAX)];
    for sleep in forever {
        let (mut sys, tid) = desktop();
        sys.kernel.with_task_ctx(tid, sleep).unwrap();
        assert_eq!(
            sys.kernel.task(tid).unwrap().state,
            kernel::TaskState::Sleeping(u64::MAX)
        );
        // The sleeper never wakes on its own.
        sys.run_ms(50);
        assert_eq!(
            sys.kernel.task(tid).unwrap().state,
            kernel::TaskState::Sleeping(u64::MAX)
        );
    }
}

#[test]
fn huge_read_requests_are_clamped_to_the_fs_size_limit() {
    // read(fd, usize::MAX) used to allocate the caller's `max` verbatim;
    // the scratch buffer is now clamped to the filesystem's file-size cap.
    let (mut sys, tid) = desktop();
    let data = b"short file".to_vec();
    let back = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/clamp.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, &data)?;
            ctx.close(fd)?;
            let fd = ctx.open("/clamp.txt", OpenFlags::rdonly())?;
            let back = ctx.read(fd, usize::MAX)?;
            ctx.close(fd)?;
            Ok::<_, kernel::KernelError>(back)
        })
        .unwrap();
    assert_eq!(back, data);
}

#[test]
fn proc_reads_at_an_offset_do_not_overflow() {
    // The second read starts at a nonzero snapshot offset; adding
    // usize::MAX to it used to overflow in debug builds.
    let (mut sys, tid) = desktop();
    let (first, rest) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/proc/cpuinfo", OpenFlags::rdonly())?;
            let first = ctx.read(fd, 8)?;
            let rest = ctx.read(fd, usize::MAX)?;
            ctx.close(fd)?;
            Ok::<_, kernel::KernelError>((first, rest))
        })
        .unwrap();
    assert_eq!(first.len(), 8);
    assert!(!rest.is_empty(), "remainder of the snapshot after offset 8");
}

#[test]
fn fat_writes_past_the_file_size_limit_are_rejected() {
    // An offset write whose end exceeds the FAT32 4 GiB file cap (or
    // overflows entirely) must fail cleanly instead of resizing a
    // multi-gigabyte RMW buffer or panicking on the offset addition.
    let (mut sys, tid) = desktop();
    for offset in [u64::MAX - 2, u64::from(u32::MAX) + 10] {
        let r = sys.kernel.with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/limits.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"seed")?;
            ctx.lseek(fd, offset)?;
            let r = ctx.write(fd, b"tail");
            ctx.close(fd)?;
            r
        });
        assert!(
            matches!(r, Err(kernel::KernelError::Invalid(_))),
            "offset {offset}: {r:?}"
        );
    }
}

#[test]
fn reads_past_4_gib_are_past_end_of_file() {
    // The filesystems take 32-bit file offsets. A read at 4 GiB used to
    // truncate the descriptor's offset to 0 and return the file's first
    // bytes; it now reads nothing, as at end of file, on both filesystems.
    let (mut sys, tid) = desktop();
    for path in ["/far.txt", "/d/far.txt"] {
        let (far, near) = sys
            .kernel
            .with_task_ctx(tid, |ctx| {
                let fd = ctx.open(path, OpenFlags::wronly_create())?;
                ctx.write(fd, b"HEADER-BYTES")?;
                ctx.close(fd)?;
                let fd = ctx.open(path, OpenFlags::rdonly())?;
                ctx.lseek(fd, 1 << 32)?;
                let far = ctx.read(fd, 64)?;
                ctx.lseek(fd, 0)?;
                let near = ctx.read(fd, 64)?;
                ctx.close(fd)?;
                Ok::<_, kernel::KernelError>((far, near))
            })
            .unwrap();
        assert!(far.is_empty(), "{path}: read at 4 GiB returned {far:?}");
        assert_eq!(near, b"HEADER-BYTES", "{path}");
    }
}

#[test]
fn root_writes_past_4_gib_are_rejected() {
    // A write at 4 GiB used to land on the file's first bytes ("XXADER-
    // BYTES"). Like FAT writes past the file size limit, it now fails and
    // leaves the file alone.
    let (mut sys, tid) = desktop();
    let (r, back) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/far.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, b"HEADER-BYTES")?;
            ctx.lseek(fd, 1 << 32)?;
            let r = ctx.write(fd, b"XX");
            ctx.close(fd)?;
            let fd = ctx.open("/far.txt", OpenFlags::rdonly())?;
            let back = ctx.read(fd, 64)?;
            ctx.close(fd)?;
            Ok::<_, kernel::KernelError>((r, back))
        })
        .unwrap();
    assert!(
        matches!(r, Err(kernel::KernelError::Invalid(_))),
        "write at 4 GiB: {r:?}"
    );
    assert_eq!(back, b"HEADER-BYTES");
}

#[test]
fn writes_to_a_root_directory_descriptor_are_refused() {
    // Only the filesystem writes a directory's entries, and every name of
    // `/` stays; the boundary sweep's write row found the root directory
    // erased by a write through its descriptor. A read-only descriptor is
    // refused the write for its access mode, and a read-write one is never
    // handed out: `open` fails with the filesystem's `IsADirectory`.
    let (mut sys, tid) = desktop();
    let (read_only, read_write, before, after) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let before = ctx.list_dir("/")?;
            let fd = ctx.open("/", OpenFlags::rdonly())?;
            let read_only = (fd, ctx.write(fd, &[0x5A; 4097]));
            ctx.close(fd)?;
            let read_write = ctx.open("/", OpenFlags::rdwr());
            Ok::<_, kernel::KernelError>((read_only, read_write, before, ctx.list_dir("/")?))
        })
        .unwrap();
    assert_eq!(
        read_only.1,
        Err(kernel::KernelError::BadFd(read_only.0)),
        "write to / through a read-only descriptor"
    );
    assert!(
        matches!(
            read_write,
            Err(kernel::KernelError::Fs(
                proto_repro::protofs::FsError::IsADirectory(_)
            ))
        ),
        "read-write open of /: {read_write:?}"
    );
    assert_eq!(after, before);
}

#[test]
fn framebuffer_writes_whose_end_overflows_are_rejected() {
    // The bounds check adds `offset_px + pixels.len()` with `checked_add`:
    // at an offset of usize::MAX - 1 the plain sum overflows, which panics
    // a debug kernel on the addition and a release one on the slice index.
    // A write whose end overflows and a write one pixel past the end both
    // fail, and a write that ends at the last pixel still lands.
    let (mut sys, tid) = desktop();
    let (huge, past_end, last, end) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            ctx.fb_map()?;
            let (w, h) = ctx.fb_info()?;
            let end = (w * h) as usize;
            let huge = ctx.fb_write(usize::MAX - 1, &[0, 0]);
            let past_end = ctx.fb_write(end - 1, &[0, 0]);
            let last = ctx.fb_write(end - 2, &[0xFF12_3456, 0xFF65_4321]);
            Ok::<_, kernel::KernelError>((huge, past_end, last, end))
        })
        .unwrap();
    for (what, r) in [("usize::MAX - 1", huge), ("one past the end", past_end)] {
        assert!(
            matches!(r, Err(kernel::KernelError::Device(_))),
            "write at {what}: {r:?}"
        );
    }
    last.unwrap();
    let fb = &sys.kernel.board.framebuffer;
    assert_eq!(fb.staged_pixels()[end - 2..], [0xFF12_3456, 0xFF65_4321]);
}

/// The heap base and the free frames of the bench task `tid`.
fn heap_base_and_free_frames(sys: &ProtoSystem, tid: kernel::TaskId) -> (u64, usize) {
    let heap = sys
        .kernel
        .address_space_of(tid)
        .and_then(|space| {
            space
                .regions()
                .iter()
                .find(|r| r.kind == kernel::mm::RegionKind::Heap)
                .map(|r| r.start)
        })
        .expect("the bench task has a heap");
    (heap, sys.kernel.mm.frames.free_frames())
}

#[test]
fn shrinking_the_heap_by_i64_min_stops_at_the_heap_base() {
    // A shrink takes the delta's `unsigned_abs`, since negating i64::MIN
    // overflows ("attempt to negate with overflow" in a debug build), and
    // stops at the heap base.
    let (mut sys, tid) = desktop();
    let (base, _) = heap_base_and_free_frames(&sys, tid);
    let (old, after) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let old = ctx.sbrk(0)?;
            let r = ctx.sbrk(i64::MIN)?;
            assert_eq!(r, old, "sbrk returns the old break");
            Ok::<_, kernel::KernelError>((old, ctx.sbrk(0)?))
        })
        .unwrap();
    assert!(old >= base);
    assert_eq!(after, base, "the break stops at the heap base");
}

#[test]
fn a_heap_growth_past_free_memory_maps_nothing() {
    // A growth the free frames cannot back fails before it maps anything
    // and leaves the break where it was. Mapping first and failing part-way
    // would keep every free frame until the task exited, so the next small
    // growth would fail too.
    let (mut sys, tid) = desktop();
    let (_, free_before) = heap_base_and_free_frames(&sys, tid);
    let (old, huge, after) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let old = ctx.sbrk(0)?;
            let huge = ctx.sbrk(64 << 30);
            Ok::<_, kernel::KernelError>((old, huge, ctx.sbrk(0)?))
        })
        .unwrap();
    assert!(
        matches!(huge, Err(kernel::KernelError::NoMemory)),
        "sbrk(64 GiB): {huge:?}"
    );
    assert_eq!(after, old, "the break did not move");
    assert_eq!(heap_base_and_free_frames(&sys, tid).1, free_before);
    let small = sys.kernel.with_task_ctx(tid, |ctx| ctx.sbrk(4096)).unwrap();
    assert_eq!(small, old, "a small growth still succeeds");
}
