//! A parked syscall is issued again after its wakeup (§4.5), so a call that
//! parks must change nothing until the try that completes it.
//!
//! The retry table has one row per place a syscall parks its caller. A
//! scheduled task issues the row's call until it stops returning
//! `WouldBlock`. The test checks that the task parked on the row's wait
//! channel, then releases the condition. The call must then succeed exactly
//! once, with the result and the side effects of the same call issued where
//! it never parked: the bytes, the descriptor offsets and count, the
//! semaphore's units, the pipe's residue and the file's contents.

use std::sync::{Arc, Mutex};

use hal::sdhost::{SdSgRun, SD_QUEUE_DEPTH};
use kernel::kernel::FAT_PARTITION_START;
use kernel::task::WaitChannel;
use kernel::vfs::FileKind;
use kernel::{KResult, KernelError, OpenFlags, ProgramImage, StepResult, TaskId, TaskState};
use kernel::{UserCtx, UserProgram};
use proto_repro::prelude::*;

/// Board time a run may take to park, and then to complete.
const BUDGET_US: u64 = 2_000_000;

/// What a row's stage holds, for its call, release and side effects.
#[derive(Debug, Clone, Copy, Default)]
struct Fixture {
    /// The scheduled task that issues the call.
    retrier: TaskId,
    /// A second task that sets up and releases the condition.
    peer: TaskId,
    /// The retrier's descriptor the call uses.
    fd: i32,
    /// The peer's descriptor: the other end of a pipe.
    peer_fd: i32,
    /// The semaphore, pipe or child the call waits on.
    id: u64,
}

/// What the retrier saw.
#[derive(Default)]
struct Log {
    fixture: Fixture,
    /// Times the retrier issued its call.
    tries: u32,
    /// Every outcome that was not `WouldBlock`.
    outcomes: Vec<KResult<String>>,
}

type Call = fn(&mut UserCtx<'_>, &Fixture) -> KResult<String>;

/// Issues `call` until it stops returning `WouldBlock`, then idles.
struct Retrier {
    call: Call,
    log: Arc<Mutex<Log>>,
}

impl UserProgram for Retrier {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let mut log = self.log.lock().unwrap();
        if log.outcomes.is_empty() {
            log.tries += 1;
            let fixture = log.fixture;
            match (self.call)(ctx, &fixture) {
                Err(KernelError::WouldBlock) => {}
                outcome => log.outcomes.push(outcome),
            }
        } else {
            ctx.sleep_ms(1000).unwrap();
        }
        StepResult::Continue
    }
}

/// A task that only sleeps: a child to wait for, or a pipe's peer.
struct Idle;

impl UserProgram for Idle {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        ctx.sleep_ms(1000).unwrap();
        StepResult::Continue
    }
}

/// One row of the table.
struct Row {
    name: &'static str,
    /// Builds the row's stage: starts the retrier running `program` and,
    /// when `park` is set, the condition the call parks on. Without it the
    /// condition is already released, so the call never parks.
    setup: fn(&mut ProtoSystem, Box<dyn UserProgram>, bool) -> Fixture,
    call: Call,
    /// The channel the call parks on.
    channel: fn(&Fixture) -> WaitChannel,
    /// Releases the condition, once the call has parked.
    release: fn(&mut ProtoSystem, &Fixture),
    /// The call's side effects, read once it has completed.
    effects: fn(&mut ProtoSystem, &Fixture) -> String,
}

/// The names of the rows that park on `channel`. The match has no wildcard
/// arm, so a new wait channel does not compile until it names its rows.
fn rows_for(channel: WaitChannel) -> &'static [&'static str] {
    match channel {
        WaitChannel::ChildExit => &["wait on a running child"],
        WaitChannel::Semaphore(_) => &["sem_wait at zero"],
        WaitChannel::BlockIo => &[
            "FAT open whose demand read parks",
            "FAT read whose demand read parks",
            "FAT write on a full SD queue",
        ],
        WaitChannel::PipeRead(_) => &["pipe read on an empty pipe"],
        WaitChannel::PipeWrite(_) => &["pipe write on a full pipe"],
        WaitChannel::KeyEvent => &["/dev/events with no event", "/dev/console with no input"],
        WaitChannel::SoundSpace => &["/dev/sb with a full ring"],
    }
}

/// A one-core desktop without the window manager, whose kernel thread
/// would otherwise take `/dev/events`' raw key events for `/dev/event1`.
/// On one core no idle core's timer jump lets a condition pass before the
/// retrier first runs.
fn system() -> ProtoSystem {
    ProtoSystem::build(SystemOptions {
        window_manager: false,
        cores: 1,
        ..Default::default()
    })
    .unwrap()
}

fn spawn(sys: &mut ProtoSystem, program: Box<dyn UserProgram>) -> TaskId {
    let image = ProgramImage::small("retrier");
    sys.kernel.spawn_user_program(&image, program, 0).unwrap()
}

/// Every open descriptor of `task` with its offset.
fn descriptors(sys: &ProtoSystem, task: TaskId) -> String {
    let t = sys.kernel.task(task).unwrap();
    let open: Vec<String> = (0..kernel::vfs::MAX_FDS as i32)
        .filter_map(|fd| t.fds.get(fd).ok().map(|f| format!("{fd}@{}", f.offset)))
        .collect();
    format!("{} open: {}", t.fds.open_count(), open.join(" "))
}

/// A pipe in the retrier's table, shared with a forked peer.
fn pipe_with_peer(sys: &mut ProtoSystem, program: Box<dyn UserProgram>) -> Fixture {
    let retrier = spawn(sys, program);
    let (r, w) = sys.kernel.with_task_ctx(retrier, |ctx| ctx.pipe()).unwrap();
    let peer = sys
        .kernel
        .with_task_ctx(retrier, |ctx| ctx.fork(Box::new(Idle)))
        .unwrap();
    let FileKind::Pipe { id, .. } = sys.kernel.task(retrier).unwrap().fds.get(r).unwrap().kind
    else {
        unreachable!("pipe() returned a pipe");
    };
    Fixture {
        retrier,
        peer,
        fd: r,
        peer_fd: w,
        id,
    }
}

/// What is left in a pipe: the peer writes a marker behind it and reads
/// everything back (`fd` is the read end, `w` the write end).
fn pipe_residue(sys: &mut ProtoSystem, peer: TaskId, r: i32, w: i32) -> String {
    sys.kernel
        .with_task_ctx(peer, |ctx| ctx.write(w, b"|"))
        .unwrap();
    let mut left = Vec::new();
    while left.last() != Some(&b'|') {
        let chunk = sys.kernel.with_task_ctx(peer, |ctx| ctx.read(r, 1024));
        left.extend(chunk.unwrap());
    }
    left.pop();
    format!("residue {:?}", String::from_utf8_lossy(&left))
}

/// Empties the caches, so a FAT row's first read goes to the card, and
/// turns blocking I/O on when `park` is set, so that read parks. Without
/// it the call spins on the same cold read instead.
fn cold_blocking_fat(sys: &mut ProtoSystem, park: bool) {
    sys.kernel.drop_fs_caches().unwrap();
    sys.kernel.set_blocking_io(park);
}

/// Bytes read, as a row's result: the length and an FNV-1a hash.
fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{} bytes, fnv {hash:016x}", bytes.len())
}

const FAT_FILE: &str = "/d/doom.wad";
const WRITTEN: &str = "/d/retry.bin";

const ROWS: &[Row] = &[
    Row {
        name: "wait on a running child",
        setup: |sys, program, park| {
            let retrier = spawn(sys, program);
            let child = sys
                .kernel
                .with_task_ctx(retrier, |ctx| ctx.fork(Box::new(Idle)))
                .unwrap();
            let peer = sys.kernel.spawn_bench_task("peer").unwrap();
            if !park {
                sys.kernel
                    .with_task_ctx(peer, |ctx| ctx.kill(child))
                    .unwrap();
            }
            Fixture {
                retrier,
                peer,
                id: child,
                ..Fixture::default()
            }
        },
        call: |ctx, _| match ctx.wait_child()? {
            Some((_, code)) => Ok(format!("reaped a child with code {code}")),
            None => Ok("reaped nothing".into()),
        },
        channel: |_| WaitChannel::ChildExit,
        release: |sys, f| {
            sys.kernel
                .with_task_ctx(f.peer, |ctx| ctx.kill(f.id))
                .unwrap();
        },
        effects: |sys, f| {
            let left = sys.kernel.with_task_ctx(f.retrier, |ctx| ctx.wait_child());
            format!(
                "child gone: {}, then wait gives {left:?}",
                sys.kernel.task(f.id).is_none()
            )
        },
    },
    Row {
        name: "sem_wait at zero",
        setup: |sys, program, park| {
            let peer = sys.kernel.spawn_bench_task("peer").unwrap();
            let sem = sys
                .kernel
                .with_task_ctx(peer, |ctx| ctx.sem_create(0))
                .unwrap();
            if !park {
                sys.kernel
                    .with_task_ctx(peer, |ctx| ctx.sem_post(sem))
                    .unwrap();
            }
            Fixture {
                retrier: spawn(sys, program),
                peer,
                id: sem,
                ..Fixture::default()
            }
        },
        call: |ctx, f| ctx.sem_wait(f.id).map(|()| "acquired".into()),
        channel: |f| WaitChannel::Semaphore(f.id),
        release: |sys, f| {
            sys.kernel
                .with_task_ctx(f.peer, |ctx| ctx.sem_post(f.id))
                .unwrap();
        },
        // The post's one unit went to the retrier: a second waiter finds
        // none left.
        effects: |sys, f| {
            let probe = sys.kernel.spawn_bench_task("probe").unwrap();
            let second = sys.kernel.with_task_ctx(probe, |ctx| ctx.sem_wait(f.id));
            format!("a second wait gives {second:?}")
        },
    },
    Row {
        name: "FAT open whose demand read parks",
        setup: |sys, program, park| {
            cold_blocking_fat(sys, park);
            Fixture {
                retrier: spawn(sys, program),
                ..Fixture::default()
            }
        },
        call: |ctx, _| {
            ctx.open(FAT_FILE, OpenFlags::rdonly())
                .map(|fd| format!("fd {fd}"))
        },
        channel: |_| WaitChannel::BlockIo,
        release: |_, _| {},
        effects: |sys, f| descriptors(sys, f.retrier),
    },
    Row {
        name: "FAT read whose demand read parks",
        setup: |sys, program, park| {
            let retrier = spawn(sys, program);
            let fd = sys
                .kernel
                .with_task_ctx(retrier, |ctx| ctx.open(FAT_FILE, OpenFlags::rdonly()))
                .unwrap();
            sys.kernel
                .with_task_ctx(retrier, |ctx| ctx.lseek(fd, 1000))
                .unwrap();
            cold_blocking_fat(sys, park);
            Fixture {
                retrier,
                fd,
                ..Fixture::default()
            }
        },
        call: |ctx, f| ctx.read(f.fd, 6000).map(|d| digest(&d)),
        channel: |_| WaitChannel::BlockIo,
        release: |_, _| {},
        effects: |sys, f| descriptors(sys, f.retrier),
    },
    Row {
        name: "FAT write on a full SD queue",
        setup: |sys, program, park| {
            let retrier = spawn(sys, program);
            let fd = sys
                .kernel
                .with_task_ctx(retrier, |ctx| {
                    let fd = ctx.open(WRITTEN, OpenFlags::wronly_create())?;
                    ctx.write(fd, b"first line\n")?;
                    Ok::<_, KernelError>(fd)
                })
                .unwrap();
            cold_blocking_fat(sys, true);
            if park {
                // Fill the card's command queue with reads nobody waits
                // for; the first goes on the wire, so a completion comes.
                let board = &mut sys.kernel.board;
                for i in 0..SD_QUEUE_DEPTH as u64 {
                    let run = SdSgRun {
                        lba: FAT_PARTITION_START + 256 * i,
                        count: 256,
                    };
                    board.sdhost.submit_dma_read(&[run]).unwrap();
                }
                let now = board.clock.global_cycles();
                board.sdhost.kick_dma(&mut board.dma, now, &board.cost);
                assert!(!board.sdhost.can_submit(), "the SD queue is full");
            }
            Fixture {
                retrier,
                fd,
                ..Fixture::default()
            }
        },
        call: |ctx, f| {
            ctx.write(f.fd, b"second line\n")
                .map(|n| format!("wrote {n}"))
        },
        channel: |_| WaitChannel::BlockIo,
        release: |sys, _| {
            let yields = sys.kernel.fat_cache_stats().queue_full_yields;
            assert!(yields > 0, "the write yielded to the full queue");
        },
        effects: |sys, f| {
            let peer = sys.kernel.spawn_bench_task("reader").unwrap();
            let back = sys.kernel.with_task_ctx(peer, |ctx| {
                let fd = ctx.open(WRITTEN, OpenFlags::rdonly())?;
                ctx.read(fd, 1024)
            });
            let back = back.map(|b| String::from_utf8_lossy(&b).into_owned());
            format!("{}, file holds {back:?}", descriptors(sys, f.retrier))
        },
    },
    Row {
        name: "pipe read on an empty pipe",
        setup: |sys, program, park| {
            let f = pipe_with_peer(sys, program);
            if !park {
                sys.kernel
                    .with_task_ctx(f.peer, |ctx| ctx.write(f.peer_fd, b"ping"))
                    .unwrap();
            }
            f
        },
        call: |ctx, f| {
            ctx.read(f.fd, 3)
                .map(|d| String::from_utf8_lossy(&d).into_owned())
        },
        channel: |f| WaitChannel::PipeRead(f.id),
        release: |sys, f| {
            sys.kernel
                .with_task_ctx(f.peer, |ctx| ctx.write(f.peer_fd, b"ping"))
                .unwrap();
        },
        effects: |sys, f| {
            let residue = pipe_residue(sys, f.peer, f.fd, f.peer_fd);
            format!("{residue}, {}", descriptors(sys, f.retrier))
        },
    },
    Row {
        name: "pipe write on a full pipe",
        setup: |sys, program, park| {
            let f = pipe_with_peer(sys, program);
            let full = vec![b'a'; kernel::pipe::PIPE_CAPACITY];
            sys.kernel
                .with_task_ctx(f.peer, |ctx| ctx.write(f.peer_fd, &full))
                .unwrap();
            if !park {
                sys.kernel
                    .with_task_ctx(f.peer, |ctx| ctx.read(f.fd, 100))
                    .unwrap();
            }
            f
        },
        call: |ctx, f| {
            ctx.write(f.peer_fd, &[b'b'; 64])
                .map(|n| format!("wrote {n}"))
        },
        channel: |f| WaitChannel::PipeWrite(f.id),
        release: |sys, f| {
            sys.kernel
                .with_task_ctx(f.peer, |ctx| ctx.read(f.fd, 100))
                .unwrap();
        },
        effects: |sys, f| {
            let residue = pipe_residue(sys, f.peer, f.fd, f.peer_fd);
            format!("{residue}, {}", descriptors(sys, f.retrier))
        },
    },
    Row {
        name: "/dev/events with no event",
        setup: |sys, program, park| {
            let retrier = spawn(sys, program);
            let fd = sys
                .kernel
                .with_task_ctx(retrier, |ctx| ctx.open("/dev/events", OpenFlags::rdonly()))
                .unwrap();
            if !park {
                // The retrier sleeps while the keyboard delivers the event.
                sys.keyboard
                    .as_ref()
                    .unwrap()
                    .press(KeyCode::Char('Q'), Modifiers::default());
                sys.kernel
                    .with_task_ctx(retrier, |ctx| ctx.sleep_ms(50))
                    .unwrap();
            }
            Fixture {
                retrier,
                fd,
                ..Fixture::default()
            }
        },
        // The record without its timestamp, which differs between runs.
        call: |ctx, f| ctx.read(f.fd, 64).map(|r| format!("{:?}", &r[..4])),
        channel: |_| WaitChannel::KeyEvent,
        release: |sys, _| {
            sys.keyboard
                .as_ref()
                .unwrap()
                .press(KeyCode::Char('Q'), Modifiers::default());
        },
        effects: |sys, f| descriptors(sys, f.retrier),
    },
    Row {
        name: "/dev/console with no input",
        setup: |sys, program, park| {
            let retrier = spawn(sys, program);
            let fd = sys
                .kernel
                .with_task_ctx(retrier, |ctx| ctx.open("/dev/console", OpenFlags::rdonly()))
                .unwrap();
            if !park {
                let board = &mut sys.kernel.board;
                board.uart.inject_rx(b"ls\n", &mut board.intc);
            }
            Fixture {
                retrier,
                fd,
                ..Fixture::default()
            }
        },
        call: |ctx, f| {
            ctx.read(f.fd, 2)
                .map(|d| String::from_utf8_lossy(&d).into_owned())
        },
        channel: |_| WaitChannel::KeyEvent,
        release: |sys, _| {
            let board = &mut sys.kernel.board;
            board.uart.inject_rx(b"ls\n", &mut board.intc);
        },
        // The byte the call left is the next read's.
        effects: |sys, f| {
            let next = sys
                .kernel
                .with_task_ctx(f.retrier, |ctx| ctx.read(f.fd, 64));
            format!("next read {next:?}, {}", descriptors(sys, f.retrier))
        },
    },
    Row {
        name: "/dev/sb with a full ring",
        setup: |sys, program, park| {
            let retrier = spawn(sys, program);
            let fd = sys
                .kernel
                .with_task_ctx(retrier, |ctx| ctx.open("/dev/sb", OpenFlags::rdwr()))
                .unwrap();
            if park {
                // A non-blocking descriptor fills the ring without parking.
                let nonblock = OpenFlags {
                    nonblock: true,
                    ..OpenFlags::rdwr()
                };
                let filler = sys
                    .kernel
                    .with_task_ctx(retrier, |ctx| ctx.open("/dev/sb", nonblock))
                    .unwrap();
                let chunk = vec![0u8; 16 * 1024];
                while sys
                    .kernel
                    .with_task_ctx(retrier, |ctx| ctx.write(filler, &chunk))
                    .is_ok()
                {}
                sys.kernel
                    .with_task_ctx(retrier, |ctx| ctx.close(filler))
                    .unwrap();
            }
            Fixture {
                retrier,
                fd,
                ..Fixture::default()
            }
        },
        call: |ctx, f| {
            ctx.write(f.fd, &[7u8; 4096])
                .map(|n| format!("accepted {n}"))
        },
        channel: |_| WaitChannel::SoundSpace,
        release: |_, _| {},
        effects: |sys, f| descriptors(sys, f.retrier),
    },
];

/// One run of `row`: the retrier's tries, its one outcome and the side
/// effects. With `park` set the run checks the call parks on the row's
/// channel and then releases it.
fn run(row: &Row, park: bool) -> (u32, KResult<String>, String) {
    let mut sys = system();
    let log = Arc::new(Mutex::new(Log::default()));
    let program = Box::new(Retrier {
        call: row.call,
        log: log.clone(),
    });
    let fixture = (row.setup)(&mut sys, program, park);
    log.lock().unwrap().fixture = fixture;
    let done = |_: &kernel::Kernel| !log.lock().unwrap().outcomes.is_empty();
    let who = if park { "parked run" } else { "reference" };
    if park {
        let retrier = fixture.retrier;
        let parked = |k: &kernel::Kernel| {
            matches!(
                k.task(retrier).map(|t| t.state),
                Some(TaskState::Blocked(_))
            )
        };
        assert!(
            sys.kernel.run_until(|k| parked(k) || done(k), BUDGET_US),
            "[{}] the call neither parked nor completed",
            row.name
        );
        let state = sys.kernel.task(retrier).unwrap().state;
        let channel = (row.channel)(&fixture);
        assert_eq!(
            state,
            TaskState::Blocked(channel),
            "[{}] the call did not park on its channel",
            row.name
        );
        assert!(
            rows_for(channel).contains(&row.name),
            "[{}] rows_for({channel:?}) does not name the row",
            row.name
        );
        (row.release)(&mut sys, &fixture);
    }
    assert!(
        sys.kernel.run_until(done, BUDGET_US),
        "[{}] {who}: the call never completed (state {:?} after {} tries)",
        row.name,
        sys.kernel.task(fixture.retrier).map(|t| t.state),
        log.lock().unwrap().tries,
    );
    let effects = (row.effects)(&mut sys, &fixture);
    let log = log.lock().unwrap();
    assert_eq!(
        log.outcomes.len(),
        1,
        "[{}] {who}: the call completed more than once",
        row.name
    );
    (log.tries, log.outcomes[0].clone(), effects)
}

fn check(name: &str) {
    let row = ROWS.iter().find(|r| r.name == name).unwrap();
    let (tries, reference, reference_effects) = run(row, false);
    assert_eq!(tries, 1, "[{name}] the reference call parked");
    assert!(
        reference.is_ok(),
        "[{name}] reference failed: {reference:?}"
    );
    let (tries, outcome, effects) = run(row, true);
    assert!(tries >= 2, "[{name}] the call never retried");
    assert_eq!(
        outcome, reference,
        "[{name}] the retried call's result differs from a call that never parked"
    );
    assert_eq!(
        effects, reference_effects,
        "[{name}] the retried call's side effects differ from a call that never parked"
    );
}

#[test]
fn every_wait_channel_names_rows_that_exist() {
    let channels = [
        WaitChannel::ChildExit,
        WaitChannel::Semaphore(0),
        WaitChannel::BlockIo,
        WaitChannel::PipeRead(0),
        WaitChannel::PipeWrite(0),
        WaitChannel::KeyEvent,
        WaitChannel::SoundSpace,
    ];
    let mut named: Vec<&str> = channels.into_iter().flat_map(rows_for).copied().collect();
    named.sort_unstable();
    let mut rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    rows.sort_unstable();
    assert_eq!(named, rows, "each row parks on exactly one named channel");
}

#[test]
fn retry_wait_on_a_running_child() {
    check("wait on a running child");
}

#[test]
fn retry_sem_wait_at_zero() {
    check("sem_wait at zero");
}

#[test]
fn retry_fat_open_whose_demand_read_parks() {
    check("FAT open whose demand read parks");
}

#[test]
fn retry_fat_read_whose_demand_read_parks() {
    check("FAT read whose demand read parks");
}

#[test]
fn retry_fat_write_on_a_full_sd_queue() {
    check("FAT write on a full SD queue");
}

#[test]
fn retry_pipe_read_on_an_empty_pipe() {
    check("pipe read on an empty pipe");
}

#[test]
fn retry_pipe_write_on_a_full_pipe() {
    check("pipe write on a full pipe");
}

#[test]
fn retry_dev_events_with_no_event() {
    check("/dev/events with no event");
}

#[test]
fn retry_dev_console_with_no_input() {
    check("/dev/console with no input");
}

#[test]
fn retry_dev_sb_with_a_full_ring() {
    check("/dev/sb with a full ring");
}
