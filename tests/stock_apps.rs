//! Tier-1 tests of the stock apps' output, end to end through the kernel:
//! DOOM's frames pinned pixel for pixel under a fixed key schedule, the
//! trace event each of its frames logs, and the whole-file asset loads of
//! DOOM and the media players when a cold read parks the task.

use kernel::trace::TraceKind;
use kernel::TaskId;
use proto_repro::prelude::*;

/// FNV-1a over the scanout's pixels.
fn scanout_hash(sys: &ProtoSystem) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for px in sys.kernel.board.framebuffer.scanout_pixels() {
        for byte in px.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

fn frames(sys: &ProtoSystem, tid: TaskId) -> u64 {
    sys.kernel.task_metrics(tid).map_or(0, |m| m.frames)
}

/// Runs until `tid` has presented `n` frames. The scheduler steps a task
/// once per slice and DOOM presents once per step, so the scanout is then
/// exactly frame `n`.
fn run_to_frame(sys: &mut ProtoSystem, tid: TaskId, n: u64) {
    let reached = sys.kernel.run_until(
        |k| k.task_metrics(tid).map_or(0, |m| m.frames) >= n,
        5_000_000,
    );
    assert!(
        reached,
        "task {tid} stopped at frame {} of {n}",
        frames(sys, tid)
    );
}

/// The benchmark configuration (DOOM renders straight to the framebuffer)
/// with the small assets.
fn direct_render_system() -> ProtoSystem {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.small_assets = true;
    ProtoSystem::build(options).unwrap()
}

#[test]
fn doom_frames_under_a_fixed_key_schedule_are_pinned() {
    let mut sys = direct_render_system();
    let kb = sys.keyboard.clone().expect("keyboard attached");
    let doom = sys.spawn("doom", &["/d/doom.wad".into()]).unwrap();
    // Before frame `at`: press or release a key. Forward moves 0.08 a
    // frame, so the walk crosses cells; the turns change the view angle by
    // 0.05 a frame either way.
    let schedule: [(u64, KeyCode, bool); 8] = [
        (1, KeyCode::Up, true),
        (4, KeyCode::Left, true),
        (7, KeyCode::Left, false),
        (9, KeyCode::Right, true),
        (12, KeyCode::Up, false),
        (13, KeyCode::Down, true),
        (15, KeyCode::Right, false),
        (17, KeyCode::Down, false),
    ];
    let mut hashes = Vec::new();
    for frame in 1..=20u64 {
        for &(_, code, pressed) in schedule.iter().filter(|(at, ..)| *at == frame) {
            if pressed {
                kb.press(code, Modifiers::default());
            } else {
                kb.release(code);
            }
        }
        run_to_frame(&mut sys, doom, frame);
        hashes.push(scanout_hash(&sys));
    }
    // Recorded with the 0.02-unit march and the column-by-column renderer,
    // which `doomlike.rs`'s tests keep as references.
    let pinned: [u64; 20] = [
        0xB43CF1232E792B97,
        0x60A8955DC69AB2A1,
        0x88661E8FB42AC301,
        0xE282871F300974EE,
        0xC9A363A0556280E4,
        0x1C17B9985C4256F7,
        0xB3B4409FAF98C77B,
        0x19B986F4A8F75A8A,
        0x7D1A7C678E0B5CEA,
        0x3DBCD2077123999A,
        0x9FC014CAC7A6F6FF,
        0x8041B4BBE7C844B3,
        0x6DBAFF2A7F3C9162,
        0x6B9CFA0E24CC9206,
        0x5331FB13B9CBB60E,
        0xEA46ADAB15E471D2,
        0x86F48220FA87538B,
        0xCCF00526723C0EC4,
        0x7DC08A8EBD33B85B,
        0xBA2C3D8A619A989C,
    ];
    assert_eq!(
        hashes, pinned,
        "DOOM's scanout after each of frames 1 to 20"
    );
}

#[test]
fn doom_logs_one_frame_present_per_frame_on_its_core() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let doom = sys.spawn("doom", &["/d/doom.wad".into()]).unwrap();
    run_to_frame(&mut sys, doom, 13);
    let trace = &sys.kernel.trace;
    assert_eq!(
        trace.dump().len() as u64,
        trace.total_logged(),
        "the ring must hold every event of the run"
    );
    let core = sys.kernel.task(doom).unwrap().core;
    let presents: Vec<usize> = trace
        .of_kind(TraceKind::FramePresent)
        .iter()
        .filter(|e| e.task == Some(doom))
        .map(|e| e.core)
        .collect();
    assert_eq!(
        presents,
        vec![core; 13],
        "one event per frame, on core {core}"
    );
}

/// A 4-core small-asset benchmark system with the FAT cache dropped and
/// the cores' clocks synced, so a stock app's asset load starts cold.
fn cold_system(blocking_io: bool) -> ProtoSystem {
    let mut sys = direct_render_system();
    sys.kernel.set_blocking_io(blocking_io);
    sys.kernel.drop_fs_caches().unwrap();
    sys.kernel.sync_core_clocks();
    sys
}

fn doom_scanout_after(frames: u64, blocking_io: bool) -> u64 {
    let mut sys = cold_system(blocking_io);
    let doom = sys.spawn("doom", &["/d/doom.wad".into()]).unwrap();
    run_to_frame(&mut sys, doom, frames);
    scanout_hash(&sys)
}

#[test]
fn doom_loads_its_wad_when_a_cold_read_parks() {
    let parked = doom_scanout_after(3, true);
    let spun = doom_scanout_after(3, false);
    assert_eq!(
        parked, spun,
        "with blocking I/O DOOM must draw the WAD's level, not the built-in one"
    );
}

/// Runs a stock app to its exit on a cold system; returns (frames
/// recorded, exit code).
fn run_to_exit(app: &str, blocking_io: bool) -> (u64, Option<i32>) {
    let mut sys = cold_system(blocking_io);
    let tid = sys.spawn(app, &[]).unwrap();
    let exited = sys
        .kernel
        .run_until(|k| k.task(tid).is_none_or(|t| t.is_zombie()), 60_000_000);
    assert!(exited, "{app} did not finish");
    let code = sys.kernel.task(tid).and_then(|t| t.exit_code);
    (frames(&sys, tid), code)
}

#[test]
fn the_media_players_play_their_whole_file_when_a_cold_read_parks() {
    for app in ["videoplayer", "musicplayer"] {
        let spun = run_to_exit(app, false);
        assert!(
            spun.0 > 0 && spun.1 == Some(0),
            "{app} without parking: {spun:?}"
        );
        assert_eq!(run_to_exit(app, true), spun, "{app}: (frames, exit code)");
    }
}
