//! Integration tests: boot every prototype and drive its target applications
//! end to end, the way the paper's labs culminate in a working demo.

use proto_repro::prelude::*;

#[test]
fn prototype1_renders_a_pixel_donut_to_the_framebuffer() {
    let mut sys = ProtoSystem::prototype(PrototypeStage::Baremetal).unwrap();
    let donut = sys.spawn("donut", &[]).unwrap();
    sys.run_ms(400);
    let m = sys.kernel.task_metrics(donut).unwrap();
    assert!(m.frames >= 3, "donut rendered only {} frames", m.frames);
    // Pixels actually reached the scanout (the flush happened).
    let fb = &sys.kernel.board.framebuffer;
    assert!(fb.pixels_written() > 0);
    assert!(fb.scanout_pixels().iter().any(|p| *p != 0));
}

#[test]
fn prototype2_runs_n_donuts_at_priority_dependent_rates() {
    let mut sys = ProtoSystem::prototype(PrototypeStage::Multitasking).unwrap();
    let slow = sys.spawn("donut", &["0".into(), "0.04".into()]).unwrap();
    let fast = sys.spawn("donut", &["1".into(), "0.20".into()]).unwrap();
    sys.run_ms(1500);
    let slow_frames = sys.kernel.task_metrics(slow).unwrap().frames;
    let fast_frames = sys.kernel.task_metrics(fast).unwrap().frames;
    assert!(slow_frames >= 2 && fast_frames >= 2);
    assert!(
        fast_frames > slow_frames,
        "fast donut ({fast_frames}) should out-spin the slow one ({slow_frames})"
    );
}

#[test]
fn prototype3_mario_autoplays_in_its_own_address_space() {
    let mut sys = ProtoSystem::prototype(PrototypeStage::UserKernel).unwrap();
    let mario = sys.spawn("mario", &[]).unwrap();
    sys.run_ms(600);
    let m = sys.kernel.task_metrics(mario).unwrap();
    assert!(m.frames >= 5, "mario rendered {} frames", m.frames);
    // The task owns a user address space with code, data, heap, stack and the
    // framebuffer mapping.
    let space = sys.kernel.address_space_of(mario).expect("address space");
    assert!(space.regions().len() >= 4);
    assert!(space.stats().mapped_pages > 10);
}

#[test]
fn prototype4_shell_runs_an_rc_script_and_mario_gets_keyboard_input() {
    let mut sys = ProtoSystem::prototype(PrototypeStage::Files).unwrap();
    let shell = sys.spawn("sh", &["/etc/rc".into()]).unwrap();
    sys.run_ms(1500);
    let log = sys.kernel.console_lines().join("\n");
    assert!(log.contains("boot complete"), "rc script ran: {log}");
    assert!(log.contains("bin"), "ls / listed /bin: {log}");
    let shell_task = sys.kernel.task(shell);
    assert!(
        shell_task.is_none() || shell_task.unwrap().is_zombie(),
        "script shell exits"
    );

    // mario-proc reads keyboard input through the fork+pipe event loop.
    let mario = sys.spawn("mario-proc", &[]).unwrap();
    sys.run_ms(400);
    let kb = sys.keyboard.clone().expect("keyboard attached");
    kb.press(KeyCode::Right, Modifiers::default());
    sys.run_ms(300);
    kb.release(KeyCode::Right);
    sys.run_ms(200);
    assert!(sys.kernel.task_metrics(mario).unwrap().frames > 5);
    assert!(
        sys.kernel.kbd_events_received() >= 2,
        "driver saw the key events"
    );
}

#[test]
fn prototype5_desktop_runs_doom_players_and_the_window_manager_together() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let doom = sys.spawn("doom", &["/d/doom.wad".into()]).unwrap();
    let video = sys
        .spawn("videoplayer", &["/d/video480.mpg".into()])
        .unwrap();
    let music = sys.spawn("musicplayer", &["/d/track1.ogg".into()]).unwrap();
    let sysmon = sys.spawn("sysmon", &[]).unwrap();
    sys.run_ms(2500);
    assert!(
        sys.kernel.task_metrics(doom).unwrap().frames > 10,
        "DOOM renders"
    );
    assert!(
        sys.kernel.task_metrics(video).unwrap().frames > 3,
        "video plays"
    );
    assert!(
        sys.kernel.task_metrics(music).unwrap().frames > 3,
        "music decodes"
    );
    assert!(
        sys.kernel.task_metrics(sysmon).unwrap().frames >= 1,
        "sysmon refreshes"
    );
    assert!(
        sys.kernel.board.pwm.samples_played() > 0,
        "audio reached the PWM device"
    );
    assert!(
        sys.kernel.board.pwm.underruns() < 44_100,
        "audio mostly continuous (underruns: {})",
        sys.kernel.board.pwm.underruns()
    );
    assert!(
        sys.kernel.wm.surface_count() >= 1,
        "sysmon owns a WM surface"
    );
    let mem = sys.kernel.memory_snapshot().used_mb();
    assert!(mem > 10.0 && mem < 100.0, "OS memory {mem} MB");
}

#[test]
fn the_video_player_crops_a_720p_stream_to_the_screen() {
    // Small assets encode "720p" at 320x240, so install a real 1280x720
    // stream: wider and taller than the 640x480 framebuffer.
    use proto_repro::ulib::media::{encode_video, generate_test_video};
    let mut sys = ProtoSystem::desktop().unwrap();
    let frames = 3;
    let stream = encode_video(&generate_test_video(1280, 720, frames));
    sys.kernel.install_fat_file("/hd720.mpg", &stream).unwrap();
    let video = sys.spawn("videoplayer", &["/d/hd720.mpg".into()]).unwrap();
    let exited = sys.kernel.run_until(
        |k| k.task(video).map(|t| t.is_zombie()).unwrap_or(true),
        30_000_000,
    );
    assert!(exited, "the player finished the stream");
    let code = sys.kernel.task(video).and_then(|t| t.exit_code);
    assert_eq!(code, Some(0), "the player exited {code:?}");
    assert_eq!(
        sys.kernel.task_metrics(video).unwrap().frames,
        frames as u64,
        "every 720p frame was presented"
    );
    assert!(sys
        .kernel
        .board
        .framebuffer
        .scanout_pixels()
        .iter()
        .any(|p| *p != 0));
}

#[test]
fn blockchain_scales_with_cores() {
    let mut blocks_by_cores = Vec::new();
    for cores in [1usize, 4] {
        let mut options = SystemOptions::benchmark(Platform::Pi3);
        options.small_assets = true;
        options.cores = cores;
        let mut sys = ProtoSystem::build(options).unwrap();
        let miner = sys
            .spawn("blockchain", &["4".into(), "0".into(), "16".into()])
            .unwrap();
        sys.run_ms(1500);
        let log = sys.kernel.console_lines().join("\n");
        let blocks = log
            .lines()
            .rev()
            .find_map(|l| {
                l.strip_prefix("blockchain: ")
                    .and_then(|r| r.split(' ').next())
                    .and_then(|n| n.parse::<u64>().ok())
            })
            .unwrap_or(0);
        let _ = miner;
        blocks_by_cores.push(blocks);
    }
    assert!(
        blocks_by_cores[1] > blocks_by_cores[0],
        "4 cores ({}) should mine more than 1 core ({})",
        blocks_by_cores[1],
        blocks_by_cores[0]
    );
}

#[test]
fn earlier_prototypes_reject_later_features() {
    let mut sys = ProtoSystem::prototype(PrototypeStage::Multitasking).unwrap();
    let tid = sys.kernel.spawn_bench_task("probe").unwrap();
    let err = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.open("/etc/rc", kernel::OpenFlags::rdonly()));
    assert!(err.is_err(), "prototype 2 has no file syscalls");
    let mut sys4 = ProtoSystem::prototype(PrototypeStage::Files).unwrap();
    let tid4 = sys4.kernel.spawn_bench_task("probe").unwrap();
    let err = sys4.kernel.with_task_ctx(tid4, |ctx| ctx.sem_create(1));
    assert!(err.is_err(), "prototype 4 has no semaphores");
}

#[test]
fn panic_button_dumps_even_with_irqs_masked() {
    let mut sys = ProtoSystem::desktop().unwrap();
    sys.kernel.board.gpio.enable_panic_button(21).unwrap();
    // Mask IRQs on every core, then press the button.
    for core in 0..4 {
        sys.kernel.board.intc.set_core_masked(core, true);
    }
    let mut intc = std::mem::replace(&mut sys.kernel.board.intc, hal::intc::IrqController::new(4));
    sys.kernel
        .board
        .gpio
        .external_drive(21, true, &mut intc)
        .unwrap();
    sys.kernel.board.intc = intc;
    sys.run_ms(50);
    assert!(
        !sys.kernel.debugmon.dumps().is_empty(),
        "panic dump captured"
    );
}
