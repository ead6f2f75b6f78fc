//! Application benchmarks: FPS, latency breakdowns and multicore scaling
//! (Table 5, Figures 10 and 11).

use hal::cost::Platform;
use kernel::{PrototypeStage, TaskId};
use proto::prototype::{ProtoSystem, SystemOptions};
use serde::{Deserialize, Serialize};

/// Which app configuration to run (the rows of Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppRun {
    /// DOOM, direct rendering, no window manager.
    Doom,
    /// 480p video playback, direct rendering.
    Video480p,
    /// 720p video playback, direct rendering.
    Video720p,
    /// mario, single task, no input (Prototype 3 configuration).
    MarioNoInput,
    /// mario with fork+pipe input handling (Prototype 4 configuration).
    MarioProc,
    /// mario with threads + minisdl + window manager (Prototype 5).
    MarioSdl,
}

impl AppRun {
    /// All rows in Table 5 order.
    pub const ALL: [AppRun; 6] = [
        AppRun::Doom,
        AppRun::Video480p,
        AppRun::Video720p,
        AppRun::MarioNoInput,
        AppRun::MarioProc,
        AppRun::MarioSdl,
    ];

    /// Row label used by the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AppRun::Doom => "DOOM",
            AppRun::Video480p => "video (480p)",
            AppRun::Video720p => "video (720p)",
            AppRun::MarioNoInput => "mario-noinput",
            AppRun::MarioProc => "mario-proc",
            AppRun::MarioSdl => "mario-sdl",
        }
    }

    fn program(&self) -> (&'static str, Vec<String>) {
        match self {
            AppRun::Doom => ("doom", vec!["/d/doom.wad".into()]),
            AppRun::Video480p => ("videoplayer", vec!["/d/video480.mpg".into()]),
            AppRun::Video720p => ("videoplayer", vec!["/d/video720.mpg".into()]),
            AppRun::MarioNoInput => ("mario", vec!["/mario.nes".into()]),
            AppRun::MarioProc => ("mario-proc", vec!["/mario.nes".into()]),
            AppRun::MarioSdl => ("mario-sdl", vec!["/mario.nes".into()]),
        }
    }

    fn needs_window_manager(&self) -> bool {
        matches!(self, AppRun::MarioSdl)
    }
}

/// The result of one FPS measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FpsResult {
    /// The app configuration.
    pub app: String,
    /// The platform.
    pub platform: String,
    /// Frames per second over the measurement window.
    pub fps: f64,
    /// Mean per-frame app-logic time, ms (Figure 11a).
    pub app_logic_ms: f64,
    /// Mean per-frame draw time, ms.
    pub draw_ms: f64,
    /// Mean per-frame present time, ms.
    pub present_ms: f64,
    /// OS memory usage while running, in MB (§7.3).
    pub os_memory_mb: f64,
}

/// Measures one app's FPS on one platform. `warmup_ms`/`measure_ms` are in
/// *virtual board milliseconds* (the paper warms up for 20 s; shorter windows
/// give the same steady-state figure because the simulation has no thermal
/// drift, so the default harness uses a few seconds).
pub fn measure_fps(app: AppRun, platform: Platform, warmup_ms: u64, measure_ms: u64) -> FpsResult {
    let mut options = SystemOptions::benchmark(platform);
    options.window_manager = app.needs_window_manager();
    measure_fps_with(app, options, warmup_ms, measure_ms)
}

/// Like [`measure_fps`] but with explicit system options (tests use small
/// assets to stay fast; the harness uses the full-size configuration).
pub fn measure_fps_with(
    app: AppRun,
    mut options: SystemOptions,
    warmup_ms: u64,
    measure_ms: u64,
) -> FpsResult {
    let platform = options.platform;
    options.window_manager = app.needs_window_manager();
    let mut sys = ProtoSystem::build(options).expect("bench system");
    let (name, args) = app.program();
    let tid = sys.spawn(name, &args).expect("spawn app");
    sys.run_ms(warmup_ms);
    let start_metrics = sys.kernel.task_metrics(tid).unwrap_or_default();
    sys.run_ms(measure_ms);
    let end_metrics = sys.kernel.task_metrics(tid).unwrap_or_default();
    // If the app was still loading assets when the warm-up window ended (the
    // multi-megabyte DOOM WAD takes seconds of board time to stream in), fall
    // back to the app's own first-to-last-frame window so load time is not
    // counted against its frame rate.
    let fps = if start_metrics.frames == 0 {
        end_metrics.fps()
    } else {
        let frames = end_metrics.frames.saturating_sub(start_metrics.frames);
        let span_us = end_metrics
            .last_frame_us
            .saturating_sub(start_metrics.last_frame_us)
            .max(1);
        frames as f64 / (span_us as f64 / 1e6)
    };
    let (app_ms, draw_ms, present_ms) = end_metrics.mean_phase_ms();
    let mem = sys.kernel.memory_snapshot().used_mb();
    FpsResult {
        app: app.name().to_string(),
        platform: platform.name().to_string(),
        fps,
        app_logic_ms: app_ms,
        draw_ms,
        present_ms,
        os_memory_mb: mem,
    }
}

/// One point of Figure 10: FPS per mario instance and blockchain blocks/s at
/// a given core count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalabilityPoint {
    /// Number of cores enabled.
    pub cores: usize,
    /// Mean FPS per instance with eight mario-sdl instances running.
    pub mario_fps_per_instance: f64,
    /// Blockchain miner throughput in blocks per second.
    pub blockchain_blocks_per_sec: f64,
    /// Mean core utilisation over the run.
    pub mean_utilisation: f64,
}

/// Figure 10: sweep the active-core count with the multi-programmed (8
/// marios) and multi-threaded (miner) workloads.
pub fn multicore_scaling(measure_ms: u64) -> Vec<ScalabilityPoint> {
    scaling_sweep(SystemOptions::benchmark(Platform::Pi3), measure_ms)
}

/// [`multicore_scaling`] over systems built from `base`. Each half starts
/// its window with every core's clock at the furthest-ahead one: the core
/// that installed the assets runs seconds ahead of the others, and a core
/// left behind would do that much extra work inside the window.
fn scaling_sweep(base: SystemOptions, measure_ms: u64) -> Vec<ScalabilityPoint> {
    let mut out = Vec::new();
    for cores in 1..=4usize {
        // Eight mario instances rendering through the window manager.
        let mut options = base;
        options.window_manager = true;
        options.cores = cores;
        let mut sys = ProtoSystem::build(options).expect("bench system");
        let mut tids: Vec<TaskId> = Vec::new();
        for i in 0..8u32 {
            let args = vec![
                "/mario.nes".to_string(),
                "0".to_string(),
                format!("{}", (i % 4) * 150 + 4),
                format!("{}", (i / 4) * 244 + 4),
            ];
            tids.push(sys.spawn("mario-sdl", &args).expect("spawn mario"));
        }
        sys.kernel.sync_core_clocks();
        sys.run_ms(measure_ms);
        let fps: f64 = tids.iter().map(|t| sys.fps_of(*t)).sum::<f64>() / tids.len() as f64;
        let util = sys.kernel.core_utilisations().iter().sum::<f64>() / cores as f64;

        // Blockchain miner with four worker threads.
        let mut options = base;
        options.cores = cores;
        let mut sys2 = ProtoSystem::build(options).expect("bench system");
        let tid = sys2
            .spawn("blockchain", &["4".into(), "0".into()])
            .expect("spawn miner");
        sys2.kernel.sync_core_clocks();
        sys2.run_ms(measure_ms);
        let kernel_log = sys2.kernel.console_lines().join("\n");
        // Blocks per second from the miner's own progress reports: parse the
        // last "blockchain: N blocks" line.
        let blocks = kernel_log
            .lines()
            .rev()
            .find_map(|l| {
                l.strip_prefix("blockchain: ")
                    .and_then(|r| r.split(' ').next())
                    .and_then(|n| n.parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        let _ = tid;
        let secs = measure_ms as f64 / 1000.0;
        out.push(ScalabilityPoint {
            cores,
            mario_fps_per_instance: fps,
            blockchain_blocks_per_sec: blocks / secs,
            mean_utilisation: util,
        });
    }
    out
}

/// Figure 11b: the input-latency breakdown for one app configuration, traced
/// from the USB driver to the app's event read. Returns mean latencies in
/// milliseconds per hop: (driver→dispatch, dispatch→app, total).
pub fn input_latency(app: AppRun, keypresses: u32) -> (f64, f64, f64) {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = app.needs_window_manager();
    let mut sys = ProtoSystem::build(options).expect("bench system");
    let (name, args) = app.program();
    let _tid = sys.spawn(name, &args).expect("spawn app");
    sys.run_ms(300);
    let kb = sys.keyboard.clone().expect("keyboard attached");
    for _ in 0..keypresses {
        kb.tap(protousb::KeyCode::Char('W'), protousb::Modifiers::default());
        sys.run_ms(40);
    }
    sys.run_ms(200);
    // Correlate trace events by the key timestamp stored in their detail.
    use kernel::trace::TraceKind;
    let driver = sys.kernel.trace.of_kind(TraceKind::KeyEventDriver);
    let dispatch = sys.kernel.trace.of_kind(TraceKind::KeyEventDispatch);
    let app_reads = sys.kernel.trace.of_kind(TraceKind::KeyEventApp);
    let mut to_dispatch = Vec::new();
    let mut to_app = Vec::new();
    let mut total = Vec::new();
    for d in &driver {
        let key = &d.detail;
        let disp = dispatch.iter().find(|e| &e.detail == key);
        let app_read = app_reads.iter().find(|e| &e.detail == key);
        if let Some(a) = app_read {
            total.push((a.timestamp_us - d.timestamp_us) as f64 / 1000.0);
            if let Some(disp) = disp {
                to_dispatch.push((disp.timestamp_us - d.timestamp_us) as f64 / 1000.0);
                to_app.push((a.timestamp_us - disp.timestamp_us) as f64 / 1000.0);
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (mean(&to_dispatch), mean(&to_app), mean(&total))
}

/// §7.1-style sanity run used by tests: boots Prototype `stage` and runs its
/// flagship app briefly, returning the frames it rendered.
pub fn smoke_run(stage: PrototypeStage, app: &str, ms: u64) -> u64 {
    let mut sys = ProtoSystem::prototype(stage).expect("system");
    let tid = sys.spawn(app, &[]).expect("spawn");
    sys.run_ms(ms);
    sys.kernel.task_metrics(tid).map(|m| m.frames).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(app: AppRun, warm: u64, measure: u64) -> FpsResult {
        let mut options = SystemOptions::benchmark(Platform::Pi3);
        options.small_assets = true;
        measure_fps_with(app, options, warm, measure)
    }

    #[test]
    fn doom_fps_is_in_the_papers_range() {
        let r = quick(AppRun::Doom, 300, 1500);
        assert!(r.fps > 40.0 && r.fps < 90.0, "DOOM fps {}", r.fps);
        assert!(r.os_memory_mb > 5.0 && r.os_memory_mb < 80.0);
    }

    /// Fig. 10's app half: cores cannot supply more than linear scaling, so
    /// no point's FPS per instance may exceed cores × the 1-core value.
    #[test]
    fn fig10_fps_per_instance_scales_at_most_linearly() {
        let mut options = SystemOptions::benchmark(Platform::Pi3);
        options.small_assets = true;
        let points = scaling_sweep(options, 400);
        let one = points[0].mario_fps_per_instance;
        assert!(one > 0.0, "1-core point rendered nothing");
        for p in &points {
            let cap = p.cores as f64 * one * 1.01;
            assert!(
                p.mario_fps_per_instance <= cap,
                "{} cores: {:.2} FPS per instance > {:.2} (linear from {:.2} on 1 core)",
                p.cores,
                p.mario_fps_per_instance,
                cap,
                one
            );
        }
    }

    #[test]
    fn mario_noinput_outpaces_mario_sdl() {
        let plain = quick(AppRun::MarioNoInput, 200, 1000);
        let sdl = quick(AppRun::MarioSdl, 200, 1000);
        assert!(
            plain.fps > sdl.fps,
            "noinput {} vs sdl {}",
            plain.fps,
            sdl.fps
        );
    }
}
