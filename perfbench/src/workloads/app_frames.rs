//! `app_frames`: Table 5's first and last rows. DOOM renders directly to
//! the framebuffer (no window manager) from a seeded 4 MB WAD on the FAT32
//! volume; mario-sdl runs as a window through the window manager from a
//! seeded ROM on the xv6fs root. Each runs on its own system and is warmed
//! up during set-up, so asset loading stays out of the timed rounds. A round
//! renders a fixed number of frames of each.

use kernel::{Kernel, TaskId};
use paper_bench::baselines;
use protousb::{KeyCode, Modifiers};

use crate::bench::{Bench, Class, Op, SetupLog};
use crate::stats::{content, Rng};
use crate::workloads::{class_us, Named, SimFigures, Workload};

const DOOM_FRAMES: u64 = 30;
const WM_FRAMES: u64 = 15;
const WARMUP_FRAMES: u64 = 10;
/// Mean board time between DOOM's key taps: the rate of the Figure 11b
/// input-latency harness (`bench::appbench::input_latency`), one `W` tap
/// per 40 ms.
const TAP_MEAN_US: f64 = 40_000.0;
/// Board time allowed per frame before an app counts as stalled.
const FRAME_BUDGET_US: u64 = 500_000;

/// Seeded key input: `W` taps arriving as a Poisson process. A frame's
/// cost in this model is fixed apart from the key events it reads, so
/// without input every seed would give the same frame times to the last
/// digit.
struct Taps {
    rng: Rng,
    next_us: u64,
}

impl Taps {
    fn new(rng: Rng, now_us: u64) -> Taps {
        let mut taps = Taps {
            rng,
            next_us: now_us,
        };
        taps.next_us += taps.gap_us();
        taps
    }

    /// An exponentially distributed gap between taps.
    fn gap_us(&mut self) -> u64 {
        let u = ((self.rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        (-u.ln() * TAP_MEAN_US) as u64
    }
}

/// One app on its own system, and the clock of its latest frame.
struct App {
    bench: Bench,
    tid: TaskId,
    class: Class,
    last_frame_ns: u64,
    taps: Option<Taps>,
}

impl App {
    fn start(
        mut bench: Bench,
        log: &mut SetupLog,
        class: Class,
        (name, args): (&str, Vec<String>),
        taps: Option<Rng>,
    ) -> App {
        bench.sync_clocks();
        let tid = bench.sys.spawn(name, &args).expect("spawn app");
        let now_us = bench.kernel().now_us();
        let mut app = App {
            bench,
            tid,
            class,
            last_frame_ns: 0,
            taps: taps.map(|rng| Taps::new(rng, now_us)),
        };
        log.timed(
            "warmup",
            format!("{name}: load and {WARMUP_FRAMES} frames"),
            0.0,
            || app.frames(WARMUP_FRAMES),
        );
        app.bench.take_ops();
        app
    }

    fn frames_so_far(k: &Kernel, tid: TaskId) -> u64 {
        k.task_metrics(tid).map_or(0, |m| m.frames)
    }

    /// Runs until the app has presented `n` more frames, timing each frame
    /// from the previous one on the app's core.
    fn frames(&mut self, n: u64) {
        let tid = self.tid;
        let start = Self::frames_so_far(self.bench.kernel(), tid);
        let mut seen = start;
        let mut stamps: Vec<u64> = Vec::new();
        let composited = self.bench.kernel().wm.stats().pixels_composited;
        let keyboard = self.bench.sys.keyboard.clone();
        let taps = &mut self.taps;
        let finished = self.bench.run_until(
            "frames",
            |k| {
                if let (Some(taps), Some(kb)) = (taps.as_mut(), &keyboard) {
                    while k.now_us() >= taps.next_us {
                        kb.tap(KeyCode::Char('W'), Modifiers::default());
                        taps.next_us += taps.gap_us();
                    }
                }
                let now = Self::frames_so_far(k, tid);
                if now > seen {
                    seen = now;
                    let core = k.task(tid).map_or(0, |t| t.core);
                    stamps.push(k.board.clock.cycles_to_ns(k.board.clock.cycles(core)));
                }
                now >= start + n || k.task(tid).is_none_or(|t| t.is_zombie())
            },
            FRAME_BUDGET_US * n,
        );
        let alive = self
            .bench
            .kernel()
            .task(tid)
            .is_some_and(|t| !t.is_zombie());
        if !finished || !alive || seen < start + n {
            let msg = format!(
                "{}: {} of {n} frames, alive={alive}",
                self.class.name(),
                seen - start
            );
            self.bench.fail(msg);
        }
        self.bench.attempted += n;
        for end in stamps {
            if self.last_frame_ns > 0 {
                self.bench.ops.push(Op {
                    class: self.class,
                    begin_ns: self.last_frame_ns,
                    end_ns: end,
                });
            }
            self.last_frame_ns = end;
        }
        // Direct rendering must leave a scene on the screen (DOOM's floor
        // and ceiling differ); composited frames must reach it at all.
        let k = self.bench.kernel();
        let px = k.board.framebuffer.scanout_pixels();
        let first = px.first().copied().unwrap_or(0);
        let blank = match self.class {
            Class::DoomFrame => px.iter().step_by(97).all(|&p| p == first),
            _ => k.wm.stats().pixels_composited == composited,
        };
        if blank {
            let msg = format!("{}: nothing reached the screen", self.class.name());
            self.bench.fail(msg);
        }
    }
}

pub struct AppFrames {
    doom: App,
    wm: App,
}

impl Workload for AppFrames {
    fn setup(seed: u64, log: &mut SetupLog) -> Self {
        let mut doom_sys = Bench::build(false, 4, log);
        doom_sys.install_fat(log, "/bench.wad", &content(seed, 10, 0, 4 * 1024 * 1024));
        let doom_cmd = ("doom", vec!["/d/bench.wad".into()]);
        let taps = Some(Rng::new(seed, 12));
        let doom = App::start(doom_sys, log, Class::DoomFrame, doom_cmd, taps);

        let mut wm_sys = Bench::build(true, 4, log);
        wm_sys.install_root(log, "/bench.nes", &content(seed, 11, 0, 40 * 1024));
        let wm_cmd = ("mario-sdl", vec!["/bench.nes".into()]);
        let wm = App::start(wm_sys, log, Class::WmFrame, wm_cmd, None);
        AppFrames { doom, wm }
    }

    fn round(&mut self, _round: u32) -> (Vec<Op>, f64) {
        self.doom.frames(DOOM_FRAMES);
        self.wm.frames(WM_FRAMES);
        let mut ops = self.doom.bench.take_ops();
        ops.extend(self.wm.bench.take_ops());
        let busy: f64 = ops.iter().map(|o| o.us()).sum();
        (ops, busy / 1e6)
    }

    fn benches(&self) -> Vec<&Bench> {
        vec![&self.doom.bench, &self.wm.bench]
    }

    fn benches_mut(&mut self) -> Vec<&mut Bench> {
        vec![&mut self.doom.bench, &mut self.wm.bench]
    }

    fn app_tasks(&self) -> Vec<(usize, TaskId)> {
        vec![(0, self.doom.tid)]
    }

    /// Each figure is the geometric mean of the two apps' own, so both
    /// apps weigh the same whatever their frame counts and frame times: a
    /// 30% slower window manager moves every figure by about 14%.
    fn sim_figures(&self, ops: &[Op], _sim_s: f64) -> SimFigures {
        let doom = class_us(ops, Class::DoomFrame);
        let wm = class_us(ops, Class::WmFrame);
        SimFigures {
            ops_per_s: (doom.per_s() * wm.per_s()).sqrt(),
            p50_us: (doom.p50 * wm.p50).sqrt(),
            p99_us: (doom.p99 * wm.p99).sqrt(),
        }
    }

    fn named(&self, ops: &[Op], _sim_s: f64, _rounds: u32) -> Vec<Named> {
        let doom = class_us(ops, Class::DoomFrame);
        let wm = class_us(ops, Class::WmFrame);
        let paper = |app| baselines::table5_paper_ours("Pi3", app);
        vec![
            ("doom_fps", doom.per_s(), "1/s", paper("DOOM")),
            ("doom_frame_ms_p99", doom.p99 / 1e3, "ms", None),
            ("wm_fps", wm.per_s(), "1/s", paper("mario-sdl")),
        ]
    }
}
