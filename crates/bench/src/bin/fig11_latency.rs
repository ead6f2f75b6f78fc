//! Figure 11: rendering- and input-latency breakdowns.
use bench::appbench::{input_latency, measure_fps, AppRun, FpsResult};
use bench::report;
use hal::cost::Platform;
use serde::Serialize;

/// One row of Figure 11b: an app's mean input latency per hop, in ms.
#[derive(Serialize)]
struct InputLatency {
    app: String,
    driver_to_dispatch_ms: f64,
    dispatch_to_app_ms: f64,
    total_ms: f64,
}

/// The JSON dump: Figure 11a's rows, then Figure 11b's.
#[derive(Serialize)]
struct Fig11 {
    rendering: Vec<FpsResult>,
    input: Vec<InputLatency>,
}

fn main() {
    println!("Figure 11a — rendering latency breakdown (ms per frame)\n");
    let mut rows = Vec::new();
    let mut dump = Vec::new();
    for app in [
        AppRun::Doom,
        AppRun::Video480p,
        AppRun::MarioNoInput,
        AppRun::MarioProc,
        AppRun::MarioSdl,
    ] {
        let r = measure_fps(app, Platform::Pi3, 300, 1500);
        rows.push(vec![
            app.name().to_string(),
            report::f2(r.draw_ms),
            report::f2(r.present_ms),
            report::f2(r.app_logic_ms),
            report::f2(r.draw_ms + r.present_ms + r.app_logic_ms),
        ]);
        dump.push(r);
    }
    println!(
        "{}",
        report::table(
            &["app", "draw (L)", "present (K)", "app logic (U)", "total"],
            &rows
        )
    );
    println!("\nFigure 11b — input latency breakdown (ms from USB driver to app)\n");
    let mut rows = Vec::new();
    let mut input = Vec::new();
    for app in [AppRun::Doom, AppRun::MarioProc, AppRun::MarioSdl] {
        let (to_dispatch, to_app, total) = input_latency(app, 6);
        rows.push(vec![
            app.name().to_string(),
            report::f2(to_dispatch),
            report::f2(to_app),
            report::f2(total),
        ]);
        input.push(InputLatency {
            app: app.name().to_string(),
            driver_to_dispatch_ms: to_dispatch,
            dispatch_to_app_ms: to_app,
            total_ms: total,
        });
    }
    println!(
        "{}",
        report::table(
            &["app", "driver->dispatch", "dispatch->app", "total"],
            &rows
        )
    );
    let fig11 = Fig11 {
        rendering: dump,
        input,
    };
    report::write_json("fig11_latency", &fig11);
}
