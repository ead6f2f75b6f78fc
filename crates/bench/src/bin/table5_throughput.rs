//! Table 5: application throughput (FPS) across platforms.
use bench::appbench::{measure_fps, AppRun};
use bench::baselines::{table5_paper_ours, table5_reported_fps, BaselineOs};
use bench::report;
use hal::cost::Platform;

/// Simulated warm-up before each cell's measured window, in milliseconds.
const WARM_MS: u64 = 1000;
/// Each cell's measured window, in simulated milliseconds.
const MEASURE_MS: u64 = 4000;

fn main() {
    println!("Table 5 — throughput (FPS) of benchmark apps");
    println!("(measured on the simulated platforms; Linux/FreeBSD columns are the paper's reported values)\n");
    // Measure platform-major: the apps that share a platform and a
    // window-manager setting run back to back, so every build after an
    // option set's first forks the held image instead of building again.
    let platforms = [Platform::Pi3, Platform::QemuWsl, Platform::QemuVm];
    let measured: Vec<_> = platforms
        .iter()
        .map(|&platform| AppRun::ALL.map(|app| measure_fps(app, platform, WARM_MS, MEASURE_MS)))
        .collect();
    let mut rows = Vec::new();
    let mut dump = Vec::new();
    for (a, app) in AppRun::ALL.into_iter().enumerate() {
        let mut cells = vec![app.name().to_string()];
        for (p, platform) in platforms.into_iter().enumerate() {
            let r = measured[p][a].clone();
            let paper = table5_paper_ours(platform.name(), app.name());
            cells.push(format!(
                "{:.1} (paper {:.1})",
                r.fps,
                paper.unwrap_or(f64::NAN)
            ));
            dump.push(r);
        }
        for os in [BaselineOs::Linux, BaselineOs::FreeBsd] {
            cells.push(match table5_reported_fps(os, app.name()) {
                Some(v) => format!("{v:.1}"),
                None => "-".to_string(),
            });
        }
        rows.push(cells);
    }
    println!(
        "{}",
        report::table(
            &[
                "app",
                "Pi3 (ours)",
                "qemu-wsl (ours)",
                "qemu-vm (ours)",
                "Linux@Pi3",
                "FreeBSD@Pi3"
            ],
            &rows
        )
    );
    println!(
        "\nOS memory while running single apps: {}",
        dump.iter()
            .map(|r| format!("{} {:.0}MB", r.app, r.os_memory_mb))
            .collect::<Vec<_>>()
            .join(", ")
    );
    report::write_json("table5_throughput", &dump);
}
