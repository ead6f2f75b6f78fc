//! Figure 10: multicore scalability (8 marios, blockchain miner) at 1, 2
//! and 4 active cores. Contended storage across cores is timed by the
//! repository benchmark's `stream_read` workload, not here.
use bench::report;

/// Measured window per core count, in simulated milliseconds.
const MEASURE_MS: u64 = 4000;

fn main() {
    let points = bench::appbench::multicore_scaling(MEASURE_MS);
    println!("Figure 10 — FPS per app instance and miner throughput vs number of cores\n");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.cores.to_string(),
                report::f2(p.mario_fps_per_instance),
                report::f2(p.blockchain_blocks_per_sec),
                format!("{:.0}%", p.mean_utilisation * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(
            &[
                "cores",
                "FPS/instance (8x mario)",
                "blocks/sec",
                "utilisation"
            ],
            &rows
        )
    );
    report::write_json("fig10_multicore", &points);
}
