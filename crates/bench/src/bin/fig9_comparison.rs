//! Figure 9: normalised microbenchmark latency vs xv6, Linux and FreeBSD.
use bench::baselines::{micro_factor, BaselineOs};
use bench::report;
use hal::cost::{CostModel, Platform};

/// Iterations of each microbenchmark.
const ITERS: u32 = 300;

fn main() {
    let (ours, xv6) = bench::micro::ours_and_xv6(Platform::Pi3, ITERS);
    // Normalised latency (ours = 1.0). For throughput rows lower KB/s means
    // higher latency, so the ratio is inverted.
    let lat_rows: Vec<(&str, f64, f64)> = vec![
        ("getpid", ours.getpid_us, xv6.getpid_us),
        ("fork", ours.fork_us, xv6.fork_us),
        ("sbrk", ours.sbrk_us, xv6.sbrk_us),
        ("ipc", ours.ipc_us, xv6.ipc_us),
        ("malloc", ours.malloc_us, xv6.malloc_us),
        ("memset", ours.memset_us, xv6.memset_us),
        ("md5sum", ours.md5sum_us, xv6.md5sum_us),
        ("qsort", ours.qsort_us, xv6.qsort_us),
        (
            "ramfs/r",
            1.0 / ours.ramfs_read_kbs,
            1.0 / xv6.ramfs_read_kbs,
        ),
        (
            "ramfs/w",
            1.0 / ours.ramfs_write_kbs,
            1.0 / xv6.ramfs_write_kbs,
        ),
        (
            "diskfs/r",
            1.0 / ours.diskfs_read_kbs,
            1.0 / xv6.diskfs_read_kbs,
        ),
        (
            "diskfs/w",
            1.0 / ours.diskfs_write_kbs,
            1.0 / xv6.diskfs_write_kbs,
        ),
    ];
    println!("Figure 9 — normalised latency (ours = 1.0, lower is better)\n");
    let penalty = CostModel::for_platform(Platform::Pi3).musl_compute_penalty;
    println!("xv6 column: the same benchmarks on the Xv6Baseline kernel variant.");
    println!("  getpid, fork, sbrk, ipc, ramfs/r run Proto's own code paths: 1.00.");
    println!(
        "  malloc, memset, md5sum, qsort are Proto's charge x musl_compute_penalty ({penalty:.2})."
    );
    println!("  ramfs/w: close drains the write-back synchronously (no background flusher).");
    println!("  diskfs/r, diskfs/w: the polled SD path, its SD cycles x 8/5 (charge_sd_delta).");
    println!("Linux/FreeBSD columns are calibrated reference factors from the paper.\n");
    let mut rows = Vec::new();
    let mut dump = Vec::new();
    for (name, ours_v, xv6_v) in &lat_rows {
        let xv6_norm = xv6_v / ours_v;
        let linux = micro_factor(BaselineOs::Linux, name).unwrap_or(f64::NAN);
        let freebsd = micro_factor(BaselineOs::FreeBsd, name).unwrap_or(f64::NAN);
        rows.push(vec![
            name.to_string(),
            "1.00".into(),
            report::f2(xv6_norm),
            report::f2(linux),
            report::f2(freebsd),
        ]);
        dump.push((name.to_string(), 1.0, xv6_norm, linux, freebsd));
    }
    println!(
        "{}",
        report::table(&["benchmark", "ours", "xv6", "linux*", "freebsd*"], &rows)
    );
    report::write_json("fig9_comparison", &dump);
}
