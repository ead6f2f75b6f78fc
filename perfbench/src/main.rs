//! The repository benchmark: four seeded, closed-loop workloads against
//! the default Prototype 5 system on the Pi 3 model.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_read|fs_write|app_frames|syscall_ipc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up, then repeats rounds of a fixed amount of
//! work until `--seconds` of host time have passed, then sets it up a few
//! more times for `setup_s`. The first rounds, until they hold
//! `MIN_SAMPLES` counted operations, are the measured window: the simulated
//! figures, the per-layer counters and the peak memory come from it, so
//! they do not depend on how fast the host is. Host time per round is the 10th percentile over all rounds, scaled
//! by a calibration kernel timed throughout the run.
//! The last line of standard output is one JSON object; with `--trace 0` it
//! carries the end-to-end metrics, with `--trace 1` the per-layer ones.
//! See `perfbench/README.md`.

mod bench;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use bench::{Op, SetupLog};
use stats::{median, percentile, sorted};
use workloads::{class_us, Workload};

/// Set-ups per run at least; `setup_s` is the median of all of them.
const MIN_SETUPS: usize = 5;
/// Short set-ups are repeated until they have taken `SETUP_BUDGET_S` in all
/// (at most `MAX_SETUPS` times): a median of five sub-second set-ups moved
/// by 25% between runs.
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;
/// The percentile of per-round host time reported as `host_s`. On a shared
/// machine interference only ever adds time, and the median per-round time
/// moved by 10-20% between identical runs where this one moved by 5%.
const HOST_PERCENTILE: f64 = 10.0;
/// Host times are scaled to a machine on which one [`Calibrator`] pass takes
/// this long. The shared machine's speed drifted by 30% over minutes; the
/// calibration kernel, timed throughout the run, drifts with it.
const CALIBRATION_REF_S: f64 = 0.003;
/// Host time between calibration passes during the rounds.
const CALIBRATION_EVERY_S: f64 = 0.2;
/// Counted operations the measured window holds at least, so that the
/// 99th percentile has ten samples beyond it.
const MIN_SAMPLES: usize = 1000;
/// Rounds the measured window holds at least.
const MIN_ROUNDS: u32 = 3;
/// A traced run traces the even rounds among its first `TRACE_ROUNDS`
/// and compares them with the odd ones, so the tracing overhead compares
/// like with like and the span file stays bounded.
const TRACE_ROUNDS: u32 = 8;
const WORKLOADS: [&str; 4] = ["stream_read", "fs_write", "app_frames", "syscall_ipc"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let ok = match args.workload.as_str() {
        "stream_read" => run::<workloads::stream_read::StreamRead>(&args),
        "fs_write" => run::<workloads::fs_write::FsWrite>(&args),
        "app_frames" => run::<workloads::app_frames::AppFrames>(&args),
        _ => run::<workloads::syscall_ipc::SyscallIpc>(&args),
    };
    if let Err(e) = ok {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    trace::set_enabled(args.trace);

    // The measured system is the first set-up, so the peak memory reads one
    // system and its rounds. Each later set-up builds a system and drops it;
    // glibc keeps some of what they free, and when the measured system was
    // the last of them the peak moved between two levels 9 MB apart.
    let mut setup_s = Vec::new();
    let mut logs: Vec<SetupLog> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    let mut calibrator = Calibrator::new();
    let mut calibration: Vec<f64> = Vec::new();
    calibration.push(calibrator.sample());
    let mut w: W = timed_setup(args.seed, &mut setup_s, &mut logs);
    let mut setup_spans = trace::take();

    // Rounds.
    let apps = w.app_tasks();
    let snap = |w: &W| -> Vec<layers::Counters> {
        w.benches()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let app = apps.iter().find(|a| a.0 == i).map(|a| a.1);
                layers::snapshot(b, app)
            })
            .collect()
    };
    let before = snap(&w);
    let mut after = None;
    let (mut queue_high_water, mut os_mb, mut rss_mb) = (0.0, 0.0, 0.0);
    let mut sim_ops: Vec<Op> = Vec::new();
    let mut sim_s = 0.0;
    let mut sim_rounds = 0u32;
    let (mut host_plain, mut host_traced) = (Vec::new(), Vec::new());
    let mut host_paired = Vec::new();
    let min_rounds = if args.trace { TRACE_ROUNDS } else { 1 };
    let start = Instant::now();
    let mut calibrated = start;
    let mut round = 0u32;
    while after.is_none()
        || round < min_rounds
        || (start.elapsed().as_secs_f64() < args.seconds && !w.exhausted())
    {
        if calibrated.elapsed().as_secs_f64() >= CALIBRATION_EVERY_S {
            calibration.push(calibrator.sample());
            calibrated = Instant::now();
        }
        let traced = args.trace && round < TRACE_ROUNDS && round.is_multiple_of(2);
        trace::set_enabled(traced);
        let t = Instant::now();
        let (ops, secs) = w.round(round);
        let host = t.elapsed().as_secs_f64();
        if traced {
            host_traced.push(host);
        } else {
            host_plain.push(host);
            if args.trace && round < TRACE_ROUNDS {
                host_paired.push(host);
            }
        }
        if after.is_none() {
            sim_ops.extend(ops);
            sim_s += secs;
            sim_rounds += 1;
            let counted = sim_ops.iter().filter(|o| o.class.primary()).count();
            if sim_rounds >= MIN_ROUNDS && counted >= MIN_SAMPLES {
                after = Some(snap(&w));
                for k in w.benches().iter().map(|b| b.kernel()) {
                    queue_high_water =
                        k.board
                            .sdhost
                            .queue_high_water()
                            .max(queue_high_water as usize) as f64;
                    os_mb += k.memory_snapshot().used_mb();
                }
                rss_mb = peak_rss_mb() - calibrator.resident_mb();
            }
        }
        round += 1;
    }
    trace::set_enabled(false);
    let round_spans = trace::take();
    let after = after.ok_or("no measured round")?;
    for b in w.benches_mut() {
        attempted += b.attempted;
        failed += b.failed;
        failures.append(&mut b.failures);
    }
    let n_primary = sim_ops.iter().filter(|o| o.class.primary()).count();
    let sim = w.sim_figures(&sim_ops, sim_s);
    let named = w.named(&sim_ops, sim_s, sim_rounds);
    drop(w);

    // More set-ups, each dropped once built, on a heap the measured system
    // no longer holds; `setup_s` is the median of all.
    trace::set_enabled(args.trace);
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        calibration.push(calibrator.sample());
        let mut extra: W = timed_setup(args.seed, &mut setup_s, &mut logs);
        for b in extra.benches_mut() {
            attempted += b.attempted;
            failed += b.failed;
            failures.append(&mut b.failures);
        }
    }
    trace::set_enabled(false);
    let first = setup_spans.len();
    setup_spans.extend(trace::take().into_iter().map(|mut s| {
        if s.parent > 0 {
            s.parent += first;
        }
        s
    }));

    // End-to-end metrics.
    let host_rounds = sorted(host_plain);
    let calibration_s = percentile(&sorted(calibration.clone()), HOST_PERCENTILE);
    let speed = CALIBRATION_REF_S / calibration_s;
    let host_s = percentile(&host_rounds, HOST_PERCENTILE);
    let end_to_end: Vec<(&str, f64, &str, &str)> = vec![
        ("setup_s", median(&setup_s) * speed, "s", "host"),
        ("host_s", host_s * speed, "s", "host"),
        ("host_rss_mb", rss_mb, "MB", "host"),
        ("sim_ops_per_s", sim.ops_per_s, "1/s", "sim"),
        ("sim_op_us_p50", sim.p50_us, "us", "sim"),
        ("sim_op_us_p99", sim.p99_us, "us", "sim"),
    ];

    // Per-layer metrics.
    let mut d = layers::Counters::new();
    for (a, b) in before.iter().zip(&after) {
        layers::add(&mut d, &layers::delta(a, b));
    }
    let traced_rounds = host_traced.len().max(1) as f64;
    let mut self_ms: BTreeMap<&'static str, f64> = trace::self_time(&round_spans)
        .into_iter()
        .map(|(m, (host_ns, _, _))| (m, host_ns as f64 / 1e6 / traced_rounds))
        .collect();
    if let Some((host_ns, _, _)) = trace::self_time(&setup_spans).get("setup") {
        self_ms.insert("setup", *host_ns as f64 / 1e6 / setup_s.len() as f64);
    }
    let mut setup_rows = Vec::new();
    for step in layers::SETUP_STEPS {
        let secs: Vec<f64> = logs.iter().map(|l| l.total(step).0).collect();
        let mb = logs.last().map_or(0.0, |l| l.total(step).1);
        setup_rows.push((step, median(&secs), mb));
    }
    let overhead = if host_traced.is_empty() || host_paired.is_empty() {
        0.0
    } else {
        median(&host_traced) / median(&host_paired)
    };
    let fail_rate = failed as f64 / attempted.max(1) as f64;
    let extras = layers::Extras {
        ops: &sim_ops,
        levels: (queue_high_water, os_mb),
        self_ms: &self_ms,
        setup: &setup_rows,
        trace_overhead: overhead,
        fail_rate,
        spans: (setup_spans.len() + round_spans.len()) as f64,
    };
    let per_layer = layers::per_layer(&d, &extras);

    // Human-readable report.
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed={} trace={} rounds={round} (measured window: the first {sim_rounds}, {} operations)",
        args.workload,
        args.seed,
        args.trace as u8,
        n_primary
    );
    let _ = writeln!(report, "end-to-end:");
    for (name, v, unit, kind) in &end_to_end {
        let _ = writeln!(report, "  {name:<22} {v:>14.4} {unit:<6} [{kind}]");
    }
    let _ = writeln!(
        report,
        "  {:<22} {:>14.6} {:<6} [both]",
        "fail_rate", fail_rate, "ratio"
    );
    let _ = writeln!(
        report,
        "  (host figures scaled by {speed:.4}: calibration {:.3} ms against {:.3} ms; unscaled setup_s {:.4}, host_s {:.4})",
        calibration_s * 1e3,
        CALIBRATION_REF_S * 1e3,
        median(&setup_s),
        host_s
    );
    let _ = writeln!(
        report,
        "workload figures (model unvalidated beyond the paper values shown):"
    );
    for (name, v, unit, paper) in &named {
        let paper = paper.map_or(String::new(), |p| format!("  paper Pi 3: {p}"));
        let _ = writeln!(report, "  {name:<22} {v:>14.4} {unit:<6} [sim]{paper}");
    }
    let _ = writeln!(report, "operations (sim us):");
    let mut classes: Vec<_> = sim_ops.iter().map(|o| o.class).collect();
    classes.sort();
    classes.dedup();
    for c in classes {
        let s = class_us(&sim_ops, c);
        let _ = writeln!(
            report,
            "  {:<16} n={:<6} p50={:<12.3} p99={:.3}",
            c.name(),
            s.n,
            s.p50,
            s.p99
        );
    }
    let _ = writeln!(
        report,
        "set-up (median of {}, host s / MB installed):",
        setup_s.len()
    );
    for (step, secs, mb) in &setup_rows {
        let _ = writeln!(report, "  {step:<18} {secs:>10.4} s {mb:>8.2} MB");
    }
    if let Some(log) = logs.last() {
        for (step, detail, secs, mb) in log.rows.iter().filter(|r| r.0.starts_with("install")) {
            let _ = writeln!(
                report,
                "    {step:<18} {detail:<18} {secs:>8.4} s {mb:>6.2} MB"
            );
        }
    }
    if args.trace {
        let _ = writeln!(
            report,
            "self time per module (host ms per traced round; sim ms):"
        );
        for (m, (host_ns, sim, n)) in trace::self_time(&round_spans) {
            let _ = writeln!(
                report,
                "  {m:<16} {:>10.3} host ms {:>12.3} sim ms {n:>8} spans",
                host_ns as f64 / 1e6 / traced_rounds,
                sim as f64 / 1e6 / traced_rounds
            );
        }
        let _ = writeln!(
            report,
            "  tracing overhead: host_s traced / untraced = {overhead:.4}"
        );
        let _ = writeln!(report, "per-layer (deltas over the measured rounds):");
        for (name, v, unit) in &per_layer {
            let _ = writeln!(report, "  {name:<36} {v:>16.4} {unit}");
        }
    }
    for f in failures.iter().take(8) {
        let _ = writeln!(report, "FAILED: {f}");
    }
    print!("{report}");

    // Files for later inspection: the report and, when traced, the spans.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    if std::fs::create_dir_all(&out).is_ok() {
        let _ = std::fs::write(out.join(format!("{stem}.txt")), &report);
        if args.trace {
            let mut spans = trace::to_jsonl(&setup_spans, 0);
            spans.push_str(&trace::to_jsonl(&round_spans, setup_spans.len()));
            let _ = std::fs::write(out.join(format!("{stem}.spans.jsonl")), spans);
        }
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        per_layer
    } else {
        end_to_end
            .iter()
            .map(|(n, v, u, _)| (n.to_string(), *v, *u))
            .collect()
    };
    let bad: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0.as_str())
        .collect();
    if !bad.is_empty() {
        failed += 1;
        eprintln!("perfbench: non-finite metrics {bad:?}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    Ok(())
}

/// Sets the workload up once, timing it and logging its steps.
fn timed_setup<W: Workload>(seed: u64, setup_s: &mut Vec<f64>, logs: &mut Vec<SetupLog>) -> W {
    let mut log = SetupLog::default();
    let t = Instant::now();
    let w = W::setup(seed, &mut log);
    let secs = t.elapsed().as_secs_f64();
    log.rows.push(("total", String::new(), secs, 0.0));
    setup_s.push(secs);
    logs.push(log);
    w
}

/// A fixed host workload of the simulator's kinds of work: sorting, map
/// lookups and a copy larger than the caches. Its memory is allocated once,
/// and a sample is the faster of two passes, so a sample does not depend on
/// what the allocator and the caches were left holding by the round before.
struct Calibrator {
    keys: Vec<u64>,
    map: std::collections::HashMap<u64, u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Calibrator {
    fn new() -> Self {
        Calibrator {
            keys: Vec::with_capacity(65_536),
            map: std::collections::HashMap::with_capacity(16_384),
            src: vec![1; 8 << 20],
            dst: vec![0; 8 << 20],
        }
    }

    fn pass(&mut self) -> f64 {
        let t = Instant::now();
        self.keys.clear();
        self.keys.extend((0..65_536u64).map(stats::mix));
        self.keys.sort_unstable();
        self.map.clear();
        self.map
            .extend(self.keys.iter().step_by(4).map(|&k| (k, k >> 7)));
        let hits = self
            .keys
            .iter()
            .filter_map(|k| self.map.get(k))
            .fold(0u64, |a, v| a.wrapping_add(*v));
        self.dst.copy_from_slice(std::hint::black_box(&self.src));
        std::hint::black_box((&self.dst, hits));
        t.elapsed().as_secs_f64()
    }

    fn sample(&mut self) -> f64 {
        self.pass().min(self.pass())
    }

    /// The copy buffers, in MB. Both are written before the first set-up
    /// and kept to the end, so they are part of every reading of VmHWM.
    fn resident_mb(&self) -> f64 {
        (self.src.len() + self.dst.len()) as f64 / (1024.0 * 1024.0)
    }
}
