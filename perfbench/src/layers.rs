//! Per-layer counters. [`snapshot`] reads each module's public counters;
//! the per-layer metrics are deltas between two snapshots taken around the
//! measured rounds, summed over a workload's systems.

use std::collections::BTreeMap;

use crate::bench::{Bench, Class, Op};
use crate::workloads::class_us;

pub type Counters = BTreeMap<String, f64>;

/// Cumulative counters of one system, plus the frame counters of the
/// workload's app task on it, if any.
pub fn snapshot(b: &Bench, app: Option<kernel::TaskId>) -> Counters {
    let k = b.kernel();
    let mut c = Counters::new();
    let mut put = |name: &str, v: u64| {
        c.insert(name.to_string(), v as f64);
    };
    let fat = k.fat_cache_stats();
    put("fat.hits", fat.hits);
    put("fat.misses", fat.misses);
    put("fat.prefetch_cmds", fat.prefetch_cmds);
    put("fat.prefetched_blocks", fat.prefetched_blocks);
    put("fat.demand_waits", fat.demand_waits);
    put("fat.demand_blocks", fat.demand_blocks);
    put("fat.demand_spin_reaps", fat.demand_spin_reaps);
    put("fat.evictions", fat.evictions);
    put("fat.batched_evictions", fat.batched_evictions);
    put("fat.writebacks", fat.writebacks);
    put("fat.queue_full_stalls", fat.queue_full_stalls);
    put("fat.queue_full_yields", fat.queue_full_yields);
    put("fat.write_retries", fat.write_retries);
    put("fat.log_txns", fat.log_txns);
    put("fat.log_commits", fat.log_commits);
    let root = k.root_cache_stats();
    put("root.hits", root.hits);
    put("root.misses", root.misses);
    put("root.writebacks", root.writebacks);
    put("root.write_retries", root.write_retries);
    put("root.log_txns", root.log_txns);
    put("root.log_commits", root.log_commits);
    for (i, s) in k.fat_shard_stats().iter().enumerate() {
        put(&format!("shard.{i:03}"), s.hits + s.misses);
    }
    let sd = &k.board.sdhost;
    put("sd.dma_cmds", sd.dma_cmds());
    put("sd.dma_blocks", sd.dma_blocks());
    put("sd.sg_control_blocks", sd.sg_control_blocks());
    put("sd.flush_cmds", sd.flush_cmds());
    put("sd.fua_cmds", sd.fua_cmds());
    put("sd.kbio_cycles", k.task_sd_cycles(k.kbio_task()));
    put("sd.task_cycles", b.task_sd_cycles());
    put("dma.completions", k.board.dma.completions(0));
    for (i, n) in k.fat_queue_occupancy().iter().enumerate() {
        put(&format!("occupancy.{i}"), *n);
    }
    for core in 0..k.board.active_cores() {
        let s = k.sched.core_stats(core);
        put(&format!("sched.busy.{core}"), s.busy_cycles);
        put(&format!("sched.idle.{core}"), s.idle_cycles);
        put(&format!("sched.switches.{core}"), s.context_switches);
    }
    let wm = k.wm.stats();
    put("wm.rounds", wm.rounds);
    put("wm.pixels_composited", wm.pixels_composited);
    put("wm.skipped_rounds", wm.skipped_rounds);
    put("trace.total_logged", k.trace.total_logged());
    put("io.read_bytes", b.read_bytes);
    put("io.write_bytes", b.write_bytes);
    if let Some(m) = app.and_then(|t| k.task_metrics(t)) {
        put("app.frames", m.frames);
        put("app.logic_cycles", m.app_logic_cycles);
        put("app.draw_cycles", m.draw_cycles);
        put("app.present_cycles", m.present_cycles);
    }
    c
}

/// `after - before`, key by key.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

pub fn add(into: &mut Counters, from: &Counters) {
    for (k, v) in from {
        *into.entry(k.clone()).or_default() += v;
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Max over mean of a family of counters (`prefix.*`); 0 when all are 0.
fn imbalance(d: &Counters, prefix: &str) -> f64 {
    let v: Vec<f64> = d
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .collect();
    let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
    ratio(v.iter().cloned().fold(0.0, f64::max), mean)
}

/// Everything besides the counter deltas that the per-layer report needs.
pub struct Extras<'a> {
    pub ops: &'a [Op],
    /// `(queue high water, OS memory MB)` at the end of the measured rounds.
    pub levels: (f64, f64),
    /// Host self time per module per traced round, ms.
    pub self_ms: &'a BTreeMap<&'static str, f64>,
    /// `(step, median host seconds, MB)` per set-up step.
    pub setup: &'a [(&'static str, f64, f64)],
    pub trace_overhead: f64,
    pub fail_rate: f64,
    pub spans: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, value, unit)`.
pub fn per_layer(d: &Counters, x: &Extras<'_>) -> Vec<(String, f64, &'static str)> {
    let g = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    let block = 512.0;
    put("fs.bufcache.hits", g("fat.hits"), "count");
    put("fs.bufcache.misses", g("fat.misses"), "count");
    put(
        "fs.bufcache.hit_ratio",
        ratio(g("fat.hits"), g("fat.hits") + g("fat.misses")),
        "ratio",
    );
    put("fs.bufcache.prefetch_cmds", g("fat.prefetch_cmds"), "count");
    put(
        "fs.bufcache.prefetched_blocks",
        g("fat.prefetched_blocks"),
        "count",
    );
    put(
        "fs.bufcache.read_amplification",
        ratio(
            g("fat.misses") + g("fat.prefetched_blocks"),
            g("io.read_bytes") / block,
        ),
        "ratio",
    );
    put("fs.bufcache.demand_waits", g("fat.demand_waits"), "count");
    put("fs.bufcache.demand_blocks", g("fat.demand_blocks"), "count");
    put(
        "fs.bufcache.demand_spin_reaps",
        g("fat.demand_spin_reaps"),
        "count",
    );
    put("fs.bufcache.evictions", g("fat.evictions"), "count");
    put(
        "fs.bufcache.batched_evictions",
        g("fat.batched_evictions"),
        "count",
    );
    put("fs.bufcache.writebacks", g("fat.writebacks"), "count");
    put(
        "fs.bufcache.queue_full_stalls",
        g("fat.queue_full_stalls"),
        "count",
    );
    put(
        "fs.bufcache.queue_full_yields",
        g("fat.queue_full_yields"),
        "count",
    );
    put(
        "fs.bufcache.write_retries",
        g("fat.write_retries") + g("root.write_retries"),
        "count",
    );
    put(
        "fs.bufcache.shard_imbalance",
        imbalance(d, "shard."),
        "ratio",
    );
    put("fs.bufcache.root_hits", g("root.hits"), "count");
    put("fs.bufcache.root_misses", g("root.misses"), "count");
    put("fs.bufcache.root_writebacks", g("root.writebacks"), "count");

    put("fs.txn.fat_log_txns", g("fat.log_txns"), "count");
    put("fs.txn.fat_log_commits", g("fat.log_commits"), "count");
    put(
        "fs.txn.fat_txns_per_commit",
        ratio(g("fat.log_txns"), g("fat.log_commits")),
        "ratio",
    );
    put("fs.txn.xv6_log_txns", g("root.log_txns"), "count");
    put("fs.txn.xv6_log_commits", g("root.log_commits"), "count");
    put(
        "fs.txn.xv6_txns_per_commit",
        ratio(g("root.log_txns"), g("root.log_commits")),
        "ratio",
    );
    put(
        "fs.txn.write_amplification",
        ratio(
            g("fat.writebacks") + g("root.writebacks"),
            g("io.write_bytes") / block,
        ),
        "ratio",
    );

    put(
        "kernel.vfs.open_us_p50",
        class_us(x.ops, Class::FatOpen).p50,
        "us",
    );
    put(
        "fs.fat32.overwrite_us_p50",
        class_us(x.ops, Class::FatOverwrite).p50,
        "us",
    );
    put(
        "fs.xv6fs.create_us_p50",
        class_us(x.ops, Class::Xv6Create).p50,
        "us",
    );
    put(
        "fs.xv6fs.unlink_us_p50",
        class_us(x.ops, Class::Unlink).p50,
        "us",
    );

    put("hal.sdhost.dma_cmds", g("sd.dma_cmds"), "count");
    put("hal.sdhost.dma_blocks", g("sd.dma_blocks"), "count");
    put(
        "hal.sdhost.blocks_per_cmd",
        ratio(g("sd.dma_blocks"), g("sd.dma_cmds")),
        "ratio",
    );
    put(
        "hal.sdhost.sg_control_blocks",
        g("sd.sg_control_blocks"),
        "count",
    );
    put("hal.sdhost.queue_high_water", x.levels.0, "count");
    let occ: Vec<f64> = (0..9).map(|i| g(&format!("occupancy.{i}"))).collect();
    let occ_mean = ratio(
        occ.iter().enumerate().map(|(i, n)| i as f64 * n).sum(),
        occ.iter().sum(),
    );
    put("hal.sdhost.queue_occupancy_mean", occ_mean, "count");
    put("hal.sdhost.flush_cmds", g("sd.flush_cmds"), "count");
    put("hal.sdhost.fua_cmds", g("sd.fua_cmds"), "count");
    put(
        "hal.sdhost.task_sd_mcycles",
        g("sd.task_cycles") / 1e6,
        "Mcycles",
    );
    put(
        "hal.sdhost.kbio_sd_mcycles",
        g("sd.kbio_cycles") / 1e6,
        "Mcycles",
    );
    put("hal.dma.completions", g("dma.completions"), "count");

    for core in 0..hal::NUM_CORES {
        put(
            &format!("kernel.sched.busy_ms_core{core}"),
            g(&format!("sched.busy.{core}")) / 1e6,
            "ms",
        );
    }
    for core in 0..hal::NUM_CORES {
        put(
            &format!("kernel.sched.idle_ms_core{core}"),
            g(&format!("sched.idle.{core}")) / 1e6,
            "ms",
        );
    }
    let switches: f64 = (0..hal::NUM_CORES)
        .map(|c| g(&format!("sched.switches.{c}")))
        .sum();
    put("kernel.sched.context_switches", switches, "count");
    put(
        "kernel.sched.busy_imbalance",
        imbalance(d, "sched.busy."),
        "ratio",
    );

    put("kernel.wm.rounds", g("wm.rounds"), "count");
    put(
        "kernel.wm.pixels_composited",
        g("wm.pixels_composited"),
        "count",
    );
    put("kernel.wm.skipped_rounds", g("wm.skipped_rounds"), "count");

    let frames = g("app.frames");
    put("apps.frames", frames, "count");
    put(
        "apps.app_logic_ms",
        ratio(g("app.logic_cycles") / 1e6, frames),
        "ms",
    );
    put(
        "apps.draw_ms",
        ratio(g("app.draw_cycles") / 1e6, frames),
        "ms",
    );
    put(
        "apps.present_ms",
        ratio(g("app.present_cycles") / 1e6, frames),
        "ms",
    );

    put("kernel.mm.used_mb", x.levels.1, "MB");
    put(
        "kernel.trace.total_logged",
        g("trace.total_logged"),
        "count",
    );

    for (step, secs, mb) in x.setup {
        put(&format!("setup.{step}_s"), *secs, "s");
        if step.ends_with("_file") {
            put(&format!("setup.{step}_mb"), *mb, "MB");
        }
    }

    for module in SPAN_MODULES {
        put(
            &format!("{module}.self_ms"),
            x.self_ms.get(module).copied().unwrap_or(0.0),
            "ms",
        );
    }
    put("bench.spans", x.spans, "count");
    put("bench.trace_overhead", x.trace_overhead, "ratio");
    put("bench.fail_rate", x.fail_rate, "ratio");
    m
}

/// Modules the benchmark's spans are charged to.
pub const SPAN_MODULES: [&str; 7] = [
    "setup",
    "kernel.sched",
    "kernel.vfs",
    "kernel.pipe",
    "kernel.mm",
    "kernel.syscalls",
    "fs.bufcache",
];

/// Set-up steps reported as `setup.<step>_s` (and `_mb` for installs).
pub const SETUP_STEPS: [&str; 7] = [
    "build",
    "install_fat_file",
    "install_fat_dir",
    "install_root_file",
    "install_root_dir",
    "warmup",
    "total",
];
