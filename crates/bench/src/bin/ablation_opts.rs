//! Ablation of the §5.2 optimisations and the I/O pipeline above the
//! unified block cache: SIMD pixel conversion, the FAT32 range-coalescing
//! buffer-cache policy (the successor of the old cache-bypass hack), the
//! streaming-prefetch policy and the polled vs. DMA SD data path, plus the
//! default pipeline's sequential write+fsync and the per-core multicore
//! sweep.
//!
//! Besides the console table, the filesystem half writes a machine-readable
//! `BENCH_fs.json` at the repository root (hits, misses, coalesced ranges,
//! prefetch commands, modeled MB/s per policy) so the CI bench-smoke job can
//! track the storage-stack perf trajectory.

use std::path::Path;

use bench::report;
use bench::storagescale::{self, StorageScalePoint};
use hal::cost::Platform;
use kernel::vfs::OpenFlags;
use proto::prototype::{ProtoSystem, SystemOptions};
use serde::Serialize;

/// One FAT32 read-workload run under a given cache policy.
#[derive(Debug, Clone, Serialize)]
struct FsRun {
    /// Range coalescing enabled?
    coalescing: bool,
    /// Streaming prefetch enabled?
    prefetch: bool,
    /// SD DMA data path (scatter-gather chains + async command queue)?
    dma: bool,
    /// Bytes read from `/d/doom.wad`.
    bytes: u64,
    /// Modeled wall-clock for the read loop, in ms (measured on the reading
    /// task's core so other cores' clocks cannot skew the window).
    ms: f64,
    /// Modeled throughput in MB/s.
    mb_s: f64,
    /// Buffer-cache hits (blocks served from cache).
    hits: u64,
    /// Buffer-cache misses (blocks fetched from the card).
    misses: u64,
    /// Multi-block SD commands the cache issued.
    coalesced_ranges: u64,
    /// Single-block SD commands the cache issued.
    single_cmds: u64,
    /// SD commands issued speculatively by the prefetcher (their setup
    /// latency overlaps the previous transfer in the cost model).
    prefetch_cmds: u64,
    /// Blocks brought in ahead of demand.
    prefetched_blocks: u64,
    /// Demand reads that waited on an in-flight prefetch chain instead of
    /// re-issuing it — the DMA pipeline's transfer/compute overlap at work.
    demand_waits: u64,
}

/// The default pipeline's sequential write+fsync: under cache pressure the
/// batched eviction path gathers dirty runs into multi-control-block chains
/// kept up to queue depth in flight.
#[derive(Debug, Clone, Serialize)]
struct BatchedWbRun {
    /// Batched eviction write-back (always: it is the only eviction path).
    batched: bool,
    /// Posted write cache on the card (off in every shipped configuration).
    posted: bool,
    /// Bytes written (then fsync'd) to the FAT volume.
    bytes: u64,
    /// Modeled wall-clock of write + fsync + close, in ms.
    ms: f64,
    /// Modeled sequential write+fsync throughput in MB/s.
    mb_s: f64,
    /// DMA chains the workload submitted (fewer, larger chains = the win).
    dma_cmds: u64,
    /// Times the writer found the queue full and had to spin-reap.
    queue_full_stalls: u64,
    /// Deepest queue occupancy a submission of *this run* observed (derived
    /// from the occupancy-histogram delta, so boot-time traffic cannot
    /// inflate it).
    queue_high_water: usize,
    /// Queue-occupancy histogram sampled after each write-chain submission
    /// (index = commands in flight, last bucket clamps).
    queue_occupancy: Vec<u64>,
}

/// Video-conversion ablation results (the §5.2 SIMD-vs-scalar gap).
#[derive(Debug, Clone, Serialize)]
struct VideoRun {
    simd_fps: f64,
    scalar_fps: f64,
    speedup: f64,
    /// The gap measured before the cost-model rebalance of the decode /
    /// conversion split (decode used to dominate the modeled frame and
    /// flattened the ablation; the paper reports ~3x).
    speedup_before_rebalance: f64,
}

/// The `BENCH_fs.json` payload.
#[derive(Debug, Serialize)]
struct BenchFs {
    workload: String,
    coalesced: FsRun,
    single_block: FsRun,
    prefetch_on: FsRun,
    prefetch_off: FsRun,
    /// The full storage pipeline: DMA scatter-gather data path + async
    /// command queue + coalescing + prefetch.
    dma_on: FsRun,
    /// Same pipeline with the polled data phase (the pre-DMA default; the
    /// 1.09 MB/s floor PR 2 measured).
    dma_off: FsRun,
    /// DMA with prefetch disabled: what the async queue buys without
    /// read-ahead overlapping the transfers.
    dma_prefetch_off: FsRun,
    /// Sequential write+fsync through the deep-queue batched write path.
    batched_wb_on: BatchedWbRun,
    /// The per-core block stack's N-cores × N-streams sweep: four concurrent
    /// stream readers (blocking demand I/O, core-affine shards, per-core
    /// reaping) at 1, 2 and 4 active cores.
    multicore_scaling: Vec<StorageScalePoint>,
    video: VideoRun,
    speedup: f64,
    /// Read-ahead gain *under DMA* (dma_prefetch_off.ms / dma_on.ms): with
    /// the data phase off the CPU, transfer overlap finally matters.
    prefetch_gain: f64,
    /// Read-ahead gain on the polled path (the PR 2 honest finding: ~1.0x,
    /// because the polled per-block transfer was the floor).
    pio_prefetch_gain: f64,
    /// dma_on over dma_off: what the DMA data path + queue buy end to end.
    dma_speedup: f64,
}

fn fs_run(coalesce: bool, prefetch: bool, dma: bool) -> FsRun {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    let mut sys = ProtoSystem::build(options).expect("system");
    sys.kernel.set_fat_range_coalescing(coalesce);
    sys.kernel.set_fat_prefetch(prefetch);
    sys.kernel.set_sd_dma(dma);
    let tid = sys.kernel.spawn_bench_task("reader").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    let cache_before = sys.kernel.fat_cache_stats();
    let before = sys.kernel.board.clock.cycles(core);
    let mut bytes = 0u64;
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/doom.wad", OpenFlags::rdonly())?;
            loop {
                let chunk = ctx.read(fd, 128 * 1024)?;
                if chunk.is_empty() {
                    break;
                }
                bytes += chunk.len() as u64;
            }
            ctx.close(fd)
        })
        .expect("read wad");
    let after = sys.kernel.board.clock.cycles(core);
    let cache = sys.kernel.fat_cache_stats();
    let ms = (after - before) as f64 / 1e6;
    FsRun {
        coalescing: coalesce,
        prefetch,
        dma,
        bytes,
        ms,
        mb_s: if ms > 0.0 {
            bytes as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        },
        hits: cache.hits - cache_before.hits,
        misses: cache.misses - cache_before.misses,
        coalesced_ranges: cache.coalesced_ranges - cache_before.coalesced_ranges,
        single_cmds: cache.single_cmds - cache_before.single_cmds,
        prefetch_cmds: cache.prefetch_cmds - cache_before.prefetch_cmds,
        prefetched_blocks: cache.prefetched_blocks - cache_before.prefetched_blocks,
        demand_waits: cache.demand_waits - cache_before.demand_waits,
    }
}

fn batched_run() -> BatchedWbRun {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    let mut sys = ProtoSystem::build(options).expect("system");
    let tid = sys.kernel.spawn_bench_task("writer").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    let cache_before = sys.kernel.fat_cache_stats();
    let occupancy_before = sys.kernel.fat_queue_occupancy();
    let dma_before = sys.kernel.board.sdhost.dma_cmds();
    // 2 MB through the 512 KB cache: ~3/4 of the blocks move under cache
    // pressure (the eviction path), the rest at the fsync barrier — exactly
    // the mix the batching exists for.
    let data = vec![0xC3u8; 2 * 1024 * 1024];
    let before = sys.kernel.board.clock.cycles(core);
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/batch.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &data)?;
            ctx.fsync(fd)?;
            ctx.close(fd)
        })
        .expect("sequential write");
    let ms = (sys.kernel.board.clock.cycles(core) - before) as f64 / 1e6;
    let cache = sys.kernel.fat_cache_stats();
    let queue_occupancy: Vec<u64> = sys
        .kernel
        .fat_queue_occupancy()
        .iter()
        .zip(occupancy_before.iter())
        .map(|(a, b)| a - b)
        .collect();
    let queue_high_water = queue_occupancy.iter().rposition(|&c| c > 0).unwrap_or(0);
    BatchedWbRun {
        batched: true,
        posted: false,
        bytes: data.len() as u64,
        ms,
        mb_s: if ms > 0.0 {
            data.len() as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        },
        dma_cmds: sys.kernel.board.sdhost.dma_cmds() - dma_before,
        queue_full_stalls: cache.queue_full_stalls - cache_before.queue_full_stalls,
        queue_high_water,
        queue_occupancy,
    }
}

fn main() {
    println!("Ablation — §5.2 performance optimisations + I/O pipeline\n");
    // 1. Video playback with SIMD vs scalar YUV conversion.
    let fps = |scalar: bool| {
        let mut options = SystemOptions::benchmark(Platform::Pi3);
        options.window_manager = false;
        let mut sys = ProtoSystem::build(options).expect("system");
        let mut args = vec!["/d/video480.mpg".to_string()];
        if scalar {
            args.push("0".into());
            args.push("scalar".into());
        }
        let tid = sys.spawn("videoplayer", &args).expect("spawn");
        // Full-size assets: loading the stream from the SD card takes tens
        // of seconds of *board* time before the first frame, so run until
        // the whole stream has played rather than for a fixed window.
        sys.kernel.run_until(
            |k| k.task(tid).map(|t| t.is_zombie()).unwrap_or(true),
            240_000_000,
        );
        sys.fps_of(tid)
    };
    let simd = fps(false);
    let scalar = fps(true);
    let video = VideoRun {
        simd_fps: simd,
        scalar_fps: scalar,
        speedup: simd / scalar.max(0.01),
        // Measured with the pre-rebalance cost split (decode-dominated):
        // 21.3 vs 18.8 FPS.
        speedup_before_rebalance: 1.13,
    };
    println!(
        "video 480p playback : SIMD convert {simd:.1} FPS vs scalar {scalar:.1} FPS ({:.1}x)  (paper: ~3x; was {:.1}x before the cost rebalance)",
        video.speedup, video.speedup_before_rebalance
    );

    // 2. FAT32 large-file read latency across the storage-stack policies:
    // range coalescing on/off, streaming prefetch, and the DMA data path
    // with its async command queue (the polled-transfer-floor lift).
    let ranged = fs_run(true, false, false);
    let single = fs_run(false, false, false);
    let prefetch = fs_run(true, true, false);
    let dma_on = fs_run(true, true, true);
    let dma_prefetch_off = fs_run(true, false, true);
    let dma_off = prefetch.clone();
    let speedup = single.ms / ranged.ms.max(0.01);
    let pio_prefetch_gain = ranged.ms / prefetch.ms.max(0.01);
    let prefetch_gain = dma_prefetch_off.ms / dma_on.ms.max(0.01);
    let dma_speedup = dma_off.ms / dma_on.ms.max(0.01);
    println!(
        "DOOM asset load     : range-coalesced {:.0} ms ({:.2} MB/s) vs single-block {:.0} ms ({:.2} MB/s) ({speedup:.1}x)  (paper: 2-3x)",
        ranged.ms, ranged.mb_s, single.ms, single.mb_s
    );
    println!(
        "  + prefetch (PIO)  : {:.0} ms ({:.2} MB/s, {pio_prefetch_gain:.2}x over coalesced) — the polled data phase is the floor",
        prefetch.ms, prefetch.mb_s
    );
    println!(
        "  + DMA + queue     : {:.0} ms ({:.2} MB/s, {dma_speedup:.1}x over polled) — {} chains, {} blocks waited on in-flight read-ahead",
        dma_on.ms, dma_on.mb_s, dma_on.coalesced_ranges, dma_on.demand_waits
    );
    println!(
        "  + DMA no prefetch : {:.0} ms ({:.2} MB/s); read-ahead overlap under DMA = {prefetch_gain:.2}x",
        dma_prefetch_off.ms, dma_prefetch_off.mb_s
    );
    println!(
        "                      cache: {} hits, {} misses, {} range cmds, {} single cmds",
        ranged.hits, ranged.misses, ranged.coalesced_ranges, ranged.single_cmds
    );

    // 3. Deep-queue batched write-back: multi-extent eviction chains on
    // sequential write+fsync.
    let bw_on = batched_run();
    println!(
        "batched write-back  : {:.2} MB/s ({} chains, depth {} peak, {} stalls)",
        bw_on.mb_s, bw_on.dma_cmds, bw_on.queue_high_water, bw_on.queue_full_stalls
    );
    println!(
        "                      queue occupancy after submit: {:?}",
        bw_on.queue_occupancy
    );

    // 4. The per-core block stack: four concurrent stream readers at 1, 2
    // and 4 active cores. The cold pass exercises blocking demand reads and
    // per-core reaping; the timed warm passes are CPU-bound, which is where
    // core count can show up as aggregate throughput (the card's line rate
    // itself is a single shared resource).
    let multicore_scaling = storagescale::storage_scaling();
    for p in &multicore_scaling {
        println!(
            "storage scaling     : {} core{} x {} streams: {:.1} MB/s warm ({:.1} ms), cold: {} demand waits, {} parks, {} spin-reaps, {} steals; shard imbalance {:.2}",
            p.cores,
            if p.cores == 1 { " " } else { "s" },
            p.streams,
            p.aggregate_mb_s,
            p.ms,
            p.demand_waits,
            p.demand_blocks,
            p.demand_spin_reaps,
            p.affinity_steals,
            p.shard_imbalance
        );
    }

    let bench_fs = BenchFs {
        workload: format!("sequential read of /d/doom.wad ({} bytes)", ranged.bytes),
        coalesced: ranged.clone(),
        single_block: single.clone(),
        prefetch_on: prefetch.clone(),
        prefetch_off: ranged.clone(),
        dma_on: dma_on.clone(),
        dma_off,
        dma_prefetch_off: dma_prefetch_off.clone(),
        batched_wb_on: bw_on.clone(),
        multicore_scaling,
        video,
        speedup,
        prefetch_gain,
        pio_prefetch_gain,
        dma_speedup,
    };
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report::write_json_to(&repo_root.join("BENCH_fs.json"), &bench_fs);

    report::write_json(
        "ablation_opts",
        &vec![
            ("video_simd_fps", simd),
            ("video_scalar_fps", scalar),
            ("fat_read_coalesced_ms", ranged.ms),
            ("fat_read_single_block_ms", single.ms),
            ("fat_read_coalesced_mb_s", ranged.mb_s),
            ("fat_read_single_block_mb_s", single.mb_s),
            ("fat_read_prefetch_mb_s", prefetch.mb_s),
            ("fat_read_dma_mb_s", dma_on.mb_s),
            ("fat_read_dma_no_prefetch_mb_s", dma_prefetch_off.mb_s),
            ("fat_write_batched_mb_s", bw_on.mb_s),
        ],
    );
}
