//! The benchmark harness.
//!
//! One module per experiment class, plus a binary per table/figure under
//! `src/bin/`, named after it (`table5_throughput`, `fig8_micro`, ...), that
//! prints the rows the paper reports and writes a JSON dump next to them
//! (under `target/experiments/`). `ablation_opts` also writes the tracked
//! `BENCH_fs.json` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appbench;
pub mod baselines;
pub mod micro;
pub mod report;

pub use appbench::{measure_fps, AppRun, FpsResult};
pub use micro::{run_microbenchmarks, MicroResults};
