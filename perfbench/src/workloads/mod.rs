//! The four workloads. Each builds its own system(s) from a seed, then runs
//! identical rounds of a fixed amount of work.

pub mod app_frames;
pub mod fs_write;
pub mod stream_read;
pub mod syscall_ipc;

use kernel::TaskId;

use crate::bench::{Bench, Class, Op, SetupLog};
use crate::stats::{percentile, sorted};

/// A workload-specific figure: `(name, value, unit, paper reference)`.
pub type Named = (&'static str, f64, &'static str, Option<f64>);

pub trait Workload {
    /// Builds the system(s), installs the seeded inputs and warms up.
    fn setup(seed: u64, log: &mut SetupLog) -> Self
    where
        Self: Sized;
    /// Runs one round; returns its operations and its simulated duration
    /// in seconds.
    fn round(&mut self, round: u32) -> (Vec<Op>, f64);
    fn benches(&self) -> Vec<&Bench>;
    fn benches_mut(&mut self) -> Vec<&mut Bench>;
    /// The three simulated end-to-end figures over the measured rounds. By
    /// default every counted operation weighs the same.
    fn sim_figures(&self, ops: &[Op], sim_s: f64) -> SimFigures {
        let us = sorted(
            ops.iter()
                .filter(|o| o.class.primary())
                .map(Op::us)
                .collect(),
        );
        SimFigures {
            ops_per_s: us.len() as f64 / sim_s,
            p50_us: percentile(&us, 50.0),
            p99_us: percentile(&us, 99.0),
        }
    }
    /// The paper-style figures of this workload over the measured rounds.
    fn named(&self, ops: &[Op], sim_s: f64, rounds: u32) -> Vec<Named>;
    /// True when another round could not run cleanly; the run then ends
    /// before `--seconds` (once the measured window is complete).
    fn exhausted(&self) -> bool {
        false
    }
    /// `(bench index, task)` of the app whose frame phases `apps.*` report.
    fn app_tasks(&self) -> Vec<(usize, TaskId)> {
        Vec::new()
    }
}

/// `sim_ops_per_s`, `sim_op_us_p50` and `sim_op_us_p99`.
pub struct SimFigures {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Latency summary of one class of operation, in simulated microseconds.
pub struct ClassStats {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub sum: f64,
}

impl ClassStats {
    /// Operations per second of their own summed time.
    pub fn per_s(&self) -> f64 {
        self.n as f64 / (self.sum / 1e6)
    }
}

pub fn class_us(ops: &[Op], class: Class) -> ClassStats {
    let v = sorted(
        ops.iter()
            .filter(|o| o.class == class)
            .map(Op::us)
            .collect(),
    );
    ClassStats {
        n: v.len(),
        p50: percentile(&v, 50.0),
        p99: percentile(&v, 99.0),
        sum: v.iter().sum(),
    }
}
