//! Virtual time: per-core cycle counters.
//!
//! All performance results in the reproduction are derived from virtual
//! cycles charged by the kernel, drivers and applications through the
//! [`crate::cost::CostModel`]. Each simulated core owns an independent
//! counter; "wall-clock" time is defined as the maximum across cores, which
//! matches how a multi-core board ages even when some cores sit in WFI.

use serde::{Deserialize, Serialize};

/// A quantity of CPU cycles on the simulated board.
pub type Cycles = u64;

/// Identifies one of the simulated CPU cores (0..[`crate::NUM_CORES`]).
pub type CoreId = usize;

/// Per-core virtual cycle counters plus the nominal core frequency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Clock {
    /// Cycle counter for each core.
    cores: Vec<Cycles>,
    /// Core clock frequency in Hz (1.0 GHz for the Pi 3's A53 cluster
    /// in the configuration the paper uses).
    freq_hz: u64,
}

impl Clock {
    /// Creates a clock for `num_cores` cores running at `freq_hz`.
    pub fn new(num_cores: usize, freq_hz: u64) -> Self {
        assert!(num_cores > 0, "a board needs at least one core");
        assert!(freq_hz > 0, "core frequency must be non-zero");
        Clock {
            cores: vec![0; num_cores],
            freq_hz,
        }
    }

    /// Number of cores tracked by this clock.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The nominal core frequency in Hz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Current cycle count of `core`.
    pub fn cycles(&self, core: CoreId) -> Cycles {
        self.cores[core]
    }

    /// Advances `core` by `cycles` and returns its new counter value.
    pub fn advance(&mut self, core: CoreId, cycles: Cycles) -> Cycles {
        self.cores[core] = self.cores[core].saturating_add(cycles);
        self.cores[core]
    }

    /// Moves `core` forward so that it is at least at `target` cycles.
    ///
    /// Used when a core leaves WFI because of an interrupt that fired at a
    /// known global time: the sleeping core did not burn cycles, but its
    /// local notion of time must catch up.
    pub fn advance_to(&mut self, core: CoreId, target: Cycles) {
        if self.cores[core] < target {
            self.cores[core] = target;
        }
    }

    /// Global time: the furthest-ahead core, in cycles.
    pub fn global_cycles(&self) -> Cycles {
        self.cores.iter().copied().max().unwrap_or(0)
    }

    /// The least-advanced core, used by the scheduler loop to pick which core
    /// to simulate next so cores stay loosely synchronised.
    pub fn laggard_core(&self) -> CoreId {
        self.cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Converts cycles to nanoseconds at the configured frequency.
    pub fn cycles_to_ns(&self, cycles: Cycles) -> u64 {
        // Split to avoid overflow for large cycle counts: ns = c * 1e9 / f.
        let secs = cycles / self.freq_hz;
        let rem = cycles % self.freq_hz;
        secs * 1_000_000_000 + rem * 1_000_000_000 / self.freq_hz
    }

    /// Converts cycles to microseconds at the configured frequency.
    pub fn cycles_to_us(&self, cycles: Cycles) -> u64 {
        self.cycles_to_ns(cycles) / 1_000
    }

    /// Converts cycles to milliseconds at the configured frequency.
    pub fn cycles_to_ms(&self, cycles: Cycles) -> u64 {
        self.cycles_to_ns(cycles) / 1_000_000
    }

    /// Converts cycles to seconds as a floating point value.
    pub fn cycles_to_secs_f64(&self, cycles: Cycles) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }

    /// Converts a microsecond interval to cycles at the configured frequency.
    pub fn us_to_cycles(&self, us: u64) -> Cycles {
        us.saturating_mul(self.freq_hz) / 1_000_000
    }

    /// Converts a millisecond interval to cycles at the configured frequency.
    pub fn ms_to_cycles(&self, ms: u64) -> Cycles {
        ms.saturating_mul(self.freq_hz) / 1_000
    }

    /// Global time in microseconds (the unit the Pi 3 system timer counts in).
    pub fn now_us(&self) -> u64 {
        self.cycles_to_us(self.global_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates_per_core() {
        let mut c = Clock::new(4, 1_000_000_000);
        c.advance(0, 100);
        c.advance(0, 50);
        c.advance(2, 700);
        assert_eq!(c.cycles(0), 150);
        assert_eq!(c.cycles(1), 0);
        assert_eq!(c.cycles(2), 700);
        assert_eq!(c.global_cycles(), 700);
    }

    #[test]
    fn laggard_is_least_advanced() {
        let mut c = Clock::new(3, 1_000_000_000);
        c.advance(0, 10);
        c.advance(1, 5);
        c.advance(2, 20);
        assert_eq!(c.laggard_core(), 1);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = Clock::new(1, 1_000_000_000);
        c.advance(0, 1000);
        c.advance_to(0, 500);
        assert_eq!(c.cycles(0), 1000);
        c.advance_to(0, 2000);
        assert_eq!(c.cycles(0), 2000);
    }

    #[test]
    fn unit_conversions_at_1ghz() {
        let c = Clock::new(1, 1_000_000_000);
        assert_eq!(c.cycles_to_ns(1), 1);
        assert_eq!(c.cycles_to_us(1_000), 1);
        assert_eq!(c.cycles_to_ms(1_000_000), 1);
        assert_eq!(c.us_to_cycles(3), 3_000);
        assert_eq!(c.ms_to_cycles(2), 2_000_000);
    }

    #[test]
    fn conversions_do_not_overflow_for_hours_of_cycles() {
        let c = Clock::new(1, 1_000_000_000);
        // Ten hours of cycles at 1 GHz.
        let cycles = 36_000_000_000_000u64;
        assert_eq!(c.cycles_to_ms(cycles), 36_000_000);
        assert!((c.cycles_to_secs_f64(cycles) - 36_000.0).abs() < 1e-6);
    }

    #[test]
    fn saturating_advance_does_not_panic() {
        let mut c = Clock::new(1, 1_000_000_000);
        c.advance(0, u64::MAX);
        c.advance(0, 100);
        assert_eq!(c.cycles(0), u64::MAX);
    }
}
