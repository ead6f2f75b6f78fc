//! The scheduler.
//!
//! Prototype 2's scheduler is deliberately simple — "a single runqueue,
//! sufficient to manage several tasks on a single core" (§4.2) — and
//! Prototype 5 scales it to four cores by giving *each core its own copy* of
//! the runqueue and vector table (§4.5). Scheduler ticks come from the SoC
//! system timer on core 0 (Prototypes 1–4) and from the per-core ARM generic
//! timers once multicore is enabled; all other device interrupts stay on
//! core 0.
//!
//! Each pick runs one step of the task's program, round robin. No decision
//! here reads a task's priority: children inherit it and `/proc/tasks`
//! shows it, but every runnable task gets the same turn.

use std::collections::VecDeque;

use crate::task::TaskId;

/// Per-core scheduler statistics (Figure 10's >95% utilisation claim is
/// checked against these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Context switches performed on this core.
    pub context_switches: u64,
    /// Cycles this core spent running tasks.
    pub busy_cycles: u64,
    /// Cycles this core spent idle (in WFI).
    pub idle_cycles: u64,
    /// Scheduler ticks handled.
    pub ticks: u64,
}

impl CoreStats {
    /// Utilisation in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

/// The multicore round-robin scheduler with per-core runqueues.
#[derive(Debug, Clone)]
pub struct Scheduler {
    runqueues: Vec<VecDeque<TaskId>>,
    current: Vec<Option<TaskId>>,
    stats: Vec<CoreStats>,
    active_cores: usize,
    /// Round-robin cursor for placing new tasks on cores.
    next_core: usize,
}

impl Scheduler {
    /// Creates a scheduler using `active_cores` cores.
    pub fn new(active_cores: usize) -> Self {
        let n = active_cores.clamp(1, hal::NUM_CORES);
        Scheduler {
            runqueues: (0..hal::NUM_CORES).map(|_| VecDeque::new()).collect(),
            current: vec![None; hal::NUM_CORES],
            stats: vec![CoreStats::default(); hal::NUM_CORES],
            active_cores: n,
            next_core: 0,
        }
    }

    /// Number of cores in use.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Changes the number of active cores (Figure 10's sweep). Tasks queued
    /// on now-inactive cores are migrated to core 0.
    pub fn set_active_cores(&mut self, cores: usize) {
        self.active_cores = cores.clamp(1, hal::NUM_CORES);
        for core in self.active_cores..hal::NUM_CORES {
            while let Some(t) = self.runqueues[core].pop_front() {
                self.runqueues[0].push_back(t);
            }
        }
    }

    /// Picks the core a new (or newly woken) task should run on: the active
    /// core with the shortest runqueue, breaking ties round-robin.
    pub fn choose_core(&mut self) -> usize {
        let mut best = self.next_core % self.active_cores;
        let mut best_len = usize::MAX;
        for i in 0..self.active_cores {
            let c = (self.next_core + i) % self.active_cores;
            let len = self.runqueues[c].len() + usize::from(self.current[c].is_some());
            if len < best_len {
                best_len = len;
                best = c;
            }
        }
        self.next_core = (best + 1) % self.active_cores;
        best
    }

    /// Enqueues a task on a core's runqueue in O(1) and returns the core the
    /// task actually landed on: a core beyond the active set is migrated to
    /// the last active core (the caller records the returned core in the
    /// task's `queued_on` tag instead of the old silent clamp, so wakeup
    /// charging follows the task). Duplicate suppression is the caller's job
    /// via that tag; the scheduler itself no longer scans the queue.
    #[must_use = "record the placed core in the task's queued_on tag"]
    pub fn enqueue(&mut self, task: TaskId, core: usize) -> usize {
        let core = core.min(self.active_cores - 1);
        self.runqueues[core].push_back(task);
        core
    }

    /// Removes a task known to be queued on `core` (the fast path for
    /// tagged tasks: one queue scanned instead of all of them).
    pub fn remove_from(&mut self, task: TaskId, core: usize) {
        self.runqueues[core].retain(|t| *t != task);
        if self.current[core] == Some(task) {
            self.current[core] = None;
        }
    }

    /// Removes a task from every runqueue (on exit, or when the caller does
    /// not know which queue holds it).
    pub fn remove(&mut self, task: TaskId) {
        for q in &mut self.runqueues {
            q.retain(|t| *t != task);
        }
        for cur in &mut self.current {
            if *cur == Some(task) {
                *cur = None;
            }
        }
    }

    /// Picks the next task to run on `core`, moving the previously running
    /// task (if still current) to the back of the queue. Returns `None` if
    /// the runqueue is empty (the core should WFI).
    pub fn pick_next(&mut self, core: usize) -> Option<TaskId> {
        if let Some(prev) = self.current[core].take() {
            self.runqueues[core].push_back(prev);
        }
        let next = self.runqueues[core].pop_front();
        self.current[core] = next;
        if next.is_some() {
            self.stats[core].context_switches += 1;
        }
        next
    }

    /// The task currently running on `core`.
    pub fn current(&self, core: usize) -> Option<TaskId> {
        self.current[core]
    }

    /// Marks the current task of `core` as no longer running (it blocked,
    /// slept or exited) without requeueing it.
    pub fn clear_current(&mut self, core: usize) {
        self.current[core] = None;
    }

    /// Length of `core`'s runqueue.
    pub fn queue_len(&self, core: usize) -> usize {
        self.runqueues[core].len()
    }

    /// Records busy cycles on a core.
    pub fn account_busy(&mut self, core: usize, cycles: u64) {
        self.stats[core].busy_cycles += cycles;
    }

    /// Records idle cycles on a core.
    pub fn account_idle(&mut self, core: usize, cycles: u64) {
        self.stats[core].idle_cycles += cycles;
    }

    /// Records a scheduler tick on a core.
    pub fn account_tick(&mut self, core: usize) {
        self.stats[core].ticks += 1;
    }

    /// Per-core statistics.
    pub fn core_stats(&self, core: usize) -> CoreStats {
        self.stats[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_through_tasks() {
        let mut s = Scheduler::new(1);
        let _ = s.enqueue(1, 0);
        let _ = s.enqueue(2, 0);
        let _ = s.enqueue(3, 0);
        let order: Vec<_> = (0..6).filter_map(|_| s.pick_next(0)).collect();
        assert_eq!(order, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn blocked_tasks_are_not_requeued() {
        let mut s = Scheduler::new(1);
        let _ = s.enqueue(1, 0);
        let _ = s.enqueue(2, 0);
        assert_eq!(s.pick_next(0), Some(1));
        s.clear_current(0); // task 1 blocked
        assert_eq!(s.pick_next(0), Some(2));
        assert_eq!(s.pick_next(0), Some(2), "only task 2 remains runnable");
    }

    #[test]
    fn choose_core_balances_across_active_cores() {
        let mut s = Scheduler::new(4);
        let mut counts = [0usize; 4];
        for t in 0..8 {
            let c = s.choose_core();
            counts[c] += 1;
            assert_eq!(s.enqueue(t, c), c);
        }
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(
            counts.iter().all(|&c| c == 2),
            "8 tasks spread 2 per core: {counts:?}"
        );
    }

    #[test]
    fn shrinking_active_cores_migrates_queued_tasks() {
        let mut s = Scheduler::new(4);
        let _ = s.enqueue(1, 3);
        let _ = s.enqueue(2, 2);
        s.set_active_cores(1);
        assert_eq!(s.queue_len(0), 2);
        assert_eq!(s.queue_len(3), 0);
    }

    #[test]
    fn enqueue_is_o1_and_reports_the_placed_core() {
        let mut s = Scheduler::new(2);
        // Inactive-core placement is redirected and reported, not silent.
        assert_eq!(s.enqueue(1, 3), 1);
        assert_eq!(s.queue_len(1), 1);
        // No duplicate scan any more: the same task can sit in the queue
        // twice if the caller skips its queued_on tag — callers dedupe.
        assert_eq!(s.enqueue(1, 1), 1);
        assert_eq!(s.queue_len(1), 2);
    }

    #[test]
    fn remove_from_clears_one_queue_and_the_current_slot() {
        let mut s = Scheduler::new(2);
        let _ = s.enqueue(5, 0);
        let _ = s.enqueue(6, 1);
        assert_eq!(s.pick_next(0), Some(5));
        s.remove_from(5, 0);
        assert_eq!(s.current(0), None);
        assert_eq!(s.pick_next(0), None);
        s.remove_from(6, 1);
        assert_eq!(s.queue_len(1), 0);
    }

    #[test]
    fn utilisation_reflects_busy_vs_idle() {
        let mut s = Scheduler::new(1);
        s.account_busy(0, 900);
        s.account_idle(0, 100);
        let u = s.core_stats(0).utilisation();
        assert!((u - 0.9).abs() < 1e-9);
    }

    #[test]
    fn remove_purges_a_task_everywhere() {
        let mut s = Scheduler::new(2);
        let _ = s.enqueue(7, 0);
        let _ = s.enqueue(7, 0);
        assert_eq!(s.pick_next(0), Some(7));
        s.remove(7);
        assert_eq!(s.current(0), None);
        assert_eq!(s.pick_next(0), None);
    }
}
