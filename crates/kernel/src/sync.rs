//! Kernel synchronisation primitives.
//!
//! Prototype 1 introduces a spinlock that is immediately simplified to
//! reference-counted interrupt disabling, because the early kernel is
//! single-core (§4.1). Prototype 5 adds semaphore syscalls — the primitive
//! user-level mutexes and condition variables are built from (§4.5) — and
//! real spinlocks return once multiple cores share the runqueues and the
//! window-manager surface list.

use std::collections::BTreeMap;

use crate::error::{KResult, KernelError};
use crate::task::TaskId;

/// The interrupt-disable "lock" of Prototype 1: a per-core depth counter of
/// `push_off`/`pop_off` pairs, exactly xv6's idiom. Interrupts are re-enabled
/// only when the depth returns to zero.
#[derive(Debug, Default)]
pub struct IrqLock {
    depth: [u32; hal::NUM_CORES],
    /// Whether interrupts were enabled before the outermost push.
    saved_enabled: [bool; hal::NUM_CORES],
}

impl IrqLock {
    /// Creates the lock bookkeeping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters a critical section on `core`; returns true if this push
    /// actually masked interrupts (the outermost one).
    pub fn push_off(&mut self, core: usize, irqs_enabled: bool) -> bool {
        if self.depth[core] == 0 {
            self.saved_enabled[core] = irqs_enabled;
        }
        self.depth[core] += 1;
        self.depth[core] == 1
    }

    /// Leaves a critical section; returns true if interrupts should be
    /// re-enabled now (the outermost pop with interrupts previously on).
    pub fn pop_off(&mut self, core: usize) -> KResult<bool> {
        if self.depth[core] == 0 {
            return Err(KernelError::Invalid("pop_off without push_off".into()));
        }
        self.depth[core] -= 1;
        Ok(self.depth[core] == 0 && self.saved_enabled[core])
    }

    /// Current nesting depth on a core.
    pub fn depth(&self, core: usize) -> u32 {
        self.depth[core]
    }
}

/// A multicore spinlock model: tracks the holder and counts contention so
/// tests can assert mutual exclusion and the benches can charge spin time.
#[derive(Debug, Default)]
pub struct SpinLock {
    holder: Option<usize>,
    acquisitions: u64,
    contended: u64,
}

impl SpinLock {
    /// Creates an unlocked spinlock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to take the lock for `core`. Returns false if another core
    /// holds it (the caller "spins" by charging cycles and retrying).
    pub fn try_acquire(&mut self, core: usize) -> bool {
        match self.holder {
            None => {
                self.holder = Some(core);
                self.acquisitions += 1;
                true
            }
            Some(h) if h == core => true, // already held by this core
            Some(_) => {
                self.contended += 1;
                false
            }
        }
    }

    /// Releases the lock.
    pub fn release(&mut self, core: usize) -> KResult<()> {
        match self.holder {
            Some(h) if h == core => {
                self.holder = None;
                Ok(())
            }
            _ => Err(KernelError::Invalid(format!(
                "core {core} released a lock it does not hold"
            ))),
        }
    }

    /// Number of contended acquisition attempts.
    pub fn contended(&self) -> u64 {
        self.contended
    }
}

/// One counting semaphore plus its wait queue.
#[derive(Debug, Clone)]
pub struct Semaphore {
    value: i64,
    waiters: Vec<TaskId>,
    /// Woken waiters a post handed a unit to. A parked call is issued
    /// again after its wakeup, and the waiter's retried wait takes its
    /// unit here, whatever `value` reads by then.
    granted: Vec<TaskId>,
    /// Total successful waits (down operations).
    pub downs: u64,
    /// Total posts (up operations).
    pub ups: u64,
}

/// The kernel's semaphore table (backing the Prototype 5 semaphore syscalls).
#[derive(Debug, Clone, Default)]
pub struct SemTable {
    sems: BTreeMap<u64, Semaphore>,
    next_id: u64,
}

/// Result of a semaphore wait attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemWaitResult {
    /// The semaphore was decremented; the caller proceeds.
    Acquired,
    /// The caller has been queued and must block.
    MustBlock,
}

impl SemTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SemTable {
            sems: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Creates a semaphore with initial value `value`, returning its id.
    pub fn create(&mut self, value: i64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.sems.insert(
            id,
            Semaphore {
                value,
                waiters: Vec::new(),
                granted: Vec::new(),
                downs: 0,
                ups: 0,
            },
        );
        id
    }

    fn get_mut(&mut self, id: u64) -> KResult<&mut Semaphore> {
        self.sems
            .get_mut(&id)
            .ok_or_else(|| KernelError::NotFound(format!("semaphore {id}")))
    }

    /// The current value of semaphore `id`.
    pub fn value(&self, id: u64) -> KResult<i64> {
        self.sems
            .get(&id)
            .map(|s| s.value)
            .ok_or_else(|| KernelError::NotFound(format!("semaphore {id}")))
    }

    /// P / wait / down. A caller that a post granted a unit while it was
    /// queued takes that unit; otherwise, if the value is positive it is
    /// decremented and the caller proceeds, and if not the caller is queued.
    pub fn wait(&mut self, id: u64, task: TaskId) -> KResult<SemWaitResult> {
        let sem = self.get_mut(id)?;
        if let Some(i) = sem.granted.iter().position(|t| *t == task) {
            sem.granted.remove(i);
            sem.downs += 1;
            Ok(SemWaitResult::Acquired)
        } else if sem.value > 0 {
            sem.value -= 1;
            sem.downs += 1;
            Ok(SemWaitResult::Acquired)
        } else {
            if !sem.waiters.contains(&task) {
                sem.waiters.push(task);
            }
            Ok(SemWaitResult::MustBlock)
        }
    }

    /// V / post / up. Returns the task to wake, if any was queued. When a
    /// waiter exists it is granted the unit directly, so it will not lose a
    /// race with a later caller, and the count does not rise: the waiter
    /// takes the unit when it issues its wait again. A post that would carry
    /// the count past `i64::MAX` fails with [`KernelError::LimitExceeded`]
    /// and changes nothing.
    pub fn post(&mut self, id: u64) -> KResult<Option<TaskId>> {
        let sem = self.get_mut(id)?;
        let waiter = if sem.waiters.is_empty() {
            sem.value = sem.value.checked_add(1).ok_or_else(|| {
                KernelError::LimitExceeded(format!("semaphore {id} is at its maximum count"))
            })?;
            None
        } else {
            let waiter = sem.waiters.remove(0);
            sem.granted.push(waiter);
            Some(waiter)
        };
        sem.ups += 1;
        Ok(waiter)
    }

    /// Removes an exiting `task` from every wait list. A unit it was
    /// granted but never took passes to the next waiter, or back to the
    /// count; returns the waiters so granted, for the caller to wake.
    pub fn forget_task(&mut self, task: TaskId) -> Vec<TaskId> {
        let mut woken = Vec::new();
        for sem in self.sems.values_mut() {
            sem.waiters.retain(|t| *t != task);
            let held = sem.granted.len();
            sem.granted.retain(|t| *t != task);
            for _ in sem.granted.len()..held {
                if sem.waiters.is_empty() {
                    sem.value = sem.value.saturating_add(1);
                } else {
                    let next = sem.waiters.remove(0);
                    sem.granted.push(next);
                    woken.push(next);
                }
            }
        }
        woken
    }

    /// Destroys a semaphore, returning any tasks that were still waiting so
    /// the caller can wake (and fail) them.
    pub fn destroy(&mut self, id: u64) -> KResult<Vec<TaskId>> {
        self.sems
            .remove(&id)
            .map(|s| s.waiters)
            .ok_or_else(|| KernelError::NotFound(format!("semaphore {id}")))
    }

    /// Number of live semaphores.
    pub fn len(&self) -> usize {
        self.sems.len()
    }

    /// True if no semaphores exist.
    pub fn is_empty(&self) -> bool {
        self.sems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irq_lock_nests_and_restores_only_at_outermost_pop() {
        let mut l = IrqLock::new();
        assert!(l.push_off(0, true));
        assert!(!l.push_off(0, true));
        assert!(!l.pop_off(0).unwrap());
        assert!(l.pop_off(0).unwrap(), "outermost pop re-enables");
        assert!(l.pop_off(0).is_err());
        // If interrupts were already off, nothing gets re-enabled.
        l.push_off(1, false);
        assert!(!l.pop_off(1).unwrap());
    }

    #[test]
    fn spinlock_provides_mutual_exclusion_across_cores() {
        let mut sl = SpinLock::new();
        assert!(sl.try_acquire(0));
        assert!(!sl.try_acquire(1));
        assert!(sl.try_acquire(0), "re-acquire by the holder is fine");
        assert!(sl.release(1).is_err());
        sl.release(0).unwrap();
        assert!(sl.try_acquire(1));
        assert_eq!(sl.contended(), 1);
    }

    #[test]
    fn semaphore_counts_and_blocks() {
        let mut st = SemTable::new();
        let s = st.create(2);
        assert_eq!(st.wait(s, 10).unwrap(), SemWaitResult::Acquired);
        assert_eq!(st.wait(s, 11).unwrap(), SemWaitResult::Acquired);
        assert_eq!(st.wait(s, 12).unwrap(), SemWaitResult::MustBlock);
        // A post hands the count straight to the queued waiter.
        assert_eq!(st.post(s).unwrap(), Some(12));
        assert_eq!(st.value(s).unwrap(), 0);
        // With no waiters, posts accumulate.
        assert_eq!(st.post(s).unwrap(), None);
        assert_eq!(st.value(s).unwrap(), 1);
    }

    #[test]
    fn a_post_at_the_maximum_count_fails_and_changes_nothing() {
        let mut st = SemTable::new();
        let s = st.create(i64::MAX);
        let ups = st.sems[&s].ups;
        assert!(matches!(st.post(s), Err(KernelError::LimitExceeded(_))));
        assert_eq!(st.value(s).unwrap(), i64::MAX);
        assert_eq!(st.sems[&s].ups, ups, "a failed post is not counted");
        assert_eq!(st.wait(s, 1).unwrap(), SemWaitResult::Acquired);
        assert_eq!(st.value(s).unwrap(), i64::MAX - 1);
    }

    #[test]
    fn a_woken_waiter_takes_its_unit_on_the_retry() {
        let mut st = SemTable::new();
        let s = st.create(0);
        assert_eq!(st.wait(s, 7).unwrap(), SemWaitResult::MustBlock);
        assert_eq!(st.post(s).unwrap(), Some(7));
        // A third task cannot take the unit the post granted to 7.
        assert_eq!(st.wait(s, 8).unwrap(), SemWaitResult::MustBlock);
        assert_eq!(st.wait(s, 7).unwrap(), SemWaitResult::Acquired);
        assert_eq!(st.value(s).unwrap(), 0);
        assert_eq!((st.sems[&s].downs, st.sems[&s].ups), (1, 1));
        // The grant is used up: 7's next wait queues again.
        assert_eq!(st.wait(s, 7).unwrap(), SemWaitResult::MustBlock);
    }

    #[test]
    fn a_grant_that_is_never_taken_goes_back() {
        let mut st = SemTable::new();
        let s = st.create(0);
        st.wait(s, 1).unwrap();
        st.wait(s, 2).unwrap();
        assert_eq!(st.post(s).unwrap(), Some(1));
        // 1 exits before its retry: the unit passes to the next waiter...
        assert_eq!(st.forget_task(1), vec![2]);
        assert_eq!(st.wait(s, 2).unwrap(), SemWaitResult::Acquired);
        // ...or, with nobody queued, back to the count.
        st.wait(s, 3).unwrap();
        assert_eq!(st.post(s).unwrap(), Some(3));
        assert!(st.forget_task(3).is_empty());
        assert_eq!(st.value(s).unwrap(), 1);
        assert_eq!(st.sems[&s].downs, 1, "no unit was counted twice");
    }

    #[test]
    fn exiting_tasks_are_forgotten_and_destroy_returns_waiters() {
        let mut st = SemTable::new();
        let s = st.create(0);
        st.wait(s, 1).unwrap();
        st.wait(s, 2).unwrap();
        assert!(st.forget_task(1).is_empty());
        assert_eq!(st.post(s).unwrap(), Some(2));
        st.wait(s, 3).unwrap();
        let orphans = st.destroy(s).unwrap();
        assert_eq!(orphans, vec![3]);
        assert!(st.wait(s, 4).is_err());
    }
}
