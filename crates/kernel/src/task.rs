//! Tasks: processes, threads and kernel threads.
//!
//! Proto supports user processes, user threads (created with a Linux-like
//! `clone(CLONE_VM)`) and kernel threads (the window manager runs as one).
//! Within the kernel, threads are "implemented by sharing mm structs across
//! tasks" (§4.5): a thread is a task whose address space is a reference to
//! another task's, which is exactly how the [`Task`] here records it.

use crate::error::{KResult, KernelError};
use crate::vfs::FdTable;

/// A task identifier (PID; threads get their own TID from the same space).
pub type TaskId = u64;

/// Scheduling states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Runnable, waiting in a runqueue.
    Ready,
    /// Currently executing on a core.
    Running,
    /// Sleeping until a wakeup time (board microseconds).
    Sleeping(u64),
    /// Blocked on a wait channel (pipe, semaphore, event queue, wait()...).
    Blocked(WaitChannel),
    /// Exited; waiting for the parent to reap it.
    Zombie(i32),
}

/// What a blocked task is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitChannel {
    /// Waiting for data in a pipe.
    PipeRead(u64),
    /// Waiting for space in a pipe.
    PipeWrite(u64),
    /// Waiting for a key event from `/dev/events` (or the WM-dispatched
    /// `/dev/event1`).
    KeyEvent,
    /// Waiting for the sound ring buffer to drain.
    SoundSpace,
    /// Waiting on a semaphore.
    Semaphore(u64),
    /// Waiting for a child to exit.
    ChildExit,
    /// Waiting for an in-flight SD DMA chain to complete (blocking demand
    /// readers and back-pressured writers park here; the scheduler wakes
    /// the channel once any completion has been applied).
    BlockIo,
}

/// How a task relates to an address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmRef {
    /// The task owns address space `id` (a process).
    Owns(u64),
    /// The task shares the address space owned by another task (a thread
    /// created via `clone(CLONE_VM)`).
    Shares(u64),
    /// The task runs entirely in kernel space (kernel thread, or every task
    /// in Prototypes 1–2 before virtual memory exists).
    KernelOnly,
}

/// A new task's priority. No scheduling decision reads a priority (the
/// round-robin [`crate::sched::Scheduler`] gives every runnable task the
/// same turn); children inherit it and `/proc/tasks` shows it.
pub const DEFAULT_PRIORITY: u8 = 4;
/// Maximum priority value.
pub const MAX_PRIORITY: u8 = 8;

/// A task control block.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task id.
    pub id: TaskId,
    /// Parent task id (0 for init/kernel-created tasks).
    pub parent: TaskId,
    /// Human-readable name (program name).
    pub name: String,
    /// Scheduling state.
    pub state: TaskState,
    /// Priority (1..=MAX_PRIORITY), which the scheduler does not read.
    pub priority: u8,
    /// Which core the task is assigned to.
    pub core: usize,
    /// The runqueue the task currently sits on, if any. This is the O(1)
    /// duplicate/membership tag the scheduler's hot wake path relies on:
    /// `Some(core)` exactly while the task is queued on `core`'s runqueue
    /// (maintained by the kernel's enqueue/dequeue wrappers), `None` while
    /// running, blocked, sleeping or zombie.
    pub queued_on: Option<usize>,
    /// Address-space reference.
    pub mm: MmRef,
    /// Open file descriptors.
    pub fds: FdTable,
    /// Current working directory (absolute path).
    pub cwd: String,
    /// True for kernel threads (run at EL1; skip user bookkeeping).
    pub kernel_thread: bool,
    /// Exit code once zombie.
    pub exit_code: Option<i32>,
    /// Children that have exited but not been reaped.
    pub pending_children: Vec<(TaskId, i32)>,
    /// Cumulative CPU cycles consumed (for sysmon and `/proc`).
    pub cpu_cycles: u64,
    /// Cumulative storage-stack cycles charged to this task (SD command +
    /// transfer time, ramdisk write-back). The background `kbio` flusher
    /// accumulates the write-back share here instead of whichever task
    /// happens to close last — the attribution the flusher test checks.
    pub sd_cycles: u64,
    /// Number of times scheduled.
    pub schedules: u64,
    /// Remaining cycles in the current time slice.
    pub slice_remaining: u64,
    /// Simulated user-stack depth in bytes (drives demand paging of the
    /// stack region).
    pub stack_depth: u64,
}

impl Task {
    /// Creates a new ready task.
    pub fn new(id: TaskId, parent: TaskId, name: impl Into<String>, kernel_thread: bool) -> Self {
        Task {
            id,
            parent,
            name: name.into(),
            state: TaskState::Ready,
            priority: DEFAULT_PRIORITY,
            core: 0,
            queued_on: None,
            mm: MmRef::KernelOnly,
            fds: FdTable::new(),
            cwd: "/".to_string(),
            kernel_thread,
            exit_code: None,
            pending_children: Vec::new(),
            cpu_cycles: 0,
            sd_cycles: 0,
            schedules: 0,
            slice_remaining: 0,
            stack_depth: 0,
        }
    }

    /// Whether the task can be picked by the scheduler.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, TaskState::Ready)
    }

    /// Whether the task has exited.
    pub fn is_zombie(&self) -> bool {
        matches!(self.state, TaskState::Zombie(_))
    }

    /// Marks the task blocked on `channel`.
    pub fn block_on(&mut self, channel: WaitChannel) {
        self.state = TaskState::Blocked(channel);
    }

    /// Wakes the task if it is blocked on `channel`. Returns true if woken.
    pub fn wake_if_waiting_on(&mut self, channel: WaitChannel) -> bool {
        if self.state == TaskState::Blocked(channel) {
            self.state = TaskState::Ready;
            true
        } else {
            false
        }
    }

    /// Sets the priority, clamped to the valid range.
    pub fn set_priority(&mut self, priority: u8) -> KResult<()> {
        if priority == 0 {
            return Err(KernelError::Invalid("priority 0".into()));
        }
        self.priority = priority.min(MAX_PRIORITY);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tasks_start_ready_with_defaults() {
        let t = Task::new(3, 1, "donut", false);
        assert!(t.is_ready());
        assert_eq!(t.priority, DEFAULT_PRIORITY);
        assert_eq!(t.cwd, "/");
        assert!(!t.kernel_thread);
    }

    #[test]
    fn block_and_wake_round_trip() {
        let mut t = Task::new(1, 0, "shell", false);
        t.block_on(WaitChannel::KeyEvent);
        assert!(!t.is_ready());
        assert!(!t.wake_if_waiting_on(WaitChannel::PipeRead(0)));
        assert!(t.wake_if_waiting_on(WaitChannel::KeyEvent));
        assert!(t.is_ready());
        assert!(
            !t.wake_if_waiting_on(WaitChannel::KeyEvent),
            "already awake"
        );
    }

    #[test]
    fn priority_is_clamped_and_nonzero() {
        let mut t = Task::new(1, 0, "x", false);
        assert!(t.set_priority(0).is_err());
        t.set_priority(200).unwrap();
        assert_eq!(t.priority, MAX_PRIORITY);
        t.set_priority(2).unwrap();
        assert_eq!(t.priority, 2);
    }

    #[test]
    fn zombie_state_carries_the_exit_code() {
        let mut t = Task::new(9, 1, "helloworld", false);
        t.state = TaskState::Zombie(42);
        assert!(t.is_zombie());
        assert!(!t.is_ready());
    }
}
