//! Self-hosted debugging (§5.1).
//!
//! Proto debugs itself on the real board rather than leaning on QEMU + GDB:
//! a ~200-line debug monitor built on ARMv8 debug exceptions (breakpoints on
//! PC values, watchpoints on data addresses, single-stepping), a ported stack
//! unwinder that prints raw call-site addresses for offline symbolisation,
//! the trace ring buffer (see [`crate::trace`]), and a GPIO "panic button"
//! whose FIQ dumps every core's stack even when the kernel is deadlocked with
//! IRQs masked.

use crate::task::TaskId;

/// A breakpoint on a (virtual) program-counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakpoint {
    /// The address to stop at.
    pub addr: u64,
    /// Hit count.
    pub hits: u64,
    /// Enabled flag (disabled breakpoints stay installed but do not fire).
    pub enabled: bool,
}

/// A watchpoint on a data address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchpoint {
    /// Watched address.
    pub addr: u64,
    /// Watch length in bytes.
    pub len: u64,
    /// Trigger on writes (true) or any access (false).
    pub write_only: bool,
    /// Hit count.
    pub hits: u64,
}

/// One frame of an unwound call stack: a raw call-site address plus the
/// symbol name when the caller supplied one (the real unwinder prints raw
/// addresses and resolves them offline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackFrame {
    /// Call-site address.
    pub addr: u64,
    /// Optional symbol.
    pub symbol: Option<String>,
}

/// A dump produced by the panic button: per-core call stacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicDump {
    /// Time of the dump in board microseconds.
    pub timestamp_us: u64,
    /// The core that handled the FIQ this time (round-robin).
    pub handled_by_core: usize,
    /// Call stacks captured from each core.
    pub stacks: Vec<(usize, Vec<StackFrame>)>,
}

/// The hardware-assisted debug monitor.
///
/// The ARMv8 debug registers (DBGBCR/DBGWCR) allow a handful of breakpoints
/// and watchpoints; the A53 has six and four respectively.
#[derive(Debug, Clone, Default)]
pub struct DebugMonitor {
    breakpoints: Vec<Breakpoint>,
    watchpoints: Vec<Watchpoint>,
    /// Tasks currently being single-stepped.
    single_step: Vec<TaskId>,
    /// Recorded panic dumps.
    dumps: Vec<PanicDump>,
    /// Shadow call stacks per core, pushed/popped by instrumented kernel
    /// paths so the unwinder has something honest to walk.
    call_stacks: Vec<Vec<StackFrame>>,
}

/// Hardware limit on breakpoints (A53: 6 BRPs).
pub const MAX_BREAKPOINTS: usize = 6;
/// Hardware limit on watchpoints (A53: 4 WRPs).
pub const MAX_WATCHPOINTS: usize = 4;

impl DebugMonitor {
    /// Creates a monitor with empty state.
    pub fn new() -> Self {
        DebugMonitor {
            breakpoints: Vec::new(),
            watchpoints: Vec::new(),
            single_step: Vec::new(),
            dumps: Vec::new(),
            call_stacks: vec![Vec::new(); hal::NUM_CORES],
        }
    }

    /// Installs a breakpoint. Fails when all hardware slots are used.
    pub fn set_breakpoint(&mut self, addr: u64) -> Result<(), String> {
        if self.breakpoints.len() >= MAX_BREAKPOINTS {
            return Err(format!("all {MAX_BREAKPOINTS} hardware breakpoints in use"));
        }
        if self.breakpoints.iter().any(|b| b.addr == addr) {
            return Err(format!("breakpoint at {addr:#x} already set"));
        }
        self.breakpoints.push(Breakpoint {
            addr,
            hits: 0,
            enabled: true,
        });
        Ok(())
    }

    /// Removes a breakpoint.
    pub fn clear_breakpoint(&mut self, addr: u64) {
        self.breakpoints.retain(|b| b.addr != addr);
    }

    /// Installs a watchpoint.
    pub fn set_watchpoint(&mut self, addr: u64, len: u64, write_only: bool) -> Result<(), String> {
        if self.watchpoints.len() >= MAX_WATCHPOINTS {
            return Err(format!("all {MAX_WATCHPOINTS} hardware watchpoints in use"));
        }
        self.watchpoints.push(Watchpoint {
            addr,
            len,
            write_only,
            hits: 0,
        });
        Ok(())
    }

    /// Reports an instruction fetch at `pc`; returns true if a breakpoint
    /// fired (the kernel would then suspend the task and enter the monitor).
    pub fn check_breakpoint(&mut self, pc: u64) -> bool {
        for b in &mut self.breakpoints {
            if b.enabled && b.addr == pc {
                b.hits += 1;
                return true;
            }
        }
        false
    }

    /// Reports a data access; returns true if a watchpoint fired.
    pub fn check_watchpoint(&mut self, addr: u64, is_write: bool) -> bool {
        for w in &mut self.watchpoints {
            if addr >= w.addr && addr < w.addr + w.len && (is_write || !w.write_only) {
                w.hits += 1;
                return true;
            }
        }
        false
    }

    /// Enables single-stepping for a task.
    pub fn enable_single_step(&mut self, task: TaskId) {
        if !self.single_step.contains(&task) {
            self.single_step.push(task);
        }
    }

    /// Disables single-stepping for a task.
    pub fn disable_single_step(&mut self, task: TaskId) {
        self.single_step.retain(|t| *t != task);
    }

    /// Whether a task is being single-stepped (the scheduler then runs it for
    /// one step and re-enters the monitor).
    pub fn is_single_stepping(&self, task: TaskId) -> bool {
        self.single_step.contains(&task)
    }

    /// Installed breakpoints.
    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.breakpoints
    }

    /// Installed watchpoints.
    pub fn watchpoints(&self) -> &[Watchpoint] {
        &self.watchpoints
    }

    // ---- stack unwinder -------------------------------------------------------------

    /// Pushes a frame onto a core's shadow call stack (instrumented call).
    pub fn push_frame(&mut self, core: usize, addr: u64, symbol: Option<&str>) {
        self.call_stacks[core].push(StackFrame {
            addr,
            symbol: symbol.map(|s| s.to_string()),
        });
    }

    /// Pops a frame from a core's shadow call stack (instrumented return).
    pub fn pop_frame(&mut self, core: usize) {
        self.call_stacks[core].pop();
    }

    /// Unwinds a core's current call stack, innermost frame first — what the
    /// stack tracer prints over the UART.
    pub fn unwind(&self, core: usize) -> Vec<StackFrame> {
        let mut frames = self.call_stacks[core].clone();
        frames.reverse();
        frames
    }

    // ---- panic button ---------------------------------------------------------------

    /// Handles the panic-button FIQ on `core`: captures every core's stack.
    pub fn panic_button(&mut self, core: usize, timestamp_us: u64) -> &PanicDump {
        let stacks = (0..hal::NUM_CORES).map(|c| (c, self.unwind(c))).collect();
        let idx = self.dumps.len();
        self.dumps.push(PanicDump {
            timestamp_us,
            handled_by_core: core,
            stacks,
        });
        &self.dumps[idx]
    }

    /// All recorded panic dumps.
    pub fn dumps(&self) -> &[PanicDump] {
        &self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakpoints_fire_and_count_hits() {
        let mut m = DebugMonitor::new();
        m.set_breakpoint(0x8_0000).unwrap();
        assert!(!m.check_breakpoint(0x8_0004));
        assert!(m.check_breakpoint(0x8_0000));
        assert!(m.check_breakpoint(0x8_0000));
        assert_eq!(m.breakpoints()[0].hits, 2);
        m.clear_breakpoint(0x8_0000);
        assert!(!m.check_breakpoint(0x8_0000));
    }

    #[test]
    fn hardware_slots_are_limited() {
        let mut m = DebugMonitor::new();
        for i in 0..MAX_BREAKPOINTS {
            m.set_breakpoint(i as u64 * 4).unwrap();
        }
        assert!(m.set_breakpoint(0x999).is_err());
        assert!(m.set_breakpoint(0).is_err(), "duplicates rejected");
        for i in 0..MAX_WATCHPOINTS {
            m.set_watchpoint(0x1000 + i as u64 * 8, 8, true).unwrap();
        }
        assert!(m.set_watchpoint(0x2000, 4, false).is_err());
    }

    #[test]
    fn watchpoints_respect_range_and_write_only() {
        let mut m = DebugMonitor::new();
        m.set_watchpoint(0x4000, 16, true).unwrap();
        assert!(
            !m.check_watchpoint(0x4008, false),
            "read does not trip write-only"
        );
        assert!(m.check_watchpoint(0x4008, true));
        assert!(!m.check_watchpoint(0x4010, true), "past the end");
    }

    #[test]
    fn unwinder_reports_innermost_frame_first() {
        let mut m = DebugMonitor::new();
        m.push_frame(0, 0x1000, Some("kernel_main"));
        m.push_frame(0, 0x2000, Some("schedule"));
        m.push_frame(0, 0x3000, None);
        let frames = m.unwind(0);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].addr, 0x3000);
        assert_eq!(frames[2].symbol.as_deref(), Some("kernel_main"));
        m.pop_frame(0);
        assert_eq!(m.unwind(0).len(), 2);
    }

    #[test]
    fn panic_button_captures_all_cores() {
        let mut m = DebugMonitor::new();
        m.push_frame(0, 0x10, Some("idle"));
        m.push_frame(2, 0x20, Some("spin_deadlock"));
        let dump = m.panic_button(1, 555).clone();
        assert_eq!(dump.handled_by_core, 1);
        assert_eq!(dump.stacks.len(), hal::NUM_CORES);
        assert_eq!(dump.stacks[2].1[0].symbol.as_deref(), Some("spin_deadlock"));
        assert_eq!(m.dumps().len(), 1);
    }

    #[test]
    fn single_step_toggles_per_task() {
        let mut m = DebugMonitor::new();
        m.enable_single_step(42);
        assert!(m.is_single_stepping(42));
        assert!(!m.is_single_stepping(43));
        m.disable_single_step(42);
        assert!(!m.is_single_stepping(42));
    }
}
