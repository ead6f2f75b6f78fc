//! Event tracing (the ftrace-inspired ring buffer of §5.1).
//!
//! Each core writes timestamped trace events into a shared ring buffer with
//! negligible overhead; the buffer is dumped on demand to diagnose scheduler
//! and concurrency issues. The reproduction also uses it to regenerate the
//! latency breakdowns of Figure 11: the input path records an event at every
//! hop (IRQ, driver, dispatch, IPC, app) and the bench subtracts timestamps.

use std::fmt::Display;

use hal::clock::CoreId;

/// Categories of trace events, matching the subsystems the paper instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// An interrupt was taken.
    Irq,
    /// The scheduler switched tasks.
    ContextSwitch,
    /// A syscall was entered.
    SyscallEnter,
    /// A syscall returned.
    SyscallExit,
    /// A key event left the USB driver.
    KeyEventDriver,
    /// A key event was dispatched by the window manager.
    KeyEventDispatch,
    /// A key event was read by an application.
    KeyEventApp,
    /// A frame was submitted for presentation (direct or via the WM).
    FramePresent,
    /// The window manager composited the screen.
    Compose,
    /// A task was woken from a wait queue.
    Wakeup,
    /// A page fault was handled.
    PageFault,
    /// Free-form marker used by tests and benches.
    Marker,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Time in board microseconds.
    pub timestamp_us: u64,
    /// Core that logged the event.
    pub core: CoreId,
    /// Category.
    pub kind: TraceKind,
    /// Task involved, if any.
    pub task: Option<u64>,
    /// Short free-form detail (kept small; the real buffer stores a couple of
    /// words per event).
    pub detail: String,
}

/// Default ring capacity (events, not bytes).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The trace ring buffer.
#[derive(Debug)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    next: usize,
    wrapped: bool,
    enabled: bool,
    total_logged: u64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// Creates an enabled trace buffer with room for `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            next: 0,
            wrapped: false,
            enabled: true,
            total_logged: 0,
        }
    }

    /// Enables or disables logging (disabled logging costs nothing).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether logging is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Logs an event.
    pub fn log(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.total_logged += 1;
        if self.events.len() < self.capacity {
            self.events.push(event);
            self.next = self.events.len() % self.capacity;
            return;
        }
        self.events[self.next] = event;
        self.next = (self.next + 1) % self.capacity;
        self.wrapped = true;
    }

    /// Logs an event, formatting its detail only when logging is enabled:
    /// a disabled ring builds nothing.
    pub fn record(
        &mut self,
        timestamp_us: u64,
        core: CoreId,
        kind: TraceKind,
        task: Option<u64>,
        detail: impl Display,
    ) {
        if !self.enabled {
            return;
        }
        self.log(TraceEvent {
            timestamp_us,
            core,
            kind,
            task,
            detail: detail.to_string(),
        });
    }

    /// Total events logged since boot (including any overwritten).
    pub fn total_logged(&self) -> u64 {
        self.total_logged
    }

    /// Dumps the buffered events in chronological order (oldest first).
    pub fn dump(&self) -> Vec<TraceEvent> {
        if !self.wrapped {
            return self.events.clone();
        }
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.events[self.next..]);
        out.extend_from_slice(&self.events[..self.next]);
        out
    }

    /// Returns buffered events of a given kind, oldest first.
    pub fn of_kind(&self, kind: TraceKind) -> Vec<TraceEvent> {
        self.dump().into_iter().filter(|e| e.kind == kind).collect()
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.events.clear();
        self.next = 0;
        self.wrapped = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            timestamp_us: t,
            core: 0,
            kind,
            task: None,
            detail: String::new(),
        }
    }

    #[test]
    fn events_dump_in_order() {
        let mut tb = TraceBuffer::new(8);
        for t in 0..5 {
            tb.log(ev(t, TraceKind::Marker));
        }
        let d = tb.dump();
        assert_eq!(d.len(), 5);
        assert!(d.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut tb = TraceBuffer::new(4);
        for t in 0..10 {
            tb.log(ev(t, TraceKind::Marker));
        }
        let d = tb.dump();
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].timestamp_us, 6);
        assert_eq!(d[3].timestamp_us, 9);
        assert_eq!(tb.total_logged(), 10);
    }

    #[test]
    fn disabled_buffer_logs_nothing() {
        let mut tb = TraceBuffer::new(4);
        tb.set_enabled(false);
        tb.log(ev(1, TraceKind::Irq));
        assert!(tb.dump().is_empty());
        assert_eq!(tb.total_logged(), 0);
    }

    #[test]
    fn a_disabled_ring_never_formats_its_detail() {
        /// A detail that counts how often it is formatted.
        struct Counted<'a>(&'a std::cell::Cell<u32>);
        impl Display for Counted<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("detail")
            }
        }
        let formatted = std::cell::Cell::new(0);
        let mut tb = TraceBuffer::new(4);
        tb.set_enabled(false);
        tb.record(1, 0, TraceKind::Marker, None, Counted(&formatted));
        assert_eq!(formatted.get(), 0);
        assert_eq!(tb.total_logged(), 0);
        tb.set_enabled(true);
        tb.record(2, 0, TraceKind::Marker, None, Counted(&formatted));
        assert_eq!(formatted.get(), 1);
        assert_eq!(tb.dump()[0].detail, "detail");
    }

    #[test]
    fn of_kind_filters() {
        let mut tb = TraceBuffer::new(16);
        tb.log(ev(1, TraceKind::Irq));
        tb.log(ev(2, TraceKind::ContextSwitch));
        tb.log(ev(3, TraceKind::Irq));
        assert_eq!(tb.of_kind(TraceKind::Irq).len(), 2);
        assert_eq!(tb.of_kind(TraceKind::Compose).len(), 0);
    }

    #[test]
    fn clear_resets_the_ring() {
        let mut tb = TraceBuffer::new(2);
        tb.log(ev(1, TraceKind::Marker));
        tb.log(ev(2, TraceKind::Marker));
        tb.log(ev(3, TraceKind::Marker));
        tb.clear();
        assert!(tb.dump().is_empty());
        tb.log(ev(4, TraceKind::Marker));
        assert_eq!(tb.dump().len(), 1);
    }
}
