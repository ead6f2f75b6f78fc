//! Host-side span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark's own code makes into
//! the system: building and installing, driving the scheduler, flushing the
//! caches, and every syscall the benchmark's programs issue. Spans stay in
//! memory and are written out when the run ends. With tracing off, `begin`
//! returns `None` after one thread-local flag check.
//!
//! Sim cycles: a span opened outside a step carries exact cycle counts. A
//! span opened inside a program step cannot read the board clock, so the
//! benchmark stamps it with its core's clock before and after the scheduler
//! slice that ran the step (see `stamp_slice`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub module: &'static str,
    pub name: &'static str,
    /// Index of the enclosing span plus one (0 = a root span).
    pub parent: usize,
    /// The operation (or round) this span belongs to.
    pub req: u64,
    /// Core of an in-program span, stamped after its slice.
    pub core: Option<usize>,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start: u64,
    pub sim_end: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unstamped: usize,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        unstamped: 0,
    });
}

pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Opens a span. `sim_start` is `None` for spans opened inside a program
/// step; those carry their `core` and are stamped by [`stamp_slice`].
pub fn begin(
    module: &'static str,
    name: &'static str,
    req: u64,
    core: Option<usize>,
    sim_start: Option<u64>,
) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let idx = t.spans.len();
        let parent = t.stack.last().map_or(0, |p| p + 1);
        let host = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            module,
            name,
            parent,
            req,
            core,
            host_start_ns: host,
            host_end_ns: host,
            sim_start: sim_start.unwrap_or(0),
            sim_end: sim_start.unwrap_or(0),
        });
        t.stack.push(idx);
        Some(idx)
    })
}

pub fn end(span: Option<usize>, sim_end: Option<u64>) {
    let Some(idx) = span else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let host = t.origin.elapsed().as_nanos() as u64;
        if let Some(pos) = t.stack.iter().rposition(|&s| s == idx) {
            t.stack.truncate(pos);
        }
        let s = &mut t.spans[idx];
        s.host_end_ns = host;
        if let Some(c) = sim_end {
            s.sim_end = c;
        }
    });
}

/// Runs `f` inside an in-program span on `core`.
pub fn in_step<R>(
    module: &'static str,
    name: &'static str,
    req: u64,
    core: usize,
    f: impl FnOnce() -> R,
) -> R {
    let s = begin(module, name, req, Some(core), None);
    let r = f();
    end(s, None);
    r
}

/// Gives every in-program span opened since the last call the clock of its
/// core before and after the slice that ran it.
pub fn stamp_slice(before: &[u64], after: &[u64]) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let from = t.unstamped;
        for s in &mut t.spans[from..] {
            if let Some(c) = s.core {
                s.sim_start = before[c];
                s.sim_end = after[c];
            }
        }
        t.unstamped = t.spans.len();
    });
}

pub fn take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.unstamped = 0;
        std::mem::take(&mut t.spans)
    })
}

/// Per-module self time: each span's duration minus the part its direct
/// children cover. Returns `module -> (host ns, sim cycles, spans)`.
pub fn self_time(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_host = vec![0u64; spans.len()];
    let mut child_sim = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child_host[s.parent - 1] += s.host_end_ns - s.host_start_ns;
            child_sim[s.parent - 1] += s.sim_end.saturating_sub(s.sim_start);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.module).or_default();
        e.0 += (s.host_end_ns - s.host_start_ns).saturating_sub(child_host[i]);
        e.1 += s
            .sim_end
            .saturating_sub(s.sim_start)
            .saturating_sub(child_sim[i]);
        e.2 += 1;
    }
    out
}

/// One JSON object per line, in the order spans were opened; ids (and
/// parent ids) start after `first_id`.
pub fn to_jsonl(spans: &[Span], first_id: usize) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"module\":\"{}\",\"name\":\"{}\",\"host_start_ns\":{},\"host_end_ns\":{},\"sim_start_cycles\":{},\"sim_end_cycles\":{}}}",
            first_id + i + 1,
            if s.parent > 0 { first_id + s.parent } else { 0 },
            s.req,
            s.module,
            s.name,
            s.host_start_ns,
            s.host_end_ns,
            s.sim_start,
            s.sim_end
        );
    }
    out
}
