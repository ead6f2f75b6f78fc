//! The analysis passes.
//!
//! Each pass takes the [`Model`] (plus, where relevant, the syscall
//! reachability set) and returns findings. Passes locate the files they
//! reason about by *path suffix* (`kernel/src/syscalls.rs`, …) so the fixture
//! trees under `tests/fixtures/` exercise the exact same code paths as the
//! real workspace.
//!
//! The `panic` pass is lexical / call-graph only. The two interprocedural
//! passes (`ordering`, `wouldblock`) run a fixpoint over the
//! [`dataflow`](crate::dataflow) call graph. Four earlier passes are gone
//! because the compiler or a test now carries their rules: `abi` and
//! `concurrency` (a trapping `sys_*` takes an `Entry` only `Kernel::syscall`
//! mints, and completion routing is private to the buffer cache), `errors`
//! (rustc's exhaustiveness check and clippy's discarded-result lints) and
//! `taint` (the boundary sweep in `tests/syscall_hardening.rs`).

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::dataflow::{solve, CallGraph};
use crate::lexer::{TokKind, Token};
use crate::model::Model;
use crate::Finding;

/// Path suffix of the syscall dispatch module.
const SYSCALLS_RS: &str = "kernel/src/syscalls.rs";

fn body(model: &Model, fi: usize) -> &[Token] {
    let f = &model.funcs[fi];
    let file = model.file(&f.file).expect("func's file is in the model");
    let (a, b) = f.body;
    if a >= file.tokens.len() || a >= b {
        return &[];
    }
    &file.tokens[a..=b.min(file.tokens.len() - 1)]
}

/// Computes the set of function indices reachable from the `sys_*` dispatch
/// roots in `syscalls.rs` (tests excluded). Over-approximate by design.
pub fn reachable_from_syscalls(model: &Model) -> HashSet<usize> {
    let mut seen: HashSet<usize> = HashSet::new();
    let mut queue: Vec<usize> = model
        .funcs
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_test && f.name.starts_with("sys_") && f.file.ends_with(SYSCALLS_RS))
        .map(|(i, _)| i)
        .collect();
    seen.extend(queue.iter().copied());
    while let Some(fi) = queue.pop() {
        let calls = model.funcs[fi].calls.clone();
        for call in &calls {
            for target in model.resolve(fi, call) {
                if seen.insert(target) {
                    queue.push(target);
                }
            }
        }
    }
    seen
}

fn lba_ish(s: &str) -> bool {
    let l = s.to_ascii_lowercase();
    l.contains("lba") || l.contains("sector") || l.contains("cluster")
}

fn screaming(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
}

/// Pass 1: panic-reachability. Flags `unwrap()`, `expect(`, panicking
/// macros, sector/LBA slice indexing and unchecked sector/LBA `+`/`*`
/// arithmetic on syscall-reachable functions in fs/kernel/hal.
pub fn pass_panic(model: &Model, reachable: &HashSet<usize>) -> Vec<Finding> {
    let mut out = Vec::new();
    for &fi in reachable {
        let f = &model.funcs[fi];
        let in_scope = ["crates/fs/", "crates/kernel/", "crates/hal/"]
            .iter()
            .any(|p| f.file.starts_with(p));
        if !in_scope {
            continue;
        }
        let toks = body(model, fi);
        let n = toks.len();
        for k in 0..n {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev_dot = k > 0 && toks[k - 1].is_punct(".");
            let next_paren = k + 1 < n && toks[k + 1].is_punct("(");
            let next_bang = k + 1 < n && toks[k + 1].is_punct("!");
            match t.text.as_str() {
                "unwrap" | "expect" if prev_dot && next_paren => {
                    out.push(finding(
                        "panic",
                        if t.text == "unwrap" {
                            "unwrap"
                        } else {
                            "expect"
                        },
                        f,
                        t.line,
                        format!("`.{}(...)` on a syscall-reachable path", t.text),
                    ));
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
                    out.push(finding(
                        "panic",
                        "panic",
                        f,
                        t.line,
                        format!("`{}!` on a syscall-reachable path", t.text),
                    ));
                }
                _ => {}
            }
            // Indexing: `ident[...]` where the base or an index identifier
            // smells like a sector/LBA/cluster quantity.
            if k + 1 < n && toks[k + 1].is_punct("[") {
                let mut idents = vec![t.text.clone()];
                let mut depth = 0i32;
                let mut j = k + 1;
                while j < n {
                    if toks[j].is_punct("[") {
                        depth += 1;
                    } else if toks[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if toks[j].kind == TokKind::Ident {
                        idents.push(toks[j].text.clone());
                    }
                    j += 1;
                }
                if idents.iter().any(|s| lba_ish(s)) {
                    out.push(finding(
                        "panic",
                        "index",
                        f,
                        t.line,
                        format!(
                            "unchecked indexing `{}[...]` with sector/LBA-flavoured operands",
                            t.text
                        ),
                    ));
                }
            }
        }
        // Unchecked `+`/`*` where an operand smells like a sector/LBA count.
        for k in 0..n {
            let t = &toks[k];
            let compound = t.is_punct("+=") || t.is_punct("*=");
            let plain = t.is_punct("+") || t.is_punct("*");
            if !compound && !plain {
                continue;
            }
            if plain {
                let binary = k > 0
                    && (toks[k - 1].kind == TokKind::Ident
                        || toks[k - 1].kind == TokKind::Number
                        || toks[k - 1].is_punct(")")
                        || toks[k - 1].is_punct("]"));
                if !binary {
                    continue;
                }
            }
            let lo = k.saturating_sub(4);
            let hi = (k + 5).min(n);
            let hit = toks[lo..hi]
                .iter()
                .any(|t| t.kind == TokKind::Ident && lba_ish(&t.text) && !screaming(&t.text));
            if hit {
                out.push(finding(
                    "panic",
                    "arith",
                    f,
                    t.line,
                    format!(
                        "unchecked `{}` on sector/LBA arithmetic (overflow panics in debug)",
                        t.text
                    ),
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.kind == b.kind);
    out
}

fn finding(
    pass: &'static str,
    kind: &'static str,
    f: &crate::model::Func,
    line: u32,
    message: String,
) -> Finding {
    Finding {
        pass,
        kind,
        file: f.file.clone(),
        func: f.name.clone(),
        line,
        message,
    }
}

// ---------------------------------------------------------------------------
// Interprocedural passes: ordering, wouldblock
// ---------------------------------------------------------------------------

/// Pass 2: crash-ordering discipline. Every site that dirties a metadata
/// sector (`note_metadata`, or its transaction-layer alias `log_sector`) on
/// a syscall-reachable path must either sit lexically inside a
/// `with_meta_txn`/`with_txn` region (or `begin_meta_txn` / `end_meta_txn`
/// bracket) or belong to a function that registers `add_dependency` (alias
/// `note_order`) write-order edges itself. Functions that establish ordering
/// ("orderers") also shield their callees — the edges they register are
/// taken to cover the writes they drive.
pub fn pass_ordering(model: &Model) -> Vec<Finding> {
    let cg = CallGraph::build(model);
    let n = model.funcs.len();
    let orderer: Vec<bool> = model
        .funcs
        .iter()
        .map(|f| {
            !f.is_test
                && f.calls.iter().any(|c| {
                    matches!(
                        c.name.as_str(),
                        "add_dependency"
                            | "note_order"
                            | "with_meta_txn"
                            | "with_txn"
                            | "begin_meta_txn"
                            | "log_sector"
                    )
                })
        })
        .collect();
    // Top-down: functions reachable from a syscall root through call edges
    // that are not inside a txn region, stopping at orderers.
    let mut unprot = vec![false; n];
    let mut queue: Vec<usize> = model
        .funcs
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_test && f.name.starts_with("sys_") && f.file.ends_with(SYSCALLS_RS))
        .map(|(i, _)| i)
        .collect();
    for &r in &queue {
        unprot[r] = true;
    }
    while let Some(f) = queue.pop() {
        if orderer[f] {
            continue;
        }
        for &(ci, g) in &cg.callees[f] {
            if model.funcs[f].calls[ci].in_txn {
                continue;
            }
            if !unprot[g] {
                unprot[g] = true;
                queue.push(g);
            }
        }
    }
    let mut out = Vec::new();
    for (fi, f) in model.funcs.iter().enumerate() {
        if f.is_test || !unprot[fi] || orderer[fi] {
            continue;
        }
        if !f.file.starts_with("crates/fs/") && !f.file.starts_with("crates/kernel/") {
            continue;
        }
        for c in &f.calls {
            if (c.name == "note_metadata" || c.name == "log_sector") && !c.in_txn {
                out.push(finding(
                    "ordering",
                    "unordered-meta",
                    f,
                    c.line,
                    "dirties a metadata sector outside any transaction (`with_txn`/`with_meta_txn`) region, in a function that never registers write-order edges (`add_dependency`/`note_order`)".into(),
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.kind == b.kind);
    out
}

/// Structural cache state whose mutation before a `WouldBlock` return breaks
/// retry idempotency. Stats counters and mode toggles are deliberately not
/// in this list — re-running those on retry is harmless.
fn structuralish(s: &str) -> bool {
    let l = s.to_ascii_lowercase();
    [
        "cache",
        "shard",
        "extent",
        "inflight",
        "chain",
        "blocking_read",
        "pending",
        "dirty",
        "fds",
        "intent",
        "stream",
    ]
    .iter()
    .any(|p| l.contains(p))
}

/// Collection mutators that count against retry idempotency when their
/// receiver looks structural.
fn mutating_method(name: &str) -> bool {
    matches!(
        name,
        "insert"
            | "remove"
            | "push"
            | "push_back"
            | "pop"
            | "pop_front"
            | "clear"
            | "truncate"
            | "resize"
            | "extend"
            | "drain"
            | "take"
    )
}

/// Finds the direct cache-state mutation sites in a body:
/// (token index, line, description).
fn local_mut_sites(toks: &[Token]) -> Vec<(usize, u32, String)> {
    let n = toks.len();
    let mut out = Vec::new();
    for k in 0..n {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = k + 1 < n && toks[k + 1].is_punct("(");
        if called
            && matches!(
                t.text.as_str(),
                "mark_dirty" | "note_metadata" | "add_dependency"
            )
        {
            out.push((k, t.line, format!("`{}(...)`", t.text)));
            continue;
        }
        if called && mutating_method(&t.text) && k > 0 && toks[k - 1].is_punct(".") {
            // Receiver chain: `a.b.insert(...)` — look at the two idents
            // behind the dot.
            let mut recv = false;
            if k >= 2 && toks[k - 2].kind == TokKind::Ident && structuralish(&toks[k - 2].text) {
                recv = true;
            }
            if k >= 4
                && toks[k - 3].is_punct(".")
                && toks[k - 4].kind == TokKind::Ident
                && structuralish(&toks[k - 4].text)
            {
                recv = true;
            }
            if recv {
                out.push((k, t.line, format!("`.{}(...)` on cache state", t.text)));
                continue;
            }
        }
        // Field assignment: `x.pending |= ...`, `ext.dirty = ...`.
        if structuralish(&t.text) && k > 0 && toks[k - 1].is_punct(".") && k + 1 < n {
            let nx = &toks[k + 1];
            let assign = nx.is_punct("=")
                || nx.is_punct("+=")
                || nx.is_punct("-=")
                || nx.is_punct("|=")
                || nx.is_punct("^=")
                || (nx.is_punct("&") && k + 2 < n && toks[k + 2].is_punct("="));
            if assign {
                out.push((k, t.line, format!("write to `.{}`", t.text)));
            }
        }
    }
    out
}

/// Pass 3: `WouldBlock` retry-safety. A function that can return
/// `FsError::WouldBlock` / `KernelError::WouldBlock` must be retry-idempotent:
/// no structural cache/chain state may be mutated (directly or via a callee)
/// on the path that then returns the blocking error — the parked task will
/// re-run the whole call. Sibling `{}` blocks are alternative branches and do
/// not count against a return in another arm.
pub fn pass_wouldblock(model: &Model) -> Vec<Finding> {
    let n = model.funcs.len();
    let cg = CallGraph::build(model);
    let sites: Vec<Vec<(usize, u32, String)>> = (0..n)
        .map(|f| {
            if model.funcs[f].is_test {
                Vec::new()
            } else {
                local_mut_sites(body(model, f))
            }
        })
        .collect();
    // Bottom-up: does this function (transitively) mutate structural state?
    let (mutates, _rounds) = solve(
        n,
        |f| cg.callers[f].clone(),
        |f| !sites[f].is_empty(),
        |f, facts| !sites[f].is_empty() || cg.callees[f].iter().any(|&(_, g)| facts[g]),
    );
    let mut out = Vec::new();
    for (fi, own_sites) in sites.iter().enumerate() {
        let f = &model.funcs[fi];
        if f.is_test {
            continue;
        }
        if !f.file.starts_with("crates/fs/") && !f.file.starts_with("crates/kernel/") {
            continue;
        }
        let toks = body(model, fi);
        let nt = toks.len();
        // Blocking-return positions: `FsError::WouldBlock` / `KernelError::WouldBlock`.
        let mut blocks: Vec<usize> = Vec::new();
        let mut parks: Vec<usize> = Vec::new();
        for k in 0..nt {
            if toks[k].is_ident("WouldBlock")
                && k >= 2
                && toks[k - 1].is_punct("::")
                && (toks[k - 2].is_ident("FsError") || toks[k - 2].is_ident("KernelError"))
            {
                blocks.push(k);
            }
            if toks[k].is_ident("block_current") && k + 1 < nt && toks[k + 1].is_punct("(") {
                parks.push(k);
            }
        }
        if blocks.is_empty() {
            continue;
        }
        // Mutation sites: direct, plus calls into (transitively) mutating fns.
        let mut msites: Vec<(usize, u32, String)> = own_sites.clone();
        let mut seen_calls: HashSet<usize> = HashSet::new();
        for &(ci, g) in &cg.callees[fi] {
            if mutates[g] && seen_calls.insert(ci) {
                let c = &f.calls[ci];
                msites.push((
                    c.tok,
                    c.line,
                    format!("call to `{}` (mutates cache state)", c.name),
                ));
            }
        }
        if msites.is_empty() {
            continue;
        }
        // Brace stacks at the positions of interest.
        let mut interest: BTreeSet<usize> = BTreeSet::new();
        interest.extend(blocks.iter().copied());
        interest.extend(msites.iter().map(|m| m.0));
        let mut stacks: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut stack: Vec<usize> = Vec::new();
        for (k, t) in toks.iter().enumerate() {
            if interest.contains(&k) {
                stacks.insert(k, stack.clone());
            }
            if t.is_punct("{") {
                stack.push(k);
            } else if t.is_punct("}") {
                stack.pop();
            }
        }
        let prefix = |a: &[usize], b: &[usize]| a.len() <= b.len() && b[..a.len()] == *a;
        let empty: Vec<usize> = Vec::new();
        msites.sort();
        msites.dedup();
        for (mtok, mline, mdesc) in &msites {
            let sm = stacks.get(mtok).unwrap_or(&empty);
            let hit = blocks
                .iter()
                .find(|&&p| *mtok < p && prefix(sm, stacks.get(&p).unwrap_or(&empty)));
            if let Some(&p) = hit {
                let after_park = parks.iter().any(|&b| b < *mtok);
                out.push(finding(
                    "wouldblock",
                    if after_park {
                        "mutate-after-park"
                    } else {
                        "mutate-before-block"
                    },
                    f,
                    *mline,
                    format!(
                        "{mdesc} mutates state on a path that returns `WouldBlock` (line {}); the parked retry re-runs it",
                        toks[p].line
                    ),
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.kind == b.kind);
    out
}
