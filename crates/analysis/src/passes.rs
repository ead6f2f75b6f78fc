//! The analysis passes.
//!
//! Each pass takes the [`Model`] (plus, where relevant, the syscall
//! reachability set) and returns findings. Passes locate the files they
//! reason about by *path suffix* (`kernel/src/syscalls.rs`, …) so the fixture
//! trees under `tests/fixtures/` exercise the exact same code paths as the
//! real workspace.
//!
//! The first two passes (`panic`, `errors`) are lexical / call-graph only.
//! The three interprocedural passes (`taint`, `ordering`, `wouldblock`) run a
//! fixpoint over the [`dataflow`](crate::dataflow) call graph. The `abi` and
//! `concurrency` passes are gone: the compiler now carries their rules (a
//! trapping `sys_*` takes an `Entry` only `Kernel::syscall` mints, and
//! completion routing is private to the buffer cache).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::dataflow::{solve, CallGraph};
use crate::lexer::{TokKind, Token};
use crate::model::{Func, Model};
use crate::Finding;

/// Path suffix of the syscall dispatch module.
const SYSCALLS_RS: &str = "kernel/src/syscalls.rs";
/// Path suffix of the kernel error module (FsError→KernelError mapping).
const ERROR_RS: &str = "kernel/src/error.rs";
/// Path suffix of the filesystem crate root (defines `FsError`).
const FS_LIB_RS: &str = "fs/src/lib.rs";

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

/// Extracts the variant names of `enum FsError` from the fs crate root.
pub fn fs_error_variants(toks: &[Token]) -> Vec<String> {
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].is_ident("enum") && toks[i + 1].is_ident("FsError") {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") {
                j += 1;
            }
            let mut depth = 0i32;
            let mut variants = Vec::new();
            let mut expect = true;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 {
                    if t.is_punct("#") {
                        // Attribute on a variant: skip `#[...]`.
                        let mut d = 0i32;
                        j += 1;
                        while j < toks.len() {
                            if toks[j].is_punct("[") {
                                d += 1;
                            } else if toks[j].is_punct("]") {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else if expect && t.kind == TokKind::Ident {
                        variants.push(t.text.clone());
                        expect = false;
                    } else if t.is_punct(",") {
                        expect = true;
                    }
                }
                j += 1;
            }
            return variants;
        }
        i += 1;
    }
    Vec::new()
}

/// Pass 2: error-mapping completeness. Every `FsError` variant must be
/// named in the `From<FsError> for KernelError` conversion, and no
/// syscall-reachable function may discard a fallible result with `let _ =`
/// or a statement-level `.ok()`.
pub fn pass_errors(model: &Model, reachable: &HashSet<usize>) -> Vec<Finding> {
    let mut out = Vec::new();
    // Variant coverage.
    let variants = model
        .files
        .iter()
        .find(|f| f.path.ends_with(FS_LIB_RS))
        .map(|f| fs_error_variants(&f.tokens))
        .unwrap_or_default();
    if variants.is_empty() {
        out.push(Finding::file_level(
            "errors",
            "no-enum",
            FS_LIB_RS,
            "FsError enum not found; cannot verify the error mapping".into(),
        ));
    }
    let error_file = model.files.iter().find(|f| f.path.ends_with(ERROR_RS));
    let mut mapped: HashSet<String> = HashSet::new();
    if let Some(ef) = error_file {
        for &fi in &ef.funcs {
            let f = &model.funcs[fi];
            if f.is_test || f.name != "from" || f.impl_type.as_deref() != Some("KernelError") {
                continue;
            }
            let toks = body(model, fi);
            for k in 0..toks.len() {
                if toks[k].is_ident("FsError")
                    && k + 2 < toks.len()
                    && toks[k + 1].is_punct("::")
                    && toks[k + 2].kind == TokKind::Ident
                {
                    mapped.insert(toks[k + 2].text.clone());
                }
            }
        }
        for v in &variants {
            if !mapped.contains(v) {
                out.push(Finding::file_level(
                    "errors",
                    "unmapped",
                    &ef.path,
                    format!("FsError::{v} is not named in `From<FsError> for KernelError`; a new fs error must choose its kernel shape explicitly"),
                ));
            }
        }
    } else if !variants.is_empty() {
        out.push(Finding::file_level(
            "errors",
            "no-impl",
            ERROR_RS,
            "kernel error module not found; FsError has no verified mapping".into(),
        ));
    }
    // Discarded results on reachable paths.
    for &fi in reachable {
        let f = &model.funcs[fi];
        if !f.file.starts_with("crates/fs/") && !f.file.starts_with("crates/kernel/") {
            continue;
        }
        let toks = body(model, fi);
        let n = toks.len();
        for k in 0..n {
            if toks[k].is_ident("let")
                && k + 2 < n
                && toks[k + 1].is_ident("_")
                && toks[k + 2].is_punct("=")
            {
                // Only flag when the discarded value comes from a call.
                let mut j = k + 3;
                let mut call = false;
                while j < n && !toks[j].is_punct(";") && j < k + 120 {
                    if toks[j].is_punct("(") {
                        call = true;
                        break;
                    }
                    j += 1;
                }
                if call {
                    out.push(finding(
                        "errors",
                        "discard-let",
                        f,
                        toks[k].line,
                        "`let _ =` discards a fallible result on a syscall-reachable path".into(),
                    ));
                }
            }
            if toks[k].is_punct(".")
                && k + 4 < n
                && toks[k + 1].is_ident("ok")
                && toks[k + 2].is_punct("(")
                && toks[k + 3].is_punct(")")
                && toks[k + 4].is_punct(";")
            {
                out.push(finding(
                    "errors",
                    "discard-ok",
                    f,
                    toks[k + 1].line,
                    "statement-level `.ok()` swallows an error on a syscall-reachable path".into(),
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
// Interprocedural passes: taint, ordering, wouldblock
// ---------------------------------------------------------------------------

/// Methods that bound, check, or deliberately wrap the value they are called
/// on — their result (and, flow-insensitively, their receiver) is treated as
/// validated.
fn sanitizing_method(name: &str) -> bool {
    matches!(name, "min" | "clamp" | "try_into" | "rem_euclid")
        || name.starts_with("checked_")
        || name.starts_with("saturating_")
        || name.starts_with("wrapping_")
}

/// Call names whose arguments count as validated afterwards (bounds checks,
/// validated constructors, assertions).
fn sanitizing_call(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    l.contains("check")
        || l.contains("valid")
        || l.contains("clamp")
        || l.contains("bound")
        || l.contains("require")
        || l.contains("assert")
        || l.contains("try_from")
        || l == "min"
        || l == "max"
}

/// Per-function lexical taint facts feeding the interprocedural summary.
/// Deliberately flow-insensitive: an identifier that is bounds-checked
/// *anywhere* in a function counts as sanitized everywhere in it. That
/// under-reports (a check after the sink still clears it) but keeps the
/// analysis simple and the false-positive rate workable.
struct LocalFlow {
    /// ident → parameter indices it lexically derives from.
    taint: HashMap<String, BTreeSet<usize>>,
    /// idents that appear in a bounding/checking context somewhere in the fn.
    sanitized: HashSet<String>,
    /// Local sinks: (kind, line, params reaching it, description).
    sinks: Vec<(&'static str, u32, BTreeSet<usize>, String)>,
}

impl LocalFlow {
    fn effective(&self, id: &str) -> BTreeSet<usize> {
        if self.sanitized.contains(id) {
            return BTreeSet::new();
        }
        self.taint.get(id).cloned().unwrap_or_default()
    }
}

const CMP_OPS: [&str; 5] = ["<", "<=", ">", ">=", "=="];

/// True when the token range holds a sanitizing construct (`.min(...)`,
/// `checked_add(...)`, `check_*(...)`, …).
fn range_sanitizes(toks: &[Token]) -> bool {
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = k + 1 < toks.len() && toks[k + 1].is_punct("(");
        if called && (sanitizing_method(&t.text) || sanitizing_call(&t.text)) {
            return true;
        }
    }
    false
}

/// Computes the lexical taint facts for one function body.
fn local_flow(f: &Func, toks: &[Token]) -> LocalFlow {
    let n = toks.len();
    let mut taint: HashMap<String, BTreeSet<usize>> = HashMap::new();
    for (i, p) in f.params.iter().enumerate() {
        taint.entry(p.clone()).or_default().insert(i);
    }
    // Sanitized idents: compared, bounded, or passed to a validator.
    let mut sanitized: HashSet<String> = HashSet::new();
    for k in 0..n {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if k + 3 < n
            && toks[k + 1].is_punct(".")
            && toks[k + 2].kind == TokKind::Ident
            && sanitizing_method(&toks[k + 2].text)
            && toks[k + 3].is_punct("(")
        {
            sanitized.insert(t.text.clone());
        }
        if k + 1 < n && toks[k + 1].is_punct("(") && sanitizing_call(&t.text) {
            let mut depth = 0i32;
            let mut j = k + 1;
            while j < n {
                if toks[j].is_punct("(") {
                    depth += 1;
                } else if toks[j].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].kind == TokKind::Ident {
                    sanitized.insert(toks[j].text.clone());
                }
                j += 1;
            }
        }
    }
    // Comparison operands count as bounds-checked. Walk a few tokens out on
    // both sides of the operator so the *base* of a field chain or cast
    // (`ino.size as usize > MAX`, `rect.w > 4096`) is marked, not just the
    // token touching the operator.
    let boundary = |t: &Token| {
        t.is_punct(";")
            || t.is_punct(",")
            || t.is_punct("{")
            || t.is_punct("}")
            || t.is_punct("&&")
            || t.is_punct("||")
            || t.is_punct("=")
            || (t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "if" | "while" | "let" | "return" | "match" | "else" | "for" | "in"
                ))
    };
    for k in 0..n {
        if !CMP_OPS.iter().any(|c| toks[k].is_punct(c)) {
            continue;
        }
        let mut j = k;
        for _ in 0..8 {
            if j == 0 {
                break;
            }
            j -= 1;
            if boundary(&toks[j]) {
                break;
            }
            if toks[j].kind == TokKind::Ident && toks[j].text != "as" {
                sanitized.insert(toks[j].text.clone());
            }
        }
        let mut j = k;
        for _ in 0..8 {
            j += 1;
            if j >= n || boundary(&toks[j]) {
                break;
            }
            if toks[j].kind == TokKind::Ident && toks[j].text != "as" {
                sanitized.insert(toks[j].text.clone());
            }
        }
    }
    // Propagate taint through `let` bindings to a (bounded) local fixpoint.
    for _ in 0..8 {
        let mut changed = false;
        let mut k = 0usize;
        while k < n {
            if !toks[k].is_ident("let") {
                k += 1;
                continue;
            }
            // Bound idents: everything before `:`/`=`, skipping punctuation,
            // `mut`, `_` and uppercase (enum patterns like `Some`).
            let mut bound: Vec<String> = Vec::new();
            let mut j = k + 1;
            let mut eq = None;
            while j < n && j < k + 24 {
                let t = &toks[j];
                if t.is_punct("=") {
                    eq = Some(j);
                    break;
                }
                if t.is_punct(":") || t.is_punct(";") {
                    break;
                }
                if t.kind == TokKind::Ident
                    && t.text != "mut"
                    && t.text != "_"
                    && !t.text.starts_with(char::is_uppercase)
                {
                    bound.push(t.text.clone());
                }
                j += 1;
            }
            if eq.is_none() {
                // Skip past a type annotation to the `=` (types contain no `=`).
                while j < n && j < k + 64 && !toks[j].is_punct("=") && !toks[j].is_punct(";") {
                    j += 1;
                }
                if j < n && toks[j].is_punct("=") {
                    eq = Some(j);
                }
            }
            let Some(eq) = eq else {
                k = j.max(k + 1);
                continue;
            };
            // RHS: to the `;` at zero nesting depth (block initializers keep
            // their braces balanced), capped for safety.
            let mut depth = 0i32;
            let mut j = eq + 1;
            let start = j;
            while j < n && j < eq + 600 {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    depth -= 1;
                } else if t.is_punct(";") && depth == 0 {
                    break;
                }
                j += 1;
            }
            let rhs = &toks[start..j.min(n)];
            if !bound.is_empty() && !range_sanitizes(rhs) {
                let mut carried: BTreeSet<usize> = BTreeSet::new();
                for t in rhs {
                    if t.kind == TokKind::Ident && !sanitized.contains(&t.text) {
                        if let Some(s) = taint.get(&t.text) {
                            carried.extend(s.iter().copied());
                        }
                    }
                }
                if !carried.is_empty() {
                    for b in &bound {
                        let e = taint.entry(b.clone()).or_default();
                        let before = e.len();
                        e.extend(carried.iter().copied());
                        if e.len() != before {
                            changed = true;
                        }
                    }
                }
            }
            k = j.max(k + 1);
        }
        if !changed {
            break;
        }
    }
    let lf = LocalFlow {
        taint,
        sanitized,
        sinks: Vec::new(),
    };
    let mut sinks: Vec<(&'static str, u32, BTreeSet<usize>, String)> = Vec::new();
    for k in 0..n {
        let t = &toks[k];
        // Allocation length: `vec![elem; len]`.
        if t.is_ident("vec") && k + 2 < n && toks[k + 1].is_punct("!") && toks[k + 2].is_punct("[")
        {
            let mut depth = 0i32;
            let mut after_semi = false;
            let mut set = BTreeSet::new();
            let mut j = k + 2;
            while j < n {
                let u = &toks[j];
                if u.is_punct("[") {
                    depth += 1;
                } else if u.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if u.is_punct(";") && depth == 1 {
                    after_semi = true;
                } else if after_semi && u.kind == TokKind::Ident {
                    set.extend(lf.effective(&u.text));
                }
                j += 1;
            }
            if !set.is_empty() {
                sinks.push((
                    "alloc",
                    t.line,
                    set,
                    "a `vec![_; n]` allocation length".into(),
                ));
            }
        }
        // Allocation length: `with_capacity` / `resize` / `reserve`.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "with_capacity" | "resize" | "reserve" | "reserve_exact"
            )
            && k + 1 < n
            && toks[k + 1].is_punct("(")
        {
            let mut depth = 0i32;
            let mut set = BTreeSet::new();
            let mut j = k + 1;
            while j < n {
                let u = &toks[j];
                if u.is_punct("(") {
                    depth += 1;
                } else if u.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if u.is_punct(",") && depth == 1 {
                    break; // only the length argument
                } else if u.kind == TokKind::Ident {
                    set.extend(lf.effective(&u.text));
                }
                j += 1;
            }
            if !set.is_empty() {
                sinks.push((
                    "alloc",
                    t.line,
                    set,
                    format!("a `{}` allocation length", t.text),
                ));
            }
        }
        // Slice indexing with a tainted index expression.
        if t.is_punct("[") && k > 0 {
            let p = &toks[k - 1];
            let base_ok = p.kind == TokKind::Ident || p.is_punct(")") || p.is_punct("]");
            if base_ok {
                let mut depth = 0i32;
                let mut set = BTreeSet::new();
                let mut j = k;
                while j < n {
                    let u = &toks[j];
                    if u.is_punct("[") {
                        depth += 1;
                    } else if u.is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if u.kind == TokKind::Ident {
                        set.extend(lf.effective(&u.text));
                    }
                    j += 1;
                }
                if !set.is_empty() {
                    let base = if p.kind == TokKind::Ident {
                        p.text.as_str()
                    } else {
                        "_"
                    };
                    sinks.push((
                        "index",
                        t.line,
                        set,
                        format!("slice indexing `{base}[...]`"),
                    ));
                }
            }
        }
        // Unchecked arithmetic with a tainted operand.
        let compound = t.is_punct("+=") || t.is_punct("*=");
        let plain = t.is_punct("+") || t.is_punct("*");
        if compound || plain {
            if plain {
                // A `*` (or `+`) is binary only after a value token; after a
                // keyword (`return *x`) or another operator it is a deref.
                let binary = k > 0
                    && ((toks[k - 1].kind == TokKind::Ident
                        && !matches!(
                            toks[k - 1].text.as_str(),
                            "return"
                                | "in"
                                | "if"
                                | "else"
                                | "match"
                                | "let"
                                | "while"
                                | "break"
                                | "as"
                                | "mut"
                                | "ref"
                                | "move"
                        ))
                        || toks[k - 1].kind == TokKind::Number
                        || toks[k - 1].is_punct(")")
                        || toks[k - 1].is_punct("]"));
                if !binary {
                    continue;
                }
            }
            let mut set = BTreeSet::new();
            if k > 0 && toks[k - 1].kind == TokKind::Ident {
                set.extend(lf.effective(&toks[k - 1].text));
            }
            if k + 1 < n && toks[k + 1].kind == TokKind::Ident {
                set.extend(lf.effective(&toks[k + 1].text));
            }
            if !set.is_empty() {
                sinks.push((
                    "arith",
                    t.line,
                    set,
                    format!("unchecked `{}` arithmetic", t.text),
                ));
            }
        }
    }
    LocalFlow { sinks, ..lf }
}

/// One sink a tainted parameter can reach, as carried in a summary.
#[derive(Debug, Clone, PartialEq)]
struct SinkInfo {
    func: String,
    what: String,
    via: Vec<String>,
}

type SinkKey = (String, u32, &'static str); // (file, line, kind)
type Summary = Vec<BTreeMap<SinkKey, SinkInfo>>; // indexed by param

/// Pass 3: interprocedural user-input taint. Sources are the parameters of
/// the `sys_*` dispatch functions other than the calling context (`task`,
/// `core`, or the `entry` that carries both); sinks are slice
/// indexing, unchecked `+`/`*` arithmetic and allocation lengths anywhere in
/// the scanned crates; sanitizers are bounds comparisons, `min`/`clamp`/
/// `checked_*`/`saturating_*`/`wrapping_*` forms and `check*`/`valid*`-style
/// calls. A finding means a syscall argument reaches a sink with no
/// sanitizer on the (lexical, flow-insensitive) path.
pub fn pass_taint(model: &Model) -> Vec<Finding> {
    let n = model.funcs.len();
    let cg = CallGraph::build(model);
    let locals: Vec<LocalFlow> = (0..n)
        .map(|f| {
            if model.funcs[f].is_test {
                LocalFlow {
                    taint: HashMap::new(),
                    sanitized: HashSet::new(),
                    sinks: Vec::new(),
                }
            } else {
                local_flow(&model.funcs[f], body(model, f))
            }
        })
        .collect();
    let (facts, _rounds) = solve(
        n,
        |f| cg.callers[f].clone(),
        |_| Summary::new(),
        |f, facts| {
            let func = &model.funcs[f];
            if func.is_test {
                return Summary::new();
            }
            let lf = &locals[f];
            let mut out: Summary = vec![BTreeMap::new(); func.params.len()];
            for (kind, line, params, what) in &lf.sinks {
                for &p in params {
                    if p < out.len() {
                        out[p]
                            .entry((func.file.clone(), *line, kind))
                            .or_insert_with(|| SinkInfo {
                                func: func.name.clone(),
                                what: what.clone(),
                                via: Vec::new(),
                            });
                    }
                }
            }
            for &(ci, g) in &cg.callees[f] {
                let call = &func.calls[ci];
                let callee = &model.funcs[g];
                // `Type::method(recv, ...)` passes the receiver positionally.
                let skip = usize::from(callee.has_self && call.qual.is_some() && !call.method);
                for (ai, ids) in call.args.iter().enumerate() {
                    if ai < skip {
                        continue;
                    }
                    let pi = ai - skip;
                    if pi >= callee.params.len() || pi >= facts[g].len() {
                        continue;
                    }
                    let mut carried: BTreeSet<usize> = BTreeSet::new();
                    for id in ids {
                        carried.extend(lf.effective(id));
                    }
                    if carried.is_empty() {
                        continue;
                    }
                    for (key, info) in &facts[g][pi] {
                        for &p in &carried {
                            if p < out.len() && !out[p].contains_key(key) {
                                let mut info = info.clone();
                                if info.via.len() < 6 {
                                    info.via.insert(0, callee.name.clone());
                                }
                                out[p].insert(key.clone(), info);
                            }
                        }
                    }
                }
            }
            out
        },
    );
    // Report at the syscall roots, deduplicating sinks across roots.
    let mut out = Vec::new();
    let mut seen: HashSet<SinkKey> = HashSet::new();
    for (r, func) in model.funcs.iter().enumerate() {
        if func.is_test || !func.name.starts_with("sys_") || !func.file.ends_with(SYSCALLS_RS) {
            continue;
        }
        for (pi, pname) in func.params.iter().enumerate() {
            let context = matches!(pname.as_str(), "task" | "core" | "entry");
            if context || pi >= facts[r].len() {
                continue;
            }
            for (key, info) in &facts[r][pi] {
                if !seen.insert(key.clone()) {
                    continue;
                }
                let path = if info.via.is_empty() {
                    String::new()
                } else {
                    format!(" (via `{}`)", info.via.join("` → `"))
                };
                out.push(Finding {
                    pass: "taint",
                    kind: key.2,
                    file: key.0.clone(),
                    func: info.func.clone(),
                    line: key.1,
                    message: format!(
                        "user-controlled `{pname}` of `{}` reaches {} with no sanitizer on the path{path}",
                        func.name, info.what
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.kind).cmp(&(&b.file, b.line, b.kind)));
    out
}

/// Pass 4: crash-ordering discipline. Every site that dirties a metadata
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

/// Pass 5: `WouldBlock` retry-safety. A function that can return
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
