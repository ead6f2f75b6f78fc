//! `protolint`: offline static analysis for the Proto workspace.
//!
//! Five passes keep the properties that PR 2/3/6 established by hand from
//! rotting as the codebase grows:
//!
//! * **panic** — no `unwrap`/`expect`/`panic!`/sector-indexing/unchecked
//!   sector arithmetic on any function reachable from the `sys_*` dispatch.
//! * **errors** — every `FsError` variant has an explicit `KernelError`
//!   mapping, and syscall-reachable code never discards a `Result`.
//! * **taint** — no unvalidated syscall argument reaches slice indexing,
//!   sector arithmetic, or an allocation length (interprocedural).
//! * **ordering** — metadata-dirtying sites sit in a `with_meta_txn` region
//!   or behind registered `add_dependency` write-order edges.
//! * **wouldblock** — functions that return `WouldBlock` mutate no
//!   structural cache state on the blocking path (retry idempotency).
//!
//! Two earlier passes now live in the type system. `abi` checked a
//! string-typed syscall table against the dispatch functions and stubs;
//! the stubs now call the dispatch functions directly, and a trapping one
//! takes an `Entry` that only `Kernel::syscall` mints. `concurrency` policed
//! completion routing and parking under a cache borrow; routing is now
//! private to the buffer cache, and parking takes `&mut Kernel`.
//!
//! The tool is registry-free (no `syn`): [`lexer`] hand-tokenises Rust,
//! [`model`] extracts functions and a name-based call graph, and
//! [`dataflow`] runs worklist fixpoints over it — all of which
//! over-approximate reachability, which is safe for a checker.
//!
//! Findings can be suppressed through `crates/analysis/allow.toml`; every
//! entry must carry a non-empty `justify` string, and entries that no longer
//! match anything are reported as warnings so the allowlist shrinks as fixes
//! land. A committed `baseline.json` (stable finding IDs) lets CI fail only
//! on *new* findings while a refactor is in flight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod lexer;
pub mod model;
pub mod passes;

use std::collections::{HashMap, HashSet};
use std::path::Path;

use model::Model;

/// Every pass name, in the order they run. The single source of truth for
/// CLI validation and `--help`.
pub const PASSES: [&str; 5] = ["panic", "errors", "taint", "ordering", "wouldblock"];

/// One reported problem.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which pass produced it: one of [`PASSES`].
    pub pass: &'static str,
    /// Machine-matchable finding kind within the pass (e.g. `unwrap`).
    pub kind: &'static str,
    /// Root-relative file path.
    pub file: String,
    /// Enclosing function, empty for file-level findings.
    pub func: String,
    /// 1-based line, 0 for file-level findings.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A finding anchored to a file but no particular line.
    pub fn file_level(
        pass: &'static str,
        kind: &'static str,
        file: &str,
        message: String,
    ) -> Finding {
        Finding {
            pass,
            kind,
            file: file.to_string(),
            func: String::new(),
            line: 0,
            message,
        }
    }

    /// A finding anchored to a line but no particular function.
    pub fn line_level(
        pass: &'static str,
        kind: &'static str,
        file: &str,
        line: u32,
        message: String,
    ) -> Finding {
        Finding {
            pass,
            kind,
            file: file.to_string(),
            func: String::new(),
            line,
            message,
        }
    }

    /// Stable identity for baselines: an FNV-1a hash over pass, file,
    /// function and kind — deliberately *not* the line or message, so a
    /// finding keeps its ID across unrelated edits to the same file.
    pub fn id(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [self.pass, "|", &self.file, "|", &self.func, "|", self.kind] {
            for b in part.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// `file:line: [pass/kind] message (in func)` display form.
    pub fn render(&self) -> String {
        let loc = if self.line > 0 {
            format!("{}:{}", self.file, self.line)
        } else {
            self.file.clone()
        };
        let ctx = if self.func.is_empty() {
            String::new()
        } else {
            format!(" (in `{}`)", self.func)
        };
        format!("{loc}: [{}/{}] {}{ctx}", self.pass, self.kind, self.message)
    }
}

/// One `[[allow]]` entry from `allow.toml`.
#[derive(Debug, Default, Clone)]
pub struct AllowEntry {
    /// Pass the entry applies to (required).
    pub pass: String,
    /// Root-relative file the entry applies to (required).
    pub file: String,
    /// Optional function filter.
    pub func: Option<String>,
    /// Optional finding-kind filter.
    pub kind: Option<String>,
    /// Mandatory human justification.
    pub justify: String,
    /// Line in allow.toml, for diagnostics.
    pub line: u32,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        self.pass == f.pass
            && self.file == f.file
            && self.func.as_deref().map(|x| x == f.func).unwrap_or(true)
            && self.kind.as_deref().map(|x| x == f.kind).unwrap_or(true)
    }
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the tiny TOML subset the allowlist uses: `[[allow]]` section
    /// headers and `key = "value"` lines. Returns hard errors for malformed
    /// lines or entries missing `pass`/`file`/`justify` — an allowlist that
    /// cannot be read must fail closed, not silently allow nothing.
    pub fn parse(src: &str) -> (Allowlist, Vec<String>) {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut errors = Vec::new();
        let mut cur: Option<AllowEntry> = None;
        for (i, raw) in src.lines().enumerate() {
            let lineno = (i + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = cur.take() {
                    Self::finish(e, &mut entries, &mut errors);
                }
                cur = Some(AllowEntry {
                    line: lineno,
                    ..AllowEntry::default()
                });
                continue;
            }
            let Some((key, val)) = line.split_once('=') else {
                errors.push(format!("allow.toml:{lineno}: expected `key = \"value\"`"));
                continue;
            };
            let key = key.trim();
            let val = val.trim();
            if !val.starts_with('"') || !val.ends_with('"') || val.len() < 2 {
                errors.push(format!(
                    "allow.toml:{lineno}: value for `{key}` must be a quoted string"
                ));
                continue;
            }
            let val = &val[1..val.len() - 1];
            let Some(e) = cur.as_mut() else {
                errors.push(format!(
                    "allow.toml:{lineno}: `{key}` outside any [[allow]] section"
                ));
                continue;
            };
            match key {
                "pass" => e.pass = val.to_string(),
                "file" => e.file = val.to_string(),
                "func" => e.func = Some(val.to_string()),
                "kind" => e.kind = Some(val.to_string()),
                "justify" => e.justify = val.to_string(),
                _ => errors.push(format!("allow.toml:{lineno}: unknown key `{key}`")),
            }
        }
        if let Some(e) = cur.take() {
            Self::finish(e, &mut entries, &mut errors);
        }
        (Allowlist { entries }, errors)
    }

    fn finish(e: AllowEntry, entries: &mut Vec<AllowEntry>, errors: &mut Vec<String>) {
        if e.pass.is_empty() || e.file.is_empty() {
            errors.push(format!(
                "allow.toml:{}: entry needs `pass` and `file`",
                e.line
            ));
        } else if e.justify.trim().is_empty() {
            errors.push(format!(
                "allow.toml:{}: entry for {}/{} has no `justify` — every suppression must say why",
                e.line, e.pass, e.file
            ));
        } else {
            entries.push(e);
        }
    }
}

/// The outcome of a full analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by the allowlist — these fail the build.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an allowlist entry.
    pub allowed: Vec<Finding>,
    /// Findings suppressed because their ID appears in the baseline.
    pub baselined: Vec<Finding>,
    /// Non-fatal issues (stale allowlist entries); fatal under
    /// `--deny-warnings`.
    pub warnings: Vec<String>,
    /// Fatal configuration problems (malformed allowlist).
    pub errors: Vec<String>,
    /// Per-pass raw finding counts, before allowlisting.
    pub counts: HashMap<&'static str, usize>,
    /// Number of functions the reachability analysis marked syscall-reachable.
    pub reachable: usize,
    /// Total non-test functions the model extracted.
    pub scanned: usize,
}

impl Report {
    /// True when the run should exit non-zero.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        !self.findings.is_empty()
            || !self.errors.is_empty()
            || (deny_warnings && !self.warnings.is_empty())
    }

    /// Moves findings whose [`Finding::id`] appears in `ids` from
    /// `findings` to `baselined`, so only unbaselined findings fail a run.
    pub fn apply_baseline(&mut self, ids: &HashSet<String>) {
        let (base, keep): (Vec<Finding>, Vec<Finding>) = std::mem::take(&mut self.findings)
            .into_iter()
            .partition(|f| ids.contains(&f.id()));
        self.findings = keep;
        self.baselined.extend(base);
    }
}

/// Extracts the `"id": "..."` values from a baseline JSON document. A
/// hand-rolled scan (no JSON dependency): anything shaped like an `id` key
/// with a string value counts, which is exactly what `--format json` emits.
pub fn parse_baseline_ids(src: &str) -> HashSet<String> {
    let mut ids = HashSet::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    while let Some(at) = src[i..].find("\"id\"") {
        let mut j = i + at + 4;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b':' {
            j += 1;
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'"' {
                let start = j + 1;
                if let Some(end) = src[start..].find('"') {
                    ids.insert(src[start..start + end].to_string());
                    i = start + end + 1;
                    continue;
                }
            }
        }
        i = i + at + 4;
    }
    ids
}

/// The source directories a run scans, relative to the workspace root.
pub const SCAN_DIRS: [&str; 3] = ["crates/fs/src", "crates/kernel/src", "crates/hal/src"];

/// Runs the selected passes (all five when `only` is empty) over the
/// workspace at `root`, applying `root/crates/analysis/allow.toml` if
/// present.
pub fn analyze(root: &Path, only: &[String]) -> std::io::Result<Report> {
    let model = Model::load(root, &SCAN_DIRS)?;
    let mut report = Report::default();
    let want = |p: &str| only.is_empty() || only.iter().any(|o| o == p);
    let reachable = passes::reachable_from_syscalls(&model);
    report.reachable = reachable.len();
    report.scanned = model.funcs.iter().filter(|f| !f.is_test).count();
    let mut all: Vec<Finding> = Vec::new();
    if want("panic") {
        all.extend(passes::pass_panic(&model, &reachable));
    }
    if want("errors") {
        all.extend(passes::pass_errors(&model, &reachable));
    }
    if want("taint") {
        all.extend(passes::pass_taint(&model));
    }
    if want("ordering") {
        all.extend(passes::pass_ordering(&model));
    }
    if want("wouldblock") {
        all.extend(passes::pass_wouldblock(&model));
    }
    for f in &all {
        *report.counts.entry(f.pass).or_insert(0) += 1;
    }
    // Allowlist.
    let allow_path = root.join("crates/analysis/allow.toml");
    let (allow, errors) = match std::fs::read_to_string(&allow_path) {
        Ok(src) => Allowlist::parse(&src),
        Err(_) => (Allowlist::default(), Vec::new()),
    };
    report.errors = errors;
    let mut used = vec![false; allow.entries.len()];
    for f in all {
        match allow.entries.iter().position(|e| e.matches(&f)) {
            Some(i) => {
                used[i] = true;
                report.allowed.push(f);
            }
            None => report.findings.push(f),
        }
    }
    for (i, e) in allow.entries.iter().enumerate() {
        if !used[i] {
            // Only warn for entries whose pass actually ran.
            if only.is_empty() || only.contains(&e.pass) {
                report.warnings.push(format!(
                    "allow.toml:{}: stale entry ({} / {}{}) matches no finding — remove it",
                    e.line,
                    e.pass,
                    e.file,
                    e.kind
                        .as_deref()
                        .map(|k| format!(" / {k}"))
                        .unwrap_or_default()
                ));
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.pass, &a.file, a.line).cmp(&(b.pass, &b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_rejects_missing_justification() {
        let (list, errors) =
            Allowlist::parse("[[allow]]\npass = \"panic\"\nfile = \"crates/fs/src/lib.rs\"\n");
        assert!(list.entries.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("justify"));
    }

    #[test]
    fn allowlist_matches_on_pass_file_and_optional_kind() {
        let (list, errors) = Allowlist::parse(
            "[[allow]]\npass = \"panic\"\nfile = \"a.rs\"\nkind = \"unwrap\"\njustify = \"checked above\"\n",
        );
        assert!(errors.is_empty());
        let hit = Finding {
            pass: "panic",
            kind: "unwrap",
            file: "a.rs".into(),
            func: "f".into(),
            line: 3,
            message: String::new(),
        };
        let miss = Finding {
            kind: "expect",
            ..hit.clone()
        };
        assert!(list.entries[0].matches(&hit));
        assert!(!list.entries[0].matches(&miss));
    }

    #[test]
    fn finding_ids_are_stable_across_line_and_message_changes() {
        let a = Finding {
            pass: "taint",
            kind: "index",
            file: "crates/fs/src/fat32.rs".into(),
            func: "read_at".into(),
            line: 10,
            message: "old".into(),
        };
        let b = Finding {
            line: 999,
            message: "totally different".into(),
            ..a.clone()
        };
        assert_eq!(a.id(), b.id());
        let c = Finding {
            kind: "arith",
            ..a.clone()
        };
        assert_ne!(a.id(), c.id());
        assert_eq!(a.id().len(), 16);
    }

    #[test]
    fn baseline_ids_parse_and_filter_findings() {
        let f = Finding {
            pass: "taint",
            kind: "index",
            file: "a.rs".into(),
            func: "f".into(),
            line: 1,
            message: String::new(),
        };
        let src = format!(
            "{{\n  \"findings\": [\n    {{ \"id\": \"{}\", \"pass\": \"taint\" }}\n  ]\n}}\n",
            f.id()
        );
        let ids = parse_baseline_ids(&src);
        assert!(ids.contains(&f.id()));
        let mut report = Report {
            findings: vec![f.clone()],
            ..Report::default()
        };
        report.apply_baseline(&ids);
        assert!(report.findings.is_empty());
        assert_eq!(report.baselined.len(), 1);
        assert!(!report.failed(true));
    }
}
