//! End-to-end fixture tests: each pass gets a known-bad miniature workspace
//! that must produce its characteristic findings, plus one clean fixture
//! that must produce none. Fixtures are materialised under
//! `CARGO_TARGET_TMPDIR` with the same path suffixes the passes match
//! (`crates/kernel/src/syscalls.rs`, …), so they exercise exactly the code
//! paths a real run takes.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use analysis::analyze;

fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dir");
        fs::write(&path, content).expect("write fixture file");
    }
    root
}

fn kinds(report: &analysis::Report, pass: &str) -> HashSet<String> {
    report
        .findings
        .iter()
        .filter(|f| f.pass == pass)
        .map(|f| f.kind.to_string())
        .collect()
}

#[test]
fn panic_pass_flags_unwrap_panic_index_and_arith_on_reachable_paths() {
    let root = fixture(
        "bad_panic",
        &[
            (
                "crates/kernel/src/syscalls.rs",
                r#"
pub fn sys_crash(task: usize) -> u64 {
    torn_lookup(task as u64)
}
"#,
            ),
            (
                "crates/fs/src/lib.rs",
                r#"
pub fn torn_lookup(sector: u64) -> u64 {
    let table = [0u64; 4];
    let v = table[sector as usize];
    let next = sector + 1;
    let r: Option<u64> = Some(next);
    let x = r.unwrap();
    if x == 0 {
        panic!("boom");
    }
    v + x
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_inside_tests_is_not_a_finding() {
        let v: Option<u64> = Some(1);
        v.unwrap();
    }
}
"#,
            ),
        ],
    );
    let report = analyze(&root, &["panic".into()]).expect("analyze");
    let got = kinds(&report, "panic");
    for want in ["unwrap", "panic", "index", "arith"] {
        assert!(
            got.contains(want),
            "missing panic/{want}: {:?}",
            report.findings
        );
    }
    // The helper is only flagged because a syscall root reaches it; the
    // unwrap inside `#[cfg(test)]` must not appear.
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.func != "unwrap_inside_tests_is_not_a_finding"),
        "test-only code must be exempt: {:?}",
        report.findings
    );
    assert!(report.reachable >= 2, "root + helper should be reachable");
}

#[test]
fn errors_pass_flags_unmapped_variants_and_discarded_results() {
    let root = fixture(
        "bad_errors",
        &[
            (
                "crates/fs/src/lib.rs",
                r#"
pub enum FsError {
    NotFound,
    Corrupt(String),
    NoSpace,
}

pub fn flush_all() -> Result<(), FsError> {
    Ok(())
}

pub fn poke() -> Result<(), FsError> {
    Ok(())
}
"#,
            ),
            (
                "crates/kernel/src/error.rs",
                r#"
pub enum KernelError {
    NoEnt,
    Fault(String),
}

impl From<FsError> for KernelError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NotFound => KernelError::NoEnt,
            FsError::Corrupt(m) => KernelError::Fault(m),
            _ => KernelError::NoEnt,
        }
    }
}
"#,
            ),
            (
                "crates/kernel/src/syscalls.rs",
                r#"
pub fn sys_sync(task: usize) -> u64 {
    let _ = flush_all();
    poke().ok();
    task as u64
}
"#,
            ),
        ],
    );
    let report = analyze(&root, &["errors".into()]).expect("analyze");
    let got = kinds(&report, "errors");
    for want in ["unmapped", "discard-let", "discard-ok"] {
        assert!(
            got.contains(want),
            "missing errors/{want}: {:?}",
            report.findings
        );
    }
    // Only the variant hidden behind the `_` arm is unmapped.
    let unmapped: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.kind == "unmapped")
        .collect();
    assert_eq!(unmapped.len(), 1, "exactly NoSpace: {unmapped:?}");
    assert!(unmapped[0].message.contains("NoSpace"));
}

#[test]
fn taint_pass_tracks_syscall_args_to_sinks_through_calls() {
    let root = fixture(
        "bad_taint",
        &[
            (
                "crates/kernel/src/syscalls.rs",
                r#"
pub fn sys_read(task: usize, core: usize, fd: u64, len: usize) -> u64 {
    stage_copy(fd, len)
}

pub fn sys_safe(task: usize, core: usize, len: usize) -> u64 {
    let bounded = len.min(64);
    stage_copy(0, bounded)
}

pub fn sys_trapped(entry: Entry) -> usize {
    scratch_for(entry.core())
}
"#,
            ),
            (
                "crates/fs/src/lib.rs",
                r#"
pub fn stage_copy(fd: u64, len: usize) -> u64 {
    let table = [0u64; 4];
    let buf = vec![0u8; len];
    let v = table[fd as usize];
    let end = fd + 1;
    v + end + buf[0] as u64
}

pub fn scratch_for(core: usize) -> usize {
    vec![0u8; core].len()
}
"#,
            ),
        ],
    );
    let report = analyze(&root, &["taint".into()]).expect("analyze");
    let got = kinds(&report, "taint");
    for want in ["alloc", "index", "arith"] {
        assert!(
            got.contains(want),
            "missing taint/{want}: {:?}",
            report.findings
        );
    }
    // The flow is interprocedural: the sinks live in the fs helper, the
    // source is the syscall argument.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.func == "stage_copy" && f.message.contains("via `stage_copy`")),
        "sink attributed through the call chain: {:?}",
        report.findings
    );
    // `sys_safe` bounds its length with `.min(64)` before the call, and
    // `sys_trapped`'s `Entry` is calling context like `task` and `core`;
    // nothing either passes may be reported.
    for clean in ["sys_safe", "sys_trapped"] {
        assert!(
            report.findings.iter().all(|f| !f.message.contains(clean)),
            "{clean} must not taint: {:?}",
            report.findings
        );
    }
}

#[test]
fn ordering_pass_flags_unprotected_metadata_writes_on_syscall_paths() {
    let root = fixture(
        "bad_ordering",
        &[
            (
                "crates/kernel/src/syscalls.rs",
                r#"
pub fn sys_mkdir(task: usize, core: usize, lba: u64) -> u64 {
    raw_dirent_write(lba);
    txn_dirent_write(lba);
    ordered_write(lba);
    lba
}
"#,
            ),
            (
                "crates/fs/src/lib.rs",
                r#"
pub fn raw_dirent_write(lba: u64) -> u64 {
    note_metadata(lba, 1);
    lba
}

pub fn txn_dirent_write(lba: u64) -> u64 {
    with_meta_txn(lba, |bc| { note_metadata(lba, 1) });
    lba
}

pub fn ordered_write(lba: u64) -> u64 {
    add_dependency(lba, 1, lba, 1);
    note_metadata(lba, 1);
    lba
}

pub fn offline_scrub(lba: u64) -> u64 {
    note_metadata(lba, 1);
    lba
}
"#,
            ),
        ],
    );
    let report = analyze(&root, &["ordering".into()]).expect("analyze");
    let flagged: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.pass == "ordering")
        .collect();
    assert_eq!(
        flagged.len(),
        1,
        "exactly the raw write: {:?}",
        report.findings
    );
    assert_eq!(flagged[0].kind, "unordered-meta");
    assert_eq!(flagged[0].func, "raw_dirent_write");
    // Inside a txn region, behind add_dependency edges, or simply not
    // reachable from a syscall: all exempt.
    for clean in ["txn_dirent_write", "ordered_write", "offline_scrub"] {
        assert!(
            report.findings.iter().all(|f| f.func != clean),
            "{clean} must be exempt: {:?}",
            report.findings
        );
    }
}

#[test]
fn wouldblock_pass_flags_mutation_before_blocking_returns() {
    let root = fixture(
        "bad_wouldblock",
        &[
            (
                "crates/fs/src/lib.rs",
                r#"
pub enum FsError {
    WouldBlock,
}

impl BufCache {
    pub fn broken_window(&mut self, lba: u64) -> Result<u64, FsError> {
        self.inflight_reads.insert(lba, 1);
        if lba > 4 {
            return Err(FsError::WouldBlock);
        }
        Ok(lba)
    }

    pub fn parked_window(&mut self, lba: u64) -> Result<u64, FsError> {
        block_current(lba);
        self.chain_owners.insert(lba, 1);
        Err(FsError::WouldBlock)
    }

    pub fn idempotent_window(&mut self, lba: u64) -> Result<u64, FsError> {
        if lba > 4 {
            return Err(FsError::WouldBlock);
        }
        self.inflight_reads.insert(lba, 1);
        Ok(lba)
    }

    pub fn branchy_window(&mut self, lba: u64) -> Result<u64, FsError> {
        if lba == 0 {
            self.inflight_reads.insert(lba, 1);
            return Ok(lba);
        }
        if lba > 4 {
            return Err(FsError::WouldBlock);
        }
        Ok(lba)
    }
}
"#,
            ),
            (
                "crates/kernel/src/syscalls.rs",
                r#"
pub enum KernelError {
    WouldBlock,
}

pub fn sys_stream(task: usize, core: usize, lba: u64) -> Result<u64, KernelError> {
    touch_cache(lba);
    if lba > 9 {
        return Err(KernelError::WouldBlock);
    }
    Ok(lba)
}

pub fn touch_cache(lba: u64) -> u64 {
    stream_windows.insert(lba, 1);
    lba
}
"#,
            ),
        ],
    );
    let report = analyze(&root, &["wouldblock".into()]).expect("analyze");
    let got = kinds(&report, "wouldblock");
    for want in ["mutate-before-block", "mutate-after-park"] {
        assert!(
            got.contains(want),
            "missing wouldblock/{want}: {:?}",
            report.findings
        );
    }
    // The interprocedural case: sys_stream mutates through a callee.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.func == "sys_stream" && f.message.contains("touch_cache")),
        "callee mutation attributed to the blocking caller: {:?}",
        report.findings
    );
    // Mutating only after the blocking return, or in a sibling branch the
    // return cannot see, is retry-safe.
    for clean in ["idempotent_window", "branchy_window", "touch_cache"] {
        assert!(
            report.findings.iter().all(|f| f.func != clean),
            "{clean} must be exempt: {:?}",
            report.findings
        );
    }
}

#[test]
fn clean_fixture_produces_no_findings() {
    let root = fixture(
        "clean",
        &[
            (
                "crates/kernel/src/syscalls.rs",
                r#"
pub fn sys_getpid(task: usize) -> Result<u64, KernelError> {
    lookup_id(task)
}

pub fn sys_read(task: usize, fd: u64, buf: u64, len: u64) -> Result<u64, KernelError> {
    let _unused = task;
    read_file(fd, buf, len)
}

pub fn sys_debug_dump(task: usize) -> Result<u64, KernelError> {
    Ok(task as u64)
}
"#,
            ),
            (
                "crates/kernel/src/error.rs",
                r#"
pub enum KernelError {
    NoEnt,
    Fault(String),
}

impl From<FsError> for KernelError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NotFound => KernelError::NoEnt,
            FsError::Corrupt(m) => KernelError::Fault(m),
            FsError::WouldBlock => KernelError::NoEnt,
        }
    }
}
"#,
            ),
            (
                "crates/fs/src/lib.rs",
                r#"
pub enum FsError {
    NotFound,
    Corrupt(String),
    WouldBlock,
}

pub fn lookup_id(task: usize) -> Result<u64, KernelError> {
    Ok(task as u64)
}

pub fn read_file(fd: u64, buf: u64, len: u64) -> Result<u64, KernelError> {
    let cap = len.min(4096);
    let scratch = vec![0u8; cap as usize];
    Ok(fd.wrapping_add(buf).wrapping_add(scratch.len() as u64))
}

pub fn poll_ready(flag: u64) -> Result<u64, FsError> {
    if flag == 0 {
        return Err(FsError::WouldBlock);
    }
    Ok(flag)
}

pub fn journaled_write(lba: u64) -> u64 {
    add_dependency(lba, 1, lba, 1);
    note_metadata(lba, 1);
    lba
}
"#,
            ),
        ],
    );
    let report = analyze(&root, &[]).expect("analyze");
    assert!(
        report.findings.is_empty(),
        "clean fixture must be clean: {:?}",
        report
            .findings
            .iter()
            .map(analysis::Finding::render)
            .collect::<Vec<_>>()
    );
    assert!(report.errors.is_empty());
    assert!(report.warnings.is_empty());
    assert!(!report.failed(true));
}
