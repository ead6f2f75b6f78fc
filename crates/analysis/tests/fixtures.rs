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
    read_file(fd, buf, len)
}

pub fn sys_debug_dump(task: usize) -> Result<u64, KernelError> {
    Ok(task as u64)
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
    Ok(fd.wrapping_add(buf).wrapping_add(len))
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
