//! Output helpers shared by the harness binaries: aligned text tables plus a
//! JSON dump under `target/experiments/` so results are machine-readable.

use std::path::PathBuf;

/// Renders a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The checkout whose build is running: the parent of the `target`
/// directory holding this binary (`<root>/target/<profile>/<bin>`), else the
/// working directory. Found at run time, so a copy of the checkout that
/// reuses its built `target/` writes its results into the copy, not into
/// the checkout the binary was first compiled in.
pub fn repo_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|dir| dir.file_name().is_some_and(|name| name == "target"))
                .and_then(|target| target.parent())
                .map(PathBuf::from)
        })
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Directory where experiment JSON dumps are written.
pub fn experiments_dir() -> PathBuf {
    let dir = repo_root().join("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes a serialisable result as JSON under `target/experiments/<name>.json`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    write_json_to(&path, value);
}

/// Writes a serialisable result as JSON to an explicit path (used for the
/// tracked perf-trajectory dumps such as `BENCH_fs.json`).
pub fn write_json_to<T: serde::Serialize>(path: &std::path::Path, value: &T) {
    let json = value.to_json();
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(results written to {})", path.display());
    }
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_align_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["getpid".into(), "3.40".into()],
                vec!["a-much-longer-name".into(), "1".into()],
            ],
        );
        assert!(t.contains("getpid"));
        assert!(t.lines().count() >= 4);
    }
}
