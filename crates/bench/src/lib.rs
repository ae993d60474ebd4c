//! # fg-bench
//!
//! The paper-reproduction harness that regenerates every table and figure of
//! the paper's evaluation at laptop scale. The `repro` binary dispatches to
//! the experiment functions in [`experiments`]; each returns Markdown tables
//! that are printed and written under `target/repro/`.
//!
//! Workloads are scaled-down versions of the paper's: smaller synthetic
//! graphs, fewer queries, and a proportionally smaller simulated LLC.
//! Absolute numbers therefore differ from the paper; the comparisons (which
//! system wins, by roughly what factor, where the trends cross) are what the
//! harness reproduces. Performance is measured and gated by the `fgbench/`
//! package, not here.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod runner;

use std::io::Write;
use std::path::PathBuf;

use fg_metrics::Table;

/// Where experiment reports are written.
pub fn report_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("repro");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Print tables to stdout and write them to `target/repro/<name>.md`.
pub fn emit_report(name: &str, tables: &[Table]) {
    let mut content = String::new();
    for t in tables {
        content.push_str(&t.to_markdown());
        content.push('\n');
    }
    println!("{content}");
    let path = report_dir().join(format!("{name}.md"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(content.as_bytes());
        eprintln!("[repro] wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_dir_is_creatable_and_reports_are_written() {
        let mut t = Table::new("smoke", &["a"]);
        t.push_row(["1"]);
        emit_report("smoke_test", &[t]);
        assert!(report_dir().join("smoke_test.md").exists());
    }
}
