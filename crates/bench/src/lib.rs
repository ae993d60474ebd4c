//! # fg-bench
//!
//! The paper's claim ledger. Each experiment in [`experiments`] states one of
//! the paper's comparisons as a [`claims::Claim`] on exact counts and
//! returns it with the tables its evidence comes from. The `repro` binary
//! prints them; `repro all` also checks the claim table against README's and
//! fails on any difference (see [`claims`]).
//!
//! The inputs are scaled-down stand-ins for the paper's datasets, cut into
//! partitions of one small simulated LLC ([`runner::repro_llc`]). Absolute
//! numbers therefore differ from the paper; the comparisons are what the
//! ledger checks. A comparison that no exact count can check — anything read
//! off wall time — is not here: speed is measured by the `fgbench/` package.

#![forbid(unsafe_code)]

pub mod claims;
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
