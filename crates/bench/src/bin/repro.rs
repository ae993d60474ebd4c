//! `repro` — regenerate the paper's tables and figures at laptop scale, and
//! drive the CI perf-regression gate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fg-bench --bin repro -- list
//! cargo run --release -p fg-bench --bin repro -- table1 figure9
//! cargo run --release -p fg-bench --bin repro -- all
//!
//! # CI perf gate (a directory baseline means "newest BENCH_history entry,
//! # else BENCH_baseline.json"):
//! cargo run --release -p fg-bench --bin repro -- --smoke --json BENCH_pr.json
//! cargo run --release -p fg-bench --bin repro -- --compare BENCH_history BENCH_pr.json
//! ```
//!
//! Each experiment prints its Markdown tables and writes them under
//! `target/repro/<name>.md`. `--smoke` measures serial vs parallel throughput
//! on a fixed workload and (with `--json`) writes the machine-readable
//! report; `--compare` exits non-zero when any baseline metric regressed more
//! than the tolerance (default 20%, override with `--tolerance 0.35`).

#![forbid(unsafe_code)]

use fg_bench::report::{compare, newest_history_entry, PerfReport};
use fg_bench::{emit_report, experiments, smoke};

fn usage(registry: &[experiments::Experiment]) {
    eprintln!("usage: repro [list | all | <experiment>...]");
    eprintln!("       repro --smoke [--json <out.json>]");
    eprintln!(
        "       repro --wire-smoke [--addr <host:port>] [--json <out.json> | --merge-json <in-out.json>]"
    );
    eprintln!(
        "       repro --compare <baseline.json|history-dir> <current.json> [--tolerance <frac>]"
    );
    eprintln!("       repro --validate-trace <trace.json>");
    eprintln!("experiments:");
    for (name, _) in registry {
        eprintln!("  {name}");
    }
}

fn read_report(path: &str) -> PerfReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    PerfReport::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    })
}

/// Resolve the baseline argument of `--compare`: a file is used as-is; a
/// directory (the tracked `BENCH_history/`) resolves to its newest entry,
/// falling back to the committed `BENCH_baseline.json` while the history is
/// still empty.
fn resolve_baseline(path: &str) -> String {
    let dir = std::path::Path::new(path);
    if !dir.is_dir() {
        return path.to_string();
    }
    match newest_history_entry(dir) {
        Some(entry) => {
            let entry = entry.display().to_string();
            eprintln!("[repro] baseline: newest history entry {entry}");
            entry
        }
        None => {
            // Resolve the fallback next to the history directory, not the
            // CWD, so the gate works from any working directory.
            let fallback = dir
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .map(|p| p.join("BENCH_baseline.json"))
                .unwrap_or_else(|| std::path::PathBuf::from("BENCH_baseline.json"));
            let fallback = fallback.display().to_string();
            eprintln!("[repro] history {path} is empty; falling back to {fallback}");
            fallback
        }
    }
}

/// `--smoke [--json PATH]`: measure and optionally write the JSON report.
fn run_smoke(args: &[String]) {
    let outcome = smoke::run_smoke();
    println!("{}", outcome.table.to_markdown());
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--json requires a path");
            std::process::exit(1);
        };
        std::fs::write(path, outcome.report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[repro] wrote {path}");
    }
}

/// `--wire-smoke [--addr HOST:PORT] [--json PATH | --merge-json PATH]`:
/// drive a server (self-hosted unless `--addr` points at one) with the
/// multi-connection closed-loop load generator. `--merge-json` folds the
/// wire metrics into an existing report file — the CI bench job uses it to
/// produce ONE `BENCH_pr.json` carrying both the smoke and the wire
/// families, so a baseline containing wire metrics never trips the
/// missing-metric gate.
fn run_wire_smoke(args: &[String]) {
    let addr = args.iter().position(|a| a == "--addr").map(|pos| {
        args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--addr requires host:port");
            std::process::exit(1);
        })
    });
    let outcome = fg_bench::wire::run_wire_smoke(addr.as_deref());
    println!("{}", outcome.table.to_markdown());
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--json requires a path");
            std::process::exit(1);
        };
        std::fs::write(path, outcome.report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[repro] wrote {path}");
    }
    if let Some(pos) = args.iter().position(|a| a == "--merge-json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--merge-json requires a path to an existing report");
            std::process::exit(1);
        };
        let mut merged = read_report(path);
        merged.merge(&outcome.report);
        std::fs::write(path, merged.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[repro] merged wire metrics into {path}");
    }
}

/// `--compare BASELINE CURRENT [--tolerance FRAC]`: the CI regression gate.
fn run_compare(args: &[String]) {
    let pos = args.iter().position(|a| a == "--compare").expect("checked by caller");
    let (Some(baseline_path), Some(current_path)) = (args.get(pos + 1), args.get(pos + 2)) else {
        eprintln!("--compare requires <baseline.json> <current.json>");
        std::process::exit(1);
    };
    let tolerance = match args.iter().position(|a| a == "--tolerance") {
        Some(tpos) => args
            .get(tpos + 1)
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|t| (0.0..1.0).contains(t))
            .unwrap_or_else(|| {
                eprintln!("--tolerance requires a fraction in [0, 1)");
                std::process::exit(1);
            }),
        None => 0.20,
    };
    let baseline_path = &resolve_baseline(baseline_path);
    let baseline = read_report(baseline_path);
    let current = read_report(current_path);
    let regressions = compare(&baseline, &current, tolerance);
    for (name, value) in &current.metrics {
        let base = baseline.get(name);
        let delta = base
            .map(|b| format!("{:+.1}% vs baseline {b:.1}", (value / b - 1.0) * 100.0))
            .unwrap_or_else(|| "new metric".to_string());
        println!("{name}: {value:.1} ({delta})");
        if base.is_none() {
            // Visible but non-fatal: a metric only the newer entry has is
            // usually a freshly added measurement seeding the next baseline,
            // but it deserves a reviewer's glance — if it was supposed to
            // exist in the baseline, the gate isn't actually covering it.
            eprintln!(
                "WARN {name}: present only in {current_path}, absent from baseline \
                 {baseline_path} — ungated until it lands in BENCH_history"
            );
        }
    }
    if regressions.is_empty() {
        println!(
            "perf gate OK: no metric regressed more than {:.0}% against {baseline_path}",
            tolerance * 100.0
        );
        return;
    }
    for r in &regressions {
        eprintln!(
            "REGRESSION {}: {:.1} -> {:.1} qps ({:.0}% of baseline; floor is {:.0}%)",
            r.metric,
            r.baseline,
            r.current,
            r.ratio() * 100.0,
            (1.0 - tolerance) * 100.0
        );
    }
    std::process::exit(1);
}

/// `--validate-trace PATH`: the CI observability gate. Parses an exported
/// Chrome trace-event JSON file with the same structural parser
/// `fg_trace::chrome` tests against, and fails when the file is unreadable,
/// unparseable, or empty — so the traced example in CI cannot silently start
/// writing garbage that `chrome://tracing` would reject.
fn run_validate_trace(args: &[String]) {
    let pos = args.iter().position(|a| a == "--validate-trace").expect("checked by caller");
    let Some(path) = args.get(pos + 1) else {
        eprintln!("--validate-trace requires a path to an exported trace JSON file");
        std::process::exit(1);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let events = fg_trace::chrome::parse(&text).unwrap_or_else(|e| {
        eprintln!("INVALID Chrome trace {path}: {e}");
        std::process::exit(1);
    });
    if events.is_empty() {
        eprintln!("INVALID Chrome trace {path}: no events");
        std::process::exit(1);
    }
    let spans = events.iter().filter(|e| e.ph == "B").count();
    let flows = events.iter().filter(|e| e.ph == "s").count();
    println!(
        "trace OK: {path} parses as Chrome trace-event JSON ({} events, {spans} spans, \
         {flows} flows)",
        events.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments::all_experiments();

    if args.iter().any(|a| a == "--validate-trace") {
        run_validate_trace(&args);
        return;
    }
    if args.iter().any(|a| a == "--compare") {
        run_compare(&args);
        return;
    }
    if args.iter().any(|a| a == "--wire-smoke") {
        run_wire_smoke(&args);
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        run_smoke(&args);
        return;
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "help") {
        usage(&registry);
        return;
    }

    if args.iter().any(|a| a == "list") {
        for (name, _) in &registry {
            println!("{name}");
        }
        return;
    }

    let selected: Vec<&fg_bench::experiments::Experiment> = if args.iter().any(|a| a == "all") {
        registry.iter().collect()
    } else {
        let mut chosen = Vec::new();
        for arg in &args {
            match registry.iter().find(|(name, _)| name == arg) {
                Some(entry) => chosen.push(entry),
                None => {
                    eprintln!("unknown experiment '{arg}' (use `repro list`)");
                    std::process::exit(1);
                }
            }
        }
        chosen
    };

    for (name, run) in selected {
        eprintln!("[repro] running {name} ...");
        let start = std::time::Instant::now();
        let tables = run();
        eprintln!("[repro] {name} finished in {:.1?}", start.elapsed());
        emit_report(name, &tables);
    }
}
