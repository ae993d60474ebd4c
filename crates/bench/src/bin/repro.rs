//! `repro` — regenerate the paper's tables and figures at laptop scale, and
//! drive the CI trace check.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fg-bench --bin repro -- list
//! cargo run --release -p fg-bench --bin repro -- table1 figure9
//! cargo run --release -p fg-bench --bin repro -- all
//! cargo run --release -p fg-bench --bin repro -- --validate-trace trace.json
//! ```
//!
//! Each experiment prints its Markdown tables and writes them under
//! `target/repro/<name>.md`. Performance is measured by `fgbench/`, not here.

#![forbid(unsafe_code)]

use fg_bench::{emit_report, experiments};

fn usage(registry: &[experiments::Experiment]) {
    eprintln!("usage: repro [list | all | <experiment>...]");
    eprintln!("       repro --validate-trace <trace.json>");
    eprintln!("experiments:");
    for (name, _) in registry {
        eprintln!("  {name}");
    }
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
