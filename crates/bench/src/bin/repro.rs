//! `repro` — regenerate the paper's tables and figures at laptop scale.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fg-bench --bin repro -- list
//! cargo run --release -p fg-bench --bin repro -- table1 figure9
//! cargo run --release -p fg-bench --bin repro -- all
//! ```
//!
//! Each experiment prints its Markdown tables and writes them under
//! `target/repro/<name>.md`. Performance is measured by `fgbench/`, not here.

#![forbid(unsafe_code)]

use fg_bench::{emit_report, experiments};

fn usage(registry: &[experiments::Experiment]) {
    eprintln!("usage: repro [list | all | <experiment>...]");
    eprintln!("experiments:");
    for (name, _) in registry {
        eprintln!("  {name}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments::all_experiments();

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
