//! `repro` — check the paper's claims on exact counts.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fg-bench --bin repro -- list
//! cargo run --release -p fg-bench --bin repro -- figure8 figure10
//! cargo run --release -p fg-bench --bin repro -- all
//! ```
//!
//! Each experiment prints its Markdown tables and its claim rows, and writes
//! them under `target/repro/<name>.md`. `all` runs every experiment, prints
//! the whole claim table, and compares it with the one in README: it prints
//! the rows on which the two differ and exits 1 if any do. A deliberate
//! verdict change updates README's table.

#![forbid(unsafe_code)]

use fg_bench::claims::{self, claim_table};
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

    let all = args.iter().any(|a| a == "all");
    let selected: Vec<&experiments::Experiment> = if all {
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

    let mut every_claim = Vec::new();
    for (name, run) in selected {
        eprintln!("[repro] running {name} ...");
        let mut report = run();
        if !all {
            report.tables.push(claim_table(&report.claims));
        }
        emit_report(name, &report.tables);
        every_claim.extend(report.claims);
    }
    if !all {
        return;
    }

    let printed = claim_table(&every_claim).to_markdown();
    println!("{printed}");
    let Some(section) = claims::readme_section(claims::README) else {
        eprintln!("README has no claim section between {} and {}", claims::BEGIN, claims::END);
        std::process::exit(1);
    };
    let differences = claims::diff(section, &printed);
    if !differences.is_empty() {
        eprintln!("the claim table differs from README's (- README, + this run):");
        for line in differences {
            eprintln!("{line}");
        }
        std::process::exit(1);
    }
    eprintln!("[repro] the claim table matches README");
}
