//! `fgbench` — the repository's benchmark: five workloads, six end-to-end
//! metrics, a per-layer cost ladder and a measured noise floor. README.md
//! beside this package's manifest says what each workload and metric means.
//!
//! ```text
//! fgbench                                   all five workloads, untraced
//! fgbench --traced                          … and the traced (per-layer) pass
//! fgbench --workload W --seed N --seconds S --trace 0|1
//!                                           one workload in this process; the
//!                                           last line is the driver's JSON
//! fgbench --noise N [--vary-seed]           the suite N times; spread table
//! fgbench --check-determinism W             W twice; exact counters must agree
//! fgbench --compare A.json B.json           two `--out` files, if comparable
//! fgbench --print-benchmark-json            what BENCHMARK.json must hold
//! ```
//! `--quick` switches any of these to the toy scale of the self-test.

mod env;
mod fpp;
mod inputs;
mod json;
mod layers;
mod outcome;
mod serve;
mod spans;
mod spec;
mod stats;
mod suite;

use std::process::ExitCode;

use env::Fingerprint;
use outcome::Outcome;
use spans::Recorder;
use spec::Scale;

/// Parsed command line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub quick: bool,
    pub noise: Option<usize>,
    pub vary_seed: bool,
    pub check_determinism: Option<String>,
    pub compare: Option<(String, String)>,
    pub out: Option<String>,
    pub print_benchmark_json: bool,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options { seed: 42, seconds: spec::RUN_SECONDS, ..Options::default() };
        let mut it = args.iter();
        let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |text: String, flag: &str| {
            text.parse::<u64>().map_err(|_| format!("{flag} needs a whole number, got {text:?}"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--workload" => options.workload = Some(value(&mut it, arg)?),
                "--seed" => options.seed = number(value(&mut it, arg)?, arg)?,
                "--seconds" => options.seconds = number(value(&mut it, arg)?, arg)?.max(1),
                "--trace" => options.traced = number(value(&mut it, arg)?, arg)? != 0,
                "--traced" => options.traced = true,
                "--quick" => options.quick = true,
                "--noise" => options.noise = Some(number(value(&mut it, arg)?, arg)? as usize),
                "--vary-seed" => options.vary_seed = true,
                "--check-determinism" => options.check_determinism = Some(value(&mut it, arg)?),
                "--compare" => {
                    options.compare = Some((value(&mut it, arg)?, value(&mut it, arg)?));
                }
                "--out" => options.out = Some(value(&mut it, arg)?),
                "--print-benchmark-json" => options.print_benchmark_json = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(name) = options.workload.as_deref().or(options.check_determinism.as_deref()) {
            if spec::workload(name).is_none() {
                let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!("unknown workload {name:?}; one of {}", names.join(", ")));
            }
        }
        Ok(options)
    }

    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::full().for_seconds(self.seconds)
        }
    }
}

/// Run one pass of one workload in this process.
pub fn run_workload(name: &str, scale: &Scale, seed: u64, traced: bool) -> (Outcome, Recorder) {
    let rec = Recorder::new(traced);
    let shape = fpp::FppShape::of(name, scale);
    let outcome = match (shape, traced) {
        (Some(shape), false) => fpp::run_untraced(shape, scale, seed),
        (Some(shape), true) => layers::run_traced_fpp(shape, scale, seed, &rec),
        (None, true) => layers::run_traced_serve(name == spec::SERVE_MUTATE, scale, seed, &rec),
        (None, false) if name == spec::SERVE_READ => serve::run_read_untraced(scale, seed),
        (None, false) => serve::run_mutate_untraced(scale, seed),
    };
    (outcome, rec)
}

/// Check that `outcome` reports every metric its pass owes, each finite,
/// and put them in the order of `BENCHMARK.json`.
pub fn missing_metrics(outcome: &mut Outcome, traced: bool) {
    let order = outcome::expected_names(traced);
    outcome.metrics.sort_by_key(|(name, _)| order.iter().position(|n| n == name));
    for name in order {
        match outcome.get(name) {
            Some(value) if value.is_finite() => {}
            Some(value) => outcome.broken(format!("metric {name} is not finite: {value}")),
            None => outcome.broken(format!("metric {name} was not measured")),
        }
    }
}

/// Where span files go: under the build directory, which `.gitignore`
/// names, inside the checkout the benchmark was started from.
fn span_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    std::path::Path::new(&target).join("fgbench").join(format!("{workload}.trace.json"))
}

fn run_contract(options: &Options, name: &str) -> ExitCode {
    let scale = options.scale();
    let (mut outcome, rec) = run_workload(name, &scale, options.seed, options.traced);
    missing_metrics(&mut outcome, options.traced);
    let fingerprint = Fingerprint::collect(options.seed, options.quick);
    outcome::print_block(name, options.traced, &fingerprint, &outcome);
    if options.traced {
        let path = span_path(name);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, rec.to_json(name).render_pretty()));
        match written {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), rec.spans().len()),
            Err(error) => println!("spans: could not write {}: {error}", path.display()),
        }
    }
    println!("{}", outcome::detail_line(name, options.traced, &fingerprint, &outcome));
    println!("{}", outcome::result_line(&outcome));
    if !outcome.correct() {
        eprintln!("fgbench: {name}: {} of {} operations failed", outcome.failed, outcome.attempted);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("fgbench: {error}");
            return ExitCode::from(2);
        }
    };
    if options.print_benchmark_json {
        print!("{}", spec::benchmark_json().render_pretty());
        return ExitCode::SUCCESS;
    }
    let ok = if let Some((a, b)) = &options.compare {
        suite::compare(a, b)
    } else if let Some(name) = &options.check_determinism {
        suite::check_determinism(&options, name)
    } else if let Some(passes) = options.noise {
        suite::noise(&options, passes)
    } else if let Some(name) = &options.workload {
        return run_contract(&options, name);
    } else {
        suite::run(&options)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
