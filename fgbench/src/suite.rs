//! The modes that run more than one pass: the whole suite, the noise floor,
//! the determinism check and the comparison of two saved outputs. Every
//! workload pass runs in a child process of its own, so that no workload's
//! heap, threads or peak memory leak into the next one's numbers.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::env::Fingerprint;
use crate::json::{self, Json};
use crate::outcome::{metrics_json, unit_of, DETAIL_PREFIX};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::quartiles;
use crate::Options;

/// What the parent keeps of one child pass.
#[derive(Clone, Debug)]
pub struct ChildPass {
    pub workload: String,
    pub traced: bool,
    pub ok: bool,
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Option<Fingerprint>,
    pub digest: String,
    pub exact: BTreeMap<String, String>,
    pub seconds: f64,
}

/// Run one pass of `workload` in a child process. The child's own report is
/// echoed when `echo` is set.
pub fn spawn_pass(
    options: &Options,
    workload: &str,
    seed: u64,
    traced: bool,
    echo: bool,
) -> ChildPass {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    let start = std::time::Instant::now();
    let output = command.output().expect("start a child pass");
    let seconds = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut pass = ChildPass {
        workload: workload.to_string(),
        traced,
        ok: output.status.success(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        fingerprint: None,
        digest: String::new(),
        exact: BTreeMap::new(),
        seconds,
    };
    for line in stdout.lines() {
        if let Some(detail) = line.strip_prefix(DETAIL_PREFIX) {
            if let Ok(detail) = json::parse(detail) {
                pass.fingerprint = detail.get("fingerprint").and_then(Fingerprint::from_json);
                pass.digest = detail
                    .get("counters_digest")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                for (name, value) in detail.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
                    pass.exact.insert(name.clone(), value.as_str().unwrap_or_default().to_string());
                }
            }
        } else if line.starts_with('{') {
            if let Ok(result) = json::parse(line) {
                pass.attempted =
                    result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                pass.failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                for (name, metric) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                    if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                        pass.metrics.push((name.clone(), value));
                    }
                }
            }
        } else if echo {
            println!("{line}");
        }
    }
    if pass.metrics.is_empty() {
        pass.ok = false;
    }
    pass
}

fn metric(pass: &ChildPass, name: &str) -> Option<f64> {
    pass.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// One table: a row per metric, a column per workload.
fn print_table(title: &str, names: &[&'static str], passes: &[&ChildPass]) {
    println!("\n{title}");
    print!("{:<38} {:<13}", "metric", "unit");
    for pass in passes {
        print!(" {:>20}", pass.workload);
    }
    println!();
    for name in names {
        print!("{name:<38} {:<13}", unit_of(name));
        for pass in passes {
            match metric(pass, name) {
                Some(value) => print!(" {value:>20.6}"),
                None => print!(" {:>20}", "-"),
            }
        }
        println!();
    }
}

/// The ladder of a workload, top to bottom, each row with its ratio to the
/// row above: from a sequential kernel call up to a request over the wire.
fn print_ladder(pass: &ChildPass) {
    let get = |name: &str| metric(pass, name).unwrap_or(f64::NAN);
    let seq = get("seq.ns_per_edge");
    let p1 = seq * get("core.engine.p1_vs_seq");
    let batch = p1 * get("core.engine.batch_vs_p1");
    let erased = batch * get("core.dyn.vs_direct");
    let inproc = batch * get("service.inproc_vs_engine");
    let wire = inproc * get("server.wire_vs_inproc");
    let rows = [
        ("fg-seq kernel loop", seq, f64::NAN),
        ("engine, whole graph as one partition", p1, p1 / seq),
        ("engine, default partitions (batch)", batch, batch / p1),
        (
            "  … yield policy None",
            batch * get("core.yield.none_vs_default"),
            get("core.yield.none_vs_default"),
        ),
        (
            "  … FIFO scheduling",
            batch * get("core.sched.fifo_vs_priority"),
            get("core.sched.fifo_vs_priority"),
        ),
        (
            "  … compressed storage",
            batch * get("graph.compressed_vs_raw"),
            get("graph.compressed_vs_raw"),
        ),
        (
            "  … 2-worker pool executor",
            batch * get("core.executor.pool2_vs_serial"),
            get("core.executor.pool2_vs_serial"),
        ),
        ("engine, erased dispatch (run_dyn)", erased, erased / batch),
        ("service in-process (cache off)", inproc, inproc / batch),
        ("server over loopback (cache off)", wire, wire / inproc),
    ];
    println!("\nladder: {} (ns per fg-seq edge of the same queries; ratio to the row above, or for '…' rows to the default batch)", pass.workload);
    for (label, ns, ratio) in rows {
        if ratio.is_nan() {
            println!("  {label:<42} {ns:>12.2} ns/edge");
        } else {
            println!("  {label:<42} {ns:>12.2} ns/edge  x{ratio:.3}");
        }
    }
    println!(
        "  one query alone: x{:.3} of one fg-seq call; a query inside the batch costs x{:.3} of one alone",
        get("core.engine.single_vs_seq"),
        get("core.engine.batch_slowdown")
    );
}

/// The suite's saved form (`--out`), which `--compare` reads back.
fn suite_json(fingerprint: &Fingerprint, passes: &[ChildPass]) -> Json {
    Json::obj([
        ("fingerprint", fingerprint.to_json()),
        (
            "passes",
            Json::Arr(
                passes
                    .iter()
                    .map(|pass| {
                        Json::obj([
                            ("workload", Json::str(&pass.workload)),
                            ("traced", Json::Bool(pass.traced)),
                            ("counters_digest", Json::str(&pass.digest)),
                            ("attempted", Json::Num(pass.attempted as f64)),
                            ("failed", Json::Num(pass.failed as f64)),
                            (
                                "metrics",
                                metrics_json(pass.metrics.iter().map(|(n, v)| (n.as_str(), *v))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `fgbench` / `fgbench --traced`: every workload, each in its own child.
pub fn run(options: &Options) -> bool {
    let start = std::time::Instant::now();
    let fingerprint = Fingerprint::collect(options.seed, options.quick);
    println!("fgbench: {}", fingerprint.one_line());
    let mut passes = Vec::new();
    for workload in &WORKLOADS {
        passes.push(spawn_pass(options, workload.name, options.seed, false, true));
        if options.traced {
            passes.push(spawn_pass(options, workload.name, options.seed, true, true));
        }
    }
    let untraced: Vec<&ChildPass> = passes.iter().filter(|p| !p.traced).collect();
    let names: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
    print_table(
        "end-to-end (untraced pass; medians over the sample counts printed above)",
        &names,
        &untraced,
    );
    if options.traced {
        let traced: Vec<&ChildPass> = passes.iter().filter(|p| p.traced).collect();
        let names: Vec<&'static str> = PER_LAYER.iter().map(|m| m.name).collect();
        print_table("per-layer (traced pass)", &names, &traced);
        for pass in &traced {
            print_ladder(pass);
        }
    }
    println!();
    let mut ok = true;
    for pass in &passes {
        println!(
            "{:<22} {:<9} attempted {:>6} succeeded {:>6} failed {:>3}  digest {}  {:>5.1}s{}",
            pass.workload,
            if pass.traced { "traced" } else { "untraced" },
            pass.attempted,
            pass.attempted.saturating_sub(pass.failed),
            pass.failed,
            pass.digest,
            pass.seconds,
            if pass.ok { "" } else { "  FAILED" }
        );
        ok &= pass.ok && pass.failed == 0;
    }
    println!("total {:.1}s", start.elapsed().as_secs_f64());
    if let Some(path) = &options.out {
        match std::fs::write(path, suite_json(&fingerprint, &passes).render_pretty()) {
            Ok(()) => println!("saved {path}"),
            Err(error) => {
                eprintln!("fgbench: cannot write {path}: {error}");
                ok = false;
            }
        }
    }
    ok
}

/// `fgbench --noise N`: the untraced suite N times; per workload and
/// end-to-end metric the median, quartiles and spreads, against the bound.
/// With `--vary-seed`, pass `i` uses seed `seed + i` — the acceptance check
/// the bounds are held to draws another seed for each of its runs.
pub fn noise(options: &Options, passes: usize) -> bool {
    let passes = passes.max(5);
    let fingerprint = Fingerprint::collect(options.seed, options.quick);
    println!("fgbench --noise {passes}: {}", fingerprint.one_line());
    println!(
        "seeds: {}",
        if options.vary_seed { "a different seed each pass" } else { "the same seed every pass" }
    );
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut ok = true;
    for pass in 0..passes {
        let seed = if options.vary_seed { options.seed + pass as u64 } else { options.seed };
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let child = spawn_pass(options, workload.name, seed, false, false);
            if !child.ok || child.failed > 0 {
                println!("pass {pass} {}: FAILED", workload.name);
                ok = false;
                continue;
            }
            for (m, spec) in END_TO_END.iter().enumerate() {
                if let Some(value) = metric(&child, spec.name) {
                    values.entry((w, m)).or_default().push(value);
                }
            }
            digests.entry(w).or_default().push(child.digest);
        }
        println!("pass {} of {passes} done", pass + 1);
    }
    println!(
        "\n| workload | metric | unit | n | median | q1 | q3 | iqr/median | (max-min)/median | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for ((w, m), samples) in &values {
        let spec = &END_TO_END[*m];
        let (q1, med, q3) = quartiles(samples);
        let (min, max) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let iqr = (q3 - q1) / med;
        // `setup_s` is exempt from the spread rule (only its median is held
        // to the bound); every other metric's spread must fit its bound, and
        // should stay below a third of it.
        let verdict = if spec.name == "setup_s" {
            "exempt"
        } else if iqr <= spec.bound / 3.0 {
            "steady"
        } else if iqr <= spec.bound {
            "inside"
        } else {
            ok = false;
            "OUTSIDE"
        };
        println!(
            "| {} | {} | {} | {} | {:.5} | {:.5} | {:.5} | {:.4} | {:.4} | {:.2} | {} |",
            WORKLOADS[*w].name,
            spec.name,
            spec.unit,
            samples.len(),
            med,
            q1,
            q3,
            iqr,
            (max - min) / med,
            spec.bound,
            verdict
        );
    }
    if !options.vary_seed {
        for (w, seen) in &digests {
            let same = seen.windows(2).all(|pair| pair[0] == pair[1]);
            println!(
                "counters_digest {}: {}",
                WORKLOADS[*w].name,
                if same {
                    format!("identical in all passes ({})", seen[0])
                } else {
                    format!("DIFFERS: {seen:?}")
                }
            );
            ok &= same;
        }
    }
    ok
}

/// `fgbench --check-determinism W`: the traced pass of `W` in two
/// processes; every exact counter must agree.
pub fn check_determinism(options: &Options, workload: &str) -> bool {
    let a = spawn_pass(options, workload, options.seed, true, false);
    let b = spawn_pass(options, workload, options.seed, true, false);
    if !a.ok || !b.ok {
        println!("{workload}: a pass failed; nothing to compare");
        return false;
    }
    let mut same = true;
    let names: std::collections::BTreeSet<&String> = a.exact.keys().chain(b.exact.keys()).collect();
    for name in names {
        let (left, right) = (a.exact.get(name), b.exact.get(name));
        if left != right {
            same = false;
            println!("DIFFERS {name}: {left:?} vs {right:?}");
        }
    }
    println!(
        "{workload}: {} exact counters, digests {} and {}: {}",
        a.exact.len(),
        a.digest,
        b.digest,
        if same { "identical across two processes" } else { "NOT deterministic" }
    );
    same && a.digest == b.digest
}

fn load_suite(path: &str) -> Result<(Fingerprint, Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let fingerprint = json
        .get("fingerprint")
        .and_then(Fingerprint::from_json)
        .ok_or_else(|| format!("{path}: no fingerprint"))?;
    Ok((fingerprint, json))
}

/// `fgbench --compare A B`: A is the parent's `--out`, B the change's.
/// Refuses when the fingerprints differ on anything but the commit: timed
/// numbers from another machine, toolchain, seed or scale are not evidence.
pub fn compare(a: &str, b: &str) -> bool {
    let (loaded_a, loaded_b) = match (load_suite(a), load_suite(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("fgbench: {error}");
            return false;
        }
    };
    let differences = loaded_a.0.differences(&loaded_b.0);
    if !differences.is_empty() {
        println!("NOT COMPARABLE: the two outputs were taken in different environments");
        for difference in differences {
            println!("  {difference}");
        }
        return false;
    }
    println!("comparable: {}", loaded_a.0.one_line());
    println!("commits: {} -> {}", loaded_a.0.git_commit, loaded_b.0.git_commit);
    let index = |suite: &Json| {
        let mut map: BTreeMap<(String, String), f64> = BTreeMap::new();
        for pass in suite.get("passes").and_then(Json::as_arr).unwrap_or(&[]) {
            let workload = pass.get("workload").and_then(Json::as_str).unwrap_or_default();
            for (name, metric) in pass.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    map.insert((workload.to_string(), name.clone()), value);
                }
            }
        }
        map
    };
    let (before, after) = (index(&loaded_a.1), index(&loaded_b.1));
    let mut ok = true;
    println!("\n| workload | metric | parent | change | change/parent | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for ((workload, name), parent) in &before {
        let Some(change) = after.get(&(workload.clone(), name.clone())) else { continue };
        let ratio = change / parent;
        let bounded = END_TO_END.iter().find(|m| m.name == name);
        let verdict = match bounded {
            Some(spec) => {
                let worse = match spec.better {
                    Better::Lower => ratio - 1.0,
                    Better::Higher => 1.0 - ratio,
                };
                if worse > spec.bound {
                    ok = false;
                    "REGRESSION (one run each; confirm with --noise)"
                } else {
                    "within bound"
                }
            }
            None => "",
        };
        println!(
            "| {workload} | {name} | {parent:.6} | {change:.6} | {ratio:.4} | {} | {verdict} |",
            bounded.map_or(String::new(), |spec| format!("{:.2}", spec.bound)),
        );
    }
    ok
}
