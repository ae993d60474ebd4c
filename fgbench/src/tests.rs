//! Self-test at toy scale: every workload, both passes, in this process.
//! Run with `cargo test --manifest-path fgbench/Cargo.toml`; it finishes in
//! seconds in a debug build.

use crate::json::{self, Json};
use crate::spec::{self, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{missing_metrics, run_workload, Options};

/// `BENCHMARK.json` at the repository root is generated from `spec.rs`
/// (`fgbench --print-benchmark-json`); the two must not drift apart.
#[test]
fn benchmark_json_matches_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(on_disk, spec::benchmark_json(), "regenerate with --print-benchmark-json");
    let keys: Vec<&str> = on_disk.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    // The command names no file of the repository outside `paths`.
    for part in on_disk.get("command").and_then(Json::as_arr).unwrap() {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."), "{part}");
        if part.contains('/') {
            assert!(part.starts_with("fgbench/"), "{part} is outside the benchmark's directory");
        }
    }
}

/// All five workloads emit all six end-to-end metrics (untraced pass) and
/// every per-layer name in `BENCHMARK.json` (traced pass), each finite and
/// with a unit, with every answer checked and none wrong.
#[test]
fn quick_suite_reports_every_metric_on_every_workload() {
    let scale = Scale::quick();
    for workload in &WORKLOADS {
        for traced in [false, true] {
            let (mut outcome, rec) = run_workload(workload.name, &scale, 42, traced);
            missing_metrics(&mut outcome, traced);
            assert!(outcome.correct(), "{} traced={traced}: {:?}", workload.name, outcome.failures);
            assert!(outcome.attempted > 0, "{}: nothing was checked", workload.name);
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let reported: Vec<&str> = outcome.metrics.iter().map(|(name, _)| *name).collect();
            for name in &expected {
                assert!(reported.contains(name), "{}: {name} missing", workload.name);
                assert!(!crate::outcome::unit_of(name).is_empty(), "{name} has no unit");
            }
            assert_eq!(reported.len(), expected.len(), "{}: {reported:?}", workload.name);
            // The driver's line parses back to the same numbers.
            let line = json::parse(&crate::outcome::result_line(&outcome)).unwrap();
            for (name, value) in &outcome.metrics {
                let metric = line.get("metrics").unwrap().get(name).unwrap();
                assert_eq!(metric.get("value").unwrap().as_f64(), Some(*value), "{name}");
            }
            if traced {
                let names: Vec<&str> = rec.spans().iter().map(|span| span.name).collect();
                for required in ["setup", "graph.gen", "graph.partition", "graph.build", "ladder"] {
                    assert!(names.contains(&required), "{}: no {required} span", workload.name);
                }
            } else {
                assert!(rec.spans().is_empty(), "the untraced pass records no spans");
            }
        }
    }
}

/// The exact counters of a pass are a function of the seed.
#[test]
fn exact_counters_repeat_at_one_seed_and_move_with_it() {
    let scale = Scale::quick();
    let digest = |seed| run_workload(spec::FPP_SOCIAL, &scale, seed, false).0.counters_digest();
    assert_eq!(digest(7), digest(7));
    assert_ne!(digest(7), digest(8));
}

#[test]
fn command_line_parses_the_driver_form() {
    let args: Vec<String> = "--workload serve-read --seed 7 --seconds 9 --trace 1"
        .split(' ')
        .map(str::to_string)
        .collect();
    let options = Options::parse(&args).unwrap();
    assert_eq!(options.workload.as_deref(), Some("serve-read"));
    assert_eq!((options.seed, options.seconds, options.traced), (7, 9, true));
    assert!(Options::parse(&["--workload".to_string(), "nope".to_string()]).is_err());
    assert!(Options::parse(&["--frobnicate".to_string()]).is_err());
}
