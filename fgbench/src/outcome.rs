//! What one workload run hands back, and how it is printed: a block of
//! named metrics with units for people, and as the last line the one JSON
//! object the driver reads.

use crate::env::Fingerprint;
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::typical_percentile;

#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metric name → value; names are those of [`END_TO_END`] (untraced
    /// pass) or [`PER_LAYER`] (traced pass).
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations whose answer was checked against the oracle.
    pub attempted: u64,
    /// Of those, the ones that were wrong, refused or never served.
    pub failed: u64,
    /// Counts that must repeat bit-for-bit at one seed, rendered as text.
    pub exact: Vec<(String, String)>,
    /// Sample count behind each timed metric.
    pub samples: Vec<(&'static str, usize)>,
    /// What went wrong, one line per failure class.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn exact(&mut self, name: impl Into<String>, value: impl ToString) {
        self.exact.push((name.into(), value.to_string()));
    }

    pub fn samples(&mut self, name: &'static str, count: usize) {
        self.samples.push((name, count));
    }

    /// Record `count` checked operations of which `bad` failed.
    pub fn checked(&mut self, count: u64, bad: u64, what: &str) {
        self.attempted += count;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{bad} of {count} {what}"));
        }
    }

    /// A broken invariant of the run itself (a counter that did not repeat,
    /// a metric that could not be measured): counts as one failed operation
    /// so the run exits non-zero.
    pub fn broken(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what);
    }

    /// `latency_p50_ms` and `latency_p90_ms` from the latency samples of a
    /// run, one list per stretch; a run without samples is broken.
    pub fn push_latencies(&mut self, per_stretch_ms: &[Vec<f64>]) {
        let samples = per_stretch_ms.iter().map(Vec::len).sum();
        if samples == 0 {
            self.broken("no latency sample was taken".to_string());
        }
        for (name, p) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
            self.push(name, typical_percentile(per_stretch_ms, p).unwrap_or(f64::NAN));
            self.samples(name, samples);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// FNV-1a over the exact counters, as 16 hex digits. Two processes at
    /// one seed must print the same digest.
    pub fn counters_digest(&self) -> String {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (name, value) in &self.exact {
            for byte in name.bytes().chain([b'=']).chain(value.bytes()).chain([b'\n']) {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{hash:016x}")
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The names the pass must report, in spec order.
pub fn expected_names(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// `{name: {"value": …, "unit": …}}`, the shape the driver reads metrics in.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, f64)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value)| {
                let metric =
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit_of(name)))]);
                (name.to_string(), metric)
            })
            .collect(),
    )
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome.metrics.iter().map(|&(name, value)| (name, value)))),
    ])
    .render()
}

/// Marks the line that carries what the driver's line has no room for.
pub const DETAIL_PREFIX: &str = "fgbench-detail: ";

pub fn detail_line(workload: &str, traced: bool, fp: &Fingerprint, outcome: &Outcome) -> String {
    let detail = Json::obj([
        ("workload", Json::str(workload)),
        ("traced", Json::Bool(traced)),
        ("fingerprint", fp.to_json()),
        ("counters_digest", Json::str(outcome.counters_digest())),
        (
            "exact",
            Json::Obj(outcome.exact.iter().map(|(k, v)| (k.clone(), Json::str(v))).collect()),
        ),
        (
            "samples",
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ),
        ("failures", Json::Arr(outcome.failures.iter().map(Json::str).collect())),
    ]);
    format!("{DETAIL_PREFIX}{}", detail.render())
}

/// The block people read: every metric by name with its unit and the number
/// of samples behind it.
pub fn print_block(workload: &str, traced: bool, fp: &Fingerprint, outcome: &Outcome) {
    println!(
        "== {workload} ({} pass) ==",
        if traced { "traced, per-layer" } else { "untraced, end-to-end" }
    );
    println!("fingerprint: {}", fp.one_line());
    for (name, value) in &outcome.metrics {
        let samples = outcome
            .samples
            .iter()
            .find(|(n, _)| n == name)
            .map_or(String::new(), |(_, n)| format!("  (n={n})"));
        println!("  {name:<38} {value:>16.6} {}{samples}", unit_of(name));
    }
    println!(
        "operations: attempted {} succeeded {} failed {}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    println!("counters_digest: {}", outcome.counters_digest());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.push("batch_s", 1.2034567);
        outcome.push("setup_s", 0.0351);
        outcome.checked(10, 0, "answers");
        let json = crate::json::parse(&result_line(&outcome)).unwrap();
        let keys: Vec<&str> = json.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let batch = json.get("metrics").unwrap().get("batch_s").unwrap();
        assert_eq!(batch.get("value").unwrap().as_f64(), Some(1.2034567));
        assert_eq!(batch.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn digest_follows_the_exact_counters() {
        let mut a = Outcome::default();
        a.exact("core.engine.edges", 5_079_569u64);
        let mut b = a.clone();
        assert_eq!(a.counters_digest(), b.counters_digest());
        b.exact("core.engine.yields", 142u64);
        assert_ne!(a.counters_digest(), b.counters_digest());
        a.broken("counter moved".to_string());
        assert!(!a.correct());
    }
}
