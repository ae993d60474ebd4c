//! What the benchmark reads from the machine it runs on: the environment
//! fingerprint stamped on every output, peak resident memory, and the
//! calling thread's on-CPU time.

use std::process::Command;

use crate::json::Json;

/// Everything that makes two timed outputs comparable or not. `git_commit`
/// is recorded but never compared: parent and change differ there by
/// design.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    /// `L1d=96K L2=4096K L3=266240K`, from sysfs.
    pub caches: String,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    pub quick: bool,
}

impl Fingerprint {
    pub fn collect(seed: u64, quick: bool) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cpu_model: cpu_model(),
            caches: cache_sizes(),
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            seed,
            quick,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("caches", Json::str(&self.caches)),
            ("rustc", Json::str(&self.rustc)),
            ("git_commit", Json::str(&self.git_commit)),
            ("seed", Json::Num(self.seed as f64)),
            ("quick", Json::Bool(self.quick)),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Fingerprint> {
        let text = |key: &str| json.get(key)?.as_str().map(str::to_string);
        Some(Fingerprint {
            nproc: json.get("nproc")?.as_f64()? as usize,
            cpu_model: text("cpu_model")?,
            caches: text("caches")?,
            rustc: text("rustc")?,
            git_commit: text("git_commit")?,
            seed: json.get("seed")?.as_f64()? as u64,
            quick: json.get("quick")?.as_bool()?,
        })
    }

    /// The fields on which `self` and `other` disagree, among those that
    /// decide whether their timed metrics may be set side by side.
    pub fn differences(&self, other: &Fingerprint) -> Vec<String> {
        let mut diffs = Vec::new();
        let mut check = |field: &str, a: String, b: String| {
            if a != b {
                diffs.push(format!("{field}: {a:?} vs {b:?}"));
            }
        };
        check("nproc", self.nproc.to_string(), other.nproc.to_string());
        check("cpu_model", self.cpu_model.clone(), other.cpu_model.clone());
        check("caches", self.caches.clone(), other.caches.clone());
        check("rustc", self.rustc.clone(), other.rustc.clone());
        check("seed", self.seed.to_string(), other.seed.to_string());
        check("quick", self.quick.to_string(), other.quick.to_string());
        diffs
    }

    pub fn one_line(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" caches=\"{}\" rustc=\"{}\" commit={} seed={}{}",
            self.nproc,
            self.cpu_model,
            self.caches,
            self.rustc,
            self.git_commit,
            self.seed,
            if self.quick { " quick" } else { "" }
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| {
            std::fs::read_to_string(format!("{dir}/{file}")).map(|s| s.trim().to_string())
        };
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        parts.push(format!("L{level}{suffix}={size}"));
    }
    if parts.is_empty() {
        "unknown".to_string()
    } else {
        parts.join(" ")
    }
}

/// First line of `program args…`'s output, or `unknown` when the program is
/// missing or fails (a checkout that is not a git repository, say).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU (first field of
/// `/proc/thread-self/schedstat`), or `None` where the kernel does not
/// expose it.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_and_compares() {
        let a = Fingerprint::collect(42, true);
        assert!(a.nproc >= 1);
        let back = Fingerprint::from_json(&crate::json::parse(&a.to_json().render()).unwrap());
        assert_eq!(back.as_ref(), Some(&a));
        let mut b = a.clone();
        b.git_commit = "another".to_string();
        assert!(a.differences(&b).is_empty(), "commits may differ between comparable runs");
        b.seed = 7;
        b.nproc += 1;
        assert_eq!(a.differences(&b).len(), 2);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        let before = thread_cpu_ns().expect("schedstat on Linux");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns().unwrap() >= before);
    }
}
