//! Metric families: each operational figure named once, rendered twice.
//!
//! A snapshot that reaches `/metrics` lists its fields as [`Family`] values,
//! one per field in field order. [`expose`] writes that list in the
//! Prometheus text format (`# HELP` / `# TYPE` headers, one `name value`
//! sample line per family), and [`table`] turns the same list into a
//! [`Table`] for the human summary, so a figure's name and help text live in
//! one place.

use std::fmt::Write as _;

use crate::report::Table;

/// One named figure: a Prometheus metric family with a single sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Family {
    /// Exposition name (`fg_<subsystem>_<figure>`, `_total` for counters).
    pub name: &'static str,
    /// `"counter"` or `"gauge"`, as written on the `# TYPE` line.
    pub kind: &'static str,
    /// One-line description, as written on the `# HELP` line.
    pub help: &'static str,
    /// The sample value.
    pub value: f64,
}

impl Family {
    /// A monotone count.
    pub fn counter(name: &'static str, help: &'static str, value: u64) -> Self {
        Family { name, kind: "counter", help, value: value as f64 }
    }

    /// A level that can go down.
    pub fn gauge(name: &'static str, help: &'static str, value: f64) -> Self {
        Family { name, kind: "gauge", help, value }
    }

    /// The sample value as written: integral values without a fraction.
    fn sample(&self) -> String {
        if self.value.fract() == 0.0 && self.value.abs() < 1e15 {
            (self.value as i64).to_string()
        } else {
            self.value.to_string()
        }
    }
}

/// Append the HELP, TYPE and sample lines of every family to `out`.
pub fn expose(out: &mut String, families: &[Family]) {
    for family in families {
        let name = family.name;
        let _ = writeln!(out, "# HELP {name} {}", family.help);
        let _ = writeln!(out, "# TYPE {name} {}", family.kind);
        let _ = writeln!(out, "{name} {}", family.sample());
    }
}

/// The families as a table of name, sample value and help text.
pub fn table(title: &str, families: &[Family]) -> Table {
    let mut table = Table::new(title, &["family", "value", "help"]);
    for family in families {
        table.push_row([family.name.to_string(), family.sample(), family.help.to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PoolSnapshot, ServiceSnapshot};

    #[test]
    fn exposition_has_help_type_and_sample_per_family() {
        let service = ServiceSnapshot { submitted: 10, cache_hits: 3, ..Default::default() };
        let pool = PoolSnapshot { dispatches: 9, ..Default::default() };
        let mut text = String::new();
        expose(&mut text, &service.families());
        expose(&mut text, &pool.families());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3 * (23 + 6), "{text}");
        for header in lines.chunks(3) {
            let name = header[2].split(' ').next().unwrap();
            assert!(header[0].starts_with(&format!("# HELP {name} ")), "{text}");
            assert!(
                header[1] == format!("# TYPE {name} counter")
                    || header[1] == format!("# TYPE {name} gauge"),
                "{text}"
            );
            assert_eq!(header[2].split(' ').count(), 2, "{text}");
        }
        assert!(text.contains("\nfg_service_submitted_total 10\n"), "{text}");
        assert!(text.contains("\nfg_service_cache_hits_total 3\n"), "{text}");
        assert!(text.contains("\nfg_pool_dispatches_total 9\n"), "{text}");
    }

    #[test]
    fn zero_snapshots_render_without_nan() {
        let mut text = String::new();
        expose(&mut text, &ServiceSnapshot::default().families());
        expose(&mut text, &PoolSnapshot::default().families());
        assert!(!text.contains("NaN"), "{text}");
        assert!(text.contains("\nfg_service_latency_p99_seconds 0\n"), "{text}");
        assert!(text.contains("\nfg_pool_mailboxes_reused_total 0\n"), "{text}");
    }
}
