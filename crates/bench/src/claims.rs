//! The claim ledger: each experiment states the paper's comparison as a
//! [`Claim`] on exact counts, and every claim is one row of one [`Table`].
//!
//! That table has two renderings. README carries its Markdown between
//! [`BEGIN`] and [`END`], and `repro all` checks the run against it: it
//! prints the rows on which the two differ and fails. A deliberate verdict
//! change therefore updates README in the same commit.
//!
//! A claim reads only quantities that repeat bit for bit across runs and
//! processes: the engine's `WorkSnapshot` from one-worker runs, `fg-cachesim`
//! counts from single-threaded runs, `fg_seq` edge counts and
//! `PartitionPlan::edge_cut`. It never reads wall time.

use std::fmt;

use fg_metrics::Table;

/// The fewest partitions of [`crate::runner::repro_llc`] a claim input may
/// have. The paper's mechanism is the order in which LLC-sized partitions
/// are loaded; on an input of a few partitions every system keeps nearly the
/// whole graph in cache, and no comparison can show it.
pub const MIN_PARTITIONS: usize = 8;

/// The line that opens README's claim section.
pub const BEGIN: &str = "<!-- repro-claims:begin -->";
/// The line that closes README's claim section.
pub const END: &str = "<!-- repro-claims:end -->";

/// The README the claim table is checked against, as of this build.
pub const README: &str = include_str!("../../../README.md");

/// What a run says about a claim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The comparison holds.
    Reproduced,
    /// The comparison fails. The row stays in the table.
    NotReproduced,
    /// The comparison was not made, for the reason given.
    NotChecked(String),
}

impl Verdict {
    /// The verdict of a comparison that needs no partitioned input.
    pub fn of(holds: bool) -> Self {
        if holds {
            Verdict::Reproduced
        } else {
            Verdict::NotReproduced
        }
    }

    /// The verdict of a comparison on an input cut into `partitions`
    /// partitions: `not checked` below [`MIN_PARTITIONS`], whatever the
    /// comparison says.
    pub fn on_partitions(partitions: usize, holds: bool) -> Self {
        if partitions < MIN_PARTITIONS {
            Verdict::NotChecked(format!("{partitions} partitions"))
        } else {
            Verdict::of(holds)
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Reproduced => f.write_str("reproduced"),
            Verdict::NotReproduced => f.write_str("not reproduced"),
            Verdict::NotChecked(reason) => write!(f, "not checked ({reason})"),
        }
    }
}

/// One comparison of the paper, checked on exact counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Claim {
    /// Unique id; it starts with the name of the experiment that checks it.
    pub id: String,
    /// Where the paper makes the claim, e.g. `"Fig. 8"`.
    pub reference: &'static str,
    /// The claim, with the input it is checked on.
    pub statement: String,
    /// The exact numbers the verdict is read from.
    pub evidence: String,
    /// What the numbers say.
    pub verdict: Verdict,
}

/// What one experiment returns: its tables and its claims.
#[derive(Clone, Debug)]
pub struct Report {
    /// Tables of the exact counts the claims read.
    pub tables: Vec<Table>,
    /// One claim per comparison.
    pub claims: Vec<Claim>,
}

/// The claim table: one row per claim.
pub fn claim_table(claims: &[Claim]) -> Table {
    let mut table = Table::new(
        "Claims checked by `repro all`",
        &["claim", "paper", "statement", "evidence", "verdict"],
    );
    for c in claims {
        table.push_row([
            c.id.clone(),
            c.reference.to_string(),
            c.statement.clone(),
            c.evidence.clone(),
            c.verdict.to_string(),
        ]);
    }
    table
}

/// The data rows of a rendered table: its lines after the header and the
/// separator.
pub fn data_rows(markdown: &str) -> impl Iterator<Item = &str> {
    markdown.lines().filter(|line| line.starts_with('|')).skip(2)
}

/// README's claim section: the lines between [`BEGIN`] and [`END`].
pub fn readme_section(readme: &str) -> Option<&str> {
    let start = readme.find(BEGIN)? + BEGIN.len();
    let len = readme[start..].find(END)?;
    Some(readme[start..start + len].trim())
}

/// The lines on which README's claim section and a rendered claim table
/// differ: `- ` marks a README line the run did not print, `+ ` a printed
/// line README lacks. Empty when the two are equal.
pub fn diff(section: &str, printed: &str) -> Vec<String> {
    let old: Vec<&str> = section.trim().lines().collect();
    let new: Vec<&str> = printed.trim().lines().collect();
    let mut out: Vec<String> =
        old.iter().filter(|line| !new.contains(line)).map(|line| format!("- {line}")).collect();
    out.extend(new.iter().filter(|line| !old.contains(line)).map(|line| format!("+ {line}")));
    if out.is_empty() && old != new {
        out.push("the same lines in a different order".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(verdict: Verdict) -> Claim {
        Claim {
            id: "figure15-demo".to_string(),
            reference: "Fig. 15",
            statement: "visits per query fall as |Q| grows".to_string(),
            evidence: "4 → 2".to_string(),
            verdict,
        }
    }

    #[test]
    fn an_unmet_partition_precondition_is_not_checked() {
        for holds in [true, false] {
            assert_eq!(
                Verdict::on_partitions(MIN_PARTITIONS - 1, holds),
                Verdict::NotChecked(format!("{} partitions", MIN_PARTITIONS - 1))
            );
        }
        assert_eq!(
            Verdict::on_partitions(MIN_PARTITIONS - 1, true).to_string(),
            "not checked (7 partitions)"
        );
    }

    #[test]
    fn a_failed_comparison_is_not_reproduced() {
        assert_eq!(Verdict::on_partitions(MIN_PARTITIONS, false), Verdict::NotReproduced);
        assert_eq!(Verdict::of(false).to_string(), "not reproduced");
        assert_eq!(Verdict::on_partitions(MIN_PARTITIONS, true), Verdict::Reproduced);
        assert_eq!(Verdict::of(true).to_string(), "reproduced");
    }

    #[test]
    fn a_claim_renders_as_one_row_with_its_pipes_escaped() {
        let md = claim_table(&[claim(Verdict::Reproduced)]).to_markdown();
        let rows: Vec<&str> = data_rows(&md).collect();
        assert_eq!(
            rows,
            ["| figure15-demo | Fig. 15 | visits per query fall as \\|Q\\| grows | 4 → 2 | reproduced |"]
        );
    }

    #[test]
    fn diff_names_the_rows_that_differ() {
        let readme = claim_table(&[claim(Verdict::Reproduced)]).to_markdown();
        let run = claim_table(&[claim(Verdict::NotReproduced)]).to_markdown();
        assert!(diff(&readme, &readme).is_empty());
        let changed = diff(&readme, &run);
        assert_eq!(changed.len(), 2, "{changed:?}");
        assert!(changed[0].starts_with("- ") && changed[0].ends_with("| reproduced |"));
        assert!(changed[1].starts_with("+ ") && changed[1].ends_with("| not reproduced |"));
    }

    #[test]
    fn the_readme_section_is_found_between_its_markers() {
        let text = format!("intro\n{BEGIN}\n\n| a |\n\n{END}\noutro");
        assert_eq!(readme_section(&text), Some("| a |"));
        assert_eq!(readme_section("no markers"), None);
    }

    #[test]
    fn readme_checks_every_claim_on_a_partitioned_input() {
        let section = readme_section(README).expect("README has a claim section");
        let rows: Vec<&str> = data_rows(section).collect();
        assert!(!rows.is_empty());
        for row in rows {
            assert!(!row.contains("| not checked ("), "{row}");
        }
    }
}
