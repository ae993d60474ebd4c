//! Heuristic-based yielding (Section 5.1 of the paper).
//!
//! Yielding early-terminates a query's intra-partition processing to avoid
//! redundant work: operations left unprocessed stay in the partition's buffer
//! and are resumed on a later visit, possibly after better operations arrive
//! from neighbouring partitions. The paper offers two heuristics:
//!
//! 1. **Edge count** — yield once the query has processed more than a budget
//!    of edges in the current partition visit. The work-efficiency proof
//!    (Appendix A) suggests `|E_P| / |Q|` as the budget.
//! 2. **Value range** — yield once the current operation's priority exceeds
//!    the visit's first priority by more than Δ (Δ-stepping-inspired).
//!
//! The engine keeps the first, as [`YieldPolicy::EdgeBudgetAuto`]: a visit
//! computes its budget once, and a lane whose edge count has passed it
//! yields with what it still holds. The value range went, and so did a fixed
//! edge budget, because no caller set them: no workload, claim, example or
//! benchmark row.

/// When to early-terminate a query inside a partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum YieldPolicy {
    /// Never yield: drain the query's operations in the partition completely
    /// (every Figure 11 ablation level below "+yielding").
    None,
    /// Heuristic 1 with the analytical budget `factor · |E_P| / |Q|`
    /// (Appendix A); `factor = 1.0` is the proof's bound, the paper uses
    /// larger factors (up to 100×) for large query counts.
    EdgeBudgetAuto {
        /// Multiplier applied to `|E_P| / |Q|`.
        factor: f64,
    },
}

impl Default for YieldPolicy {
    fn default() -> Self {
        YieldPolicy::EdgeBudgetAuto { factor: 2.0 }
    }
}

impl YieldPolicy {
    /// Edges a query's lane may process in one visit to a partition with
    /// `partition_edges` edges while `num_queries` queries run; once it has
    /// processed more than this, the lane yields instead of its next pop.
    /// `ceil(factor · |E_P| / |Q|)`, at least 1; `u64::MAX` (never) for
    /// [`YieldPolicy::None`].
    pub(crate) fn edge_budget(&self, partition_edges: u64, num_queries: usize) -> u64 {
        match *self {
            YieldPolicy::None => u64::MAX,
            YieldPolicy::EdgeBudgetAuto { factor } => {
                let mu = partition_edges as f64 / num_queries.max(1) as f64;
                (factor * mu).ceil().max(1.0) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_yielding_never_yields() {
        assert_eq!(YieldPolicy::None.edge_budget(100, 4), u64::MAX);
    }

    #[test]
    fn auto_budget_uses_partition_edges_over_queries() {
        // |E_P| = 100, |Q| = 10: factor 1.0 → 10 edges, factor 2.0 → 20.
        assert_eq!(YieldPolicy::EdgeBudgetAuto { factor: 1.0 }.edge_budget(100, 10), 10);
        assert_eq!(YieldPolicy::EdgeBudgetAuto { factor: 2.0 }.edge_budget(100, 10), 20);
        // Rounded up, and never below one edge.
        assert_eq!(YieldPolicy::EdgeBudgetAuto { factor: 1.0 }.edge_budget(101, 10), 11);
        assert_eq!(YieldPolicy::EdgeBudgetAuto { factor: 0.0 }.edge_budget(100, 10), 1);
        assert_eq!(YieldPolicy::EdgeBudgetAuto { factor: 2.0 }.edge_budget(0, 0), 1);
    }
}
