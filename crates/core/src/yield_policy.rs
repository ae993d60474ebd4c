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
//!
//! **Where a yield can save work.** A yield pays only when a better
//! operation can still arrive and prune what the lane would otherwise
//! expand, so `YieldPolicy::visit_budget` applies the budget only to
//! kernels whose operations can be dominated ([`FppKernel::PRUNES`]: SSSP
//! and BFS, not PPR, DFS or random walk) on a graph of more than one
//! partition (on one partition nothing arrives from elsewhere, and a yield
//! only re-visits the same partition: 32 SSSP queries on an R-MAT 2^13
//! graph as one partition took 107 ms with 480 yields, 69 ms without, the
//! same edges and operations). Everywhere else the budget is never.
//!
//! **Why |Q| is floored.** With `|E_P| / |Q|` as written, fewer than three
//! queries get a budget of `2·|E_P|` or more at the default factor, which
//! switches yielding off exactly where one query runs far ahead on a
//! high-diameter graph: one SSSP query on a 512×512 lattice in 11 partitions
//! processed 1 773 285 edges against `fg_seq::dijkstra`'s 1 056 730. The
//! budget therefore divides by `max(|Q|, 8)`, so a lane takes at most a
//! quarter of its partition per visit at the default factor, and a batch of
//! eight or more queries runs exactly as before. Eight is the knee of three
//! floors measured on a 2-core Xeon (`fgbench`, `fpp-road-spill` single-query
//! latency against `fpp-social-resident` single-query latency over 128
//! sources): 4 cut road p50 by only 14 %; 8 cut it by about 30 %, with
//! social p50 +2 % and p90 −1.5 %; 16 cut road by 36 % but cost social
//! singles 7 %.

use fg_graph::partition::PartitionId;
use fg_graph::partitioned::PartitionedGraph;

use crate::kernel::FppKernel;

/// When to early-terminate a query inside a partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum YieldPolicy {
    /// Never yield: drain the query's operations in the partition completely
    /// (every Figure 11 ablation level below "+yielding").
    None,
    /// Heuristic 1 with the analytical budget `factor · |E_P| / |Q|`
    /// (Appendix A), `|Q|` floored at eight; `factor = 1.0` is the proof's
    /// bound. The paper raises it to 100 for PPR (§6.4), which here never
    /// yields by rule (see the [module docs](self)).
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

/// The least `|Q|` the edge budget divides by: fewer queries than this get
/// the budget of this many, so a lone query still yields after `factor / 8`
/// of its partition. Measured with `fgbench` on a 2-core Xeon, a floor of 4
/// cut `fpp-road-spill` single-query p50 by 14 %, 8 by 30 % (social singles
/// +2 % at p50, −1.5 % at p90) and 16 by 36 % (social singles +7 %); the
/// [module docs](self) say why the floor exists.
const MIN_BUDGET_QUERIES: usize = 8;

impl YieldPolicy {
    /// Edges a lane of a `K` query may process in one visit to `partition`
    /// of `pg` while `num_queries` queries run; once it has processed more
    /// than this, the lane yields instead of its next pop. `u64::MAX`
    /// (never) where a yield cannot save work: `K` cannot prune
    /// ([`FppKernel::PRUNES`]) or `pg` has one partition.
    pub(crate) fn visit_budget<K: FppKernel>(
        &self,
        pg: &PartitionedGraph,
        partition: PartitionId,
        num_queries: usize,
    ) -> u64 {
        if !K::PRUNES || pg.num_partitions() < 2 {
            return u64::MAX;
        }
        self.edge_budget(pg.partition(partition).num_edges() as u64, num_queries)
    }

    /// The budget of a partition with `partition_edges` edges:
    /// `ceil(factor · |E_P| / max(|Q|, 8))`, at least 1; `u64::MAX` (never)
    /// for [`YieldPolicy::None`].
    fn edge_budget(&self, partition_edges: u64, num_queries: usize) -> u64 {
        match *self {
            YieldPolicy::None => u64::MAX,
            YieldPolicy::EdgeBudgetAuto { factor } => {
                let mu = partition_edges as f64 / num_queries.max(MIN_BUDGET_QUERIES) as f64;
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

    #[test]
    fn fewer_than_eight_queries_get_the_budget_of_eight() {
        // |E_P| = 100 at factor 2.0: |Q| = 0, 1 and 7 divide by 8 (25 edges),
        // as |Q| = 8 does; |Q| = 9 divides by itself (23 edges, rounded up).
        let policy = YieldPolicy::EdgeBudgetAuto { factor: 2.0 };
        for queries in [0, 1, 7, 8] {
            assert_eq!(policy.edge_budget(100, queries), 25, "|Q| = {queries}");
        }
        assert_eq!(policy.edge_budget(100, 9), 23);
        // A lone query at factor 1.0 yields after an eighth of its partition.
        assert_eq!(YieldPolicy::EdgeBudgetAuto { factor: 1.0 }.edge_budget(801, 1), 101);
    }
}
