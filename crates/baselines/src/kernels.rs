//! Shared frontier kernels parameterised by each baseline system's execution
//! strategy.
//!
//! The baseline engines differ in *how* they drive an iteration — Ligra
//! switches between sparse push and dense pull, Gemini always runs dense
//! bulk-synchronous rounds — but the per-edge relaxation logic is the same.
//! Keeping the kernels here keeps the engines honest: they genuinely share
//! the relaxation code and only differ in their scheduling strategy, which is
//! what the paper's comparison is about.
//!
//! Every kernel is one thread's sequential code. What makes it a baseline is
//! its frontier algorithm, which processes more edges than the sequential
//! algorithms of `fg-seq`; that extra work is what the paper measures.

use fg_graph::{CsrGraph, Dist, VertexId, INF_DIST};
use fg_seq::ppr::PprConfig;

use crate::engine::QueryContext;

/// How an engine drives frontier iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IterationStrategy {
    /// Ligra: sparse push until the frontier grows past `|E| / divisor`, then
    /// dense pull.
    DirectionOptimizing { divisor: usize },
    /// Gemini: every iteration is a dense bulk-synchronous round.
    DenseAlways,
}

/// Run `f` over `items` split into `threads` contiguous chunks of
/// `len.div_ceil(threads)` items, one scoped thread per chunk, and return the
/// results in chunk order. With one thread, or at most one item, `f` runs
/// once over all of `items` on the calling thread. A panicking chunk panics
/// the caller. This is how [`crate::fpp::ExecutionScheme::InterQuery`] fans a
/// batch's queries out over threads.
pub(crate) fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return vec![f(items)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// Whether the next round pulls (dense) rather than pushes (sparse). Ligra's
/// heuristic: pull when the frontier plus its out-edges exceed
/// `|E| / divisor`.
fn should_pull(graph: &CsrGraph, frontier: &[VertexId], strategy: IterationStrategy) -> bool {
    match strategy {
        IterationStrategy::DenseAlways => true,
        IterationStrategy::DirectionOptimizing { divisor } => {
            let work =
                frontier.len() + frontier.iter().map(|&v| graph.out_degree(v)).sum::<usize>();
            work > graph.num_edges() / divisor.max(1)
        }
    }
}

/// One sparse round: `push(u, next)` for every frontier vertex, in frontier
/// order; returns the vertices pushed.
fn push_round(
    frontier: &[VertexId],
    mut push: impl FnMut(VertexId, &mut Vec<VertexId>),
) -> Vec<VertexId> {
    let mut next = Vec::new();
    for &u in frontier {
        push(u, &mut next);
    }
    next
}

/// One dense round: `pull(v, in_frontier)` for every vertex, in id order;
/// returns the vertices for which `pull` reported a change.
fn pull_round(
    n: usize,
    frontier: &[VertexId],
    mut pull: impl FnMut(VertexId, &[bool]) -> bool,
) -> Vec<VertexId> {
    let mut in_frontier = vec![false; n];
    for &v in frontier {
        in_frontier[v as usize] = true;
    }
    (0..n as VertexId).filter(|&v| pull(v, &in_frontier)).collect()
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

/// Frontier-based (Bellman-Ford style) SSSP used by every baseline engine.
/// A vertex may be relaxed again each time its distance improves, the
/// "parallel algorithms perform more work than their sequential
/// counterparts" behaviour the paper contrasts with ForkGraph's sequential
/// kernels.
pub fn frontier_sssp(
    graph: &CsrGraph,
    source: VertexId,
    ctx: &mut QueryContext<'_>,
    strategy: IterationStrategy,
) -> Vec<Dist> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut dist = vec![INF_DIST; n];
    dist[source as usize] = 0;
    let mut frontier: Vec<VertexId> = vec![source];

    while !frontier.is_empty() {
        ctx.work.iterations += 1;
        frontier = if should_pull(graph, &frontier, strategy) {
            pull_round(n, &frontier, |v, in_frontier| {
                let mut best = dist[v as usize];
                let mut improved = false;
                let in_deg = graph.in_degree(v);
                ctx.work.edges_processed += in_deg as u64;
                if ctx.tracer.is_enabled() {
                    ctx.tracer.adjacency_scan(graph.adjacency_offset(v), in_deg);
                    let ids: Vec<u64> = graph.in_neighbors(v).iter().map(|&u| u as u64).collect();
                    ctx.tracer.state_read_batch(ctx.query_id, &ids);
                }
                for (u, w) in graph.in_edges(v) {
                    if in_frontier[u as usize] {
                        let du = dist[u as usize];
                        if du != INF_DIST && du + (w as Dist) < best {
                            best = du + w as Dist;
                            improved = true;
                        }
                    }
                }
                if improved {
                    dist[v as usize] = best;
                }
                improved
            })
        } else {
            let mut in_next = vec![false; n];
            push_round(&frontier, |u, next| {
                let du = dist[u as usize];
                if du == INF_DIST {
                    return;
                }
                ctx.record_scan(graph, u);
                ctx.record_state_touch(u, graph.out_neighbors(u));
                for (v, w) in graph.out_edges(u) {
                    let nd = du + w as Dist;
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        if !in_next[v as usize] {
                            in_next[v as usize] = true;
                            next.push(v);
                        }
                    }
                }
            })
        };
    }
    dist
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

/// Frontier-based BFS with direction optimisation.
pub fn frontier_bfs(
    graph: &CsrGraph,
    source: VertexId,
    ctx: &mut QueryContext<'_>,
    strategy: IterationStrategy,
) -> Vec<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut level = vec![u32::MAX; n];
    level[source as usize] = 0;
    let mut frontier: Vec<VertexId> = vec![source];
    let mut next_level = 1u32;

    while !frontier.is_empty() {
        ctx.work.iterations += 1;
        frontier = if should_pull(graph, &frontier, strategy) {
            pull_round(n, &frontier, |v, in_frontier| {
                if level[v as usize] != u32::MAX {
                    return false;
                }
                let in_deg = graph.in_degree(v);
                ctx.work.edges_processed += in_deg as u64;
                if ctx.tracer.is_enabled() {
                    // The BFS pull scan early-exits on the first frontier
                    // neighbour and only consults the frontier bitmap, so only
                    // the adjacency lines are charged here (charging a full
                    // per-neighbour state scan would over-count this path).
                    ctx.tracer.adjacency_scan(graph.adjacency_offset(v), in_deg);
                }
                let found = graph.in_neighbors(v).iter().any(|&u| in_frontier[u as usize]);
                if found {
                    level[v as usize] = next_level;
                }
                found
            })
        } else {
            push_round(&frontier, |u, next| {
                ctx.record_scan(graph, u);
                ctx.record_state_touch(u, graph.out_neighbors(u));
                for &v in graph.out_neighbors(u) {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = next_level;
                        next.push(v);
                    }
                }
            })
        };
        next_level += 1;
    }
    level
}

// ---------------------------------------------------------------------------
// PPR
// ---------------------------------------------------------------------------

/// Frontier push-based approximate PPR (the frontier variant of the
/// Andersen–Chung–Lang kernel in `fg-seq`).
///
/// Each round pushes every active vertex against the residuals as they stood
/// at the round's start, then applies the pushed mass; `fg-seq` instead
/// pushes one vertex at a time against the latest residuals.
///
/// `dense_scan` makes every iteration scan all vertices for active residuals
/// (Gemini's bulk-synchronous behaviour) instead of tracking an explicit
/// frontier.
pub fn frontier_ppr(
    graph: &CsrGraph,
    seed: VertexId,
    config: &PprConfig,
    ctx: &mut QueryContext<'_>,
    dense_scan: bool,
) -> Vec<(VertexId, f64)> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut estimate = vec![0.0f64; n];
    let mut residual = vec![0.0f64; n];
    residual[seed as usize] = 1.0;
    let all: Vec<VertexId> = if dense_scan { (0..n as VertexId).collect() } else { Vec::new() };
    let mut frontier: Vec<VertexId> = vec![seed];
    let mut pushes = 0u64;

    loop {
        ctx.work.iterations += 1;
        let candidates = if dense_scan {
            // A dense scan reads every vertex's residual once per round.
            ctx.work.edges_processed += n as u64 / 8;
            &all
        } else {
            &frontier
        };
        let active: Vec<VertexId> = candidates
            .iter()
            .copied()
            .filter(|&v| residual[v as usize] >= config.epsilon * graph.out_degree(v).max(1) as f64)
            .collect();
        if active.is_empty() {
            break;
        }

        // Phase one: every push reads the round-start residuals and adds the
        // mass it moves to `pushed`. An active vertex is pushed once per
        // round, so its estimate is final as soon as it is written.
        let mut pushed = vec![0.0f64; n];
        let mut next = Vec::new();
        for &u in &active {
            let r = residual[u as usize];
            let deg = graph.out_degree(u).max(1) as f64;
            ctx.record_scan(graph, u);
            ctx.record_state_touch(u, graph.out_neighbors(u));
            estimate[u as usize] += config.alpha * r;
            let push_mass = (1.0 - config.alpha) * r;
            // Lazy variant: half stays on u, half spreads over the neighbours.
            pushed[u as usize] += push_mass / 2.0 - r;
            if graph.out_degree(u) == 0 {
                pushed[u as usize] += push_mass / 2.0;
            } else {
                let share = push_mass / 2.0 / deg;
                for &v in graph.out_neighbors(u) {
                    pushed[v as usize] += share;
                    next.push(v);
                }
            }
            next.push(u);
        }
        pushes += active.len() as u64;

        // Phase two: apply the round's pushes.
        for (r, delta) in residual.iter_mut().zip(&pushed) {
            *r += delta;
            if *r < 0.0 {
                *r = 0.0; // guard against float cancellation noise
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
        if config.max_pushes > 0 && pushes >= config.max_pushes {
            break;
        }
    }

    ctx.work.operations_processed += pushes;
    estimate
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > 0.0)
        .map(|(v, &p)| (v as VertexId, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cachesim::GraphAccessTracer;
    use fg_graph::gen;
    use fg_seq::{bfs::bfs, dijkstra::dijkstra};

    const LIGRA_STRATEGY: IterationStrategy =
        IterationStrategy::DirectionOptimizing { divisor: 20 };

    const STRATEGIES: [IterationStrategy; 2] = [LIGRA_STRATEGY, IterationStrategy::DenseAlways];

    #[test]
    fn par_chunks_keeps_input_order() {
        let threads = 4;
        for len in [0, 1, threads - 1, threads + 1] {
            let items: Vec<usize> = (0..len).collect();
            let parts = par_chunks(&items, threads, |chunk| chunk.to_vec());
            assert_eq!(parts.concat(), items, "len {len}");
        }
    }

    #[test]
    fn par_chunks_spreads_work_over_threads() {
        let ids = par_chunks(&[1, 2, 3, 4], 2, |_| std::thread::current().id());
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn par_chunks_propagates_a_panicking_chunk() {
        let outcome = std::panic::catch_unwind(|| {
            par_chunks(&[1, 2, 3, 4], 2, |chunk| {
                assert!(!chunk.contains(&4), "chunk panicked");
                chunk.len()
            })
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn sssp_and_bfs_match_fg_seq_under_every_strategy() {
        let graphs = [
            gen::rmat(9, 6, 4).with_random_weights(5, 4),
            gen::grid2d(20, 20, 0.02, 3).with_random_weights(7, 2),
        ];
        let tracer = GraphAccessTracer::disabled();
        for (g, source) in graphs.iter().zip([7, 5]) {
            let distances = dijkstra(g, source).dist;
            let levels = bfs(g, source).level;
            for strategy in STRATEGIES {
                let mut ctx = QueryContext::new(0, &tracer);
                assert_eq!(frontier_sssp(g, source, &mut ctx, strategy), distances, "{strategy:?}");
                assert_eq!(frontier_bfs(g, source, &mut ctx, strategy), levels, "{strategy:?}");
            }
        }
    }

    #[test]
    fn dense_strategy_processes_more_edges_on_road_graphs() {
        let g = gen::grid2d(25, 25, 0.0, 1).with_random_weights(5, 1);
        let tracer = GraphAccessTracer::disabled();
        let mut ligra = QueryContext::new(0, &tracer);
        let _ = frontier_sssp(&g, 0, &mut ligra, LIGRA_STRATEGY);
        let mut gemini = QueryContext::new(0, &tracer);
        let _ = frontier_sssp(&g, 0, &mut gemini, IterationStrategy::DenseAlways);
        assert!(
            gemini.work.edges_processed > 2 * ligra.work.edges_processed,
            "dense {} vs direction-optimizing {}",
            gemini.work.edges_processed,
            ligra.work.edges_processed
        );
    }

    #[test]
    fn ppr_mass_is_approximately_conserved() {
        let g = gen::rmat(8, 6, 3);
        let tracer = GraphAccessTracer::disabled();
        let config = PprConfig { epsilon: 1e-5, ..Default::default() };
        let est = frontier_ppr(&g, 1, &config, &mut QueryContext::new(0, &tracer), false);
        let mass: f64 = est.iter().map(|(_, p)| p).sum();
        assert!(mass > 0.0 && mass <= 1.0 + 1e-9, "mass {mass}");
    }

    #[test]
    fn ppr_is_close_to_fg_seq() {
        let g = gen::rmat(8, 6, 5);
        let tracer = GraphAccessTracer::disabled();
        let config = PprConfig { epsilon: 1e-6, ..Default::default() };
        let reference = fg_seq::ppr::ppr_push(&g, 2, &config).dense(g.num_vertices());
        for dense_scan in [false, true] {
            let est = frontier_ppr(&g, 2, &config, &mut QueryContext::new(0, &tracer), dense_scan);
            let mut dense = vec![0.0; g.num_vertices()];
            for (v, p) in est {
                dense[v as usize] = p;
            }
            let l1: f64 = dense.iter().zip(&reference).map(|(x, y)| (x - y).abs()).sum();
            assert!(l1 < 0.05, "dense={dense_scan} l1 to fg-seq {l1}");
        }
    }

    #[test]
    fn ppr_seed_dominates() {
        let g = gen::grid2d(10, 10, 0.0, 1);
        let tracer = GraphAccessTracer::disabled();
        let config = PprConfig { epsilon: 1e-6, ..Default::default() };
        let est = frontier_ppr(&g, 55, &config, &mut QueryContext::new(0, &tracer), false);
        let best = est.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(best.0, 55);
    }
}
