//! Shared frontier kernels parameterised by each baseline system's execution
//! strategy.
//!
//! The three baseline engines differ in *how* they drive an iteration — Ligra
//! switches between sparse push and dense pull, Gemini always runs dense
//! bulk-synchronous rounds, GraphIt additionally blocks the dense phase into
//! cache-sized destination segments — but the per-edge relaxation logic is the
//! same. Keeping the kernels here keeps the engines honest: they genuinely
//! share the relaxation code and only differ in their scheduling strategy,
//! which is what the paper's comparison is about.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use fg_graph::{CsrGraph, Dist, VertexId, INF_DIST};
use fg_seq::ppr::PprConfig;

use crate::engine::QueryContext;

/// How an engine drives frontier iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IterationStrategy {
    /// Ligra/GraphIt: sparse push until the frontier grows past
    /// `|E| / divisor`, then dense pull. `pull_segment` optionally blocks the
    /// dense phase into destination segments of that many vertices (GraphIt's
    /// cache optimisation).
    DirectionOptimizing { divisor: usize, pull_segment: Option<usize> },
    /// Gemini: every iteration is a dense bulk-synchronous round.
    DenseAlways,
}

/// Run `f` over `items` split into `threads` contiguous chunks of
/// `len.div_ceil(threads)` items, one scoped thread per chunk, and return the
/// results in chunk order. With one thread, or at most one item, `f` runs
/// once over all of `items` on the calling thread. A panicking chunk panics
/// the caller.
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
        IterationStrategy::DirectionOptimizing { divisor, .. } => {
            let work =
                frontier.len() + frontier.iter().map(|&v| graph.out_degree(v)).sum::<usize>();
            work > graph.num_edges() / divisor.max(1)
        }
    }
}

/// One sparse round: `push(u, next)` for every frontier vertex, the frontier
/// split over `threads`; returns the vertices pushed, in frontier order.
fn push_round(
    frontier: &[VertexId],
    threads: usize,
    push: impl Fn(VertexId, &mut Vec<VertexId>) + Sync,
) -> Vec<VertexId> {
    par_chunks(frontier, threads, |chunk| {
        let mut next = Vec::new();
        for &u in chunk {
            push(u, &mut next);
        }
        next
    })
    .concat()
}

/// One dense round: `pull(v, in_frontier)` for every vertex, one destination
/// segment at a time, each segment split over `threads`; returns the vertices
/// for which `pull` reported a change, in id order.
fn pull_round(
    n: usize,
    frontier: &[VertexId],
    strategy: IterationStrategy,
    threads: usize,
    pull: impl Fn(VertexId, &[bool]) -> bool + Sync,
) -> Vec<VertexId> {
    let mut in_frontier = vec![false; n];
    for &v in frontier {
        in_frontier[v as usize] = true;
    }
    let segment = match strategy {
        IterationStrategy::DirectionOptimizing { pull_segment: Some(segment), .. } => segment,
        _ => n,
    };
    let vertices: Vec<VertexId> = (0..n as VertexId).collect();
    let mut next = Vec::new();
    for segment in vertices.chunks(segment.max(1)) {
        let found = par_chunks(segment, threads, |chunk| {
            chunk.iter().copied().filter(|&v| pull(v, &in_frontier)).collect::<Vec<_>>()
        });
        next.extend(found.into_iter().flatten());
    }
    next
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

/// Frontier-based (Bellman-Ford style) SSSP used by all three baseline
/// engines. Parallel iterations use atomic `fetch_min` relaxations, exactly the
/// "parallel algorithms perform more work than their sequential counterparts"
/// behaviour the paper contrasts with ForkGraph's sequential kernels.
pub fn frontier_sssp(
    graph: &CsrGraph,
    source: VertexId,
    ctx: &QueryContext<'_>,
    strategy: IterationStrategy,
) -> Vec<Dist> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF_DIST)).collect();
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier: Vec<VertexId> = vec![source];

    while !frontier.is_empty() {
        ctx.counters.add_iteration();
        frontier = if should_pull(graph, &frontier, strategy) {
            pull_round(n, &frontier, strategy, ctx.threads, |v, in_frontier| {
                let mut best = dist[v as usize].load(Ordering::Relaxed);
                let mut improved = false;
                let in_deg = graph.in_degree(v);
                ctx.counters.add_edges(in_deg as u64);
                if ctx.tracer.is_enabled() {
                    ctx.tracer.adjacency_scan(graph.adjacency_offset(v), in_deg);
                    let ids: Vec<u64> = graph.in_neighbors(v).iter().map(|&u| u as u64).collect();
                    ctx.tracer.state_read_batch(ctx.query_id, &ids);
                }
                for (u, w) in graph.in_edges(v) {
                    if in_frontier[u as usize] {
                        let du = dist[u as usize].load(Ordering::Relaxed);
                        if du != INF_DIST && du + (w as Dist) < best {
                            best = du + w as Dist;
                            improved = true;
                        }
                    }
                }
                if improved {
                    dist[v as usize].fetch_min(best, Ordering::Relaxed);
                }
                improved
            })
        } else {
            let in_next: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            push_round(&frontier, ctx.threads, |u, next| {
                let du = dist[u as usize].load(Ordering::Relaxed);
                if du == INF_DIST {
                    return;
                }
                ctx.record_scan(graph, u);
                ctx.record_state_touch(u, graph.out_neighbors(u));
                for (v, w) in graph.out_edges(u) {
                    let nd = du + w as Dist;
                    let prev = dist[v as usize].fetch_min(nd, Ordering::Relaxed);
                    if nd < prev && !in_next[v as usize].swap(true, Ordering::Relaxed) {
                        next.push(v);
                    }
                }
            })
        };
    }
    dist.into_iter().map(|d| d.into_inner()).collect()
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

/// Frontier-based BFS with direction optimisation.
pub fn frontier_bfs(
    graph: &CsrGraph,
    source: VertexId,
    ctx: &QueryContext<'_>,
    strategy: IterationStrategy,
) -> Vec<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    level[source as usize].store(0, Ordering::Relaxed);
    let mut frontier: Vec<VertexId> = vec![source];
    let mut next_level = 1u32;

    while !frontier.is_empty() {
        ctx.counters.add_iteration();
        frontier = if should_pull(graph, &frontier, strategy) {
            pull_round(n, &frontier, strategy, ctx.threads, |v, in_frontier| {
                if level[v as usize].load(Ordering::Relaxed) != u32::MAX {
                    return false;
                }
                let in_deg = graph.in_degree(v);
                ctx.counters.add_edges(in_deg as u64);
                if ctx.tracer.is_enabled() {
                    // The BFS pull scan early-exits on the first frontier
                    // neighbour and only consults the frontier bitmap, so only
                    // the adjacency lines are charged here (charging a full
                    // per-neighbour state scan would over-count this path).
                    ctx.tracer.adjacency_scan(graph.adjacency_offset(v), in_deg);
                }
                let found = graph.in_neighbors(v).iter().any(|&u| in_frontier[u as usize]);
                if found {
                    level[v as usize].store(next_level, Ordering::Relaxed);
                }
                found
            })
        } else {
            push_round(&frontier, ctx.threads, |u, next| {
                ctx.record_scan(graph, u);
                ctx.record_state_touch(u, graph.out_neighbors(u));
                for &v in graph.out_neighbors(u) {
                    if level[v as usize]
                        .compare_exchange(
                            u32::MAX,
                            next_level,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                    {
                        next.push(v);
                    }
                }
            })
        };
        next_level += 1;
    }
    level.into_iter().map(|l| l.into_inner()).collect()
}

// ---------------------------------------------------------------------------
// PPR
// ---------------------------------------------------------------------------

/// Frontier push-based approximate PPR (parallel variant of the
/// Andersen–Chung–Lang kernel in `fg-seq`).
///
/// `dense_scan` makes every iteration scan all vertices for active residuals
/// (Gemini's bulk-synchronous behaviour) instead of tracking an explicit
/// frontier.
pub fn frontier_ppr(
    graph: &CsrGraph,
    seed: VertexId,
    config: &PprConfig,
    ctx: &QueryContext<'_>,
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
        ctx.counters.add_iteration();
        let candidates = if dense_scan {
            // A dense scan reads every vertex's residual once per round.
            ctx.counters.add_edges(n as u64 / 8);
            &all
        } else {
            &frontier
        };
        let active = par_chunks(candidates, ctx.threads, |chunk| {
            chunk
                .iter()
                .copied()
                .filter(|&v| {
                    residual[v as usize] >= config.epsilon * graph.out_degree(v).max(1) as f64
                })
                .collect::<Vec<_>>()
        })
        .concat();
        if active.is_empty() {
            break;
        }

        // Two-phase push so the parallel variant needs no atomics on floats:
        // each chunk accumulates into a private delta vector (estimate in the
        // first half, residual in the second), then the deltas are summed and
        // applied.
        let push_chunk = |chunk: &[VertexId]| {
            let mut delta = vec![0.0f64; 2 * n];
            let mut next = Vec::new();
            for &u in chunk {
                let r = residual[u as usize];
                let deg = graph.out_degree(u).max(1) as f64;
                ctx.record_scan(graph, u);
                ctx.record_state_touch(u, graph.out_neighbors(u));
                delta[u as usize] += config.alpha * r;
                let push_mass = (1.0 - config.alpha) * r;
                // Lazy variant: half stays on u, half spreads over the neighbours.
                delta[n + u as usize] += push_mass / 2.0 - r;
                if graph.out_degree(u) == 0 {
                    delta[n + u as usize] += push_mass / 2.0;
                } else {
                    let share = push_mass / 2.0 / deg;
                    for &v in graph.out_neighbors(u) {
                        delta[n + v as usize] += share;
                        next.push(v);
                    }
                }
                next.push(u);
            }
            (delta, next)
        };
        let (delta, mut next) = par_chunks(&active, ctx.threads, push_chunk)
            .into_iter()
            .reduce(|(mut d1, mut n1), (d2, mut n2)| {
                for (a, b) in d1.iter_mut().zip(&d2) {
                    *a += b;
                }
                n1.append(&mut n2);
                (d1, n1)
            })
            .expect("par_chunks returns at least one result");
        pushes += active.len() as u64;

        for v in 0..n {
            estimate[v] += delta[v];
            residual[v] += delta[n + v];
            if residual[v] < 0.0 {
                residual[v] = 0.0; // guard against float cancellation noise
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
        if config.max_pushes > 0 && pushes >= config.max_pushes {
            break;
        }
    }

    ctx.counters.add_operations(pushes);
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
    use fg_metrics::WorkCounters;
    use fg_seq::{bfs::bfs, dijkstra::dijkstra};

    fn ctx<'a>(
        tracer: &'a GraphAccessTracer,
        counters: &'a WorkCounters,
        threads: usize,
    ) -> QueryContext<'a> {
        QueryContext { query_id: 0, threads, tracer, counters }
    }

    const LIGRA_STRATEGY: IterationStrategy =
        IterationStrategy::DirectionOptimizing { divisor: 20, pull_segment: None };

    const STRATEGIES: [IterationStrategy; 3] = [
        LIGRA_STRATEGY,
        IterationStrategy::DenseAlways,
        IterationStrategy::DirectionOptimizing { divisor: 20, pull_segment: Some(64) },
    ];

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
    fn sssp_and_bfs_match_fg_seq_under_every_strategy_and_thread_count() {
        let graphs = [
            gen::rmat(9, 6, 4).with_random_weights(5, 4),
            gen::grid2d(20, 20, 0.02, 3).with_random_weights(7, 2),
        ];
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        for (g, source) in graphs.iter().zip([7, 5]) {
            let distances = dijkstra(g, source).dist;
            let levels = bfs(g, source).level;
            for strategy in STRATEGIES {
                for threads in [1, 3] {
                    let ctx = ctx(&tracer, &counters, threads);
                    let case = format!("{strategy:?} threads={threads}");
                    assert_eq!(frontier_sssp(g, source, &ctx, strategy), distances, "SSSP {case}");
                    assert_eq!(frontier_bfs(g, source, &ctx, strategy), levels, "BFS {case}");
                }
            }
        }
    }

    #[test]
    fn dense_strategy_processes_more_edges_on_road_graphs() {
        let g = gen::grid2d(25, 25, 0.0, 1).with_random_weights(5, 1);
        let tracer = GraphAccessTracer::disabled();
        let ligra_counters = WorkCounters::new();
        let _ = frontier_sssp(&g, 0, &ctx(&tracer, &ligra_counters, 1), LIGRA_STRATEGY);
        let gemini_counters = WorkCounters::new();
        let _ = frontier_sssp(
            &g,
            0,
            &ctx(&tracer, &gemini_counters, 1),
            IterationStrategy::DenseAlways,
        );
        assert!(
            gemini_counters.snapshot().edges_processed
                > 2 * ligra_counters.snapshot().edges_processed,
            "dense {} vs direction-optimizing {}",
            gemini_counters.snapshot().edges_processed,
            ligra_counters.snapshot().edges_processed
        );
    }

    #[test]
    fn ppr_mass_is_approximately_conserved() {
        let g = gen::rmat(8, 6, 3);
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let config = PprConfig { epsilon: 1e-5, ..Default::default() };
        let est = frontier_ppr(&g, 1, &config, &ctx(&tracer, &counters, 1), false);
        let mass: f64 = est.iter().map(|(_, p)| p).sum();
        assert!(mass > 0.0 && mass <= 1.0 + 1e-9, "mass {mass}");
    }

    #[test]
    fn ppr_is_close_to_fg_seq_and_thread_count_only_reorders_sums() {
        let g = gen::rmat(8, 6, 5);
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let config = PprConfig { epsilon: 1e-6, ..Default::default() };
        let reference = fg_seq::ppr::ppr_push(&g, 2, &config).dense(g.num_vertices());
        let l1 = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>();
        for dense_scan in [false, true] {
            let run = |threads| {
                let est =
                    frontier_ppr(&g, 2, &config, &ctx(&tracer, &counters, threads), dense_scan);
                let mut dense = vec![0.0; g.num_vertices()];
                for (v, p) in est {
                    dense[v as usize] = p;
                }
                dense
            };
            let (serial, parallel) = (run(1), run(3));
            let to_reference = l1(&serial, &reference);
            assert!(to_reference < 0.05, "dense={dense_scan} l1 to fg-seq {to_reference}");
            let drift = l1(&serial, &parallel);
            assert!(drift <= 1e-9, "dense={dense_scan} serial vs parallel l1 {drift}");
        }
    }

    #[test]
    fn ppr_seed_dominates() {
        let g = gen::grid2d(10, 10, 0.0, 1);
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let config = PprConfig { epsilon: 1e-6, ..Default::default() };
        let est = frontier_ppr(&g, 55, &config, &ctx(&tracer, &counters, 3), false);
        let best = est.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(best.0, 55);
    }
}
