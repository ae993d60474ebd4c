//! The [`ForkGraphEngine::run_multi`] contract: the groups of a mixed batch
//! run **back to back, one pass per kernel**. So for every kernel shape —
//! SSSP, BFS, PPR, random walks, and a kernel whose 40-byte operation value
//! no inline payload ever fitted — `per_group[g]` is **byte-identical** to a
//! solo [`ForkGraphEngine::run_dyn`] of that group on the same engine (PPR
//! included: on one worker both sides execute the same deterministic
//! operation sequence), and `measurement.work` is exactly the
//! [`WorkSnapshot::merge`](fg_metrics::WorkSnapshot::merge) of the solo
//! runs' counters.

use std::fmt::Debug;
use std::sync::Arc;

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, AdjacencyView, CsrGraph, Dist, VertexId};
use fg_metrics::{WorkSnapshot, WorkerSnapshot};
use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use forkgraph_core::kernels::{
    BfsKernel, PprKernel, PprState, RandomWalkKernel, RwState, SsspKernel,
};
use forkgraph_core::{
    erase, DynKernel, EngineConfig, ErasedState, ForkGraphEngine, FppKernel, Priority,
};

/// BFS levels carried in a `[u64; 5]` operation value (level, then the path's
/// last four vertices): wider than any payload the deleted shared pass could
/// erase, so `run_multi` used to refuse it.
struct WideValueBfs;

impl FppKernel for WideValueBfs {
    type Value = [u64; 5];
    type State = Vec<u64>;

    fn name(&self) -> &'static str {
        "wide-bfs"
    }

    fn init_state(&self, graph: &CsrGraph, _source: VertexId) -> Self::State {
        vec![u64::MAX; graph.num_vertices()]
    }

    fn source_op(&self, source: VertexId) -> (Self::Value, Priority) {
        ([0, source as u64, 0, 0, 0], 0)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        [level, a, b, c, _]: Self::Value,
        _priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64 {
        if level >= state[vertex as usize] {
            return 0;
        }
        state[vertex as usize] = level;
        let mut edges = 0;
        for t in graph.out_neighbors(vertex) {
            edges += 1;
            if level + 1 < state[t as usize] {
                emit(t, [level + 1, t as u64, a, b, c], level + 1);
            }
        }
        edges
    }
}

fn assert_same<S: PartialEq + Debug + 'static>(a: &ErasedState, b: &ErasedState, context: &str) {
    assert_eq!(a.downcast_ref::<S>().unwrap(), b.downcast_ref::<S>().unwrap(), "{context}");
}

type Cohort = (Arc<dyn DynKernel>, Vec<VertexId>, fn(&ErasedState, &ErasedState, &str));

/// One cohort per kernel shape. With `confluent_only`, PPR — whose lazy push
/// is schedule-dependent — is left out.
fn cohorts(confluent_only: bool) -> Vec<Cohort> {
    let walks = RandomWalkConfig { num_walks: 3, walk_length: 6, restart_prob: 0.0, seed: 11 };
    let ppr = PprConfig { epsilon: 1e-4, ..Default::default() };
    let mut cohorts: Vec<Cohort> = vec![
        (erase(SsspKernel), vec![0, 17, 140], assert_same::<Vec<Dist>>),
        (erase(BfsKernel), vec![3, 99], assert_same::<Vec<u32>>),
        (erase(RandomWalkKernel::new(walks)), vec![5, 42, 311], assert_same::<RwState>),
        (erase(WideValueBfs), vec![9, 200], assert_same::<Vec<u64>>),
    ];
    if !confluent_only {
        cohorts.push((erase(PprKernel::new(ppr)), vec![3, 42, 200], assert_same::<PprState>));
    }
    cohorts
}

fn partitioned(parts: usize, seed: u64) -> PartitionedGraph {
    let g = gen::rmat(9, 6, seed).with_random_weights(8, seed);
    PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
    )
}

fn groups(cohorts: &[Cohort]) -> Vec<(&dyn DynKernel, &[VertexId])> {
    cohorts.iter().map(|(kernel, sources, _)| (&**kernel, &sources[..])).collect()
}

#[test]
fn every_group_is_its_solo_run_dyn_and_the_work_is_the_merge() {
    let pg = partitioned(7, 131);
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(1));
    let cohorts = cohorts(false);
    let mixed = engine.run_multi(&groups(&cohorts));
    assert_eq!(mixed.per_group.len(), cohorts.len());

    let mut merged = WorkSnapshot::default();
    for (g, (kernel, sources, assert_same)) in cohorts.iter().enumerate() {
        let solo = engine.run_dyn(&**kernel, sources);
        assert_eq!(mixed.per_group[g].len(), sources.len());
        for (i, (a, b)) in mixed.per_group[g].iter().zip(&solo.per_query).enumerate() {
            assert_same(a, b, &format!("group {g} ({}) query {i}", kernel.name()));
        }
        merged = merged.merge(solo.work());
    }
    assert_eq!(mixed.measurement.work, merged);
    assert_eq!(merged.queries_completed, 13);

    // The wide-valued kernel computes what it claims to.
    let levels = fg_seq::bfs::bfs(pg.graph(), 9).level;
    let wide = mixed.per_group[3][0].downcast_ref::<Vec<u64>>().unwrap();
    for (got, &want) in wide.iter().zip(&levels) {
        assert_eq!(*got, if want == u32::MAX { u64::MAX } else { want as u64 });
    }
}

#[test]
fn pooled_groups_match_one_worker_for_confluent_kernels() {
    let pg = partitioned(6, 137);
    let cohorts = cohorts(true);
    let one_worker =
        ForkGraphEngine::new(&pg, EngineConfig::default()).run_multi(&groups(&cohorts));
    let pooled = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(3))
        .run_multi(&groups(&cohorts));
    for (g, (kernel, _, assert_same)) in cohorts.iter().enumerate() {
        for (i, (a, b)) in pooled.per_group[g].iter().zip(&one_worker.per_group[g]).enumerate() {
            assert_same(a, b, &format!("group {g} ({}) query {i}", kernel.name()));
        }
    }
    // One dispatch per group: each pass is a run of its own.
    assert_eq!(pooled.measurement.work.workers.len(), 3 * cohorts.len());
}

#[test]
fn empty_and_single_group_edge_cases() {
    let pg = partitioned(3, 139);
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    let empty = engine.run_multi(&[]);
    assert!(empty.per_group.is_empty());
    assert_eq!(empty.measurement.work, WorkSnapshot::default());

    let sssp = erase(SsspKernel);
    let with_empty_group = engine.run_multi(&[(&*sssp, &[][..]), (&*sssp, &[5u32][..])]);
    assert!(with_empty_group.per_group[0].is_empty());
    let solo = engine.run_dyn(&*sssp, &[5]);
    assert_same::<Vec<Dist>>(&with_empty_group.per_group[1][0], &solo.per_query[0], "single");
    // The empty group's pass did nothing; it reports only its idle worker.
    let mut work = with_empty_group.measurement.work.clone();
    assert_eq!(work.workers.remove(0), WorkerSnapshot::default());
    assert_eq!(&work, solo.work());
}
