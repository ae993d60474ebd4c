//! Key-hygiene property tests for the open kernel registry.
//!
//! Batch cohorts and cache entries are keyed by `(registration id, canonical
//! params)`; these tests pin the properties that make that keying safe for
//! an *open* kernel set:
//!
//! * two *different registrations* — even under colliding (identical) names
//!   in sibling registries — never share a `BatchKey` or `CacheKey`;
//! * two *different configurations* of one kernel never share keys, no
//!   matter how adversarially the parameter values are chosen (bit-level
//!   float distinctions, integer-vs-float types, swapped name/value pairs).
//!
//! Companion to `batching_equivalence.rs`, which checks that queries that
//! *should* share cohorts produce correct consolidated results; this file
//! checks that queries that *must not* share cohorts cannot.

use std::collections::HashSet;
use std::sync::Arc;

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, Dist};
use fg_service::{
    BatchKey, CacheKey, ForkGraphService, InstantiatedKernel, KernelRegistry, ParamError, Query,
    QueryParams, QueryResult, ServiceConfig, ServiceError, ServiceHandle,
};
use forkgraph_core::kernels::{BfsKernel, SsspKernel};
use forkgraph_core::{erase, EngineConfig};

/// A deterministic xorshift so the sweep is reproducible without an RNG dep.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn sssp_like_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    let canonical = QueryParams::new().with("k", params.u64_or("k", 1)?);
    Ok(InstantiatedKernel::new(erase(SsspKernel), canonical))
}

fn bfs_like_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    let canonical = QueryParams::new().with("k", params.u64_or("k", 1)?);
    Ok(InstantiatedKernel::new(erase(BfsKernel), canonical))
}

fn key_for(registry: &KernelRegistry, name: &str, params: &QueryParams) -> BatchKey {
    let resolved = registry.resolve(name, params).unwrap();
    BatchKey { kernel: resolved.id, params: resolved.params }
}

#[test]
fn same_name_different_registration_never_shares_keys() {
    // Two registries each register a kernel under the *same* name with the
    // same factory signature — e.g. two tenants both calling their kernel
    // "khop". Their keys must not alias (global id minting).
    let a = KernelRegistry::with_builtins();
    let b = KernelRegistry::with_builtins();
    a.register("khop", sssp_like_factory).unwrap();
    b.register("khop", bfs_like_factory).unwrap();
    let params = QueryParams::new().with("k", 3u64);
    let key_a = key_for(&a, "khop", &params);
    let key_b = key_for(&b, "khop", &params);
    assert_ne!(key_a, key_b, "identical names + identical configs, different registrations");
    assert_ne!(
        CacheKey { key: key_a, source: 7 },
        CacheKey { key: key_b, source: 7 },
        "cache keys inherit the separation"
    );
}

#[test]
fn distinct_configs_never_collide_across_a_randomized_sweep() {
    // Property sweep: generate many (kernel, params) pairs, including
    // adversarial near-collisions — float bit-twiddles, int-vs-float typed
    // values, swapped names — and require the map pair → key to be
    // injective.
    let registry = KernelRegistry::with_builtins();
    let mut seen: HashSet<(String, QueryParams)> = HashSet::new();
    let mut keys: HashSet<BatchKey> = HashSet::new();
    let mut state = 0x00C0FFEE_D15EA5E5u64;

    let mut check = |name: &str, params: QueryParams| {
        let key = key_for(&registry, name, &params);
        let input = (name.to_string(), key.params.clone());
        // Canonicalized duplicates are *allowed* (same canonical params ⇒
        // same key is correct); only distinct canonical inputs must map to
        // distinct keys.
        if seen.insert(input) {
            assert!(
                keys.insert(key.clone()),
                "distinct (kernel, canonical params) collided on {key:?}"
            );
        } else {
            assert!(keys.contains(&key), "duplicate input must reproduce its key");
        }
    };

    for round in 0..200 {
        let eps_bits = (1e-6f64).to_bits() ^ (xorshift(&mut state) % 4096);
        let epsilon = f64::from_bits(eps_bits).abs().clamp(1e-12, 0.5);
        check("ppr", QueryParams::new().with("epsilon", epsilon));
        check(
            "ppr",
            QueryParams::new().with("epsilon", epsilon).with("alpha", 0.1 + (round as f64) * 1e-3),
        );
        let walks = 1 + xorshift(&mut state) % 64;
        check("random_walk", QueryParams::new().with("num_walks", walks));
        check(
            "random_walk",
            QueryParams::new().with("num_walks", walks).with("seed", xorshift(&mut state)),
        );
    }
    // Parameter-less kernels key apart from each other and from any
    // parameterised instance.
    check("sssp", QueryParams::new());
    check("bfs", QueryParams::new());

    // Custom kernels: same factory params but different registrations.
    registry.register("khop-a", sssp_like_factory).unwrap();
    registry.register("khop-b", sssp_like_factory).unwrap();
    for k in 0..32u64 {
        check("khop-a", QueryParams::new().with("k", k));
        check("khop-b", QueryParams::new().with("k", k));
        // Int-typed vs float-typed values of the same name are distinct
        // *inputs*; the factory canonicalizes via u64_or, so the float form
        // is rejected — which is also acceptable hygiene. Use the raw
        // params form to assert the value-type distinction directly.
        let int_key = QueryParams::new().with("v", k);
        let float_key = QueryParams::new().with("v", k as f64);
        assert_ne!(int_key, float_key, "u64 and f64 params are distinct key components");
    }
}

fn run(handle: &ServiceHandle, query: Query) -> Result<Arc<QueryResult>, ServiceError> {
    handle.submit_query(query)?.wait()
}

/// A hand-written (non-`erase`) `DynKernel` that violates the contract by
/// returning one state fewer than it was given sources.
struct ShortChangedKernel;

impl forkgraph_core::DynKernel for ShortChangedKernel {
    fn name(&self) -> &str {
        "short-changed"
    }

    fn state_type_name(&self) -> &'static str {
        "Vec<u64>"
    }

    fn run_erased(
        &self,
        engine: &forkgraph_core::ForkGraphEngine<'_>,
        sources: &[u32],
    ) -> forkgraph_core::ForkGraphRunResult<forkgraph_core::ErasedState> {
        let mut result = engine.run_dyn(&*erase(SsspKernel), sources);
        result.per_query.pop(); // contract violation: one state short
        result
    }

    // The multi-run hooks keep their defaults: a hand-written DynKernel is
    // not multi-capable, so the batcher always runs it in its own
    // single-kernel pass (through `run_erased` above).
}

#[test]
fn misbehaving_dyn_kernels_fail_the_cohort_instead_of_stranding_tickets() {
    // DynKernel is an open trait: a hand-implemented run_erased can return
    // the wrong number of states. Every submitter in the cohort must get a
    // typed EngineFailure — never a ticket that hangs forever — and the
    // batcher must keep serving well-behaved kernels afterwards.
    let g = gen::erdos_renyi(150, 900, 23).with_random_weights(8, 23);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 3),
    ));
    let service =
        ForkGraphService::start(Arc::clone(&pg), EngineConfig::default(), ServiceConfig::default());
    let handle = service.handle();
    handle
        .register_kernel("short-changed", |_: &QueryParams| {
            Ok(InstantiatedKernel::new(Arc::new(ShortChangedKernel), QueryParams::new()))
        })
        .unwrap();

    let err = run(&handle, Query::kernel("short-changed").source(1)).unwrap_err();
    assert_eq!(err, ServiceError::EngineFailure);
    // The batcher survived and keeps serving.
    let sssp = run(&handle, Query::kernel("sssp").source(1)).unwrap();
    assert!(sssp.try_state::<Vec<Dist>>().is_ok());
    service.shutdown();
}
