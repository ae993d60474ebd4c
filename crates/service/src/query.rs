//! Queries and results of the open-kernel serving API.
//!
//! A [`Query`] names a *registered* kernel, a source vertex, and a set of
//! typed parameters:
//!
//! ```
//! use fg_service::Query;
//!
//! let q = Query::kernel("ppr").source(42).param("epsilon", 1e-5);
//! assert_eq!(q.kernel_name(), "ppr");
//! ```
//!
//! Resolution against the service's [`KernelRegistry`](crate::KernelRegistry)
//! happens at submit time and yields the two registry-derived keys:
//!
//! * [`BatchKey`] — registration id + canonical params. Queries with equal
//!   keys run the same kernel with identical configuration, so the
//!   micro-batcher may consolidate them into one engine run. Because the id
//!   is minted per registration, kernels with colliding *names* (e.g. a
//!   `"khop"` in each of two registries) can never share a cohort.
//! * [`CacheKey`] — batch key + source: one exact query, the LRU cache's
//!   key.
//!
//! A completed query yields a [`QueryResult`]: the kernel's final state,
//! type-erased. Read it with [`QueryResult::try_state`], whose
//! [`KernelMismatch`] names the kernel that actually produced the result, or
//! probe it with [`QueryResult::downcast_ref`].

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use fg_graph::VertexId;
use forkgraph_core::ErasedState;

use crate::params::{ParamValue, QueryParams};
use crate::registry::KernelId;

/// One client query for the open-kernel API; see the [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    kernel: String,
    source: Option<VertexId>,
    params: QueryParams,
}

impl Query {
    /// Start building a query for the kernel registered under `name`.
    pub fn kernel(name: impl Into<String>) -> Self {
        Query { kernel: name.into(), source: None, params: QueryParams::new() }
    }

    /// Set the source vertex the query forks from. Required before submit.
    pub fn source(mut self, source: VertexId) -> Self {
        self.source = Some(source);
        self
    }

    /// Set one kernel parameter. Unknown parameter names are rejected by the
    /// kernel's factory at submit time.
    pub fn param(mut self, name: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.set(name, value);
        self
    }

    /// The kernel name this query will resolve.
    pub fn kernel_name(&self) -> &str {
        &self.kernel
    }

    /// The source vertex, if one has been set.
    pub fn source_vertex(&self) -> Option<VertexId> {
        self.source
    }

    /// The parameters accumulated so far (pre-canonicalization).
    pub fn params(&self) -> &QueryParams {
        &self.params
    }
}

/// Equality/hash key for batch formation: registration id + canonical
/// params. Derived by the registry at submit time; see the
/// [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// The kernel registration this cohort runs.
    pub kernel: KernelId,
    /// Canonical (factory-normalised) parameters of the cohort.
    pub params: QueryParams,
}

/// Key of the result cache: one exact query (batch key + source).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The batchability key.
    pub key: BatchKey,
    /// The query's source vertex.
    pub source: VertexId,
}

/// A typed "this result belongs to a different kernel" error, returned by
/// [`QueryResult::try_state`]. It names the kernel that actually produced
/// the result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelMismatch {
    /// The state type the caller asked for.
    pub expected: &'static str,
    /// Name of the kernel that actually produced the result.
    pub kernel: String,
    /// The result's actual state type.
    pub actual: &'static str,
}

impl fmt::Display for KernelMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "result was produced by kernel {:?} (state type {}), not by a kernel producing {}",
            self.kernel, self.actual, self.expected
        )
    }
}

impl std::error::Error for KernelMismatch {}

/// A completed query's result: the kernel's final per-query state, type-
/// erased and cheaply shareable (cache hits and concurrent waiters all see
/// the same allocation).
#[derive(Clone)]
pub struct QueryResult {
    kernel_id: KernelId,
    kernel: Arc<str>,
    /// Human-readable name of the concrete state type behind `state`.
    state_type: &'static str,
    state: ErasedState,
}

impl QueryResult {
    /// Wrap one erased engine state as a result of `kernel`.
    pub(crate) fn new(
        kernel_id: KernelId,
        kernel: Arc<str>,
        state_type: &'static str,
        state: ErasedState,
    ) -> Self {
        QueryResult { kernel_id, kernel, state_type, state }
    }

    /// Build a result from a concrete state value (primarily for tests and
    /// for code paths that synthesise results outside the engine).
    pub fn from_state<S: Any + Send + Sync>(
        kernel_id: KernelId,
        kernel: impl Into<Arc<str>>,
        state: S,
    ) -> Self {
        QueryResult {
            kernel_id,
            kernel: kernel.into(),
            state_type: std::any::type_name::<S>(),
            state: Arc::new(state),
        }
    }

    /// Name of the kernel registration that produced this result.
    pub fn kernel_name(&self) -> &str {
        &self.kernel
    }

    /// Identity of the kernel registration that produced this result.
    pub fn kernel_id(&self) -> KernelId {
        self.kernel_id
    }

    /// The type-erased state (shared with every other holder of this
    /// result).
    pub fn state(&self) -> &ErasedState {
        &self.state
    }

    /// Borrow the state as `S`, or `None` if this result's kernel produces a
    /// different state type.
    pub fn downcast_ref<S: Any>(&self) -> Option<&S> {
        self.state.downcast_ref::<S>()
    }

    /// Borrow the state as `S`, with a [`KernelMismatch`] naming the actual
    /// kernel on type mismatch.
    pub fn try_state<S: Any>(&self) -> Result<&S, KernelMismatch> {
        self.downcast_ref::<S>().ok_or_else(|| self.mismatch::<S>())
    }

    fn mismatch<S: Any>(&self) -> KernelMismatch {
        KernelMismatch {
            expected: std::any::type_name::<S>(),
            kernel: self.kernel.to_string(),
            actual: self.state_type,
        }
    }
}

impl fmt::Debug for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryResult")
            .field("kernel", &self.kernel)
            .field("kernel_id", &self.kernel_id)
            .field("state_type", &self.state_type)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::Dist;
    use fg_seq::ppr::PprConfig;
    use fg_seq::random_walk::RandomWalkConfig;

    /// The keys the service derives for `query` at submit time.
    fn keys(query: &Query) -> (BatchKey, CacheKey) {
        let registry = crate::KernelRegistry::with_builtins();
        let resolved = registry.resolve(query.kernel_name(), query.params()).unwrap();
        let key = BatchKey { kernel: resolved.id, params: resolved.params };
        (key.clone(), CacheKey { key, source: query.source_vertex().unwrap() })
    }

    fn ppr(seed: VertexId, config: &PprConfig) -> Query {
        Query::kernel("ppr")
            .source(seed)
            .param("alpha", config.alpha)
            .param("epsilon", config.epsilon)
            .param("max_pushes", config.max_pushes)
    }

    #[test]
    fn same_kernel_same_config_share_a_batch_key() {
        let a = keys(&Query::kernel("sssp").source(1));
        let b = keys(&Query::kernel("sssp").source(2));
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn different_kernels_do_not_share_a_batch_key() {
        let a = keys(&Query::kernel("sssp").source(1));
        let b = keys(&Query::kernel("bfs").source(1));
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn ppr_config_differences_split_batches() {
        let base = PprConfig::default();
        let a = keys(&ppr(1, &base));
        let b = keys(&ppr(2, &PprConfig { epsilon: base.epsilon * 2.0, ..base }));
        let c = keys(&ppr(3, &base));
        assert_ne!(a.0, b.0);
        assert_eq!(a.0, c.0);
        // A fully spelled-out query keys like one that omits the defaults,
        // or spells out only some of them.
        assert_eq!(a.0, keys(&Query::kernel("ppr").source(5)).0);
        assert_eq!(a.0, keys(&Query::kernel("ppr").source(5).param("alpha", base.alpha)).0);
    }

    #[test]
    fn random_walk_seed_is_part_of_the_key() {
        let seed = RandomWalkConfig::default().seed;
        let walk = |seed: u64| keys(&Query::kernel("random_walk").source(1).param("seed", seed));
        assert_ne!(walk(seed).0, walk(seed + 1).0);
        assert_eq!(walk(seed).0, keys(&Query::kernel("random_walk").source(1)).0);
    }

    #[test]
    fn query_builder_accumulates_source_and_params() {
        let q = Query::kernel("khop").source(3).param("k", 4u64).param("weighted", true);
        assert_eq!(q.kernel_name(), "khop");
        assert_eq!(q.source_vertex(), Some(3));
        assert_eq!(q.params().get("k"), Some(&ParamValue::U64(4)));
        assert_eq!(q.params().get("weighted"), Some(&ParamValue::Bool(true)));
        assert_eq!(Query::kernel("khop").source_vertex(), None);
    }

    #[test]
    fn result_accessors_downcast_and_name_the_kernel_on_mismatch() {
        let result = QueryResult::from_state(KernelId::SSSP, "sssp", vec![0 as Dist, 7, 3]);
        assert_eq!(result.kernel_name(), "sssp");
        assert_eq!(result.try_state::<Vec<Dist>>().unwrap(), &vec![0 as Dist, 7, 3]);
        assert!(result.downcast_ref::<Vec<u32>>().is_none());
        let err = result.try_state::<Vec<u32>>().unwrap_err();
        assert_eq!(err.kernel, "sssp");
        assert!(err.actual.contains("Vec"), "{err}");
        assert!(err.expected.contains("u32"), "{err}");
        let rendered = err.to_string();
        assert!(rendered.contains("sssp"), "error names the actual kernel: {rendered}");
    }
}
