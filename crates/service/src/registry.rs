//! The open kernel registry: `kernel name → factory → erased kernel`.
//!
//! The paper's core abstraction is the fork-processing-pattern *kernel* —
//! SSSP, BFS, PPR, and random walks are just instances. The registry makes
//! that abstraction first-class at the serving layer: a kernel is whatever
//! got [`register`](KernelRegistry::register)ed under a name, and everything
//! downstream (batch formation, admission control, the result cache, the
//! persistent worker pool) is derived from the registration rather than from
//! a closed enum.
//!
//! Three pieces:
//!
//! * A [`KernelFactory`] turns a query's [`QueryParams`] into an
//!   [`InstantiatedKernel`]: a type-erased
//!   [`DynKernel`] plus the *canonical* parameter
//!   set (defaults filled in, typos rejected). Canonical params are what
//!   batch and cache keys hash, so `Query::kernel("ppr").source(v)` and an
//!   explicit-default `alpha=0.15` query share one cohort and one cache
//!   entry.
//! * A [`KernelId`] is minted per *registration*, not per name, from a
//!   process-global counter. Keys embed the id, so two registries' custom
//!   kernels can never alias each other's keys. A name is registered once:
//!   [`KernelRegistry::register`] refuses a name that is already taken.
//! * The [`KernelRegistry`] itself: a concurrent name → entry map,
//!   pre-seeded with the four built-ins by [`KernelRegistry::with_builtins`]
//!   (fixed ids, so built-in keys are stable across services).
//!
//! [`KernelRegistry::resolve`] looks the name up and runs its factory, once
//! per submitted query, so a factory should be cheap. **Factories must be
//! pure** (equal parameters ⇒ an equivalently-behaving kernel): batching and
//! caching rely on it when they let queries with equal canonical keys share
//! one cohort (which runs the first member's kernel) and one cache entry.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use forkgraph_core::kernels::{BfsKernel, PprKernel, RandomWalkKernel, SsspKernel};
use forkgraph_core::{erase, DynKernel};

use crate::params::{ParamError, QueryParams};

/// Identity of one kernel *registration*. Unique process-wide: built-ins use
/// the fixed ids below, every other registration draws from a global
/// counter. Batch and cache keys embed this id (never the name), which is
/// what makes key collisions between same-named kernels of different
/// registries impossible by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(u64);

impl KernelId {
    /// The built-in SSSP kernel's stable id.
    pub const SSSP: KernelId = KernelId(1);
    /// The built-in BFS kernel's stable id.
    pub const BFS: KernelId = KernelId(2);
    /// The built-in PPR kernel's stable id.
    pub const PPR: KernelId = KernelId(3);
    /// The built-in random-walk kernel's stable id.
    pub const RANDOM_WALK: KernelId = KernelId(4);

    /// Mint a fresh id no other registration (in any registry in this
    /// process) has.
    fn next() -> KernelId {
        // Start far above the built-in range so the two can never collide.
        static NEXT: AtomicU64 = AtomicU64::new(16);
        KernelId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value (metrics labels).
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A factory's output: the erased kernel plus the canonical parameters that
/// key its batches and cache entries.
pub struct InstantiatedKernel {
    /// The kernel, ready to run through
    /// [`ForkGraphEngine::run_dyn`](forkgraph_core::ForkGraphEngine::run_dyn).
    pub kernel: Arc<dyn DynKernel>,
    /// Canonical parameter set: every parameter the kernel recognises, with
    /// defaults filled in. Queries whose canonical params are equal are
    /// semantically identical and may share a batch cohort / cache entry.
    pub canonical_params: QueryParams,
}

impl InstantiatedKernel {
    /// Bundle an erased kernel with its canonical parameters.
    pub fn new(kernel: Arc<dyn DynKernel>, canonical_params: QueryParams) -> Self {
        InstantiatedKernel { kernel, canonical_params }
    }
}

/// Builds kernels from query parameters. Implemented automatically for
/// plain closures:
///
/// ```
/// use std::sync::Arc;
/// use fg_service::{InstantiatedKernel, KernelRegistry, QueryParams};
/// use forkgraph_core::erase;
/// use forkgraph_core::kernels::BfsKernel;
///
/// let registry = KernelRegistry::with_builtins();
/// registry
///     .register("bfs-again", |params: &QueryParams| {
///         params.ensure_known(&[])?;
///         Ok(InstantiatedKernel::new(erase(BfsKernel), QueryParams::new()))
///     })
///     .unwrap();
/// assert!(registry.contains("bfs-again"));
/// ```
pub trait KernelFactory: Send + Sync {
    /// Validate `params` and build the kernel they describe.
    fn instantiate(&self, params: &QueryParams) -> Result<InstantiatedKernel, ParamError>;
}

impl<F> KernelFactory for F
where
    F: Fn(&QueryParams) -> Result<InstantiatedKernel, ParamError> + Send + Sync,
{
    fn instantiate(&self, params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
        self(params)
    }
}

/// Failures of registry operations, surfaced through
/// [`crate::ServiceError`] on the submit path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// [`KernelRegistry::register`] refused to shadow an existing name.
    DuplicateName {
        /// The already-registered name.
        name: String,
    },
    /// No kernel is registered under the query's name.
    UnknownKernel {
        /// The name the query asked for.
        name: String,
    },
    /// The factory rejected the query's parameters.
    InvalidParams {
        /// The kernel whose factory rejected them.
        kernel: String,
        /// The factory's reason.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName { name } => {
                write!(f, "kernel {name:?} is already registered")
            }
            RegistryError::UnknownKernel { name } => {
                write!(f, "no kernel registered under {name:?}")
            }
            RegistryError::InvalidParams { kernel, reason } => {
                write!(f, "invalid parameters for kernel {kernel:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A query resolved against the registry: everything the batcher needs to
/// execute it and everything the keys need to group it.
#[derive(Clone)]
pub struct ResolvedKernel {
    /// Registration identity (keys batches and cache entries).
    pub id: KernelId,
    /// Registered name (metrics labels, error messages).
    pub name: Arc<str>,
    /// The instantiated, type-erased kernel.
    pub kernel: Arc<dyn DynKernel>,
    /// Canonical parameters (defaults filled in by the factory).
    pub params: QueryParams,
}

impl fmt::Debug for ResolvedKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResolvedKernel")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("params", &self.params)
            .finish()
    }
}

struct KernelEntry {
    id: KernelId,
    name: Arc<str>,
    factory: Arc<dyn KernelFactory>,
}

/// The concurrent kernel registry; see the [module docs](self).
pub struct KernelRegistry {
    entries: RwLock<HashMap<Arc<str>, KernelEntry>>,
}

impl KernelRegistry {
    /// An empty registry (no kernels, not even the built-ins).
    fn empty() -> Self {
        KernelRegistry { entries: RwLock::new(HashMap::new()) }
    }

    /// A registry pre-seeded with the four built-in kernels under their
    /// stable names and ids: `"sssp"`, `"bfs"`, `"ppr"` (params `alpha`,
    /// `epsilon`, `max_pushes`), and `"random_walk"` (params `num_walks`,
    /// `walk_length`, `restart_prob`, `seed`).
    pub fn with_builtins() -> Self {
        let registry = KernelRegistry::empty();
        registry.insert(KernelId::SSSP, "sssp", Arc::new(sssp_factory));
        registry.insert(KernelId::BFS, "bfs", Arc::new(bfs_factory));
        registry.insert(KernelId::PPR, "ppr", Arc::new(ppr_factory));
        registry.insert(KernelId::RANDOM_WALK, "random_walk", Arc::new(random_walk_factory));
        registry
    }

    fn insert(&self, id: KernelId, name: &str, factory: Arc<dyn KernelFactory>) {
        let name: Arc<str> = Arc::from(name);
        self.entries.write().insert(Arc::clone(&name), KernelEntry { id, name, factory });
    }

    /// Register `factory` under `name`, refusing to shadow an existing
    /// registration. Returns the fresh [`KernelId`].
    pub fn register(
        &self,
        name: &str,
        factory: impl KernelFactory + 'static,
    ) -> Result<KernelId, RegistryError> {
        let mut entries = self.entries.write();
        if entries.contains_key(name) {
            return Err(RegistryError::DuplicateName { name: name.to_string() });
        }
        let id = KernelId::next();
        let name: Arc<str> = Arc::from(name);
        entries.insert(Arc::clone(&name), KernelEntry { id, name, factory: Arc::new(factory) });
        Ok(id)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.read().contains_key(name)
    }

    /// The currently registered kernel names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.entries.read().keys().map(|name| name.to_string()).collect();
        names.sort();
        names
    }

    /// Resolve a query: look up `name` and run its factory over `params`.
    /// Returns the executable, keyable [`ResolvedKernel`].
    pub fn resolve(
        &self,
        name: &str,
        params: &QueryParams,
    ) -> Result<ResolvedKernel, RegistryError> {
        let (id, entry_name, factory) = {
            let entries = self.entries.read();
            let entry = entries
                .get(name)
                .ok_or_else(|| RegistryError::UnknownKernel { name: name.to_string() })?;
            (entry.id, Arc::clone(&entry.name), Arc::clone(&entry.factory))
        };
        // Factory runs outside the lock: factories are user code.
        let instantiated = factory.instantiate(params).map_err(|e| {
            RegistryError::InvalidParams { kernel: name.to_string(), reason: e.reason }
        })?;
        Ok(ResolvedKernel {
            id,
            name: entry_name,
            kernel: instantiated.kernel,
            params: instantiated.canonical_params,
        })
    }
}

impl fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelRegistry").field("names", &self.names()).finish()
    }
}

// -- Built-in factories ------------------------------------------------------

fn sssp_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    params.ensure_known(&[])?;
    Ok(InstantiatedKernel::new(erase(SsspKernel), QueryParams::new()))
}

fn bfs_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    params.ensure_known(&[])?;
    Ok(InstantiatedKernel::new(erase(BfsKernel), QueryParams::new()))
}

fn ppr_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    params.ensure_known(&["alpha", "epsilon", "max_pushes"])?;
    let defaults = PprConfig::default();
    let config = PprConfig {
        alpha: params.f64_or("alpha", defaults.alpha),
        epsilon: params.f64_or("epsilon", defaults.epsilon),
        max_pushes: params.u64_or("max_pushes", defaults.max_pushes)?,
    };
    if !(config.alpha > 0.0 && config.alpha < 1.0) {
        return Err(ParamError::new(format!(
            "parameter \"alpha\" must be in (0, 1), got {}",
            config.alpha
        )));
    }
    if config.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(ParamError::new(format!(
            "parameter \"epsilon\" must be positive, got {}",
            config.epsilon
        )));
    }
    let canonical = QueryParams::new()
        .with("alpha", config.alpha)
        .with("epsilon", config.epsilon)
        .with("max_pushes", config.max_pushes);
    Ok(InstantiatedKernel::new(erase(PprKernel::new(config)), canonical))
}

fn random_walk_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    params.ensure_known(&["num_walks", "walk_length", "restart_prob", "seed"])?;
    let defaults = RandomWalkConfig::default();
    let config = RandomWalkConfig {
        num_walks: params.usize_or("num_walks", defaults.num_walks)?,
        walk_length: params.usize_or("walk_length", defaults.walk_length)?,
        restart_prob: params.f64_or("restart_prob", defaults.restart_prob),
        seed: params.u64_or("seed", defaults.seed)?,
    };
    for (name, value) in [("num_walks", config.num_walks), ("walk_length", config.walk_length)] {
        if value > u32::MAX as usize {
            return Err(ParamError::new(format!(
                "parameter \"{name}\" must be at most {}, got {value}",
                u32::MAX
            )));
        }
    }
    if !(0.0..=1.0).contains(&config.restart_prob) {
        return Err(ParamError::new(format!(
            "parameter \"restart_prob\" must be in [0, 1], got {}",
            config.restart_prob
        )));
    }
    let canonical = QueryParams::new()
        .with("num_walks", config.num_walks)
        .with("walk_length", config.walk_length)
        .with("restart_prob", config.restart_prob)
        .with("seed", config.seed);
    Ok(InstantiatedKernel::new(erase(RandomWalkKernel::new(config)), canonical))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
        params.ensure_known(&[])?;
        Ok(InstantiatedKernel::new(erase(SsspKernel), QueryParams::new()))
    }

    #[test]
    fn builtins_resolve_with_fixed_ids_and_canonical_defaults() {
        let registry = KernelRegistry::with_builtins();
        let id_of = |name| registry.resolve(name, &QueryParams::new()).unwrap().id;
        assert_eq!(id_of("sssp"), KernelId::SSSP);
        assert_eq!(id_of("bfs"), KernelId::BFS);
        assert_eq!(id_of("ppr"), KernelId::PPR);
        assert_eq!(id_of("random_walk"), KernelId::RANDOM_WALK);

        // Omitted PPR params canonicalize to the defaults, so an explicit
        // default and an empty param set are the same key.
        let implicit = registry.resolve("ppr", &QueryParams::new()).unwrap();
        let explicit = registry
            .resolve("ppr", &QueryParams::new().with("alpha", PprConfig::default().alpha))
            .unwrap();
        assert_eq!(implicit.params, explicit.params);
        assert_eq!(implicit.id, explicit.id);
        assert_eq!(implicit.name.as_ref(), "ppr");
    }

    #[test]
    fn unknown_kernels_and_bad_params_are_typed_errors() {
        let registry = KernelRegistry::with_builtins();
        assert_eq!(
            registry.resolve("pagerank", &QueryParams::new()).unwrap_err(),
            RegistryError::UnknownKernel { name: "pagerank".to_string() }
        );
        let err = registry.resolve("ppr", &QueryParams::new().with("epsilom", 1e-5)).unwrap_err();
        match err {
            RegistryError::InvalidParams { kernel, reason } => {
                assert_eq!(kernel, "ppr");
                assert!(reason.contains("epsilom"), "{reason}");
            }
            other => panic!("expected InvalidParams, got {other:?}"),
        }
        let err = registry.resolve("ppr", &QueryParams::new().with("alpha", 1.5)).unwrap_err();
        assert!(matches!(err, RegistryError::InvalidParams { .. }), "{err:?}");
        // The random-walk kernel counts walks and steps in `u32`: a larger
        // value is refused, not truncated under a key that names it.
        for name in ["num_walks", "walk_length"] {
            let params = QueryParams::new().with(name, 1usize << 32);
            match registry.resolve("random_walk", &params).unwrap_err() {
                RegistryError::InvalidParams { kernel, reason } => {
                    assert_eq!(kernel, "random_walk");
                    assert!(reason.contains(name), "{reason}");
                }
                other => panic!("expected InvalidParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn register_refuses_a_taken_name() {
        let registry = KernelRegistry::with_builtins();
        let id = registry.register("custom", noop_factory).unwrap();
        assert!(id > KernelId::RANDOM_WALK, "custom ids live above the built-in range");
        assert_eq!(
            registry.register("custom", noop_factory).unwrap_err(),
            RegistryError::DuplicateName { name: "custom".to_string() }
        );
        assert_eq!(registry.resolve("custom", &QueryParams::new()).unwrap().id, id);
    }

    #[test]
    fn ids_are_unique_across_registries() {
        let a = KernelRegistry::empty();
        let b = KernelRegistry::empty();
        let id_a = a.register("same-name", noop_factory).unwrap();
        let id_b = b.register("same-name", noop_factory).unwrap();
        assert_ne!(id_a, id_b, "two registries' custom kernels never alias");
    }

    #[test]
    fn names_are_sorted() {
        let registry = KernelRegistry::with_builtins();
        assert_eq!(registry.names(), vec!["bfs", "ppr", "random_walk", "sssp"]);
    }
}
