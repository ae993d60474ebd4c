//! The benchmark's contract in one place: workload names, metric names with
//! unit, direction and bound, the sizes of each workload, and the
//! `BENCHMARK.json` that states all of it. `BENCHMARK.json` at the
//! repository root is this module's [`benchmark_json`] output; a test holds
//! the two together.

use crate::json::Json;

/// Directory (relative to the repository root) that holds the benchmark.
pub const BENCH_DIR: &str = "fgbench";

/// Seconds one contract run measures at the sizes below; `--seconds` scales
/// repetition counts in proportion to it.
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const FPP_SOCIAL: &str = "fpp-social-resident";
pub const FPP_ROAD: &str = "fpp-road-spill";
pub const FPP_PPR: &str = "fpp-ppr-resident";
pub const SERVE_READ: &str = "serve-read";
pub const SERVE_MUTATE: &str = "serve-mutate";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: FPP_SOCIAL,
        why: "32 SSSP sources on an R-MAT 2^13 graph inside L2: nothing misses cache, so the engine's own bookkeeping (buffers, yields, per-visit allocation) is all there is",
    },
    WorkloadSpec {
        name: FPP_ROAD,
        why: "8 SSSP sources on a 512x512 lattice, 6.5x L2, high diameter, few yields: partition locality, the paper's mechanism, is what can pay here; bookkeeping fixes should move it little",
    },
    WorkloadSpec {
        name: FPP_PPR,
        why: "32 PPR seeds on the resident graph: operations accumulate mass and cannot be pruned as dominated, so SSSP-shaped optimisations that cost accumulating kernels show here",
    },
    WorkloadSpec {
        name: SERVE_READ,
        why: "closed-loop Zipf reads over loopback, 2 connections x 4 in flight: framing, admission, batch window, mixed-kernel runs and result cache; median is a cache hit, p90 a batched run",
    },
    WorkloadSpec {
        name: SERVE_MUTATE,
        why: "rounds of 8 acknowledged mutations then 16 hot-key reads, every fourth round with a delete: epoch folds, scoped invalidation, incremental restarts (p50) against whole-key re-runs (p90)",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change is rejected. Set from the measured noise floor (README.md):
    /// never below twice the widest spread observed for the metric.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "batch_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "vs_seq", unit: "ratio", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_p90_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Exact counts repeat bit-for-bit across repetitions and processes at
    /// one seed; they feed the `counters_digest`.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: true }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, exact: false }
}

/// Per-layer metrics, in ladder order (kernel, partition visit, buffer,
/// engine batch, erased dispatch, service, wire). README.md says which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: [PerLayer; 66] = [
    // fg-graph: generate / partition / build
    timed("graph.gen_s", "s"),
    timed("graph.partition_s", "s"),
    timed("graph.build_s", "s"),
    timed("graph.partition_multilevel_s", "s"),
    exact("graph.partitions", "count"),
    exact("graph.cut_ratio", "ratio"),
    exact("graph.max_partition_kib", "KiB"),
    // fg-graph: payload / view
    exact("graph.bytes_per_edge_raw", "B/edge"),
    exact("graph.bytes_per_edge_compressed", "B/edge"),
    timed("graph.view_raw_ns_per_edge", "ns/edge"),
    timed("graph.view_compressed_ns_per_edge", "ns/edge"),
    timed("graph.compressed_vs_raw", "ratio"),
    // fg-graph: mutation / epoch
    timed("graph.mutation_log_us", "us"),
    timed("graph.epoch_advance_ms", "ms"),
    exact("graph.epoch_dirty_frac", "frac"),
    // fg-seq
    timed("seq.batch_s", "s"),
    timed("seq.ns_per_edge", "ns/edge"),
    exact("seq.edges", "count"),
    // forkgraph-core: engine
    timed("core.engine.ns_per_edge", "ns/edge"),
    exact("core.engine.edges", "count"),
    exact("core.engine.work_amp", "ratio"),
    exact("core.engine.ops_processed", "count"),
    exact("core.engine.ops_buffered", "count"),
    exact("core.engine.ops_pruned", "count"),
    exact("core.engine.ops_per_settle", "ratio"),
    exact("core.engine.visits", "count"),
    exact("core.engine.yields", "count"),
    exact("core.engine.ops_per_visit", "ratio"),
    timed("core.engine.init_ms", "ms"),
    timed("core.engine.processing_ms", "ms"),
    timed("core.engine.finalize_ms", "ms"),
    higher("core.engine.caller_cpu_frac", "frac"),
    // forkgraph-core: ladder
    timed("core.engine.p1_vs_seq", "ratio"),
    timed("core.engine.batch_vs_p1", "ratio"),
    timed("core.engine.single_vs_seq", "ratio"),
    timed("core.engine.batch_slowdown", "ratio"),
    // forkgraph-core: yield / sched / buffer
    timed("core.yield.none_vs_default", "ratio"),
    timed("core.sched.fifo_vs_priority", "ratio"),
    timed("core.buffer.consolidate_ns_per_op", "ns/op"),
    // forkgraph-core: dispatch / multi / executor
    timed("core.dyn.vs_direct", "ratio"),
    timed("core.multi.vs_back2back", "ratio"),
    timed("core.executor.pool2_vs_serial", "ratio"),
    timed("core.executor.steals", "count"),
    timed("core.executor.idle_waits", "count"),
    higher("core.pool.mailbox_reuse_rate", "frac"),
    // fg-cachesim
    timed("cachesim.engine_miss_per_kedge", "miss/kedge"),
    exact("cachesim.baseline_miss_per_kedge", "miss/kedge"),
    // fg-service
    timed("service.inproc_vs_engine", "ratio"),
    timed("service.batches", "count"),
    higher("service.batch_occupancy", "queries/batch"),
    higher("service.cache_hit_rate", "frac"),
    timed("service.mixed_run_rate", "frac"),
    timed("service.shed_frac", "frac"),
    higher("service.incremental_runs", "count"),
    timed("service.cache_invalidations", "count"),
    timed("service.epochs_advanced", "count"),
    timed("service.mutate_ack_p50_ms", "ms"),
    timed("service.round_monotone_ms", "ms"),
    timed("service.round_delete_ms", "ms"),
    timed("service.read_p99_ms", "ms"),
    // fg-server
    timed("server.wire_vs_inproc", "ratio"),
    timed("server.rtt_hit_us", "us"),
    exact("server.response_kib", "KiB"),
    timed("server.retry_after_frac", "frac"),
    // fg-trace
    timed("trace.overhead_frac", "frac"),
    timed("trace.events_per_query", "events/query"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "fgbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str(BENCH_DIR)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Sizes of the five workloads. [`Scale::full`] is what every reported
/// number uses; [`Scale::quick`] is the toy scale of the self-test, which
/// runs the identical code in seconds in a debug build.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    pub quick: bool,
    /// `log2` of the R-MAT vertex count of the resident graph.
    pub rmat_levels: u32,
    pub social_partitions: usize,
    /// Queries in the resident batches (SSSP sources, PPR seeds).
    pub resident_sources: usize,
    /// Side of the road lattice.
    pub grid_side: usize,
    /// Chunked partition size of the road graph, in bytes.
    pub road_partition_bytes: usize,
    pub road_sources: usize,
    /// Interleaved {seq loop, engine run} pairs per workload.
    pub social_pairs: usize,
    pub road_pairs: usize,
    pub ppr_pairs: usize,
    /// How often the sequential loop repeats inside one pair, so that its
    /// side of the ratio is long enough to time.
    pub social_seq_repeats: usize,
    pub road_seq_repeats: usize,
    pub ppr_seq_repeats: usize,
    pub ppr_epsilon: f64,
    /// Distinct sources and passes over them for single-query latency
    /// samples (the road workload passes over its batch sources).
    pub resident_latency_sources: usize,
    pub resident_latency_passes: usize,
    pub road_latency_passes: usize,
    /// Never fewer pairs than this, whatever `--seconds` says.
    pub min_pairs: usize,
    /// serve-read: vertices in the Zipf pool, and per-connection requests.
    pub read_pool: usize,
    pub read_warmup: usize,
    pub read_measured: usize,
    /// serve-mutate: hot keys, mutations per round, rounds.
    pub hot_keys: usize,
    pub mutations_per_round: usize,
    pub mutate_warmup_rounds: usize,
    pub mutate_rounds: usize,
    /// Sources of the ladder rows in the traced pass.
    pub resident_ladder_sources: usize,
    pub road_ladder_sources: usize,
    /// Repetitions of each ladder row.
    pub ladder_reps: usize,
    /// Operations in the buffer-consolidation stream.
    pub consolidate_ops: usize,
    /// Calls timed for `server.rtt_hit_us`.
    pub rtt_calls: usize,
    /// Probe sizes: per-connection requests and rounds used where a serving
    /// layer is measured on a workload whose own traffic does not reach it.
    pub probe_requests: usize,
    pub probe_rounds: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            quick: false,
            rmat_levels: 13,
            social_partitions: 24,
            resident_sources: 32,
            grid_side: 512,
            road_partition_bytes: 1 << 20,
            road_sources: 8,
            social_pairs: 7,
            road_pairs: 7,
            ppr_pairs: 11,
            social_seq_repeats: 8,
            road_seq_repeats: 1,
            ppr_seq_repeats: 40,
            ppr_epsilon: 1e-5,
            resident_latency_sources: 128,
            resident_latency_passes: 3,
            road_latency_passes: 13,
            min_pairs: 7,
            read_pool: 2048,
            read_warmup: 200,
            read_measured: 800,
            hot_keys: 16,
            mutations_per_round: 8,
            mutate_warmup_rounds: 2,
            mutate_rounds: 200,
            resident_ladder_sources: 8,
            road_ladder_sources: 2,
            ladder_reps: 3,
            consolidate_ops: 1_000_000,
            rtt_calls: 1000,
            probe_requests: 120,
            probe_rounds: 8,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            quick: true,
            rmat_levels: 8,
            social_partitions: 6,
            resident_sources: 8,
            grid_side: 32,
            road_partition_bytes: 8 << 10,
            road_sources: 4,
            social_pairs: 2,
            road_pairs: 2,
            ppr_pairs: 2,
            social_seq_repeats: 2,
            road_seq_repeats: 1,
            ppr_seq_repeats: 2,
            ppr_epsilon: 1e-4,
            resident_latency_sources: 12,
            resident_latency_passes: 1,
            road_latency_passes: 1,
            min_pairs: 2,
            read_pool: 48,
            read_warmup: 4,
            read_measured: 10,
            hot_keys: 8,
            mutations_per_round: 4,
            mutate_warmup_rounds: 1,
            mutate_rounds: 4,
            resident_ladder_sources: 4,
            road_ladder_sources: 2,
            ladder_reps: 1,
            consolidate_ops: 20_000,
            rtt_calls: 20,
            probe_requests: 8,
            probe_rounds: 4,
        }
    }

    /// Scale the repetition counts to a run of `seconds` (sizes of graphs
    /// and batches never change; repetition floors hold).
    pub fn for_seconds(mut self, seconds: u64) -> Scale {
        if self.quick || seconds == RUN_SECONDS {
            return self;
        }
        let factor = seconds as f64 / RUN_SECONDS as f64;
        let scaled =
            |count: usize, floor: usize| ((count as f64 * factor).round() as usize).max(floor);
        self.social_pairs = scaled(self.social_pairs, self.min_pairs);
        self.road_pairs = scaled(self.road_pairs, self.min_pairs);
        self.ppr_pairs = scaled(self.ppr_pairs, self.min_pairs);
        self.read_measured = scaled(self.read_measured, 100);
        self.mutate_rounds = scaled(self.mutate_rounds / 4, 4) * 4;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver applies to `BENCHMARK.json` before it makes a
    /// single run.
    #[test]
    fn spec_is_inside_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
            names.push(w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &PER_LAYER {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        let text = benchmark_json().render_pretty();
        assert!(text.len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn seconds_scale_repetitions_but_never_below_the_floors() {
        let full = Scale::full();
        assert_eq!(full.for_seconds(RUN_SECONDS), full);
        let short = full.for_seconds(1);
        assert_eq!(short.social_pairs, full.min_pairs);
        assert_eq!(short.rmat_levels, full.rmat_levels);
        let long = full.for_seconds(2 * RUN_SECONDS);
        assert_eq!(long.social_pairs, 2 * full.social_pairs);
        assert_eq!(long.mutate_rounds % 4, 0);
    }
}
