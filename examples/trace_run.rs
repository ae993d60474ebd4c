//! `trace_run` — end-to-end observability demo: traced service, Chrome
//! trace export, per-run profile, and the Prometheus exposition.
//!
//! Builds an RMAT graph, starts a *traced* [`ForkGraphService`]
//! ([`ForkGraphService::start_traced`]), pushes a mixed SSSP/BFS workload
//! through it, and then:
//!
//! 1. writes the recorded event stream as Chrome trace-event JSON to
//!    `trace.json` (load it in `chrome://tracing` or
//!    <https://ui.perfetto.dev>), validating that it parses and has spans;
//! 2. prints the `/metrics` body ([`ForkGraphService::exposition`]): the
//!    service's, the pool's and the sink's metric families in the
//!    Prometheus text format;
//! 3. runs one profiled engine batch directly
//!    ([`EngineConfig::with_profile`]) and prints its
//!    [`RunProfile`] — phase wall times and operations per visit.
//!
//! ```text
//! cargo run --release --example trace_run
//! ```

use std::sync::Arc;
use std::time::Duration;

use forkgraph::prelude::*;
use forkgraph::trace;

const QUERIES: usize = 48;

fn main() {
    let graph = forkgraph::graph::gen::rmat(12, 8, 7).with_random_weights(8, 7);
    let partitioned =
        Arc::new(PartitionedGraph::build(&graph, PartitionConfig::llc_sized(256 * 1024)));
    println!(
        "graph: {} vertices, {} edges, {} partitions",
        graph.num_vertices(),
        graph.num_edges(),
        partitioned.num_partitions()
    );

    // A traced service: every submit, batch formation, engine run (with its
    // partition visits, claims, parks), and ticket resolution lands
    // in this sink's per-thread ring buffers.
    let sink = TraceSink::new();
    let service = ForkGraphService::start_traced(
        Arc::clone(&partitioned),
        EngineConfig::default().with_threads(4),
        forkgraph::service::ServiceConfig {
            batch_window: Duration::from_millis(2),
            max_batch_size: 64,
            max_queue_depth: 256,
            // No result cache: every query reaches the engine so the trace
            // shows real batch/run spans for the whole workload.
            cache_capacity: 0,
        },
        Arc::clone(&sink),
    );

    // A burst of mixed-kernel queries; SSSP and BFS cohorts that wait
    // together share one batch (one epoch pin, their passes back to back).
    let handle = service.handle();
    let n = graph.num_vertices() as u32;
    let tickets: Vec<Ticket> = (0..QUERIES)
        .map(|i| {
            let source = (i as u32 * 97) % n;
            let query = if i % 2 == 0 {
                Query::kernel("sssp").source(source)
            } else {
                Query::kernel("bfs").source(source)
            };
            handle.submit_query(query).expect("submit")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("service answered");
    }

    // Export the event stream as Chrome trace-event JSON and self-validate
    // with the structural parser: a malformed export, one chrome://tracing
    // or Perfetto would reject, or one without spans fails the example.
    let json = service.chrome_trace().expect("service was started traced");
    let events = trace::chrome::parse(&json).expect("exported trace parses");
    assert!(!events.is_empty(), "the exported trace has events");
    assert!(events.iter().any(|e| e.ph == "B"), "the exported trace has spans");
    std::fs::write("trace.json", &json).expect("write trace.json");
    let stats = sink.stats();
    println!(
        "\ntrace.json: {} chrome events from {} events on {} threads ({} dropped)",
        events.len(),
        stats.retained,
        stats.threads,
        stats.dropped
    );
    println!("load it in chrome://tracing or https://ui.perfetto.dev");

    println!("\n=== /metrics exposition ===");
    print!("{}", service.exposition());
    service.shutdown();

    // Per-run profiles come from the engine itself — no service, and no
    // sink needed: `with_profile` alone attaches a RunProfile to the result.
    let engine = ForkGraphEngine::new(&partitioned, EngineConfig::default().with_profile(true));
    let sources: Vec<u32> = (0..32u32).map(|i| (i * 131) % n).collect();
    let result = engine.run_sssp(&sources);
    let profile = result.profile.as_ref().expect("profile requested");
    println!("\n=== one-worker RunProfile ({} queries) ===", sources.len());
    println!("{profile}");
}
