//! The `repro --wire-smoke` load generator: multi-connection, closed-loop
//! clients driving a [`fg_server::ForkGraphServer`] over loopback TCP, with
//! every warm-up response checked against a one-worker engine oracle.
//!
//! Two modes:
//!
//! * **Self-hosted** (default): start a server over the smoke [`workload`]
//!   in this process and hammer it over `127.0.0.1`.
//! * **External** (`--addr host:port`): drive an already-running server —
//!   e.g. `examples/server.rs --listen` — which must be serving the same
//!   deterministic smoke workload, because the generator verifies every
//!   warm-up response against a locally rebuilt one-worker engine oracle.
//!
//! The reported throughput moves with the host; the wire-over-in-process
//! ratio is `fgbench`'s `server.wire_vs_inproc` row.

use std::sync::Arc;
use std::time::Duration;

use fg_graph::gen;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::VertexId;
use fg_server::{ForkGraphServer, Response, ServerConfig, WireClient, WirePayload};
use fg_service::{ForkGraphService, ServiceConfig};
use forkgraph_core::{EngineConfig, ForkGraphEngine};

/// Concurrent connections the generator drives.
pub const WIRE_CLIENTS: usize = 4;

/// Timed sweeps; throughput can only be under-measured by interference, so
/// the best sweep wins.
const REPEATS: usize = 3;

/// Size of the smoke workload. [`Scale::FULL`] is what the CI server-smoke
/// job serves and drives; tests use [`Scale::TINY`] so the debug-mode suite
/// stays fast while exercising the identical code path.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `log2` of the RMAT vertex count.
    pub rmat_levels: u32,
    /// Partition count.
    pub partitions: usize,
    /// Queries per sweep.
    pub queries: usize,
}

impl Scale {
    /// The served workload: 8192 vertices, 24 partitions, 32 queries.
    pub const FULL: Scale = Scale { rmat_levels: 13, partitions: 24, queries: 32 };
    /// A seconds-not-minutes instance for debug-mode tests.
    pub const TINY: Scale = Scale { rmat_levels: 8, partitions: 6, queries: 6 };
}

/// The smoke workload at `scale`: the partitioned graph and the query
/// sources. The server and the generator each build it, so the graph and
/// the sources must repeat across processes.
pub fn workload(scale: Scale) -> (PartitionedGraph, Vec<VertexId>) {
    let graph = gen::rmat(scale.rmat_levels, 8, 42).with_random_weights(9, 42);
    let pg = PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, scale.partitions),
    );
    let n = pg.graph().num_vertices() as u32;
    let sources = (0..scale.queries as u32).map(|i| (i * 251) % n).collect();
    (pg, sources)
}

/// Result of one wire-smoke run.
pub struct WireSmokeOutcome {
    /// Warm-up responses that matched the oracle (every query).
    pub verified: usize,
    /// Best closed-loop sweep, in queries per second over the wire.
    pub wire_qps: f64,
}

/// Start a traced server over the smoke workload: what
/// `examples/server.rs --listen` serves (so `/trace` works against the live
/// server) and what the generator hammers in self-hosted mode. Caching is
/// off so every query costs real engine work, and the batch window is short
/// so closed-loop clients aren't dominated by window latency.
pub fn start_smoke_server(scale: Scale, addr: &str) -> std::io::Result<ForkGraphServer> {
    let (pg, _) = workload(scale);
    let service = ForkGraphService::start_traced(
        Arc::new(pg),
        EngineConfig::default().with_threads(2),
        ServiceConfig {
            batch_window: Duration::from_millis(1),
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
        fg_trace::TraceSink::new(),
    );
    ForkGraphServer::start(
        service,
        ServerConfig { addr: addr.to_string(), ..ServerConfig::default() },
    )
}

/// The query mix: alternating SSSP/BFS over the smoke sources, split
/// round-robin across clients.
fn client_share(sources: &[VertexId], client: usize) -> Vec<(&'static str, VertexId)> {
    sources
        .iter()
        .enumerate()
        .filter(|(i, _)| i % WIRE_CLIENTS == client)
        .map(|(i, &source)| (if i % 2 == 0 { "sssp" } else { "bfs" }, source))
        .collect()
}

/// One closed-loop sweep on an open connection: pipeline the share, then
/// drain all responses (backing off on retry-after frames). Returns the
/// responses in request order for oracle checking.
fn sweep(client: &mut WireClient, share: &[(&'static str, VertexId)]) -> Vec<Response> {
    let mut pending: Vec<u32> = Vec::with_capacity(share.len());
    for (kernel, source) in share {
        pending.push(client.send(kernel, *source).expect("send over wire"));
    }
    client.flush().expect("flush");
    let mut responses: std::collections::HashMap<u32, Response> =
        std::collections::HashMap::with_capacity(share.len());
    let mut outstanding = pending.clone();
    while !outstanding.is_empty() {
        let response = client.recv().expect("recv over wire");
        match response {
            Response::RetryAfter { correlation, retry_after_ms, .. } => {
                // Closed-loop backoff: resubmit the shed query after the
                // server's hint. The correlation changes; track the swap.
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1) as u64));
                let position = pending
                    .iter()
                    .position(|&c| c == correlation)
                    .expect("retry for a correlation we sent");
                let (kernel, source) = share[position];
                let fresh = client.send(kernel, source).expect("resend");
                client.flush().expect("flush resend");
                for slot in [&mut pending, &mut outstanding] {
                    if let Some(c) = slot.iter_mut().find(|c| **c == correlation) {
                        *c = fresh;
                    }
                }
            }
            other => {
                let correlation = other.correlation();
                outstanding.retain(|&c| c != correlation);
                responses.insert(correlation, other);
            }
        }
    }
    pending
        .iter()
        .map(|correlation| responses.remove(correlation).expect("answered correlation"))
        .collect()
}

/// Run the wire smoke at `scale` against `addr` (external mode) or a
/// self-hosted server.
pub fn run_wire_smoke(scale: Scale, addr: Option<&str>) -> WireSmokeOutcome {
    let (pg, sources) = workload(scale);

    // Self-host unless pointed at an external server.
    let own_server = match addr {
        Some(_) => None,
        None => Some(start_smoke_server(scale, "127.0.0.1:0").expect("bind loopback")),
    };
    let target = match (addr, &own_server) {
        (Some(addr), _) => addr.to_string(),
        (None, Some(server)) => server.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    // One-worker engine oracle for verification (identical workload on both sides —
    // external servers must serve [`workload`] for this to hold).
    let oracle_engine = ForkGraphEngine::new(&pg, EngineConfig::default());

    let total_queries = sources.len();
    let mut clients: Vec<(WireClient, Vec<(&'static str, VertexId)>)> = (0..WIRE_CLIENTS)
        .map(|c| {
            let client = WireClient::connect(target.as_str())
                .unwrap_or_else(|e| panic!("cannot connect to {target}: {e}"));
            (client, client_share(&sources, c))
        })
        .collect();

    // Warm-up sweep, verified against the oracle: a load generator that can
    // silently measure wrong answers is worse than no generator.
    let mut verified = 0usize;
    for (client, share) in &mut clients {
        for ((kernel, source), response) in share.iter().zip(sweep(client, share)) {
            let payload = match response {
                Response::Result { payload, .. } => payload,
                other => panic!("warm-up {kernel}({source}) failed: {other:?}"),
            };
            match *kernel {
                "sssp" => assert_eq!(
                    payload,
                    WirePayload::U64s(oracle_engine.run_sssp(&[*source]).per_query[0].clone()),
                    "wire sssp({source}) diverged from the one-worker engine oracle"
                ),
                _ => assert_eq!(
                    payload,
                    WirePayload::U32s(oracle_engine.run_bfs(&[*source]).per_query[0].clone()),
                    "wire bfs({source}) diverged from the one-worker engine oracle"
                ),
            }
            verified += 1;
        }
    }
    assert_eq!(verified, total_queries, "every warm-up response verified");

    // Timed sweeps: all clients run concurrently; a sweep ends when every
    // connection has drained its share.
    let mut best_secs = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for (client, share) in &mut clients {
                scope.spawn(move || {
                    sweep(client, share);
                });
            }
        });
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
    }
    drop(clients);
    if let Some(server) = own_server {
        server.shutdown();
    }
    WireSmokeOutcome { verified, wire_qps: total_queries as f64 / best_secs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_hosted_wire_smoke_verifies_every_warm_up_response() {
        let outcome = run_wire_smoke(Scale::TINY, None);
        assert_eq!(outcome.verified, Scale::TINY.queries);
        assert!(outcome.wire_qps > 0.0);
    }

    #[test]
    fn external_mode_drives_a_separately_started_server() {
        // Simulates the CI server-smoke job: a detached smoke-workload
        // server, then the generator pointed at it by address.
        let server = start_smoke_server(Scale::TINY, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        let outcome = run_wire_smoke(Scale::TINY, Some(&addr));
        assert_eq!(outcome.verified, Scale::TINY.queries);
        server.shutdown();
    }
}
