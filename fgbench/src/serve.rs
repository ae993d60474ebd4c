//! The two serving workloads: a `ForkGraphServer` in this process, driven
//! over loopback TCP by `WireClient`s — closed-loop reads (`serve-read`) and
//! rounds of acknowledged mutations followed by reads (`serve-mutate`).
//! Every response is checked against `fg-seq`; for `serve-mutate` against a
//! mirror graph that has had the acknowledged mutations applied.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, Edge, EdgeMutation, VertexId, Weight};
use fg_metrics::ServiceSnapshot;
use fg_server::{ForkGraphServer, Response, ServerConfig, WireClient, WirePayload};
use fg_service::{ForkGraphService, ServiceConfig};
use fg_trace::TraceSink;
use forkgraph_core::EngineConfig;

use crate::env;
use crate::fpp::{build_graph, repeat_setup, SetupTimes};
use crate::inputs::{pick_sources, stratified_sources, zipf_stream, GraphKind, ReadKey, Rng};
use crate::outcome::Outcome;
use crate::spans::{Open, Recorder};
use crate::spec::Scale;
use crate::stats::{median, typical, Stretch};

/// Connections a serving workload drives: one per available core, which on
/// the reference box is two.
pub const CONNECTIONS: usize = 2;

/// Requests each `serve-read` connection keeps in flight.
pub const WINDOW: usize = 4;

/// A running server with its connected clients.
///
/// Field order is tear-down order: dropping a `Stack` closes the
/// connections first, then drains and stops server and service (joining
/// every thread they started).
pub struct Stack {
    pub clients: Vec<WireClient>,
    pub server: ForkGraphServer,
    pub pg: Arc<PartitionedGraph>,
}

impl Stack {
    pub fn graph(&self) -> &CsrGraph {
        self.pg.graph()
    }
}

/// Start service and server (default configurations, bound to
/// `127.0.0.1:0`) over an already built graph and connect the clients. With
/// a `sink`, the service records its events into it. Returns the seconds
/// this took alongside.
pub fn set_up_on(
    pg: Arc<PartitionedGraph>,
    service_config: ServiceConfig,
    sink: Option<Arc<TraceSink>>,
    rec: &Recorder,
    parent: Option<u32>,
) -> (Stack, f64) {
    let start = Instant::now();
    let span = rec.begin("serve.start", parent);
    let service = rec.scope("service.start", span.id(), || match &sink {
        Some(sink) => ForkGraphService::start_traced(
            Arc::clone(&pg),
            EngineConfig::default(),
            service_config,
            Arc::clone(sink),
        ),
        None => ForkGraphService::start(Arc::clone(&pg), EngineConfig::default(), service_config),
    });
    let server = rec.scope("server.start", span.id(), || {
        ForkGraphServer::start(service, ServerConfig::default()).expect("bind 127.0.0.1:0")
    });
    let clients = rec.scope("client.connect", span.id(), || {
        (0..CONNECTIONS)
            .map(|_| {
                let mut client =
                    WireClient::connect(server.local_addr()).expect("connect over loopback");
                client.flush().expect("announce the binary dialect");
                client
            })
            .collect()
    });
    rec.end(span);
    (Stack { clients, server, pg }, start.elapsed().as_secs_f64())
}

/// One cold set-up of a serving workload: build the graph, then
/// [`set_up_on`] it.
pub fn set_up(kind: GraphKind, seed: u64, rec: &Recorder) -> (Stack, SetupTimes) {
    let span = rec.begin("setup", None);
    let (pg, mut times) = build_graph(kind, seed, rec, span.id());
    let (stack, seconds) = set_up_on(Arc::new(pg), ServiceConfig::default(), None, rec, span.id());
    times.total_s += seconds;
    rec.end(span);
    (stack, times)
}

/// Repeated cold set-ups of a serving stack; the last one is kept.
pub fn repeated_set_up(
    kind: GraphKind,
    seed: u64,
    scale: &Scale,
    rec: &Recorder,
    out: &mut Outcome,
) -> (Stack, Vec<SetupTimes>) {
    let mut all = Vec::new();
    let (stack, setup_s) = repeat_setup(scale.quick, || {
        let (stack, times) = set_up(kind, seed, rec);
        all.push(times);
        (stack, times.total_s)
    });
    out.push("setup_s", median(&setup_s));
    out.samples("setup_s", setup_s.len());
    (stack, all)
}

/// A 64-bit digest of a response's numbers: responses are checked against
/// the oracle by digest so that the benchmark need not hold 64 KiB per
/// request (which would make `peak_rss_mib` a measure of the benchmark).
fn digest_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        hash ^= hash >> 29;
    }
    hash
}

fn digest_payload(payload: &WirePayload) -> Option<(u64, usize)> {
    match payload {
        WirePayload::U64s(dist) => Some((digest_words(dist.iter().copied()), dist.len() * 8)),
        WirePayload::U32s(level) => {
            Some((digest_words(level.iter().map(|&l| l as u64)), level.len() * 4))
        }
        _ => None,
    }
}

/// The oracle's answer to one read, as a digest.
pub fn oracle_digest(graph: &CsrGraph, key: ReadKey) -> u64 {
    if key.bfs {
        digest_words(fg_seq::bfs(graph, key.source).level.iter().map(|&l| l as u64))
    } else {
        digest_words(fg_seq::dijkstra(graph, key.source).dist.iter().copied())
    }
}

/// Seconds a single-threaded `fg-seq` loop takes to answer `keys` in order
/// with nothing cached.
pub fn seq_answer_loop(graph: &CsrGraph, keys: &[ReadKey]) -> f64 {
    let start = Instant::now();
    for key in keys {
        if key.bfs {
            black_box(fg_seq::bfs(black_box(graph), key.source));
        } else {
            black_box(fg_seq::dijkstra(black_box(graph), key.source));
        }
    }
    start.elapsed().as_secs_f64()
}

/// What one connection saw while driving a list of reads.
#[derive(Clone, Debug, Default)]
pub struct ReadLog {
    /// Send-to-response latency of every read, in request order.
    pub latency_s: Vec<f64>,
    /// Digest of every response (0 where none arrived), in request order.
    pub digests: Vec<u64>,
    pub response_bytes: u64,
    /// `Error` frames, undecodable payloads and transport failures.
    pub errors: u64,
    pub retry_afters: u64,
}

/// One connection's closed loop over a list of reads: at most `window`
/// requests in flight, the next one sent only when a response comes back. A
/// `RetryAfter` is honoured and the request resent; its latency keeps
/// running from the first send.
pub struct ReadDriver<'a> {
    client: &'a mut WireClient,
    keys: &'a [ReadKey],
    window: usize,
    rec: &'a Recorder,
    parent: Option<u32>,
    /// Correlation id → (request index, first send, open span).
    inflight: HashMap<u32, (usize, Instant, Open)>,
    next: usize,
    log: ReadLog,
}

impl<'a> ReadDriver<'a> {
    pub fn new(
        client: &'a mut WireClient,
        keys: &'a [ReadKey],
        window: usize,
        rec: &'a Recorder,
        parent: Option<u32>,
    ) -> Self {
        let log = ReadLog {
            latency_s: vec![f64::NAN; keys.len()],
            digests: vec![0; keys.len()],
            ..ReadLog::default()
        };
        ReadDriver { client, keys, window, rec, parent, inflight: HashMap::new(), next: 0, log }
    }

    fn send(&mut self, index: usize, first_sent: Option<(Instant, Open)>) {
        let (sent, open) =
            first_sent.unwrap_or_else(|| (Instant::now(), self.rec.begin("request", self.parent)));
        match self.client.send(self.keys[index].kernel(), self.keys[index].source) {
            Ok(correlation) => {
                self.inflight.insert(correlation, (index, sent, open));
            }
            Err(_) => self.log.errors += 1,
        }
    }

    /// Send requests until the window is full, then flush. Returns `false`
    /// when the connection is gone (everything in flight counts as failed).
    pub fn fill(&mut self) -> bool {
        while self.next < self.keys.len() && self.inflight.len() < self.window {
            self.send(self.next, None);
            self.next += 1;
        }
        if self.client.flush().is_err() {
            self.log.errors += self.inflight.len() as u64;
            self.inflight.clear();
            return false;
        }
        true
    }

    /// Receive until nothing is in flight, refilling the window after every
    /// response.
    pub fn drain(&mut self) {
        while !self.inflight.is_empty() {
            let Ok(response) = self.client.recv() else {
                self.log.errors += self.inflight.len() as u64;
                self.inflight.clear();
                return;
            };
            let received = Instant::now();
            let Some((index, sent, open)) = self.inflight.remove(&response.correlation()) else {
                self.log.errors += 1;
                continue;
            };
            let kernel = self.keys[index].kernel();
            match response {
                Response::Result { correlation, payload } => {
                    self.log.latency_s[index] = received.duration_since(sent).as_secs_f64();
                    self.rec.end_with(open, || format!("{kernel} #{correlation}"));
                    match digest_payload(&payload) {
                        Some((digest, bytes)) => {
                            self.log.digests[index] = digest;
                            self.log.response_bytes += bytes as u64;
                        }
                        None => self.log.errors += 1,
                    }
                }
                Response::RetryAfter { retry_after_ms, .. } => {
                    self.log.retry_afters += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1) as u64));
                    self.send(index, Some((sent, open)));
                }
                Response::Error { .. } => {
                    self.rec.end_with(open, || format!("{kernel} error"));
                    self.log.errors += 1;
                }
            }
            if !self.fill() {
                return;
            }
        }
    }

    pub fn finish(self) -> ReadLog {
        self.log
    }
}

/// Drive `keys` over `client` as a closed loop keeping `window` requests in
/// flight, to completion.
pub fn drive_reads(
    client: &mut WireClient,
    keys: &[ReadKey],
    window: usize,
    rec: &Recorder,
    parent: Option<u32>,
) -> ReadLog {
    let mut driver = ReadDriver::new(client, keys, window, rec, parent);
    if driver.fill() {
        driver.drain();
    }
    driver.finish()
}

/// Count the reads of `log` that failed: no response, an error, or a
/// response whose digest differs from the oracle's.
pub fn wrong_reads(keys: &[ReadKey], log: &ReadLog, oracle: &HashMap<ReadKey, u64>) -> u64 {
    keys.iter()
        .zip(&log.digests)
        .zip(&log.latency_s)
        .filter(|((key, digest), latency)| latency.is_nan() || oracle.get(key) != Some(digest))
        .count() as u64
}

/// Result of a read pass (the `serve-read` workload, or a probe of it).
pub struct ReadPass {
    /// Per measured segment: its wall time, and the time the sequential
    /// loop took to answer the same requests.
    pub segments: Vec<Stretch>,
    /// Send-to-response latency of every measured read, one list per
    /// segment.
    pub latency_ms: Vec<Vec<f64>>,
    pub requests: u64,
    pub distinct_keys: usize,
    pub response_bytes: u64,
    pub retry_afters: u64,
    /// Service counters over the measured phase only.
    pub before: ServiceSnapshot,
    pub after: ServiceSnapshot,
}

/// Segments the measured part of a read pass is cut into. After each
/// segment the sequential loop answers that segment's requests, so that the
/// two sides of `vs_seq` are sampled over the same stretch of time and a
/// slow phase of the host weighs on both. The stream is stratified, so the
/// segments hold like work and the median segment stands for all of them.
pub const READ_SEGMENTS: usize = 10;

/// The `serve-read` traffic against a running stack: per connection
/// `warmup` then `measured` Zipf reads, closed loop, [`WINDOW`] in flight.
/// The connections run on a thread each and meet at a barrier around every
/// segment; the service idles while the sequential loop has its turn.
#[allow(clippy::too_many_arguments)]
pub fn read_pass(
    stack: &mut Stack,
    seed: u64,
    pool_size: usize,
    warmup: usize,
    measured: usize,
    rec: &Recorder,
    out: &mut Outcome,
) -> ReadPass {
    let pool = pick_sources(stack.graph(), pool_size, &mut Rng::new(seed, "read-pool"));
    let mut stream =
        zipf_stream(&pool, (warmup + measured) * CONNECTIONS, &mut Rng::new(seed, "read-stream"))
            .into_iter();
    // Connection c takes the c-th slice of the warm-up part of the stream,
    // then the c-th slice of the measured part.
    let warm_lists: Vec<Vec<ReadKey>> =
        (0..CONNECTIONS).map(|_| stream.by_ref().take(warmup).collect()).collect();
    let lists: Vec<Vec<ReadKey>> =
        (0..CONNECTIONS).map(|_| stream.by_ref().take(measured).collect()).collect();
    let segments = READ_SEGMENTS.min(measured.max(1));
    let bounds: Vec<(usize, usize)> =
        (0..segments).map(|i| (i * measured / segments, (i + 1) * measured / segments)).collect();

    let graph = stack.pg.graph_arc();
    let mut oracle: HashMap<ReadKey, u64> = HashMap::new();
    for &key in warm_lists.iter().chain(&lists).flatten() {
        oracle.entry(key).or_insert_with(|| oracle_digest(&graph, key));
    }

    let barrier = Barrier::new(CONNECTIONS + 1);
    let pass = rec.begin("pass", None);
    let mut segments = Vec::new();
    let (logs, before) = std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(warm_lists.iter().zip(&lists))
            .map(|(client, (warm, list))| {
                let (barrier, bounds) = (&barrier, &bounds);
                scope.spawn(move || {
                    let quiet = Recorder::new(false);
                    let warm_log = drive_reads(client, warm, WINDOW, &quiet, None);
                    let mut log = ReadLog::default();
                    for &(lo, hi) in bounds {
                        barrier.wait();
                        let segment = drive_reads(client, &list[lo..hi], WINDOW, rec, pass.id());
                        barrier.wait();
                        log.latency_s.extend(segment.latency_s);
                        log.digests.extend(segment.digests);
                        log.response_bytes += segment.response_bytes;
                        log.errors += segment.errors;
                        log.retry_afters += segment.retry_afters;
                    }
                    (warm_log, log)
                })
            })
            .collect();
        let mut before = None;
        for &(lo, hi) in &bounds {
            barrier.wait();
            let start = Instant::now();
            before.get_or_insert_with(|| stack.server.metrics());
            barrier.wait();
            let wall_s = start.elapsed().as_secs_f64();
            let keys: Vec<ReadKey> =
                lists.iter().flat_map(|list| list[lo..hi].iter().copied()).collect();
            let seq_s = rec.scope("seq.loop", pass.id(), || seq_answer_loop(&graph, &keys));
            segments.push(Stretch { wall_s, seq_s });
        }
        let logs: Vec<(ReadLog, ReadLog)> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (logs, before.expect("at least one segment"))
    });
    rec.end(pass);
    let after = stack.server.metrics();

    let mut latency_ms = vec![Vec::new(); bounds.len()];
    let mut response_bytes = 0;
    let mut retry_afters = 0;
    for ((warm_log, log), (warm, list)) in logs.iter().zip(warm_lists.iter().zip(&lists)) {
        out.checked(
            warm.len() as u64,
            wrong_reads(warm, warm_log, &oracle) + warm_log.errors,
            "warm-up reads wrong, refused or unanswered",
        );
        out.checked(
            list.len() as u64,
            wrong_reads(list, log, &oracle) + log.errors,
            "measured reads wrong, refused or unanswered",
        );
        for (segment, &(lo, hi)) in latency_ms.iter_mut().zip(&bounds) {
            segment.extend(log.latency_s[lo..hi].iter().filter(|l| !l.is_nan()).map(|l| l * 1e3));
        }
        response_bytes += log.response_bytes;
        retry_afters += log.retry_afters + warm_log.retry_afters;
    }
    let mut distinct: Vec<ReadKey> = lists.iter().flatten().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    ReadPass {
        segments,
        latency_ms,
        requests: (measured * CONNECTIONS) as u64,
        distinct_keys: distinct.len(),
        response_bytes,
        retry_afters,
        before,
        after,
    }
}

/// The graph as the oracle sees it under mutation: the directed edge map
/// with every acknowledged mutation applied in log order.
pub struct Mirror {
    num_vertices: usize,
    edges: BTreeMap<(VertexId, VertexId), Weight>,
}

impl Mirror {
    pub fn of(graph: &CsrGraph) -> Mirror {
        Mirror {
            num_vertices: graph.num_vertices(),
            edges: graph.edges().map(|(u, v, w)| ((u, v), w)).collect(),
        }
    }

    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.edges.get(&(u, v)).copied()
    }

    /// Same semantics as the program's fold: insert overwrites, deleting a
    /// missing edge does nothing, updating a missing edge inserts it.
    pub fn apply(&mut self, mutation: EdgeMutation) {
        match mutation {
            EdgeMutation::Insert { u, v, w } | EdgeMutation::UpdateWeight { u, v, w } => {
                self.edges.insert((u, v), w);
            }
            EdgeMutation::Delete { u, v } => {
                self.edges.remove(&(u, v));
            }
        }
    }

    pub fn to_csr(&self) -> CsrGraph {
        let edges: Vec<Edge> = self.edges.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        CsrGraph::from_sorted_edges(self.num_vertices, &edges, true)
    }
}

/// The seeded mutation plan of `serve-mutate`: for each round its
/// mutations, and whether the round is monotone.
pub struct MutationPlan {
    pub rounds: Vec<(Vec<EdgeMutation>, bool)>,
}

impl MutationPlan {
    /// Three rounds in four are monotone — insertions of absent edges and
    /// weight decreases of original edges, the changes SSSP and BFS can
    /// resume from. Every fourth round replaces its first mutation with the
    /// deletion of an edge an earlier round inserted, which drops the
    /// restart hints and forces whole-key re-runs. Inserts and deletes are
    /// kept apart on purpose: the two are separately maintainable (Berkholz,
    /// Keppeler, Schweikardt) and deletion repair is an open ROADMAP item
    /// that needs a place to show.
    pub fn generate(graph: &CsrGraph, rounds: usize, per_round: usize, rng: &mut Rng) -> Self {
        let n = graph.num_vertices() as u64;
        let original: Vec<(VertexId, VertexId)> = graph.edges().map(|(u, v, _)| (u, v)).collect();
        let mut mirror = Mirror::of(graph);
        let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
        let mut plan = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let delete_round = round % 4 == 3 && !inserted.is_empty();
            let mut mutations = Vec::with_capacity(per_round);
            for slot in 0..per_round {
                let mutation = if delete_round && slot == 0 {
                    let (u, v) = inserted.swap_remove(rng.below(inserted.len() as u64) as usize);
                    EdgeMutation::Delete { u, v }
                } else if slot % 4 == 3 && !original.is_empty() {
                    // Weight decrease of an original edge (one that still
                    // has room to decrease); falls back to an insert.
                    let pick = (0..8).find_map(|_| {
                        let (u, v) = original[rng.below(original.len() as u64) as usize];
                        mirror.weight(u, v).filter(|&w| w > 1).map(|w| (u, v, w))
                    });
                    match pick {
                        Some((u, v, w)) => {
                            let lower = 1 + rng.below(w as u64 - 1) as Weight;
                            EdgeMutation::UpdateWeight { u, v, w: lower }
                        }
                        None => Self::fresh_insert(&mirror, n, rng, &mut inserted),
                    }
                } else {
                    Self::fresh_insert(&mirror, n, rng, &mut inserted)
                };
                mirror.apply(mutation);
                mutations.push(mutation);
            }
            plan.push((mutations, !delete_round));
        }
        MutationPlan { rounds: plan }
    }

    fn fresh_insert(
        mirror: &Mirror,
        n: u64,
        rng: &mut Rng,
        inserted: &mut Vec<(VertexId, VertexId)>,
    ) -> EdgeMutation {
        loop {
            let u = rng.below(n) as VertexId;
            let v = rng.below(n) as VertexId;
            if u != v && mirror.weight(u, v).is_none() {
                inserted.push((u, v));
                return EdgeMutation::Insert { u, v, w: 1 + rng.below(9) as Weight };
            }
        }
    }
}

/// Seed of what `serve-mutate` does not take from `--seed`: its graph and
/// its hot keys (sources, kernels, connections, order). The engine's work
/// for one mixed batch of 16 queries moves by ±10 % with the choice of graph
/// and keys (3.0–3.6 M operations buffered over eight draws), which is more
/// than the bound leaves for the host's noise. `--seed` drives what does not
/// change the expected work: the mutation plan. The other workloads, whose
/// batches of 32 and streams of thousands average the choice out, take
/// everything from `--seed`.
pub const HOT_SET_SEED: u64 = 42;

/// Rounds of a mutate pass that make one stretch: the plan repeats with
/// this period (three monotone rounds, then one with a delete), so every
/// block holds the same mix.
pub const ROUNDS_PER_BLOCK: usize = 4;

/// Result of a mutate pass (the `serve-mutate` workload, or a probe of it).
pub struct MutatePass {
    /// Per block of [`ROUNDS_PER_BLOCK`] measured rounds: its wall time, and
    /// the time fg-seq took to answer its reads.
    pub blocks: Vec<Stretch>,
    /// Send-to-response latency of every measured read, one list per block.
    pub latency_ms: Vec<Vec<f64>>,
    pub ack_ms: Vec<f64>,
    pub monotone_round_ms: Vec<f64>,
    pub delete_round_ms: Vec<f64>,
    pub before: ServiceSnapshot,
    pub after: ServiceSnapshot,
}

/// The `serve-mutate` traffic against a running stack (built on the graph
/// of [`HOT_SET_SEED`] when it is the workload's own), from one driver
/// thread: per round, connection 0 pipelines the round's mutations and waits
/// for every acknowledgement, then both connections pipeline their share of
/// the hot keys and wait. Mutations race nothing: which reads meet which
/// fold is fixed by the protocol, not by timing.
#[allow(clippy::too_many_arguments)]
pub fn mutate_pass(
    stack: &mut Stack,
    seed: u64,
    hot_keys: usize,
    per_round: usize,
    warmup_rounds: usize,
    rounds: usize,
    rec: &Recorder,
    out: &mut Outcome,
) -> MutatePass {
    let graph = stack.pg.graph_arc();
    // The two kernels take alternate out-degree strata, so that both are
    // asked for low- and high-degree sources alike; the shuffle decides which
    // key travels on which connection, and in which order.
    let mut rng = Rng::new(HOT_SET_SEED, "hot-keys");
    let mut hot: Vec<ReadKey> = stratified_sources(&graph, hot_keys, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(stratum, source)| ReadKey { bfs: stratum % 2 == 1, source })
        .collect();
    rng.shuffle(&mut hot);
    let shares: Vec<Vec<ReadKey>> = (0..CONNECTIONS)
        .map(|c| hot.iter().copied().skip(c).step_by(CONNECTIONS).collect())
        .collect();
    let plan = MutationPlan::generate(
        &graph,
        warmup_rounds + rounds,
        per_round,
        &mut Rng::new(seed, "mutations"),
    );

    let mut pass = MutatePass {
        blocks: Vec::new(),
        latency_ms: Vec::new(),
        ack_ms: Vec::new(),
        monotone_round_ms: Vec::new(),
        delete_round_ms: Vec::new(),
        before: stack.server.metrics(),
        after: ServiceSnapshot::default(),
    };
    // The oracle's side, kept in step with the rounds: the mirror graph with
    // every acknowledged mutation applied. After each round — outside the
    // round's clock — fg-seq answers the hot keys on it; the answers are the
    // check, and the time they take is `vs_seq`'s base, sampled over the
    // same stretch of time as the rounds.
    let mut mirror = Mirror::of(&graph);
    // Per measured round: its wall time and fg-seq's, and its read latencies.
    let mut timed: Vec<(Stretch, Vec<f64>)> = Vec::new();
    let order: Vec<ReadKey> = shares.iter().flatten().copied().collect();
    let mut wrong = 0u64;
    let mut transport_failures = 0u64;
    let mut bad_acks = 0u64;

    for (round, (mutations, monotone)) in plan.rounds.iter().enumerate() {
        if round == warmup_rounds {
            pass.before = stack.server.metrics();
        }
        let measured = round >= warmup_rounds;
        let span = rec.begin("round", None);
        let round_start = Instant::now();

        let open = rec.begin("mutations", span.id());
        let writer = &mut stack.clients[0];
        let mut sent: HashMap<u32, Instant> = HashMap::new();
        for &mutation in mutations {
            let at = Instant::now();
            match writer.send_mutation(mutation) {
                Ok(correlation) => {
                    sent.insert(correlation, at);
                }
                Err(_) => transport_failures += 1,
            }
        }
        if writer.flush().is_err() {
            transport_failures += 1;
        }
        for _ in 0..sent.len() {
            match writer.recv() {
                Ok(Response::Result { correlation, payload: WirePayload::Version(_) }) => {
                    if let (Some(at), true) = (sent.get(&correlation), measured) {
                        pass.ack_ms.push(at.elapsed().as_secs_f64() * 1e3);
                    }
                }
                Ok(_) => bad_acks += 1,
                Err(_) => transport_failures += 1,
            }
        }
        rec.end(open);

        // Both connections send their whole share before either is drained:
        // the 16 reads of a round are in flight together.
        let open = rec.begin("reads", span.id());
        let mut drivers: Vec<ReadDriver<'_>> = stack
            .clients
            .iter_mut()
            .zip(&shares)
            .map(|(client, share)| ReadDriver::new(client, share, share.len(), rec, open.id()))
            .collect();
        for driver in &mut drivers {
            driver.fill();
        }
        let mut digests = Vec::with_capacity(hot.len());
        let mut round_latency_ms = Vec::with_capacity(hot.len());
        for mut driver in drivers {
            driver.drain();
            let log = driver.finish();
            round_latency_ms.extend(log.latency_s.iter().filter(|l| !l.is_nan()).map(|l| l * 1e3));
            transport_failures += log.errors;
            digests.extend(log.digests);
        }
        rec.end(open);
        rec.end_with(span, || if *monotone { "monotone" } else { "delete" }.to_string());
        let round_s = round_start.elapsed().as_secs_f64();
        if measured {
            if *monotone {
                pass.monotone_round_ms.push(round_s * 1e3);
            } else {
                pass.delete_round_ms.push(round_s * 1e3);
            }
        }

        let open = rec.begin("oracle", None);
        for &mutation in mutations {
            mirror.apply(mutation);
        }
        let mutated = mirror.to_csr();
        let mut seq_s = 0.0;
        for (key, digest) in order.iter().zip(&digests) {
            let start = Instant::now();
            let expected = if key.bfs {
                let answer = fg_seq::bfs(black_box(&mutated), key.source);
                seq_s += start.elapsed().as_secs_f64();
                digest_words(answer.level.iter().map(|&l| l as u64))
            } else {
                let answer = fg_seq::dijkstra(black_box(&mutated), key.source);
                seq_s += start.elapsed().as_secs_f64();
                digest_words(answer.dist.iter().copied())
            };
            if expected != *digest {
                wrong += 1;
            }
        }
        if measured {
            timed.push((Stretch { wall_s: round_s, seq_s }, round_latency_ms));
        }
        rec.end(open);
    }
    pass.after = stack.server.metrics();
    for rounds in timed.chunks_exact(ROUNDS_PER_BLOCK) {
        pass.blocks.push(Stretch {
            wall_s: rounds.iter().map(|(round, _)| round.wall_s).sum(),
            seq_s: rounds.iter().map(|(round, _)| round.seq_s).sum(),
        });
        pass.latency_ms.push(rounds.iter().flat_map(|(_, latency)| latency).copied().collect());
    }

    let reads = (plan.rounds.len() * order.len()) as u64;
    out.checked(reads, wrong, "reads differ from fg-seq on the mirror graph, or went unanswered");
    let acks = plan.rounds.iter().map(|(m, _)| m.len() as u64).sum();
    out.checked(acks, bad_acks, "mutations not acknowledged with a version");
    if transport_failures > 0 {
        out.broken(format!("{transport_failures} transport failures on the loopback connections"));
    }
    pass
}

/// Peak RSS plus the four latency/throughput metrics of a serving pass, from
/// its stretches (segments or blocks of rounds): `batch_s` is one pass over
/// the operation list at the cost of the median stretch.
fn push_end_to_end(out: &mut Outcome, stretches: &[Stretch], latency_ms: &[Vec<f64>]) {
    let (wall_s, vs_seq) = typical(stretches).unwrap_or((f64::NAN, f64::NAN));
    out.push("batch_s", wall_s * stretches.len() as f64);
    out.samples("batch_s", stretches.len());
    out.push("vs_seq", vs_seq);
    out.samples("vs_seq", stretches.len());
    out.push_latencies(latency_ms);
    out.push("peak_rss_mib", env::peak_rss_mib());
}

/// The untraced pass of `serve-read`.
pub fn run_read_untraced(scale: &Scale, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let rec = Recorder::new(false);
    let (mut stack, _) = repeated_set_up(GraphKind::social(scale), seed, scale, &rec, &mut out);
    let pass = read_pass(
        &mut stack,
        seed,
        scale.read_pool,
        scale.read_warmup,
        scale.read_measured,
        &rec,
        &mut out,
    );
    out.exact("graph.partitions", stack.pg.num_partitions());
    out.exact("graph.edges", stack.graph().num_edges());
    out.exact("serve.requests", pass.requests);
    out.exact("serve.distinct_keys", pass.distinct_keys);
    out.exact("serve.response_bytes", pass.response_bytes);
    drop(stack);
    push_end_to_end(&mut out, &pass.segments, &pass.latency_ms);
    out
}

/// The untraced pass of `serve-mutate`.
pub fn run_mutate_untraced(scale: &Scale, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let rec = Recorder::new(false);
    let (mut stack, _) =
        repeated_set_up(GraphKind::social(scale), HOT_SET_SEED, scale, &rec, &mut out);
    let pass = mutate_pass(
        &mut stack,
        seed,
        scale.hot_keys,
        scale.mutations_per_round,
        scale.mutate_warmup_rounds,
        scale.mutate_rounds,
        &rec,
        &mut out,
    );
    out.exact("graph.partitions", stack.pg.num_partitions());
    out.exact("graph.edges", stack.graph().num_edges());
    out.exact("serve.rounds", pass.monotone_round_ms.len() + pass.delete_round_ms.len());
    out.exact("serve.delete_rounds", pass.delete_round_ms.len());
    out.exact(
        "serve.mutations_applied",
        pass.after.mutations_applied - pass.before.mutations_applied,
    );
    drop(stack);
    push_end_to_end(&mut out, &pass.blocks, &pass.latency_ms);
    out
}
