//! On one pipelined connection a cache hit overtakes a cold run: the wire
//! answers in completion order, not submission order.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use forkgraph::core::kernel::FppKernel;
use forkgraph::core::kernels::BfsKernel;
use forkgraph::core::operation::Priority;
use forkgraph::graph::{gen, AdjacencyView};
use forkgraph::prelude::*;

/// How long a closed gate holds a run before opening itself, so that a
/// writer that fails to overtake fails this test instead of hanging it.
const WATCHDOG: Duration = Duration::from_secs(30);

#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait(&self) {
        let open = self.open.lock().unwrap();
        let (mut open, timeout) =
            self.opened.wait_timeout_while(open, WATCHDOG, |open| !*open).unwrap();
        if timeout.timed_out() {
            *open = true;
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn is_open(&self) -> bool {
        *self.open.lock().unwrap()
    }
}

/// BFS whose every operation waits for the gate first.
struct GatedBfs {
    gate: Arc<Gate>,
}

impl FppKernel for GatedBfs {
    type Value = ();
    type State = Vec<u32>;

    fn name(&self) -> &'static str {
        "gated_bfs"
    }

    fn init_state(&self, graph: &CsrGraph, source: VertexId) -> Self::State {
        BfsKernel.init_state(graph, source)
    }

    fn source_op(&self, source: VertexId) -> ((), Priority) {
        BfsKernel.source_op(source)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        value: (),
        priority: Priority,
        emit: &mut dyn FnMut(VertexId, (), Priority),
    ) -> u64 {
        self.gate.wait();
        BfsKernel.process(graph, state, vertex, value, priority, emit)
    }
}

#[test]
fn a_cache_hit_overtakes_a_cold_run_on_one_connection() {
    let graph = gen::rmat(8, 8, 5).with_random_weights(8, 5);
    let pg = Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let service = ForkGraphService::start(
        pg,
        EngineConfig::default(),
        ServiceConfig { batch_window: Duration::from_millis(1), ..ServiceConfig::default() },
    );
    let gate = Arc::new(Gate::default());
    let kernel_gate = Arc::clone(&gate);
    service
        .handle()
        .register_kernel("gated_bfs", move |params: &QueryParams| {
            params.ensure_known(&[])?;
            let kernel = GatedBfs { gate: Arc::clone(&kernel_gate) };
            Ok(InstantiatedKernel::new(erase(kernel), QueryParams::new()))
        })
        .unwrap();

    // Warm one SSSP key in-process, so the wire query for it is a cache hit.
    let warm = 3;
    service.handle().submit_query(Query::kernel("sssp").source(warm)).unwrap().wait().unwrap();
    let server = ForkGraphServer::start(service, ServerConfig::default()).expect("bind loopback");

    // The gated cold query first, then the warm key, on one connection.
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    client.send_request(&Request::new(1, "gated_bfs", 0)).unwrap();
    client.send_request(&Request::new(2, "sssp", warm)).unwrap();
    client.flush().unwrap();

    let first = client.recv().unwrap();
    assert!(!gate.is_open(), "the warm key was answered only after the gated run: {first:?}");
    match first {
        Response::Result { correlation: 2, payload: WirePayload::U64s(dist) } => {
            assert_eq!(dist, dijkstra(&graph, warm).dist);
        }
        other => panic!("expected the warm sssp answer first, got {other:?}"),
    }

    gate.open();
    match client.recv().unwrap() {
        Response::Result { correlation: 1, payload: WirePayload::U32s(levels) } => {
            assert_eq!(levels, forkgraph::seq::bfs::bfs(&graph, 0).level);
        }
        other => panic!("expected the gated bfs answer, got {other:?}"),
    }
    server.shutdown();
}
