//! An `on_ready` callback runs on the batcher thread with no service lock
//! held, so it may submit a follow-up query to the same service.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use forkgraph::core::EngineConfig;
use forkgraph::graph::gen;
use forkgraph::prelude::*;
use forkgraph::service::ServiceConfig;

#[test]
fn an_on_ready_callback_can_submit_a_follow_up_query() {
    let graph = gen::rmat(7, 4, 5).with_random_weights(8, 5);
    let pg = Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
    ));
    let service = ForkGraphService::start(pg, EngineConfig::default(), ServiceConfig::default());
    let handle = service.handle();
    // Hold the first query in its run, so that its ticket is still pending
    // when the callback is attached and the batcher is the thread that
    // runs it.
    let gate = common::register_gated_bfs(&handle);
    let first = handle.submit_query(Query::kernel("gated_bfs").source(0)).unwrap();
    gate.wait_for_a_run();

    let (sender, receiver) = mpsc::channel();
    let follow_up = handle.clone();
    first.on_ready(move |outcome| {
        outcome.expect("the gated query is answered");
        let _ = sender.send(follow_up.submit_query(Query::kernel("bfs").source(1)));
    });
    gate.open();

    let Ok(ticket) = receiver.recv_timeout(Duration::from_secs(10)) else {
        // The batcher is stuck inside the callback; joining it would hang.
        std::mem::forget(service);
        panic!("the follow-up submit did not return: the batcher is deadlocked");
    };
    let answer = ticket.expect("the follow-up is admitted").wait().expect("and answered");
    let want = forkgraph::seq::bfs::bfs(&graph, 1).level;
    assert_eq!(answer.try_state::<Vec<u32>>().unwrap(), &want);
    service.shutdown();
}
