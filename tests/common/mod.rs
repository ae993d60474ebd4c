//! A gate that holds a registered BFS kernel's runs until the test opens it.

// Each test binary that includes this module uses part of it.
#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use forkgraph::core::kernel::FppKernel;
use forkgraph::core::kernels::BfsKernel;
use forkgraph::core::operation::Priority;
use forkgraph::graph::AdjacencyView;
use forkgraph::prelude::*;
use forkgraph::service::ServiceHandle;

/// How long a closed gate holds a run before opening itself, so that a
/// test that fails to open it fails instead of hanging.
const WATCHDOG: Duration = Duration::from_secs(30);

#[derive(Default)]
pub struct Gate {
    /// (a run has reached the gate, the gate is open)
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.changed.notify_all();
        let (mut state, timeout) =
            self.changed.wait_timeout_while(state, WATCHDOG, |(_, open)| !*open).unwrap();
        if timeout.timed_out() {
            state.1 = true;
        }
    }

    /// Block until a run has reached the gate.
    pub fn wait_for_a_run(&self) {
        let state = self.state.lock().unwrap();
        let (state, _) =
            self.changed.wait_timeout_while(state, WATCHDOG, |(reached, _)| !*reached).unwrap();
        assert!(state.0, "no run reached the gate");
    }

    pub fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }

    pub fn is_open(&self) -> bool {
        self.state.lock().unwrap().1
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

/// Register `gated_bfs` with `handle`'s service and return its gate.
pub fn register_gated_bfs(handle: &ServiceHandle) -> Arc<Gate> {
    let gate = Arc::new(Gate::default());
    let kernel_gate = Arc::clone(&gate);
    handle
        .register_kernel("gated_bfs", move |params: &QueryParams| {
            params.ensure_known(&[])?;
            let kernel = GatedBfs { gate: Arc::clone(&kernel_gate) };
            Ok(InstantiatedKernel::new(erase(kernel), QueryParams::new()))
        })
        .unwrap();
    gate
}
