//! Sequential breadth-first search.

use std::collections::VecDeque;

use fg_graph::{CsrGraph, VertexId};

/// Result of a BFS traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// Source vertex.
    pub source: VertexId,
    /// `level[v]` is the hop distance from the source, or `u32::MAX` if
    /// unreachable.
    pub level: Vec<u32>,
    /// BFS-tree parent (equals `v` for the source and unreachable vertices).
    pub parent: Vec<VertexId>,
    /// Number of edges examined.
    pub edges_processed: u64,
}

impl BfsResult {
    /// Number of vertices reached (including the source).
    pub fn num_reached(&self) -> usize {
        self.level.iter().filter(|&&l| l != u32::MAX).count()
    }
}

/// Run a sequential BFS from `source`.
pub fn bfs(graph: &CsrGraph, source: VertexId) -> BfsResult {
    let n = graph.num_vertices();
    let mut level = vec![u32::MAX; n];
    let mut parent: Vec<VertexId> = (0..n as VertexId).collect();
    let mut edges_processed = 0u64;
    let mut queue = VecDeque::new();
    level[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let lu = level[u as usize];
        for &v in graph.out_neighbors(u) {
            edges_processed += 1;
            if level[v as usize] == u32::MAX {
                level[v as usize] = lu + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    BfsResult { source, level, parent, edges_processed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{gen, GraphBuilder};

    #[test]
    fn levels_on_a_path() {
        let g = gen::path(6);
        let r = bfs(&g, 0);
        assert_eq!(r.level, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.num_reached(), 6);
    }

    #[test]
    fn levels_from_middle_of_path() {
        let g = gen::path(5);
        let r = bfs(&g, 2);
        assert_eq!(r.level, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_vertices() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let r = bfs(&g, 0);
        assert_eq!(r.level[2], u32::MAX);
        assert_eq!(r.num_reached(), 2);
    }

    #[test]
    fn edge_count_equals_edges_of_reached_vertices() {
        let g = gen::rmat(8, 5, 4);
        let r = bfs(&g, 1);
        let expected: u64 = (0..g.num_vertices() as VertexId)
            .filter(|&v| r.level[v as usize] != u32::MAX)
            .map(|v| g.out_degree(v) as u64)
            .sum();
        assert_eq!(r.edges_processed, expected);
    }

    #[test]
    fn parents_are_one_level_up() {
        let g = gen::grid2d(12, 12, 0.0, 1);
        let r = bfs(&g, 5);
        for v in 0..g.num_vertices() {
            if r.level[v] != u32::MAX && r.level[v] > 0 {
                assert_eq!(r.level[r.parent[v] as usize] + 1, r.level[v]);
            }
        }
    }
}
