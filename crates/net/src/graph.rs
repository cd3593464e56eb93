//! A weighted undirected graph with adjacency lists.
//!
//! The underlay network the overlay runs over is a plain weighted graph;
//! edge weights are link delays in milliseconds.

use std::fmt;

/// Index of a node in the underlay graph.
///
/// This is distinct from an overlay member identifier (`rom-overlay`'s
/// `NodeId`): many underlay nodes never host a member, and the mapping from
/// members to underlay attachment points is chosen by the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnderlayId(pub u32);

impl UnderlayId {
    /// The index as a `usize`, for slice access.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnderlayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A directed half-edge stored in an adjacency list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// The neighbouring node.
    pub to: UnderlayId,
    /// Link delay in milliseconds.
    pub delay_ms: f64,
}

/// A weighted undirected graph.
///
/// # Examples
///
/// ```
/// use rom_net::{Graph, UnderlayId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(UnderlayId(0), UnderlayId(1), 10.0);
/// g.add_edge(UnderlayId(1), UnderlayId(2), 5.0);
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbors(UnderlayId(1)).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<Link>>,
    edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Adds an undirected edge with the given delay.
    ///
    /// Parallel edges are permitted (shortest-path code simply ignores the
    /// slower one); self-loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if `a == b`, or if
    /// `delay_ms` is not a positive finite number.
    pub fn add_edge(&mut self, a: UnderlayId, b: UnderlayId, delay_ms: f64) {
        assert!(a != b, "self-loops are not allowed");
        assert!(
            delay_ms > 0.0 && delay_ms.is_finite(),
            "delay must be positive and finite, got {delay_ms}"
        );
        assert!(a.index() < self.adjacency.len(), "node {a} out of range");
        assert!(b.index() < self.adjacency.len(), "node {b} out of range");
        self.adjacency[a.index()].push(Link { to: b, delay_ms });
        self.adjacency[b.index()].push(Link { to: a, delay_ms });
        self.edges += 1;
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The links incident to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn neighbors(&self, node: UnderlayId) -> &[Link] {
        &self.adjacency[node.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = UnderlayId> + '_ {
        (0..self.adjacency.len()).map(|i| UnderlayId(i as u32))
    }

    /// True if every node can reach every other node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 1;
        while let Some(u) = stack.pop() {
            for link in &self.adjacency[u] {
                let v = link.to.index();
                if !seen[v] {
                    seen[v] = true;
                    visited += 1;
                    stack.push(v);
                }
            }
        }
        visited == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = Graph::with_nodes(3);
        let c = UnderlayId(2);
        g.add_edge(UnderlayId(0), UnderlayId(1), 1.0);
        g.add_edge(UnderlayId(1), c, 2.0);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(UnderlayId(0)).len(), 1);
        assert_eq!(g.neighbors(UnderlayId(1)).len(), 2);
        assert_eq!(g.neighbors(c)[0].to, UnderlayId(1));
        assert_eq!(g.neighbors(c)[0].delay_ms, 2.0);
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(UnderlayId(0), UnderlayId(1), 1.0);
        g.add_edge(UnderlayId(2), UnderlayId(3), 1.0);
        assert!(!g.is_connected());
        g.add_edge(UnderlayId(1), UnderlayId(2), 1.0);
        assert!(g.is_connected());
    }

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(Graph::with_nodes(0).is_connected());
        assert!(Graph::with_nodes(1).is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(UnderlayId(0), UnderlayId(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_delay_rejected() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(UnderlayId(0), UnderlayId(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(UnderlayId(0), UnderlayId(5), 1.0);
    }

    #[test]
    fn nodes_iterator() {
        let g = Graph::with_nodes(3);
        let ids: Vec<UnderlayId> = g.nodes().collect();
        assert_eq!(ids, vec![UnderlayId(0), UnderlayId(1), UnderlayId(2)]);
    }
}
