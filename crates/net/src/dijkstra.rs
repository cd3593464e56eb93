//! Single-source shortest paths over the underlay graph.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{Graph, UnderlayId};

/// Shortest-path distances (in milliseconds) from one source node.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: UnderlayId,
    /// Distance per node, `f64::INFINITY` where unreachable.
    pub(crate) dist: Vec<f64>,
}

impl ShortestPaths {
    /// The source node of this tree.
    #[must_use]
    pub fn source(&self) -> UnderlayId {
        self.source
    }

    /// Distance to `node` in milliseconds; `None` if unreachable.
    #[must_use]
    pub fn distance(&self, node: UnderlayId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: UnderlayId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; edge weights are finite positive so the
        // partial order is total in practice.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Runs Dijkstra's algorithm from `source`.
///
/// # Examples
///
/// ```
/// use rom_net::{dijkstra, Graph, UnderlayId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(UnderlayId(0), UnderlayId(1), 10.0);
/// g.add_edge(UnderlayId(1), UnderlayId(2), 5.0);
/// g.add_edge(UnderlayId(0), UnderlayId(2), 100.0);
///
/// let sp = dijkstra(&g, UnderlayId(0));
/// assert_eq!(sp.distance(UnderlayId(2)), Some(15.0));
/// ```
///
/// # Panics
///
/// Panics if `source` is out of range for `graph`.
#[must_use]
pub fn dijkstra(graph: &Graph, source: UnderlayId) -> ShortestPaths {
    let n = graph.node_count();
    assert!(source.index() < n, "source out of range");
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue; // stale entry
        }
        for link in graph.neighbors(u) {
            let nd = d + link.delay_ms;
            if nd < dist[link.to.index()] {
                dist[link.to.index()] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: link.to,
                });
            }
        }
    }
    ShortestPaths { source, dist }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3, and 0 -5- 2 -1- 3
        let mut g = Graph::with_nodes(4);
        g.add_edge(UnderlayId(0), UnderlayId(1), 1.0);
        g.add_edge(UnderlayId(1), UnderlayId(3), 1.0);
        g.add_edge(UnderlayId(0), UnderlayId(2), 5.0);
        g.add_edge(UnderlayId(2), UnderlayId(3), 1.0);
        g
    }

    /// All-pairs distances by one Dijkstra per source.
    fn all_pairs(graph: &Graph) -> Vec<Vec<f64>> {
        graph.nodes().map(|s| dijkstra(graph, s).dist).collect()
    }

    #[test]
    fn picks_cheapest_route() {
        let sp = dijkstra(&diamond(), UnderlayId(0));
        assert_eq!(sp.distance(UnderlayId(3)), Some(2.0));
        assert_eq!(sp.distance(UnderlayId(2)), Some(3.0)); // via 1 and 3!
    }

    #[test]
    fn source_distance_zero() {
        let sp = dijkstra(&diamond(), UnderlayId(0));
        assert_eq!(sp.distance(UnderlayId(0)), Some(0.0));
        assert_eq!(sp.source(), UnderlayId(0));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(UnderlayId(0), UnderlayId(1), 1.0);
        let sp = dijkstra(&g, UnderlayId(0));
        assert_eq!(sp.distance(UnderlayId(2)), None);
    }

    #[test]
    fn parallel_edges_use_cheaper() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(UnderlayId(0), UnderlayId(1), 7.0);
        g.add_edge(UnderlayId(0), UnderlayId(1), 3.0);
        let sp = dijkstra(&g, UnderlayId(0));
        assert_eq!(sp.distance(UnderlayId(1)), Some(3.0));
    }

    #[test]
    fn all_pairs_symmetric() {
        let apsp = all_pairs(&diamond());
        for (i, row) in apsp.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, apsp[j][i]);
            }
            assert_eq!(row[i], 0.0);
        }
        assert_eq!(apsp[0][3], 2.0);
    }

    #[test]
    fn triangle_inequality_holds() {
        let apsp = all_pairs(&diamond());
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    assert!(apsp[i][j] <= apsp[i][k] + apsp[k][j] + 1e-9);
                }
            }
        }
    }
}
