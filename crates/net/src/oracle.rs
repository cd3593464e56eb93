//! Exact pairwise-delay queries over a transit-stub underlay.
//!
//! The evaluation needs unicast delays between arbitrary member pairs —
//! for the overlay's "nearest parent" tie-breaks, for end-to-end service
//! delay along overlay paths, and as the denominator of network stretch.
//! Running Dijkstra per query would dominate simulation time, and a full
//! all-pairs table over 15 600 nodes would need ~2 GB.
//!
//! [`DelayOracle`] instead exploits the strict transit-stub hierarchy
//! (every stub domain is single-homed): the shortest path between nodes in
//! different stub domains *must* traverse both domains' attachment edges,
//! so
//!
//! ```text
//! d(u, v) = d_intra(u → attach(u)) + gw_edge(u) + d_graph(gateway(u) → v)
//! ```
//!
//! where `d_graph(gateway → ·)` is one row per transit node (240 at paper
//! scale) and `d_intra` comes from tiny per-domain APSP tables. The same
//! hierarchy builds each row cheaply: a Dijkstra over the transit core
//! alone, then one pass over the stub domains (see [`DelayOracle::build`]),
//! with the bits a full-graph Dijkstra would give. The composition is
//! exact, not an approximation; the unit tests verify it against
//! brute-force Dijkstra on every pair of a small topology. A caller that
//! needs many delays from one origin (the overlay's nearest-parent scan,
//! the stretch denominator from the source) takes a [`DelayRow`] from
//! [`DelayOracle::delays_from`], which locates the origin once and
//! returns the same bits.

use crate::dijkstra::dijkstra;
use crate::graph::{Graph, UnderlayId};
use crate::transit_stub::TransitStubNetwork;

/// Precomputed exact delay queries for one [`TransitStubNetwork`].
#[derive(Debug, Clone)]
pub struct DelayOracle {
    transit_count: usize,
    stub_domain_size: usize,
    /// `transit_dist[t]` = full-graph distances from transit node `t`.
    transit_dist: Vec<Vec<f64>>,
    /// Per stub domain: row-major `size × size` intra-domain APSP.
    intra: Vec<Vec<f64>>,
    /// Per stub domain: delay of the attachment edge to the gateway.
    gateway_edge: Vec<f64>,
    /// Per stub domain: the gateway's transit node id.
    gateway: Vec<UnderlayId>,
}

impl DelayOracle {
    /// Precomputes the oracle for `net`.
    ///
    /// Cost: one tiny Floyd–Warshall per stub domain, then per transit
    /// node a Dijkstra over the transit core alone (the transit nodes and
    /// the links among them) and one pass over the stub nodes. The pass
    /// visits each domain in order of distance from its attachment node
    /// and sets each node to the minimum, over its links, of the
    /// neighbour's distance plus the link delay. At paper scale (240
    /// transit nodes, 1 920 domains of 8) this takes well under 0.1 s.
    ///
    /// Each row has exactly the bits of a full-graph Dijkstra from its
    /// transit node. With positive delays, Dijkstra's distances are the
    /// unique solution of `d[s] = 0`, `d[v] = min_u fl(d[u] + w(u, v))`:
    /// of two solutions, the smallest value where they differ would
    /// come from a neighbour below it where they agree, and so would
    /// equal the other. A single-homed stub domain is a dead end that
    /// shortens no core path, so the core distances solve the core's
    /// equations. In a domain's settle order every node's minimizing
    /// neighbour is already final: a neighbour visited later is no
    /// nearer the attachment node, so the route through it is longer by
    /// at least one stub link (2 ms or more), far beyond rounding. So
    /// the pass solves the stub nodes' equations.
    #[must_use]
    pub fn build(net: &TransitStubNetwork) -> Self {
        let t = net.transit_count();
        let graph = net.graph();
        let domains = net.stub_domains();
        let size = domains.first().map_or(0, |d| d.size);
        let mut intra = Vec::with_capacity(domains.len());
        let mut gateway_edge = Vec::with_capacity(domains.len());
        let mut gateway = Vec::with_capacity(domains.len());
        for (idx, dom) in domains.iter().enumerate() {
            debug_assert_eq!(dom.size, size, "stub domains are uniform");
            // Floyd–Warshall over the (tiny) domain subgraph.
            let n = dom.size;
            let base = dom.first_node.0;
            let mut dist = vec![f64::INFINITY; n * n];
            for i in 0..n {
                dist[i * n + i] = 0.0;
            }
            for local in 0..n {
                let node = UnderlayId(base + local as u32);
                for link in graph.neighbors(node) {
                    if dom.contains(link.to) {
                        let j = (link.to.0 - base) as usize;
                        let d = &mut dist[local * n + j];
                        if link.delay_ms < *d {
                            *d = link.delay_ms;
                        }
                    }
                }
            }
            for k in 0..n {
                for i in 0..n {
                    let dik = dist[i * n + k];
                    if !dik.is_finite() {
                        continue;
                    }
                    for j in 0..n {
                        let alt = dik + dist[k * n + j];
                        if alt < dist[i * n + j] {
                            dist[i * n + j] = alt;
                        }
                    }
                }
            }
            intra.push(dist);
            gateway_edge.push(net.gateway_delay_ms(idx));
            gateway.push(dom.gateway);
        }

        let mut core = Graph::with_nodes(t);
        for a in (0..t as u32).map(UnderlayId) {
            // Each transit–transit link once, from its lower end.
            for link in graph.neighbors(a) {
                if link.to.index() < t && a < link.to {
                    core.add_edge(a, link.to, link.delay_ms);
                }
            }
        }
        // The stub nodes in settle order: domain by domain, each by its
        // distance from the attachment node (local index 0, so row 0 of
        // the domain's table, and first in the order).
        let mut settle_order = Vec::with_capacity(graph.node_count() - t);
        for (dom, dist) in domains.iter().zip(&intra) {
            let start = settle_order.len();
            settle_order.extend(dom.nodes());
            let from_attachment = |v: &UnderlayId| dist[(v.0 - dom.first_node.0) as usize];
            settle_order[start..].sort_by(|a, b| from_attachment(a).total_cmp(&from_attachment(b)));
        }
        let transit_dist: Vec<Vec<f64>> = core
            .nodes()
            .map(|source| {
                let mut row = dijkstra(&core, source).dist;
                row.resize(graph.node_count(), f64::INFINITY);
                for &v in &settle_order {
                    row[v.index()] = graph
                        .neighbors(v)
                        .iter()
                        .map(|link| row[link.to.index()] + link.delay_ms)
                        .fold(f64::INFINITY, f64::min);
                }
                row
            })
            .collect();

        DelayOracle {
            transit_count: t,
            stub_domain_size: size,
            transit_dist,
            intra,
            gateway_edge,
            gateway,
        }
    }

    fn locate(&self, node: UnderlayId) -> Option<(usize, usize)> {
        let idx = node.index();
        if idx < self.transit_count {
            None
        } else {
            let off = idx - self.transit_count;
            Some((off / self.stub_domain_size, off % self.stub_domain_size))
        }
    }

    /// The exact shortest-path delay between two underlay nodes, in
    /// milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the network the oracle was
    /// built from.
    #[must_use]
    pub fn delay_ms(&self, a: UnderlayId, b: UnderlayId) -> f64 {
        if a == b {
            return 0.0;
        }
        match (self.locate(a), self.locate(b)) {
            // Both transit: direct table lookup.
            (None, None) => self.transit_dist[a.index()][b.index()],
            // One stub endpoint: compose through its gateway.
            (Some((dom, local)), None) => self.via_gateway(dom, local, b),
            (None, Some((dom, local))) => self.via_gateway(dom, local, a),
            (Some((da, la)), Some((db, lb))) => {
                if da == db {
                    let n = self.stub_domain_size;
                    self.intra[da][la * n + lb]
                } else {
                    // Leave `a`'s domain through its attachment edge; the
                    // gateway-to-b distance already descends into b's domain.
                    self.via_gateway(da, la, b)
                }
            }
        }
    }

    /// Distance from local node `local` of stub domain `dom` to an
    /// arbitrary node `target` outside the domain, via the gateway.
    fn via_gateway(&self, dom: usize, local: usize, target: UnderlayId) -> f64 {
        let n = self.stub_domain_size;
        let to_attach = self.intra[dom][local * n]; // attachment is local index 0
        let gw = self.gateway[dom];
        to_attach + self.gateway_edge[dom] + self.transit_dist[gw.index()][target.index()]
    }

    /// Delays from one fixed `origin`, located once. Each
    /// [`DelayRow::to`] query returns exactly the bits of
    /// [`delay_ms(origin, b)`](Self::delay_ms); from a stub origin it costs
    /// a range check and one or two table reads instead of locating both
    /// endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range for the network the oracle was
    /// built from.
    #[must_use]
    pub fn delays_from(&self, origin: UnderlayId) -> DelayRow<'_> {
        let stub = self.locate(origin).map(|(dom, local)| {
            let n = self.stub_domain_size;
            let intra = &self.intra[dom][local * n..(local + 1) * n];
            StubOrigin {
                first: (self.transit_count + dom * n) as u32,
                intra,
                // `via_gateway`'s first two terms, summed in its order.
                exit: intra[0] + self.gateway_edge[dom],
                gateway_dist: &self.transit_dist[self.gateway[dom].index()],
            }
        });
        DelayRow {
            oracle: self,
            origin,
            stub,
        }
    }
}

/// Delays from one fixed origin to any node; see
/// [`DelayOracle::delays_from`].
#[derive(Debug, Clone, Copy)]
pub struct DelayRow<'a> {
    oracle: &'a DelayOracle,
    origin: UnderlayId,
    /// `None` for a transit origin, whose queries go to
    /// [`DelayOracle::delay_ms`]: members live on stub nodes.
    stub: Option<StubOrigin<'a>>,
}

/// A stub origin, located once.
#[derive(Debug, Clone, Copy)]
struct StubOrigin<'a> {
    /// The first node id of the origin's stub domain.
    first: u32,
    /// The origin's row of its domain's intra-domain table.
    intra: &'a [f64],
    /// The delay from the origin to its domain's gateway.
    exit: f64,
    /// Full-graph distances from that gateway.
    gateway_dist: &'a [f64],
}

impl DelayRow<'_> {
    /// The delay from the row's origin to `b`: bit for bit
    /// [`DelayOracle::delay_ms`]`(origin, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range for the oracle's network.
    #[must_use]
    #[inline]
    pub fn to(&self, b: UnderlayId) -> f64 {
        let Some(stub) = &self.stub else {
            return self.oracle.delay_ms(self.origin, b);
        };
        // One unsigned range check places `b` inside or outside the
        // origin's domain (ids below `first` wrap to large offsets). The
        // origin itself lands on its row's diagonal, which holds the 0.0
        // that `delay_ms(a, a)` returns, so it needs no test of its own.
        match stub.intra.get(b.0.wrapping_sub(stub.first) as usize) {
            Some(&d) => d,
            None => stub.exit + stub.gateway_dist[b.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transit_stub::TransitStubConfig;
    use rom_sim::SimRng;

    fn small_net(seed: u64) -> TransitStubNetwork {
        let mut rng = SimRng::seed_from(seed);
        TransitStubNetwork::generate(&TransitStubConfig::small(), &mut rng)
    }

    /// Asserts that every `step`-th row of the oracle's transit table
    /// holds exactly the bits of a full-graph Dijkstra from that node.
    fn assert_rows_are_dijkstra(net: &TransitStubNetwork, step: usize, what: &str) {
        let oracle = DelayOracle::build(net);
        assert_eq!(oracle.transit_dist.len(), net.transit_count(), "{what}");
        for (t, row) in oracle.transit_dist.iter().enumerate().step_by(step) {
            let want = dijkstra(net.graph(), UnderlayId(t as u32)).dist;
            assert_eq!(row.len(), want.len(), "{what}: row {t}");
            let differs = row
                .iter()
                .zip(&want)
                .position(|(got, want)| got.to_bits() != want.to_bits());
            assert_eq!(differs, None, "{what}: row {t} differs at this node");
        }
    }

    #[test]
    fn oracle_matches_brute_force_dijkstra() {
        // Every pair. The composition adds its three legs in another order
        // than Dijkstra's chain of links, so pairs from a stub origin agree
        // to rounding; the rows it composes are pinned bit for bit below.
        let net = small_net(11);
        let oracle = DelayOracle::build(&net);
        let graph = net.graph();
        for src in graph.nodes() {
            let sp = dijkstra(graph, src);
            for dst in graph.nodes() {
                let want = sp.distance(dst).expect("connected");
                let got = oracle.delay_ms(src, dst);
                assert!(
                    (got - want).abs() < 1e-9,
                    "delay({src},{dst}): oracle {got} vs dijkstra {want}"
                );
            }
        }
    }

    #[test]
    fn transit_rows_are_full_graph_dijkstra_bit_for_bit() {
        // Random shapes: 1-4 transit domains of 1-5 nodes, 1-3 stub
        // domains of 1-9 nodes per transit node, and chordless, fully
        // chorded and randomly chorded domains, so 1- and 2-node rings
        // occur at both levels.
        let mut shapes = SimRng::seed_from(25);
        for case in 0..240 {
            let cfg = TransitStubConfig {
                transit_domains: 1 + shapes.index(4),
                transit_nodes_per_domain: 1 + shapes.index(5),
                stub_domains_per_transit: 1 + shapes.index(3),
                stub_nodes_per_domain: 1 + shapes.index(9),
                chord_probability: match case % 3 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => shapes.uniform(),
                },
                ..TransitStubConfig::default()
            };
            let net = TransitStubNetwork::generate(&cfg, &mut SimRng::seed_from(case));
            assert_rows_are_dijkstra(&net, 1, &format!("case {case}, {cfg:?}"));
        }
    }

    #[test]
    fn paper_topology_rows_are_full_graph_dijkstra_bit_for_bit() {
        // The 15 600-node underlay of the 100k-member ROST churn cell at
        // seed 42, as its simulator builds it from the "topology" fork.
        // A debug build checks every 8th row to stay quick.
        let cfg = TransitStubConfig::sized_for(2 * 100_000);
        let net = TransitStubNetwork::generate(&cfg, &mut SimRng::seed_from(42).fork("topology"));
        assert_eq!(net.graph().node_count(), 15_600);
        let step = if cfg!(debug_assertions) { 8 } else { 1 };
        assert_rows_are_dijkstra(&net, step, "paper scale, seed 42");
    }

    #[test]
    fn symmetry_and_identity() {
        let net = small_net(5);
        let oracle = DelayOracle::build(&net);
        let nodes: Vec<UnderlayId> = net.graph().nodes().collect();
        for &a in nodes.iter().step_by(11) {
            assert_eq!(oracle.delay_ms(a, a), 0.0);
            for &b in nodes.iter().step_by(13) {
                let ab = oracle.delay_ms(a, b);
                let ba = oracle.delay_ms(b, a);
                assert!((ab - ba).abs() < 1e-9, "asymmetry {a},{b}: {ab} vs {ba}");
            }
        }
    }

    #[test]
    fn delay_row_matches_delay_ms_bit_for_bit() {
        // Every ordered pair, transit and stub endpoints alike, `a == b`
        // included: the row must reproduce the pairwise query's bits.
        for seed in [4, 8] {
            let net = small_net(seed);
            let oracle = DelayOracle::build(&net);
            let nodes: Vec<UnderlayId> = net.graph().nodes().collect();
            assert!(nodes.iter().any(|&n| n.index() < net.transit_count()));
            for &a in &nodes {
                let row = oracle.delays_from(a);
                for &b in &nodes {
                    assert_eq!(
                        row.to(b).to_bits(),
                        oracle.delay_ms(a, b).to_bits(),
                        "seed {seed}: delays_from({a}).to({b})"
                    );
                }
            }
        }
    }

    #[test]
    fn same_domain_beats_gateway_detour() {
        let net = small_net(21);
        let oracle = DelayOracle::build(&net);
        let dom = &net.stub_domains()[0];
        let nodes: Vec<UnderlayId> = dom.nodes().collect();
        // Intra-domain delays use the 2-4ms stub links only: with 4-node
        // domains the intra path is at most 2 hops ≈ 8 ms, always cheaper
        // than a double gateway traversal (≥ 10 ms).
        for &a in &nodes {
            for &b in &nodes {
                if a != b {
                    let d = oracle.delay_ms(a, b);
                    assert!(d < 10.0, "intra-domain delay {d} too large");
                }
            }
        }
    }
}
