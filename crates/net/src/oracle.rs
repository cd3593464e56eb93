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
//! where `d_graph(gateway → ·)` comes from one full Dijkstra per transit
//! node (240 at paper scale) and `d_intra` from tiny per-domain APSP
//! tables. The composition is exact, not an approximation; the unit tests
//! verify it against brute-force Dijkstra on every pair of a small
//! topology. A caller that needs many delays from one origin (the
//! overlay's nearest-parent scan, the stretch denominator from the source)
//! takes a [`DelayRow`] from [`DelayOracle::delays_from`], which locates
//! the origin once and returns the same bits.

use crate::dijkstra::dijkstra;
use crate::graph::UnderlayId;
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
    /// Cost: one Dijkstra per transit node plus one tiny Floyd–Warshall per
    /// stub domain. At paper scale (240 transit nodes, 1 920 domains of 8)
    /// this takes well under a second.
    #[must_use]
    pub fn build(net: &TransitStubNetwork) -> Self {
        let t = net.transit_count();
        let graph = net.graph();

        let transit_dist: Vec<Vec<f64>> = (0..t)
            .map(|i| dijkstra(graph, UnderlayId(i as u32)).dist)
            .collect();

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

    #[test]
    fn oracle_matches_brute_force_dijkstra() {
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
    fn oracle_exact_across_multiple_seeds() {
        // Regression guard: hierarchy composition must stay exact for any
        // random topology, not just one lucky seed.
        for seed in [1, 2, 3, 99] {
            let net = small_net(seed);
            let oracle = DelayOracle::build(&net);
            let graph = net.graph();
            let probe: Vec<UnderlayId> = graph.nodes().step_by(7).collect();
            for &src in &probe {
                let sp = dijkstra(graph, src);
                for &dst in &probe {
                    let want = sp.distance(dst).unwrap();
                    assert!((oracle.delay_ms(src, dst) - want).abs() < 1e-9);
                }
            }
        }
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
