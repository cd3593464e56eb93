//! Bridges `rom-overlay`'s proximity hook to `rom-net`'s delay oracle.

use rom_net::{DelayOracle, UnderlayId};
use rom_overlay::{nearest_by, FreeEntry, Location, NodeId, Proximity};

/// A [`Proximity`] backed by a transit-stub [`DelayOracle`].
#[derive(Debug, Clone, Copy)]
pub struct OracleProximity<'a> {
    oracle: &'a DelayOracle,
}

impl<'a> OracleProximity<'a> {
    /// Wraps an oracle.
    #[must_use]
    pub fn new(oracle: &'a DelayOracle) -> Self {
        OracleProximity { oracle }
    }

    /// The underlying oracle.
    #[must_use]
    pub fn oracle(&self) -> &'a DelayOracle {
        self.oracle
    }
}

impl Proximity for OracleProximity<'_> {
    fn delay_ms(&self, a: Location, b: Location) -> f64 {
        self.oracle.delay_ms(UnderlayId(a.0), UnderlayId(b.0))
    }

    /// One [`DelayRow`](rom_net::DelayRow) fixed at `origin` serves the
    /// whole layer, with the same bits as the per-pair default.
    fn nearest_free(&self, origin: Location, layer: &[FreeEntry]) -> Option<NodeId> {
        let row = self.oracle.delays_from(UnderlayId(origin.0));
        nearest_by(layer, |to| row.to(UnderlayId(to.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rom_net::{TransitStubConfig, TransitStubNetwork};
    use rom_sim::SimRng;

    #[test]
    fn adapter_matches_oracle() {
        let mut rng = SimRng::seed_from(1);
        let net = TransitStubNetwork::generate(&TransitStubConfig::small(), &mut rng);
        let oracle = DelayOracle::build(&net);
        let prox = OracleProximity::new(&oracle);
        let stubs: Vec<UnderlayId> = net.stub_nodes().collect();
        let (a, b) = (stubs[0], stubs[7]);
        assert_eq!(
            prox.delay_ms(Location(a.0), Location(b.0)),
            oracle.delay_ms(a, b)
        );
        assert_eq!(prox.delay_ms(Location(a.0), Location(a.0)), 0.0);
    }
}
