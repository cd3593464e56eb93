//! Network-distance queries used for overlay tie-breaking.
//!
//! Tree construction occasionally needs to know how far apart two members
//! are in the underlay (the minimum-depth algorithm breaks layer ties by
//! picking the nearest parent; CER orders recovery nodes by network
//! distance). The overlay crate stays topology-agnostic by consulting this
//! trait; the experiment engine implements it with `rom-net`'s delay
//! oracle.

use crate::id::{Location, NodeId};
use crate::order_index::FreeEntry;

/// A source of pairwise underlay delays.
pub trait Proximity {
    /// The unicast delay between two attachment points, in milliseconds.
    fn delay_ms(&self, a: Location, b: Location) -> f64;

    /// The member of a free-slot layer nearest to `origin`: the minimum
    /// (delay from `origin`, id), so the result does not depend on the
    /// layer's order. `None` for an empty layer.
    ///
    /// The default makes one [`delay_ms`](Self::delay_ms) query per entry
    /// and is the reference an override must match exactly; an
    /// implementation that can fix the origin once (the engine's delay
    /// oracle) overrides it.
    fn nearest_free(&self, origin: Location, layer: &[FreeEntry]) -> Option<NodeId> {
        nearest_by(layer, |to| self.delay_ms(origin, to))
    }
}

/// The minimum (delay, id) over `layer`, each entry's delay read by
/// `delay` from its location: the shared body of every
/// [`Proximity::nearest_free`].
pub fn nearest_by(layer: &[FreeEntry], mut delay: impl FnMut(Location) -> f64) -> Option<NodeId> {
    let (first, rest) = layer.split_first()?;
    let (mut best_delay, mut best_id) = (delay(first.location), first.id);
    for entry in rest {
        let d = delay(entry.location);
        if d < best_delay || (d == best_delay && entry.id < best_id) {
            (best_delay, best_id) = (d, entry.id);
        }
    }
    Some(best_id)
}

/// A proximity that reports zero for every pair.
///
/// Useful in unit tests and in experiments where network distance should
/// not influence decisions (all ties then resolve to the first candidate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroProximity;

impl Proximity for ZeroProximity {
    fn delay_ms(&self, _a: Location, _b: Location) -> f64 {
        0.0
    }
}

/// A proximity defined by the absolute difference of location indices.
///
/// A deterministic stand-in for tests that need *distinguishable*
/// distances without a full topology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexProximity;

impl Proximity for IndexProximity {
    fn delay_ms(&self, a: Location, b: Location) -> f64 {
        (f64::from(a.0) - f64::from(b.0)).abs()
    }
}

impl<P: Proximity + ?Sized> Proximity for &P {
    fn delay_ms(&self, a: Location, b: Location) -> f64 {
        (**self).delay_ms(a, b)
    }

    fn nearest_free(&self, origin: Location, layer: &[FreeEntry]) -> Option<NodeId> {
        (**self).nearest_free(origin, layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_proximity_is_flat() {
        assert_eq!(ZeroProximity.delay_ms(Location(1), Location(9)), 0.0);
    }

    #[test]
    fn index_proximity_is_symmetric_metric() {
        let p = IndexProximity;
        assert_eq!(p.delay_ms(Location(3), Location(7)), 4.0);
        assert_eq!(p.delay_ms(Location(7), Location(3)), 4.0);
        assert_eq!(p.delay_ms(Location(5), Location(5)), 0.0);
    }

    #[test]
    #[allow(clippy::needless_borrows_for_generic_args)] // the borrow IS the point
    fn references_implement_proximity() {
        fn takes_prox<P: Proximity>(p: P) -> f64 {
            p.delay_ms(Location(0), Location(2))
        }
        assert_eq!(takes_prox(&IndexProximity), 2.0);
    }
}
