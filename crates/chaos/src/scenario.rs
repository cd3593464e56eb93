//! The scenario layer: declarative, composable fault-injection plans.
//!
//! A [`Scenario`] is pure data — a named list of [`Injection`]s, each an
//! instant plus a [`ChaosAction`]. The simulation engine interprets the
//! actions at dispatch time, drawing every random choice (victims, burst
//! spacing, degradation targets) from its dedicated chaos RNG stream so
//! the injected faults are reproducible from the run seed alone.

use rom_overlay::{MulticastTree, NodeId};
use rom_sim::SimRng;

use crate::pathology::{CapacitySegment, CapacityTrace, DelaySpikes, LinkProfile};

/// One fault-injection primitive. Scenarios compose these freely.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Fail a randomly chosen attached member *plus its overlay
    /// neighborhood*: every node within `radius` hops over parent/child
    /// edges (the root is never failed). Models the correlated, clustered
    /// failures stressed by the bi-connectivity and CliqueStream lines of
    /// work — a rack, AS or regional outage takes out overlay-adjacent
    /// peers together.
    CorrelatedFailure {
        /// Neighborhood radius in overlay hops; `0` fails one node.
        radius: usize,
    },
    /// A flash crowd: `joins` brand-new members arrive within
    /// `spread_secs` of the injection instant, on top of the workload's
    /// own Poisson arrivals.
    FlashCrowd {
        /// Number of extra members to inject.
        joins: usize,
        /// Window (seconds) over which the burst is spread; must be > 0.
        spread_secs: f64,
    },
    /// Flapping membership: every `period_secs`, abruptly fail `members`
    /// random attached members and inject the same number of replacement
    /// joins half a period later — repeated `cycles` times.
    Flap {
        /// Members failed per cycle.
        members: usize,
        /// Seconds between cycles; must be > 0.
        period_secs: f64,
        /// Number of cycles; must be ≥ 1.
        cycles: usize,
    },
    /// Bandwidth degradation over time: multiply the outbound bandwidth
    /// of a random `fraction` of attached members by `factor` (< 1).
    /// Children beyond the shrunken out-degree budget are orphaned and
    /// must recover.
    DegradeBandwidth {
        /// Fraction of attached members hit, in `(0, 1]`.
        fraction: f64,
        /// Multiplier applied to each victim's bandwidth, in `(0, 1)`.
        factor: f64,
    },
    /// A link-pathology episode: the access links of the members
    /// `victims` picks follow `profile` for its duration. Data packets
    /// and CER repair traffic crossing such a link meet the profile's
    /// bursty loss, its capacity factor (repair service rates) and its
    /// bloat spikes (repair latency).
    Link {
        /// Whom the episode hits.
        victims: Victims,
        /// The access-link profile armed on each victim.
        profile: LinkProfile,
    },
}

/// Whom a [`ChaosAction::Link`] episode hits, drawn from the attached
/// members (never the root).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Victims {
    /// A fraction of the attached members, in `(0, 1]`, rounded up.
    Fraction(f64),
    /// A fixed number of attached members.
    Count(usize),
}

impl ChaosAction {
    /// Short static label for traces and logs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ChaosAction::CorrelatedFailure { .. } => "correlated_failure",
            ChaosAction::FlashCrowd { .. } => "flash_crowd",
            ChaosAction::Flap { .. } => "flap",
            ChaosAction::DegradeBandwidth { .. } => "degrade_bandwidth",
            ChaosAction::Link { profile, .. } => profile.kind,
        }
    }
}

/// A [`ChaosAction`] pinned to a simulation instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// Absolute simulation time (seconds) at which the action fires.
    pub at_secs: f64,
    /// What happens then.
    pub action: ChaosAction,
}

/// A named, ordered fault-injection plan.
///
/// Scenarios are constructed for a concrete time window — typically the
/// run's `(warmup, measure)` span — so the same plan shape lands
/// proportionally in any run length.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable name, usable with [`Scenario::by_name`] and `fig_chaos
    /// --scenario`.
    pub name: &'static str,
    /// The plan, in firing order.
    pub injections: Vec<Injection>,
}

impl Scenario {
    /// Every named scenario, in presentation order.
    pub const NAMES: [&'static str; 10] = [
        "baseline",
        "correlated-failures",
        "flash-crowd",
        "flapping",
        "bandwidth-decay",
        "bursty-loss",
        "capacity-ramp",
        "bufferbloat",
        "mobile-member",
        "combined",
    ];

    /// Resolves a scenario by name, planned over the window starting at
    /// `start_secs` and lasting `span_secs`. Returns `None` for unknown
    /// names.
    ///
    /// # Panics
    ///
    /// Panics if `span_secs` is not positive or `start_secs` is negative.
    #[must_use]
    pub fn by_name(name: &str, start_secs: f64, span_secs: f64) -> Option<Scenario> {
        match name {
            "baseline" => Some(Scenario::baseline()),
            "correlated-failures" => Some(Scenario::correlated_failures(start_secs, span_secs)),
            "flash-crowd" => Some(Scenario::flash_crowd(start_secs, span_secs)),
            "flapping" => Some(Scenario::flapping(start_secs, span_secs)),
            "bandwidth-decay" => Some(Scenario::bandwidth_decay(start_secs, span_secs)),
            "bursty-loss" => Some(Scenario::bursty_loss(start_secs, span_secs)),
            "capacity-ramp" => Some(Scenario::capacity_ramp(start_secs, span_secs)),
            "bufferbloat" => Some(Scenario::bufferbloat(start_secs, span_secs)),
            "mobile-member" => Some(Scenario::mobile_member(start_secs, span_secs)),
            "combined" => Some(Scenario::combined(start_secs, span_secs)),
            _ => None,
        }
    }

    /// No injections at all: the control arm. Invariants still run, so
    /// this doubles as a regression check on the unperturbed engine.
    #[must_use]
    pub fn baseline() -> Scenario {
        Scenario {
            name: "baseline",
            injections: Vec::new(),
        }
    }

    /// Three clustered failures of growing radius across the window.
    #[must_use]
    pub fn correlated_failures(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "correlated-failures",
            injections: vec![
                inject(at(0.10), ChaosAction::CorrelatedFailure { radius: 1 }),
                inject(at(0.40), ChaosAction::CorrelatedFailure { radius: 2 }),
                inject(at(0.70), ChaosAction::CorrelatedFailure { radius: 1 }),
            ],
        }
    }

    /// Two join bursts: a large one early, a smaller aftershock later.
    #[must_use]
    pub fn flash_crowd(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "flash-crowd",
            injections: vec![
                inject(
                    at(0.20),
                    ChaosAction::FlashCrowd {
                        joins: 60,
                        spread_secs: (span_secs * 0.05).max(1.0),
                    },
                ),
                inject(
                    at(0.60),
                    ChaosAction::FlashCrowd {
                        joins: 30,
                        spread_secs: (span_secs * 0.03).max(1.0),
                    },
                ),
            ],
        }
    }

    /// A handful of members that leave and get replaced over and over.
    #[must_use]
    pub fn flapping(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "flapping",
            injections: vec![inject(
                at(0.15),
                ChaosAction::Flap {
                    members: 4,
                    period_secs: (span_secs * 0.06).max(1.0),
                    cycles: 6,
                },
            )],
        }
    }

    /// Progressive bandwidth loss across a growing share of the overlay.
    #[must_use]
    pub fn bandwidth_decay(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "bandwidth-decay",
            injections: vec![
                inject(
                    at(0.25),
                    ChaosAction::DegradeBandwidth {
                        fraction: 0.15,
                        factor: 0.6,
                    },
                ),
                inject(
                    at(0.50),
                    ChaosAction::DegradeBandwidth {
                        fraction: 0.20,
                        factor: 0.6,
                    },
                ),
                inject(
                    at(0.75),
                    ChaosAction::DegradeBandwidth {
                        fraction: 0.25,
                        factor: 0.5,
                    },
                ),
            ],
        }
    }

    /// Two bursty-loss episodes: a moderate early burst regime and a
    /// harsher late one, both at matched average loss rates so the only
    /// variable versus uniform loss is the burstiness itself.
    #[must_use]
    pub fn bursty_loss(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "bursty-loss",
            injections: vec![
                inject(
                    at(0.15),
                    ChaosAction::Link {
                        victims: Victims::Fraction(0.25),
                        profile: LinkProfile::bursty_loss(0.08, 6.0, span_secs * 0.25),
                    },
                ),
                inject(
                    at(0.55),
                    ChaosAction::Link {
                        victims: Victims::Fraction(0.25),
                        profile: LinkProfile::bursty_loss(0.12, 10.0, span_secs * 0.25),
                    },
                ),
            ],
        }
    }

    /// One capacity dip-and-recover episode: access links ramp down to
    /// 30% capacity, hold there, then ramp back to nominal.
    #[must_use]
    pub fn capacity_ramp(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        let leg = span_secs * 0.1;
        let trace = CapacityTrace::new(vec![
            CapacitySegment::Ramp {
                secs: leg,
                from: 1.0,
                to: 0.3,
            },
            CapacitySegment::Step {
                secs: span_secs * 0.2,
                factor: 0.3,
            },
            CapacitySegment::Ramp {
                secs: leg,
                from: 0.3,
                to: 1.0,
            },
        ]);
        Scenario {
            name: "capacity-ramp",
            injections: vec![inject(
                at(0.20),
                ChaosAction::Link {
                    victims: Victims::Fraction(0.3),
                    profile: LinkProfile::shaped_capacity(trace),
                },
            )],
        }
    }

    /// Periodic bufferbloat: every 30 s the affected links queue up and
    /// hold repair traffic an extra 2 s for a 10 s stretch.
    #[must_use]
    pub fn bufferbloat(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "bufferbloat",
            injections: vec![inject(
                at(0.20),
                ChaosAction::Link {
                    victims: Victims::Fraction(0.3),
                    profile: LinkProfile::bufferbloat(
                        DelaySpikes::new(30.0, 10.0, 2.0),
                        span_secs * 0.5,
                    ),
                },
            )],
        }
    }

    /// A dozen members go mobile: three handover cycles of capacity
    /// collapse and recovery with bursty loss and bloat spikes layered
    /// on top (140 s profile; absolute, like real handover timings).
    #[must_use]
    pub fn mobile_member(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "mobile-member",
            injections: vec![inject(
                at(0.15),
                ChaosAction::Link {
                    victims: Victims::Count(12),
                    profile: LinkProfile::handover(20.0, 5.0, 10.0, 0.2, 3, 0.15, 8.0, 1.0),
                },
            )],
        }
    }

    /// Everything at once: clustered failures during a flash crowd, with
    /// flapping and decaying bandwidth — the adversarial kitchen sink.
    #[must_use]
    pub fn combined(start_secs: f64, span_secs: f64) -> Scenario {
        let at = window(start_secs, span_secs);
        Scenario {
            name: "combined",
            injections: vec![
                inject(
                    at(0.10),
                    ChaosAction::FlashCrowd {
                        joins: 40,
                        spread_secs: (span_secs * 0.05).max(1.0),
                    },
                ),
                inject(at(0.20), ChaosAction::CorrelatedFailure { radius: 1 }),
                inject(
                    at(0.35),
                    ChaosAction::Flap {
                        members: 3,
                        period_secs: (span_secs * 0.05).max(1.0),
                        cycles: 4,
                    },
                ),
                inject(
                    at(0.45),
                    ChaosAction::DegradeBandwidth {
                        fraction: 0.15,
                        factor: 0.6,
                    },
                ),
                inject(
                    at(0.55),
                    ChaosAction::Link {
                        victims: Victims::Fraction(0.2),
                        profile: LinkProfile::bursty_loss(0.08, 6.0, span_secs * 0.2),
                    },
                ),
                inject(at(0.70), ChaosAction::CorrelatedFailure { radius: 2 }),
                inject(
                    at(0.85),
                    ChaosAction::DegradeBandwidth {
                        fraction: 0.20,
                        factor: 0.5,
                    },
                ),
            ],
        }
    }
}

/// Returns a closure mapping a window fraction to an absolute instant.
fn window(start_secs: f64, span_secs: f64) -> impl Fn(f64) -> f64 {
    assert!(start_secs >= 0.0, "window start must be non-negative");
    assert!(span_secs > 0.0, "window span must be positive");
    move |frac: f64| start_secs + span_secs * frac
}

fn inject(at_secs: f64, action: ChaosAction) -> Injection {
    Injection { at_secs, action }
}

/// Picks up to `count` distinct attached members (never the root),
/// drawing from `rng`. Candidates are enumerated in id order, so the
/// choice is a pure function of the tree state and the RNG state.
#[must_use]
pub fn pick_attached(tree: &MulticastTree, count: usize, rng: &mut SimRng) -> Vec<NodeId> {
    let candidates: Vec<NodeId> = tree
        .member_ids()
        .filter(|&id| id != tree.root() && tree.is_attached(id))
        .collect();
    rng.sample(&candidates, count.min(candidates.len()))
}

/// Picks a random attached victim and returns it together with its
/// overlay neighborhood: every member within `radius` hops over
/// parent/child edges, excluding the root. BFS order, victim first.
/// Returns an empty vector if the tree has no eligible victim.
#[must_use]
pub fn pick_cluster(tree: &MulticastTree, radius: usize, rng: &mut SimRng) -> Vec<NodeId> {
    let victims = pick_attached(tree, 1, rng);
    let Some(&seed_node) = victims.first() else {
        return Vec::new();
    };
    let mut cluster = vec![seed_node];
    let mut frontier = vec![seed_node];
    for _ in 0..radius {
        let mut next = Vec::new();
        for &n in &frontier {
            let mut neighbors: Vec<NodeId> = tree.children(n).collect();
            if let Some(p) = tree.parent(n) {
                neighbors.push(p);
            }
            for candidate in neighbors {
                if candidate != tree.root() && !cluster.contains(&candidate) {
                    cluster.push(candidate);
                    next.push(candidate);
                }
            }
        }
        frontier = next;
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use rom_overlay::{paper_source, Location, MemberProfile};
    use rom_sim::SimTime;

    fn chain_tree(n: usize) -> MulticastTree {
        // Root -> 1 -> 2 -> ... -> n, everyone with generous capacity.
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        let mut parent = tree.root();
        for i in 1..=n {
            let id = NodeId(i as u64);
            let profile = MemberProfile::new(id, 8.0, SimTime::ZERO, 1e6, Location(0));
            tree.attach(profile, parent).expect("chain attach");
            parent = id;
        }
        tree
    }

    #[test]
    fn every_named_scenario_resolves_and_sorts_in_window() {
        for name in Scenario::NAMES {
            let s = Scenario::by_name(name, 100.0, 500.0).expect("known name");
            assert_eq!(s.name, name);
            for inj in &s.injections {
                assert!(inj.at_secs >= 100.0 && inj.at_secs <= 600.0, "{name}");
            }
        }
        assert!(Scenario::by_name("no-such-scenario", 0.0, 1.0).is_none());
    }

    #[test]
    fn cluster_respects_radius_and_skips_root() {
        let tree = chain_tree(6);
        let mut rng = SimRng::seed_from(7);
        let cluster = pick_cluster(&tree, 1, &mut rng);
        assert!(!cluster.is_empty());
        // radius 1 on a chain: victim plus at most parent and child.
        assert!(cluster.len() <= 3, "cluster {cluster:?}");
        assert!(!cluster.contains(&tree.root()));
        // radius 0 fails exactly one node.
        let single = pick_cluster(&tree, 0, &mut SimRng::seed_from(7));
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn picks_are_deterministic_per_seed() {
        let tree = chain_tree(10);
        let a = pick_cluster(&tree, 2, &mut SimRng::seed_from(42));
        let b = pick_cluster(&tree, 2, &mut SimRng::seed_from(42));
        assert_eq!(a, b);
        let attached_a = pick_attached(&tree, 4, &mut SimRng::seed_from(9));
        let attached_b = pick_attached(&tree, 4, &mut SimRng::seed_from(9));
        assert_eq!(attached_a, attached_b);
        assert_eq!(attached_a.len(), 4);
    }

    #[test]
    fn pick_attached_on_empty_tree_is_empty() {
        let tree = MulticastTree::new(paper_source(Location(0)));
        assert!(pick_attached(&tree, 3, &mut SimRng::seed_from(1)).is_empty());
        assert!(pick_cluster(&tree, 2, &mut SimRng::seed_from(1)).is_empty());
    }
}
