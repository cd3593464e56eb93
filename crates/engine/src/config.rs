//! Experiment configuration (§5 of the paper).

use rom_chaos::Scenario;
use rom_net::TransitStubConfig;
use rom_overlay::algorithms::{
    LongestFirst, MinimumDepth, RelaxedBandwidthOrdered, RelaxedTimeOrdered, TreeAlgorithm,
};
use rom_rost::RostConfig;
use rom_stats::{BoundedPareto, LogNormal};

/// Virtual history `H` in seconds: seeded member ages follow the
/// stationary age distribution truncated at this horizon, as if the
/// overlay had been running organically for four hours (DESIGN decision
/// 1).
pub(crate) const HISTORY_SECS: f64 = 14_400.0;

/// Seconds before a join or rejoin that found no capacity in its view
/// tries again.
pub(crate) const RETRY_SECS: f64 = 5.0;

/// Stream packet rate: "a constant rate of 10 packets per second" (§6).
pub(crate) const RATE_PPS: f64 = 10.0;

/// Packet-loss detection latency before repair requests go out. Loss is
/// noticed at the delivery deadline ("when a member detects a delivery
/// deadline missing, it regards this as a packet loss", §4.2), which
/// trails the live stream by network delay only — far less than §6's 5 s
/// parent-failure timeout (DESIGN decision 4).
pub(crate) const LOSS_DETECTION_SECS: f64 = 1.0;

/// Which tree-construction algorithm drives an experiment — the five
/// §5 contenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// §5 (1): distributed minimum-depth join, no maintenance.
    MinimumDepth,
    /// §5 (2): distributed longest-first join, no maintenance.
    LongestFirst,
    /// §5 (3): centralized relaxed bandwidth-ordered tree.
    RelaxedBandwidthOrdered,
    /// §5 (4): centralized relaxed time-ordered tree.
    RelaxedTimeOrdered,
    /// §5 (5): ROST — minimum-depth join plus BTP switching.
    Rost,
}

impl AlgorithmKind {
    /// All five algorithms in the paper's presentation order.
    pub const ALL: [AlgorithmKind; 5] = [
        AlgorithmKind::MinimumDepth,
        AlgorithmKind::RelaxedBandwidthOrdered,
        AlgorithmKind::LongestFirst,
        AlgorithmKind::RelaxedTimeOrdered,
        AlgorithmKind::Rost,
    ];

    /// The join rule that places this algorithm's joins and rejoins. ROST
    /// joins by minimum depth (§3.3); what sets it apart is the switching
    /// the engine runs on top.
    #[must_use]
    pub fn rule(self) -> &'static dyn TreeAlgorithm {
        match self {
            AlgorithmKind::MinimumDepth | AlgorithmKind::Rost => &MinimumDepth,
            AlgorithmKind::LongestFirst => &LongestFirst,
            AlgorithmKind::RelaxedBandwidthOrdered => &RelaxedBandwidthOrdered,
            AlgorithmKind::RelaxedTimeOrdered => &RelaxedTimeOrdered,
        }
    }

    /// Short display name matching the figures' legends.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::MinimumDepth => "min-depth",
            AlgorithmKind::LongestFirst => "longest-first",
            AlgorithmKind::RelaxedBandwidthOrdered => "relaxed-bw-ordered",
            AlgorithmKind::RelaxedTimeOrdered => "relaxed-time-ordered",
            AlgorithmKind::Rost => "rost",
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The "typical member" tracked by Figs. 6 and 9: "a moderate bandwidth
/// and a long lifetime in order to observe the network over a long
/// period. It joins the overlay after the network enters a steady state."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserverSpec {
    /// The observer's outbound bandwidth (stream-rate units).
    pub bandwidth: f64,
    /// The observer's lifetime in seconds.
    pub lifetime_secs: f64,
}

impl Default for ObserverSpec {
    /// Moderate bandwidth (2 streams) and a five-hour stay — the paper's
    /// time axes run to 300 minutes.
    fn default() -> Self {
        ObserverSpec {
            bandwidth: 2.0,
            lifetime_secs: 300.0 * 60.0,
        }
    }
}

/// Configuration of a churn-driven tree experiment (Figs. 4–11).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Steady-state membership M; the arrival rate follows from Little's
    /// law (λ = M / mean lifetime).
    pub target_size: usize,
    /// Root seed; every random stream in the run forks from it.
    pub seed: u64,
    /// The tree-construction algorithm under test.
    pub algorithm: AlgorithmKind,
    /// ROST parameters (ignored by other algorithms).
    pub rost: RostConfig,
    /// Outbound-bandwidth distribution (§5: Bounded Pareto 1.2/0.5/100).
    pub bandwidth: BoundedPareto,
    /// Lifetime distribution (§5: Lognormal 5.5/2.0).
    pub lifetime: LogNormal,
    /// Underlay topology parameters.
    pub topology: TransitStubConfig,
    /// Seconds of churn before measurement starts (the tree is seeded with
    /// an equilibrium population first, so this only settles structure).
    pub warmup_secs: f64,
    /// Length of the measurement window in seconds.
    pub measure_secs: f64,
    /// Interval between tree-quality samples (delay, stretch).
    pub sample_interval_secs: f64,
    /// Delay before an orphaned member rejoins (failure detection +
    /// parent re-finding). Zero for pure tree experiments; the streaming
    /// experiments use 5 s + 10 s (§6).
    pub rejoin_delay_secs: f64,
    /// Fraction of departures that are *graceful* (§3.3: a leaving member
    /// "may give notification to its neighbors or it may just leave
    /// abruptly"). A graceful departure hands its children off without a
    /// streaming disruption. The paper's evaluation uses the extreme
    /// all-abrupt case (0.0), "the most uncooperative and dynamic
    /// environment".
    pub graceful_fraction: f64,
    /// Optional tracked typical member.
    pub observer: Option<ObserverSpec>,
    /// Optional fault-injection scenario (`rom-chaos`). Its injections are
    /// scheduled at absolute simulation times during seeding; chaos draws
    /// come from a dedicated RNG fork, so an identical configuration with
    /// `chaos: None` replays the exact same organic workload.
    pub chaos: Option<Scenario>,
    /// Optional hard cap on processed events; the run ends with
    /// [`rom_sim::RunOutcome::BudgetExhausted`] when it is hit. `None`
    /// (the default) runs to the horizon.
    pub max_events: Option<u64>,
}

impl ChurnConfig {
    /// The paper's §5 settings for the given algorithm and network size.
    #[must_use]
    pub fn paper(algorithm: AlgorithmKind, target_size: usize) -> Self {
        ChurnConfig {
            target_size,
            seed: 1,
            algorithm,
            rost: RostConfig::paper(),
            bandwidth: BoundedPareto::paper_bandwidth(),
            lifetime: LogNormal::paper_lifetime(),
            topology: TransitStubConfig::sized_for(target_size.max(1) * 2),
            warmup_secs: 1_800.0,
            measure_secs: 3_600.0,
            sample_interval_secs: 120.0,
            rejoin_delay_secs: 0.0,
            graceful_fraction: 0.0,
            observer: None,
            chaos: None,
            max_events: None,
        }
    }

    /// A reduced-scale configuration for tests and quick runs: small
    /// topology, short windows.
    #[must_use]
    pub fn quick(algorithm: AlgorithmKind, target_size: usize) -> Self {
        ChurnConfig {
            warmup_secs: 300.0,
            measure_secs: 900.0,
            sample_interval_secs: 60.0,
            topology: TransitStubConfig::sized_for(target_size.max(1) * 2),
            ..ChurnConfig::paper(algorithm, target_size)
        }
    }

    /// A `--mega` configuration: paper churn dynamics at 100k–1M members
    /// with a hard event budget as the designed stopping rule.
    ///
    /// Scale invariants that make million-member cells tractable:
    /// `TransitStubConfig::sized_for` only shrinks *below* the paper
    /// topology, so the underlay (and the delay oracle's Dijkstra cost)
    /// stays at paper scale while membership grows; and the event budget
    /// bounds the loop by construction — a cell that ends in
    /// [`rom_sim::RunOutcome::BudgetExhausted`] is a complete measurement
    /// of `max_events` dispatches, not a truncated experiment. Sampling
    /// is disabled-in-effect (one sample per window) because per-sample
    /// full-tree scans would dominate a million-member run.
    #[must_use]
    pub fn mega(algorithm: AlgorithmKind, target_size: usize) -> Self {
        ChurnConfig {
            warmup_secs: 30.0,
            measure_secs: 300.0,
            sample_interval_secs: 300.0,
            max_events: Some(3_000_000),
            ..ChurnConfig::quick(algorithm, target_size)
        }
    }

    /// Mean member lifetime in seconds (≈1809 s at paper settings).
    #[must_use]
    pub fn mean_lifetime_secs(&self) -> f64 {
        self.lifetime.mean()
    }

    /// Little's-law arrival rate λ = M / mean lifetime (§5).
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.target_size as f64 / self.mean_lifetime_secs()
    }

    /// A copy with a different seed (for replicated runs).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values (zero size, non-positive windows…).
    pub fn validate(&self) {
        assert!(self.target_size > 0, "target size must be positive");
        assert!(self.warmup_secs >= 0.0, "warmup cannot be negative");
        assert!(
            self.measure_secs > 0.0,
            "measurement window must be positive"
        );
        assert!(
            self.sample_interval_secs > 0.0,
            "sample interval must be positive"
        );
        assert!(
            self.rejoin_delay_secs >= 0.0,
            "rejoin delay cannot be negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.graceful_fraction),
            "graceful fraction must be a probability"
        );
        assert!(
            self.topology.stub_node_count() >= 2,
            "topology too small to host members"
        );
        if let Some(scenario) = &self.chaos {
            assert!(
                scenario.injections.iter().all(|i| i.at_secs >= 0.0),
                "chaos injections cannot be scheduled before the epoch"
            );
        }
        assert!(
            self.max_events != Some(0),
            "event budget must be positive when set"
        );
    }
}

/// How lost data is fetched during an outage (§6's two schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// The baseline: one recovery node at a time serves at its own
    /// residual bandwidth (the request chains to the next only when a node
    /// is dead or lacks the data).
    SingleSource,
    /// CER: stripe sequence numbers across the group's residual bandwidths
    /// (§4.2).
    Cooperative,
}

/// How the recovery group is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupSelection {
    /// Algorithm 1: minimum loss correlation (§4.1).
    MinimumLossCorrelation,
    /// Ablation baseline: uniformly random known members.
    Random,
}

/// Configuration of a packet-level streaming experiment (Figs. 12–14).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// The churn substrate (tree algorithm, size, seed…). Its
    /// `rejoin_delay_secs` is §6's failure detection plus rejoin time.
    pub churn: ChurnConfig,
    /// Playback buffer in seconds (§6 default 5 s; Fig. 13 sweeps 5–30 s).
    pub buffer_secs: f64,
    /// Recovery group size K (Figs. 12–14 sweep 1–4).
    pub recovery_group_size: usize,
    /// Single-source baseline or cooperative striping.
    pub strategy: RecoveryStrategy,
    /// MLC (Algorithm 1) or random group selection.
    pub selection: GroupSelection,
    /// Residual helper bandwidth range in packets/second (§6: uniform
    /// 0–9).
    pub residual_pps: (f64, f64),
    /// How long recovery nodes keep past packets available for repair.
    pub repair_cache_secs: f64,
}

impl StreamingConfig {
    /// The §6 defaults on top of the given churn substrate: 5 s buffer,
    /// residual 0–9 pkt/s, and a 15 s outage per parent failure — "5
    /// seconds to detect a failure of its parent, and another 10 seconds
    /// to rejoin the tree".
    #[must_use]
    pub fn paper(mut churn: ChurnConfig, recovery_group_size: usize) -> Self {
        churn.rejoin_delay_secs = 5.0 + 10.0;
        StreamingConfig {
            churn,
            buffer_secs: 5.0,
            recovery_group_size,
            strategy: RecoveryStrategy::Cooperative,
            selection: GroupSelection::MinimumLossCorrelation,
            residual_pps: (0.0, 9.0),
            repair_cache_secs: 120.0,
        }
    }

    /// The stream clock implied by this configuration.
    #[must_use]
    pub fn clock(&self) -> rom_cer::StreamClock {
        rom_cer::StreamClock::new(RATE_PPS, self.buffer_secs)
    }

    /// Validates parameter sanity (including churn).
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values.
    pub fn validate(&self) {
        self.churn.validate();
        assert!(self.buffer_secs > 0.0, "buffer must be positive");
        assert!(self.recovery_group_size > 0, "group size must be positive");
        assert!(self.residual_pps.0 >= 0.0 && self.residual_pps.1 >= self.residual_pps.0);
        assert!(
            self.repair_cache_secs > 0.0,
            "repair cache must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_follow_section5() {
        let c = ChurnConfig::paper(AlgorithmKind::Rost, 8_000);
        c.validate();
        assert_eq!(c.rost.switching_interval_secs, 360.0);
        // λ = 8000 / 1809 ≈ 4.42 arrivals per second.
        assert!((c.arrival_rate() - 8_000.0 / c.mean_lifetime_secs()).abs() < 1e-12);
        assert!((c.mean_lifetime_secs() - 1_808.0).abs() < 1.0);
    }

    #[test]
    fn streaming_defaults_follow_section6() {
        let s = StreamingConfig::paper(ChurnConfig::quick(AlgorithmKind::MinimumDepth, 500), 3);
        s.validate();
        assert_eq!(s.buffer_secs, 5.0);
        assert_eq!(s.churn.rejoin_delay_secs, 15.0);
        assert_eq!(s.clock().buffer_packets(), 50);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(AlgorithmKind::ALL.len(), 5);
        assert_eq!(AlgorithmKind::Rost.to_string(), "rost");
        assert_eq!(
            AlgorithmKind::RelaxedBandwidthOrdered.name(),
            "relaxed-bw-ordered"
        );
    }

    #[test]
    fn seed_override() {
        let c = ChurnConfig::quick(AlgorithmKind::Rost, 100).with_seed(9);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn observer_default_is_long_lived() {
        let o = ObserverSpec::default();
        assert_eq!(o.lifetime_secs, 18_000.0);
        assert!(o.bandwidth >= 1.0);
    }
}
