//! # rom-chaos: deterministic fault injection + runtime invariant checking
//!
//! The paper's subject is fault *resilience*, so the simulators in this
//! workspace must be exercised by more than the two failure shapes the
//! figures need (lognormal churn and single upstream death). This crate
//! supplies the adversarial side of that bargain, in three layers:
//!
//! - a **scenario layer** ([`Scenario`], [`ChaosAction`], [`Injection`]):
//!   composable, seed-driven injectors for correlated/clustered node
//!   failures, flash-crowd join bursts, flapping membership, bandwidth
//!   degradation over time, and per-member link-pathology episodes;
//! - a **link-pathology layer** ([`GilbertElliott`], [`CapacityTrace`],
//!   [`DelaySpikes`], [`LinkProfile`], [`LinkEpisode`]): bursty loss
//!   with a matched-average-rate parameterization, time-varying capacity
//!   traces and bufferbloat spikes, composed into one access-link
//!   profile per episode (the mobile member's handover link has all
//!   three) and armed on a member's link as an episode — deterministic
//!   state machines advanced on sim time, drawing only from the
//!   caller's RNG;
//! - an **invariant layer** ([`Invariant`], [`InvariantRegistry`]):
//!   cross-cutting checkers evaluated during event dispatch — tree
//!   acyclicity and single-parent, out-degree within the bandwidth
//!   budget, BTP monotonicity between switches, ELN suppression implying
//!   no duplicate recovery for one loss, MLC recovery-group consistency
//!   with the tree, and causal event dispatch.
//!
//! ## Determinism contract
//!
//! Chaos draws randomness exclusively from a dedicated fork of the run's
//! root RNG (`root.fork("chaos")` in the engine; see `rom_sim::SimRng`).
//! Because a fork is a pure function of `(seed, label)` and independent
//! of the parent's consumption, arming a scenario never perturbs the
//! workload, decision or streaming randomness streams — and two runs of
//! the same `(scenario, seed)` are bit-for-bit identical, traces
//! included. The workspace pins that property with an integration test.
//!
//! Violations are reported three ways at once: collected on the registry
//! (for test assertions), counted in the `chaos.violations` metric, and
//! emitted as `Warn`-level trace events under `Subsystem::Chaos`.
//!
//! # Examples
//!
//! ```
//! use rom_chaos::{InvariantRegistry, Scenario};
//!
//! // Every named scenario resolves, parameterised by the measurement
//! // window it should land in.
//! for name in Scenario::NAMES {
//!     let s = Scenario::by_name(name, 300.0, 900.0).expect("known scenario");
//!     assert_eq!(s.name, name);
//! }
//!
//! // A registry armed with every built-in invariant starts clean.
//! let registry = InvariantRegistry::with_all();
//! assert!(registry.is_clean());
//! assert_eq!(registry.len(), 6);
//! ```

mod invariant;
mod pathology;
mod scenario;

pub use invariant::{
    BtpMonotonic, CausalScheduling, DegreeBudget, ElnNoDuplicateRecovery, Invariant,
    InvariantRegistry, RecoveryGroupConsistent, RejoinCause, Signal, TreeStructure, Violation,
};
pub use pathology::{
    CapacitySegment, CapacityTrace, DelaySpikes, GilbertElliott, LinkEpisode, LinkProfile,
};
pub use scenario::{pick_attached, pick_cluster, ChaosAction, Injection, Scenario, Victims};

/// Base for ids of members created by chaos injections (flash crowds,
/// flap replacements). Far above anything the workload's sequential id
/// counter reaches, so chaos-born members never collide with — or shift
/// the ids of — workload-born members.
pub const CHAOS_ID_BASE: u64 = 1 << 40;
