//! Tier-1 chaos suite: every fault-injection scenario in the rom-chaos
//! catalogue runs through the full streaming engine with every runtime
//! invariant armed, across several seeds, and (a) no invariant ever
//! trips, (b) the observability trace of a (scenario, seed) pair is
//! byte-identical across repeated runs, (c) the chaos RNG stream is
//! isolated — arming a do-nothing scenario does not perturb the run —
//! and (d) arming the invariants leaves the trace and metrics unchanged.

use rom::chaos::{InvariantRegistry, Scenario};
use rom::engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};
use rom::obs::Obs;
use rom_bench::{observed_cell, CellTrace, Sidecars};

const SEEDS: [u64; 3] = [11, 23, 47];

fn config(scenario: Option<&str>, seed: u64) -> StreamingConfig {
    let mut churn = ChurnConfig::quick(AlgorithmKind::Rost, 150);
    churn.seed = seed;
    churn.warmup_secs = 150.0;
    churn.measure_secs = 400.0;
    // Injections start after warmup equilibrium and finish inside the
    // measurement window.
    churn.chaos = scenario.map(|name| {
        Scenario::by_name(name, 180.0, 300.0).expect("catalogue scenario must resolve")
    });
    StreamingConfig::paper(churn, 2)
}

/// One fully-armed run: the JSONL trace bytes and the registry with
/// whatever violations it accumulated.
fn checked_run(scenario: &str, seed: u64) -> (Vec<u8>, InvariantRegistry) {
    let (_report, obs, registry) = StreamingSim::new(config(Some(scenario), seed))
        .run_observed(Obs::enabled(), Some(InvariantRegistry::with_all()));
    (obs.trace_jsonl().as_bytes().to_vec(), registry)
}

#[test]
fn every_scenario_upholds_every_invariant_across_seeds() {
    for scenario in Scenario::NAMES {
        for seed in SEEDS {
            let (trace, registry) = checked_run(scenario, seed);
            assert_eq!(registry.len(), 6, "the full invariant set must be armed");
            assert!(
                registry.is_clean(),
                "scenario `{scenario}` seed {seed} tripped: {:#?}",
                registry.violations()
            );
            assert!(!trace.is_empty(), "a checked run must leave a trace");
        }
    }
}

#[test]
fn checked_chaos_runs_are_byte_identical_per_seed() {
    for scenario in Scenario::NAMES {
        let (first, _) = checked_run(scenario, 11);
        let (second, _) = checked_run(scenario, 11);
        assert!(
            first == second,
            "scenario `{scenario}` seed 11: traces diverged between repeat runs"
        );
    }
}

#[test]
fn different_seeds_diverge_under_chaos() {
    let (a, _) = checked_run("combined", 11);
    let (b, _) = checked_run("combined", 23);
    assert_ne!(a, b, "distinct seeds must explore distinct executions");
}

#[test]
fn armed_baseline_matches_unarmed_run() {
    // The chaos RNG is a dedicated fork and the invariant registry only
    // reads engine state, so a scenario with zero injections must
    // reproduce the plain run event-for-event.
    let plain = StreamingSim::new(config(None, 11)).run();
    let (report, _obs, registry) = StreamingSim::new(config(Some("baseline"), 11))
        .run_observed(Obs::disabled(), Some(InvariantRegistry::with_all()));
    assert!(registry.is_clean());
    assert_eq!(plain.events_processed(), report.events_processed());
    assert_eq!(plain.outages, report.outages);
    assert_eq!(plain.packets_starved, report.packets_starved);
    assert_eq!(
        plain.starving_ratio_percent.mean().to_bits(),
        report.starving_ratio_percent.mean().to_bits()
    );
}

#[test]
fn injected_scenarios_actually_perturb_the_run() {
    let (baseline, _) = checked_run("baseline", 11);
    for scenario in [
        "correlated-failures",
        "flash-crowd",
        "flapping",
        "bandwidth-decay",
        "bursty-loss",
        "capacity-ramp",
        "bufferbloat",
        "mobile-member",
    ] {
        let (perturbed, _) = checked_run(scenario, 11);
        assert_ne!(
            baseline, perturbed,
            "scenario `{scenario}` left no mark on the trace"
        );
    }
}

/// `fig_chaos`'s default cell: 250 ROST members, the scenario's
/// injections from 450 s over 600 s, recovery groups of two.
fn fig_chaos_config(scenario: &str, seed: u64) -> StreamingConfig {
    let mut churn = ChurnConfig::quick(AlgorithmKind::Rost, 250).with_seed(seed);
    churn.chaos =
        Some(Scenario::by_name(scenario, 450.0, 600.0).expect("catalogue scenario must resolve"));
    StreamingConfig::paper(churn, 2)
}

#[test]
fn detached_members_get_no_recovery_group_for_link_losses() {
    // At seed 7 a lossy link episode ends just after the member's parent
    // failed; its losses must wait for the reattachment before a
    // recovery group is chosen for them.
    for scenario in ["bursty-loss", "mobile-member"] {
        let (_report, _obs, registry) = StreamingSim::new(fig_chaos_config(scenario, 7))
            .run_observed(Obs::disabled(), Some(InvariantRegistry::with_all()));
        assert_eq!(registry.len(), 6, "the full invariant set must be armed");
        assert!(
            registry.is_clean(),
            "scenario `{scenario}` seed 7 tripped: {:#?}",
            registry.violations()
        );
    }
}

#[test]
fn armed_invariants_leave_the_trace_and_metrics_unchanged() {
    // The chaos binaries run their checked cells through the same
    // observed cell as every figure: that is sound only if an armed
    // registry adds nothing to a clean run's artifacts.
    let traced = |invariants: Option<InvariantRegistry>| -> CellTrace {
        let sidecars = Sidecars {
            trace: Some("in-memory"),
            profile: None,
        };
        let out = observed_cell(
            "armed",
            config(Some("combined"), 23),
            23,
            sidecars,
            |cfg, obs| StreamingSim::new(cfg).run_observed(obs, invariants),
        );
        assert!(out.report.1.is_clean(), "{:#?}", out.report.1.violations());
        out.trace.expect("a trace was requested")
    };
    let plain = traced(None);
    let armed = traced(Some(InvariantRegistry::with_all()));
    assert!(!plain.jsonl.is_empty(), "the trace must record something");
    assert!(armed.jsonl == plain.jsonl, "JSONL traces diverged");
    assert_eq!(armed.metrics_json, plain.metrics_json);
    assert_eq!(armed.health, plain.health);
    assert_eq!(armed.manifest, plain.manifest);
}
