//! The observability pipeline is bitwise deterministic: two streaming
//! runs of the same seed produce byte-identical JSONL traces and health
//! timelines, identical metric snapshots and identical run manifests —
//! the property the `--trace` provenance workflow (and its CI artifact)
//! relies on.

use rom::engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};
use rom::obs::{fnv1a, MetricsSnapshot, Obs, RunManifest};

fn config(seed: u64) -> StreamingConfig {
    let mut churn = ChurnConfig::quick(AlgorithmKind::Rost, 250);
    churn.seed = seed;
    churn.warmup_secs = 150.0;
    churn.measure_secs = 400.0;
    StreamingConfig::paper(churn, 2)
}

/// One traced run: the finished recorder (JSONL trace and health
/// timelines), the metrics snapshot, and the manifest a bench binary
/// would write next to its CSV.
fn traced_run(seed: u64) -> (Obs, MetricsSnapshot, RunManifest) {
    let cfg = config(seed);
    let digest = fnv1a(format!("{cfg:?}").as_bytes());
    let (report, obs, _) = StreamingSim::new(cfg).run_observed(Obs::enabled(), None);

    let snapshot = obs.snapshot();
    let mut manifest = RunManifest::new("obs_determinism", seed);
    manifest.config_digest = digest;
    manifest.events_processed = report.events_processed();
    manifest.trace_events = obs.trace_events();
    manifest.outcome = format!("{:?}", report.outcome());
    (obs, snapshot, manifest)
}

#[test]
fn identical_seeds_produce_byte_identical_traces() {
    let (obs_a, metrics_a, manifest_a) = traced_run(7);
    let (obs_b, metrics_b, manifest_b) = traced_run(7);

    let text = obs_a.trace_jsonl();
    assert!(!text.is_empty(), "the trace must record something");
    assert_eq!(
        text,
        obs_b.trace_jsonl(),
        "JSONL traces must be byte-identical"
    );
    let health = obs_a.health_jsonl();
    assert!(
        !health.is_empty(),
        "the health timelines must record something"
    );
    assert_eq!(
        health,
        obs_b.health_jsonl(),
        "health timelines must be identical"
    );
    assert_eq!(metrics_a, metrics_b, "metric snapshots must be identical");
    assert_eq!(manifest_a, manifest_b, "run manifests must be identical");
    assert_eq!(manifest_a.to_json(), manifest_b.to_json());

    // The trace is well-formed JSONL: every line an object.
    assert!(text.lines().count() as u64 == manifest_a.trace_events);
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let (obs_a, _, manifest_a) = traced_run(1);
    let (obs_b, _, manifest_b) = traced_run(2);
    assert_ne!(obs_a.trace_jsonl(), obs_b.trace_jsonl());
    assert_ne!(manifest_a.config_digest, manifest_b.config_digest);
}

#[test]
fn observation_does_not_perturb_the_run() {
    let plain = StreamingSim::new(config(7)).run();
    let (_, _, manifest) = traced_run(7);
    assert_eq!(plain.events_processed(), manifest.events_processed);

    let traced = StreamingSim::new(config(7))
        .run_observed(Obs::enabled(), None)
        .0;
    assert_eq!(plain.outages, traced.outages);
    assert_eq!(plain.packets_starved, traced.packets_starved);
    assert_eq!(
        plain.starving_ratio_percent.mean().to_bits(),
        traced.starving_ratio_percent.mean().to_bits()
    );
}
