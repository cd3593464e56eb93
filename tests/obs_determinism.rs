//! The observability pipeline is bitwise deterministic: two streaming
//! runs of the same seed produce byte-identical JSONL traces, identical
//! metric snapshots and identical run manifests — the property the
//! `--trace` provenance workflow (and its CI artifact) relies on.

use rom::engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};
use rom::obs::{fnv1a, JsonlSink, MetricsSnapshot, Obs, RunManifest, SharedBuffer, Tracer};

fn config(seed: u64) -> StreamingConfig {
    let mut churn = ChurnConfig::quick(AlgorithmKind::Rost, 250);
    churn.seed = seed;
    churn.warmup_secs = 150.0;
    churn.measure_secs = 400.0;
    StreamingConfig::paper(churn, 2)
}

/// One traced run: the raw JSONL bytes, the metrics snapshot, and the
/// manifest a bench binary would write next to its CSV.
fn traced_run(seed: u64) -> (Vec<u8>, MetricsSnapshot, RunManifest) {
    let cfg = config(seed);
    let digest = fnv1a(format!("{cfg:?}").as_bytes());
    let buffer = SharedBuffer::new();
    let sink = JsonlSink::new(buffer.clone());
    let obs = Obs::new(Tracer::to_sink(Box::new(sink)));
    let (report, obs, _) = StreamingSim::new(cfg).run_observed(obs, None);

    let snapshot = obs.snapshot();
    let mut manifest = RunManifest::new("obs_determinism", seed);
    manifest.config_digest = digest;
    manifest.events_processed = report.events_processed();
    manifest.trace_events = obs.trace_events();
    manifest.outcome = format!("{:?}", report.outcome());
    (buffer.contents(), snapshot, manifest)
}

#[test]
fn identical_seeds_produce_byte_identical_traces() {
    let (bytes_a, metrics_a, manifest_a) = traced_run(7);
    let (bytes_b, metrics_b, manifest_b) = traced_run(7);

    assert!(!bytes_a.is_empty(), "the trace must record something");
    assert_eq!(bytes_a, bytes_b, "JSONL traces must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "metric snapshots must be identical");
    assert_eq!(manifest_a, manifest_b, "run manifests must be identical");
    assert_eq!(manifest_a.to_json(), manifest_b.to_json());

    // The trace is well-formed JSONL: every line an object.
    let text = String::from_utf8(bytes_a).expect("traces are UTF-8");
    assert!(text.lines().count() as u64 == manifest_a.trace_events);
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let (bytes_a, _, manifest_a) = traced_run(1);
    let (bytes_b, _, manifest_b) = traced_run(2);
    assert_ne!(bytes_a, bytes_b);
    assert_ne!(manifest_a.config_digest, manifest_b.config_digest);
}

#[test]
fn observation_does_not_perturb_the_run() {
    let plain = StreamingSim::new(config(7)).run();
    let (_, _, manifest) = traced_run(7);
    assert_eq!(plain.events_processed(), manifest.events_processed);

    let traced = {
        let buffer = SharedBuffer::new();
        let obs = Obs::new(Tracer::to_sink(Box::new(JsonlSink::new(buffer.clone()))));
        StreamingSim::new(config(7)).run_observed(obs, None).0
    };
    assert_eq!(plain.outages, traced.outages);
    assert_eq!(plain.packets_starved, traced.packets_starved);
    assert_eq!(
        plain.starving_ratio_percent.mean().to_bits(),
        traced.starving_ratio_percent.mean().to_bits()
    );
}
