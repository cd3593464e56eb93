//! Tests of the benchmark's output check (report digests) and of the
//! per-layer roll-up of span profiles.

use rom_bench::Json;
use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig};
use rom_perfbench::record::{median, metric, result_json};
use rom_perfbench::rollup::{Profile, LAYERS};
use rom_perfbench::run::{run_plain, run_traced};
use rom_perfbench::workload::{Config, Workload};
use rom_sim::RunOutcome;

fn small_churn(seed: u64) -> Config {
    let mut cfg = ChurnConfig::quick(AlgorithmKind::Rost, 150).with_seed(seed);
    cfg.warmup_secs = 120.0;
    cfg.measure_secs = 300.0;
    Config::Churn(cfg)
}

fn small_streaming(seed: u64) -> Config {
    let mut churn = ChurnConfig::quick(AlgorithmKind::Rost, 150).with_seed(seed);
    churn.warmup_secs = 120.0;
    churn.measure_secs = 300.0;
    Config::Streaming(StreamingConfig::paper(churn, 3))
}

#[test]
fn digest_repeats_and_tells_seeds_apart() {
    for make in [small_churn, small_streaming] {
        let a = run_plain(&make(3)).facts;
        let b = run_plain(&make(3)).facts;
        let c = run_plain(&make(4)).facts;
        assert_eq!(a.digest, b.digest, "same input, same digest");
        assert_ne!(a.digest, c.digest, "another seed, another digest");
        assert_eq!(a.outcome, RunOutcome::HorizonReached);
    }
}

#[test]
fn profiling_leaves_the_digest_alone() {
    for (workload, make) in [
        (Workload::ChurnRost100k, small_churn as fn(u64) -> Config),
        (Workload::StreamCer1k, small_streaming),
    ] {
        let plain = run_plain(&make(5)).facts;
        let traced = run_traced(workload, &make(5), 5).expect("profiled run");
        assert_eq!(plain.digest, traced.facts.digest);
        assert!(traced.profile.wall_ns > 0);
        assert!(traced.profile.span("sim.queue").count > 0);
    }
}

#[test]
fn check_rejects_a_wrong_digest_or_a_truncated_run() {
    let facts = run_plain(&small_churn(6)).facts;
    assert!(facts.check(None).is_ok());
    assert!(facts.check(Some(facts.digest)).is_ok());
    assert!(facts.check(Some(facts.digest ^ 1)).is_err());
    let truncated = rom_perfbench::run::RunFacts {
        outcome: RunOutcome::BudgetExhausted,
        ..facts
    };
    assert!(truncated.check(None).is_err());
}

#[test]
fn workloads_parse_and_spread_cells() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
        assert_eq!(w.cell_seed(9, 0), 9);
        assert_ne!(w.cell_seed(9, 1), w.cell_seed(9, 2));
        assert_eq!(
            w.expected_digest(w.default_seed()),
            Some(w.recorded_digest())
        );
        assert_eq!(w.expected_digest(w.default_seed() + 1), None);
    }
    assert_eq!(Workload::parse("no-such-workload"), None);
}

/// A hand-made profile: 1000 ns of wall time, two root spans covering
/// 900 ns, and a nested overlay span under each.
const PROFILE: &str = r#"{"kind":"rom-profile","name":"t","seed":1,"events_processed":3,"run_wall_ns":1000,"spans":[
 {"path":"engine.arrival","count":2,"total_ns":600,"self_ns":200,"hist_ns_pow2":[]},
 {"path":"engine.arrival/overlay.attach","count":2,"total_ns":400,"self_ns":300,"hist_ns_pow2":[]},
 {"path":"engine.arrival/overlay.attach/chaos.noop","count":1,"total_ns":100,"self_ns":100,"hist_ns_pow2":[]},
 {"path":"sim.queue","count":3,"total_ns":150,"self_ns":150,"hist_ns_pow2":[]},
 {"path":"overlay.attach","count":1,"total_ns":150,"self_ns":150,"hist_ns_pow2":[]}]}"#;

#[test]
fn rollup_shares_sum_to_the_wall_time() {
    let profile = Profile::parse(PROFILE).expect("valid profile");
    assert_eq!(profile.wall_ns, 1000);
    let rollup = profile.rollup();
    assert_eq!(rollup.layers.len(), LAYERS.len());
    assert!((rollup.share("engine") - 0.2).abs() < 1e-12);
    assert!((rollup.share("overlay") - 0.45).abs() < 1e-12);
    assert!((rollup.share("sim") - 0.15).abs() < 1e-12);
    assert!(rollup.share("cer").abs() < 1e-12);
    // 100 ns outside every root span plus the 100 ns chaos span.
    assert!((rollup.unattributed - 0.2).abs() < 1e-12);
    let total: f64 = rollup.layers.iter().map(|&(_, s)| s).sum::<f64>() + rollup.unattributed;
    assert!((total - 1.0).abs() < 1e-12);
}

#[test]
fn span_totals_merge_every_path() {
    let profile = Profile::parse(PROFILE).expect("valid profile");
    let attach = profile.span("overlay.attach");
    assert_eq!(
        (attach.count, attach.total_ns, attach.self_ns),
        (3, 550, 450)
    );
    assert!((attach.ns_per_op() - 550.0 / 3.0).abs() < 1e-9);
    assert!((profile.span("engine.arrival").self_ns_per_op() - 100.0).abs() < 1e-9);
    let absent = profile.span("cer.repair");
    assert_eq!(absent.count, 0);
    assert!(absent.ns_per_op().abs() < 1e-12);
}

#[test]
fn real_profile_rolls_up_to_one() {
    let traced = run_traced(Workload::ChurnRost100k, &small_churn(7), 7).expect("profiled run");
    let rollup = traced.profile.rollup();
    let total: f64 = rollup.layers.iter().map(|&(_, s)| s).sum::<f64>() + rollup.unattributed;
    assert!((total - 1.0).abs() < 1e-6, "shares sum to {total}");
}

#[test]
fn malformed_profiles_are_rejected() {
    assert!(Profile::parse("{}").is_err());
    assert!(Profile::parse(r#"{"run_wall_ns":5,"spans":[{"path":"x"}]}"#).is_err());
    assert!(Profile::parse("not json").is_err());
}

#[test]
fn result_line_has_the_contract_keys() {
    let line = result_json(true, 3, 0, &[metric("setup_s", 0.25, "s")]);
    let doc = Json::parse(&line).expect("valid JSON");
    let keys: Vec<&String> = doc.as_obj().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let setup = doc
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .expect("metric");
    assert_eq!(setup.f64_field("value"), Some(0.25));
    assert_eq!(setup.str_field("unit"), Some("s"));
    assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
    assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
}
