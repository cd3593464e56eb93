//! The determinism wall for the parallel sweep engine: the same grid run
//! with `jobs = 1`, `2` and `8` must produce *byte-identical* merged
//! trace artifacts (JSONL, aggregate manifest, metrics sidecar) and
//! identical report vectors — for churn sweeps, streaming sweeps, and
//! chaos-scenario sweeps.
//!
//! Worker count only changes who runs a cell and when; the seed-ordered
//! result slots mean nothing observable may change. Each cell here is
//! traced, so any cross-thread interleaving or ordering leak would show
//! up directly in the merged bytes.

use rom_bench::{instrumented_churn_cell, instrumented_streaming_cell, CellOut, Sidecars, Sweep};
use rom_chaos::Scenario;
use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig};

/// Traces every cell into its in-memory pipeline, as the figure
/// binaries do for their designated run. The cell writes no file: only
/// a sweep's `write_sidecars` would write to this path.
const TRACED: Sidecars = Sidecars {
    trace: Some("in-memory"),
    profile: None,
};

/// Every observable output of one sweep, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    reports: String,
    jsonl: Vec<u8>,
    manifest: String,
    metrics: String,
    health: Option<String>,
}

/// A small-but-real churn configuration (mirrors `tests/determinism.rs`).
fn quick_churn(algorithm: AlgorithmKind, seed: u64) -> ChurnConfig {
    let mut cfg = ChurnConfig::quick(algorithm, 150).with_seed(seed);
    cfg.warmup_secs = 150.0;
    cfg.measure_secs = 400.0;
    cfg
}

/// Runs a 2-algorithm × 3-seed churn sweep with every cell traced.
fn churn_sweep(jobs: usize) -> Observed {
    const ALGS: [AlgorithmKind; 2] = [AlgorithmKind::MinimumDepth, AlgorithmKind::Rost];
    let out = Sweep::with_jobs(jobs).run(ALGS.len(), 3, |cell| {
        let cfg = quick_churn(ALGS[cell.point], cell.seed);
        let (report, trace, _) = instrumented_churn_cell("churn_det", cfg, cell.seed, TRACED);
        CellOut {
            report,
            warnings: Vec::new(),
            trace,
            profile: None,
        }
    });
    Observed {
        reports: format!("{:?}", out.reports),
        jsonl: out.merged_jsonl(),
        manifest: out.merged_manifest("churn_det").to_json(),
        metrics: out.merged_metrics(),
        health: out.merged_health(),
    }
}

/// Runs a 3-seed streaming sweep with every cell traced.
fn streaming_sweep(jobs: usize) -> Observed {
    let out = Sweep::with_jobs(jobs).run(1, 3, |cell| {
        let cfg = StreamingConfig::paper(quick_churn(AlgorithmKind::MinimumDepth, cell.seed), 2);
        let (report, trace, _) =
            instrumented_streaming_cell("streaming_det", cfg, cell.seed, TRACED);
        CellOut {
            report,
            warnings: Vec::new(),
            trace,
            profile: None,
        }
    });
    Observed {
        reports: format!("{:?}", out.reports),
        jsonl: out.merged_jsonl(),
        manifest: out.merged_manifest("streaming_det").to_json(),
        metrics: out.merged_metrics(),
        health: out.merged_health(),
    }
}

/// Runs a 2-scenario × 2-seed chaos sweep with every cell traced.
fn chaos_sweep(jobs: usize) -> Observed {
    const SCENARIOS: [&str; 2] = ["correlated-failures", "flash-crowd"];
    let out = Sweep::with_jobs(jobs).run(SCENARIOS.len(), 2, |cell| {
        let mut churn = quick_churn(AlgorithmKind::Rost, cell.seed);
        churn.chaos = Scenario::by_name(SCENARIOS[cell.point], 180.0, 300.0);
        let cfg = StreamingConfig::paper(churn, 2);
        let (report, trace, _) = instrumented_streaming_cell("chaos_det", cfg, cell.seed, TRACED);
        CellOut {
            report,
            warnings: Vec::new(),
            trace,
            profile: None,
        }
    });
    Observed {
        reports: format!("{:?}", out.reports),
        jsonl: out.merged_jsonl(),
        manifest: out.merged_manifest("chaos_det").to_json(),
        metrics: out.merged_metrics(),
        health: out.merged_health(),
    }
}

/// Runs a 2-pathology-scenario × 2-seed sweep with every cell traced —
/// the link-pathology layer (Gilbert–Elliott bursts, capacity traces,
/// bufferbloat, mobile handover) must be as jobs-invariant as the
/// structural chaos actions.
fn burst_sweep(jobs: usize) -> Observed {
    const SCENARIOS: [&str; 2] = ["bursty-loss", "mobile-member"];
    let out = Sweep::with_jobs(jobs).run(SCENARIOS.len(), 2, |cell| {
        let mut churn = quick_churn(AlgorithmKind::Rost, cell.seed);
        churn.chaos = Scenario::by_name(SCENARIOS[cell.point], 180.0, 300.0);
        let cfg = StreamingConfig::paper(churn, 2);
        let (report, trace, _) = instrumented_streaming_cell("burst_det", cfg, cell.seed, TRACED);
        CellOut {
            report,
            warnings: Vec::new(),
            trace,
            profile: None,
        }
    });
    Observed {
        reports: format!("{:?}", out.reports),
        jsonl: out.merged_jsonl(),
        manifest: out.merged_manifest("burst_det").to_json(),
        metrics: out.merged_metrics(),
        health: out.merged_health(),
    }
}

/// Asserts one sweep family is byte-identical across worker counts, and
/// sanity-checks that the baseline actually produced traced content.
fn assert_jobs_invariant(name: &str, sweep: impl Fn(usize) -> Observed) {
    let baseline = sweep(1);
    assert!(
        !baseline.jsonl.is_empty(),
        "{name}: serial baseline produced no trace bytes"
    );
    assert!(
        baseline
            .health
            .as_deref()
            .is_some_and(|h| !h.is_empty()),
        "{name}: serial baseline produced no health records"
    );
    assert!(
        baseline.reports.len() > 2,
        "{name}: serial baseline produced no reports"
    );
    for jobs in [2usize, 8] {
        let parallel = sweep(jobs);
        assert_eq!(
            parallel, baseline,
            "{name}: jobs={jobs} diverged from the serial run"
        );
    }
}

#[test]
fn churn_sweep_is_byte_identical_across_jobs() {
    assert_jobs_invariant("churn", churn_sweep);
}

#[test]
fn streaming_sweep_is_byte_identical_across_jobs() {
    assert_jobs_invariant("streaming", streaming_sweep);
}

#[test]
fn chaos_sweep_is_byte_identical_across_jobs() {
    assert_jobs_invariant("chaos", chaos_sweep);
}

#[test]
fn burst_sweep_is_byte_identical_across_jobs() {
    assert_jobs_invariant("burst", burst_sweep);
}
