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

use rom_bench::{observed_cell, CellConfig, Sidecars, Sweep};
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
    health: String,
}

/// A small-but-real churn configuration (mirrors `tests/determinism.rs`).
fn quick_churn(algorithm: AlgorithmKind, seed: u64) -> ChurnConfig {
    let mut cfg = ChurnConfig::quick(algorithm, 150).with_seed(seed);
    cfg.warmup_secs = 150.0;
    cfg.measure_secs = 400.0;
    cfg
}

/// Runs a `points` × `seeds` grid with every cell traced, through the
/// observed cell the figure binaries' `run_grid` uses.
fn traced_sweep<C: CellConfig>(
    name: &str,
    points: usize,
    seeds: u64,
    jobs: usize,
    make: impl Fn(usize, u64) -> C + Sync,
) -> Observed {
    let out = Sweep::with_jobs(jobs).run(points, seeds, |cell| {
        let cfg = make(cell.point, cell.seed);
        observed_cell(name, cfg, cell.seed, TRACED, C::run_observed)
    });
    let reports: Vec<Vec<&C::Report>> = out
        .reports
        .iter()
        .map(|seeds| seeds.iter().map(|(report, _)| report).collect())
        .collect();
    Observed {
        reports: format!("{reports:?}"),
        jsonl: out.merged_jsonl(),
        manifest: out.merged_manifest(name).to_json(),
        metrics: out.merged_metrics(),
        health: out.merged_health(),
    }
}

/// Runs a 2-algorithm × 3-seed churn sweep with every cell traced.
fn churn_sweep(jobs: usize) -> Observed {
    const ALGS: [AlgorithmKind; 2] = [AlgorithmKind::MinimumDepth, AlgorithmKind::Rost];
    traced_sweep("churn_det", ALGS.len(), 3, jobs, |point, seed| {
        quick_churn(ALGS[point], seed)
    })
}

/// Runs a 3-seed streaming sweep with every cell traced.
fn streaming_sweep(jobs: usize) -> Observed {
    traced_sweep("streaming_det", 1, 3, jobs, |_, seed| {
        StreamingConfig::paper(quick_churn(AlgorithmKind::MinimumDepth, seed), 2)
    })
}

/// Runs a 2-scenario × 2-seed streaming sweep under chaos with every
/// cell traced.
fn scenario_sweep(name: &str, scenarios: [&str; 2], jobs: usize) -> Observed {
    traced_sweep(name, scenarios.len(), 2, jobs, |point, seed| {
        let mut churn = quick_churn(AlgorithmKind::Rost, seed);
        churn.chaos = Scenario::by_name(scenarios[point], 180.0, 300.0);
        StreamingConfig::paper(churn, 2)
    })
}

/// The structural chaos actions.
fn chaos_sweep(jobs: usize) -> Observed {
    scenario_sweep("chaos_det", ["correlated-failures", "flash-crowd"], jobs)
}

/// The link-pathology layer (Gilbert–Elliott bursts, capacity traces,
/// bufferbloat, mobile handover) must be as jobs-invariant as the
/// structural chaos actions.
fn burst_sweep(jobs: usize) -> Observed {
    scenario_sweep("burst_det", ["bursty-loss", "mobile-member"], jobs)
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
        !baseline.health.is_empty(),
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
