//! Profiling harness for the centralized relaxed-ordered baseline: one
//! relaxed-bw-ordered churn cell run with whatever sidecars are requested,
//! so CI's prof-smoke job can assert the per-depth eviction indices keep
//! `overlay.find_eviction` out of the top self-time spans. Before the
//! indices that span was the sweep's dominant cost — an O(M) layer scan
//! per placement. Not a paper figure; a perf-observability bin.

use rom_bench::{banner, churn_config, fmt, mean_over, row, run_grid, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Relaxed-BO profile",
        "one profiled relaxed-bw-ordered churn cell (perf observability)",
        scale,
    );
    println!(
        "{}",
        row(vec![
            "size".to_string(),
            "avg_population".to_string(),
            "disruptions".to_string(),
        ])
    );
    let size = scale.focus_size();
    let grid = run_grid(
        "prof_relaxed_bw",
        &[size],
        0,
        |&size, seed| churn_config(AlgorithmKind::RelaxedBandwidthOrdered, size, seed),
        scale,
    );
    let reports = &grid[0];
    println!(
        "{}",
        row(vec![
            size.to_string(),
            fmt(mean_over(reports, |r| r.population.mean())),
            fmt(mean_over(reports, |r| r.disruptions_per_mean_lifetime())),
        ])
    );
}
