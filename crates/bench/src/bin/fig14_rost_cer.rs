//! Figure 14: ROST+CER vs Minimum-depth+Single-source, recovery group
//! sizes 1–3, with 95% confidence intervals.
//!
//! Expected shape: ROST+CER reduces the starving ratio by roughly an
//! order of magnitude at each group size; ROST+CER at K=1 already beats
//! the baseline at K=2.

use rom_bench::{banner, churn_config, fmt, product, row, run_grid, Scale};
use rom_engine::{AlgorithmKind, RecoveryStrategy, StreamingConfig, StreamingReport};
use rom_stats::Summary;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 14",
        "ROST+CER vs MinDepth+SingleSource: starving ratio (%) with 95% CI",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");
    println!(
        "{}",
        row([
            "group_size".into(),
            "mindepth_single_mean".into(),
            "mindepth_single_ci95".into(),
            "rost_cer_mean".into(),
            "rost_cer_ci95".into(),
        ])
    );
    // Two points per K, the baseline before ROST+CER; --trace/--profile
    // capture the flagship configuration: ROST+CER at K=1.
    let schemes = [
        (AlgorithmKind::MinimumDepth, RecoveryStrategy::SingleSource),
        (AlgorithmKind::Rost, RecoveryStrategy::Cooperative),
    ];
    let points = product(&[1, 2, 3], &schemes);
    let grid = run_grid(
        "fig14_rost_cer_k1",
        &points,
        1,
        |&(k, (alg, strategy)), seed| {
            let churn = churn_config(alg, size, seed);
            StreamingConfig {
                strategy,
                ..StreamingConfig::paper(churn, k)
            }
        },
        scale,
    );
    for (k, pair) in (1..).zip(grid.chunks(2)) {
        let (baseline, rost_cer) = (pooled(&pair[0]), pooled(&pair[1]));
        println!(
            "{}",
            row([
                k.to_string(),
                fmt(baseline.mean()),
                fmt(baseline.ci95_half_width()),
                fmt(rost_cer.mean()),
                fmt(rost_cer.ci95_half_width()),
            ])
        );
    }
}

/// Pools the per-member ratio summaries of replicated runs.
fn pooled(reports: &[StreamingReport]) -> Summary {
    let mut pooled = Summary::new();
    for r in reports {
        pooled.merge(&r.starving_ratio_percent);
    }
    pooled
}
