//! Figure 14: ROST+CER vs Minimum-depth+Single-source, recovery group
//! sizes 1–3, with 95% confidence intervals.
//!
//! Expected shape: ROST+CER reduces the starving ratio by roughly an
//! order of magnitude at each group size; ROST+CER at K=1 already beats
//! the baseline at K=2.

use rom_bench::{banner_text, churn_config, product, run_grid, table, Scale};
use rom_engine::{AlgorithmKind, RecoveryStrategy, StreamingConfig};
use rom_stats::Summary;

fn main() {
    let scale = Scale::from_args();
    let size = scale.focus_size();
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
    let lines = table(
        vec![
            banner_text(
                "Figure 14",
                "ROST+CER vs MinDepth+SingleSource: starving ratio (%) with 95% CI",
                scale,
            ),
            format!("# focus size: {size} members"),
        ],
        "group_size,mindepth_single_mean,mindepth_single_ci95,rost_cer_mean,rost_cer_ci95",
        (1..).zip(grid.chunks(2)).map(|(k, pair)| {
            // Each scheme's per-member ratio summaries, pooled over seeds.
            let [baseline, rost_cer] = [&pair[0], &pair[1]].map(|reports| {
                let mut pooled = Summary::new();
                for r in reports {
                    pooled.merge(&r.starving_ratio_percent);
                }
                pooled
            });
            let values = [&baseline, &rost_cer].map(|s| [s.mean(), s.ci95_half_width()]);
            (k.to_string(), values.concat())
        }),
    );
    println!("{}", lines.join("\n"));
}
