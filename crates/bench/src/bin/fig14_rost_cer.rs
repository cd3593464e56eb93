//! Figure 14: ROST+CER vs Minimum-depth+Single-source, recovery group
//! sizes 1–3, with 95% confidence intervals.
//!
//! Expected shape: ROST+CER reduces the starving ratio by roughly an
//! order of magnitude at each group size; ROST+CER at K=1 already beats
//! the baseline at K=2.

use rom_bench::{banner, fmt, replicate_streaming_traced, row, Scale, Sidecars};
use rom_engine::{AlgorithmKind, ChurnConfig, RecoveryStrategy, StreamingConfig};
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
    for k in 1..=3usize {
        let baseline = pooled(replicate_streaming_traced(
            "fig14_mindepth_single",
            |seed| {
                let mut cfg = StreamingConfig::paper(
                    ChurnConfig::paper(AlgorithmKind::MinimumDepth, size).with_seed(seed),
                    k,
                );
                cfg.strategy = RecoveryStrategy::SingleSource;
                cfg
            },
            scale,
            Sidecars::none(),
        ));
        // --trace/--profile capture the flagship configuration:
        // ROST+CER at K=1.
        let rost_cer = pooled(replicate_streaming_traced(
            "fig14_rost_cer_k1",
            |seed| {
                StreamingConfig::paper(
                    ChurnConfig::paper(AlgorithmKind::Rost, size).with_seed(seed),
                    k,
                )
            },
            scale,
            scale.sidecars().when(k == 1),
        ));
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
fn pooled(reports: Vec<rom_engine::StreamingReport>) -> Summary {
    let mut pooled = Summary::new();
    for r in &reports {
        pooled.merge(&r.starving_ratio_percent);
    }
    pooled
}
