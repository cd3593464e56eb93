//! Ablation: how much of CER's benefit comes from *minimum-loss-
//! correlation* group selection (Algorithm 1) versus simply having
//! multiple recovery sources?
//!
//! The paper motivates MLC with the failure-correlation argument (§4.1)
//! but does not isolate it experimentally; this ablation swaps Algorithm 1
//! for uniform random selection at equal group sizes, keeping everything
//! else fixed.

use rom_bench::{banner, churn_config, fmt, mean_over, product, row, run_grid, Scale};
use rom_engine::{AlgorithmKind, GroupSelection, StreamingConfig};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Ablation A1",
        "MLC (Algorithm 1) vs random recovery-group selection: starving ratio (%)",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members, cooperative recovery");
    println!(
        "{}",
        row([
            "group_size".into(),
            "mlc_mean".into(),
            "random_mean".into(),
            "mlc_advantage_%".into(),
        ])
    );
    // One point per (K, selection); --trace/--profile capture the MLC
    // K=1 cell.
    let selections = [
        GroupSelection::MinimumLossCorrelation,
        GroupSelection::Random,
    ];
    let points = product(&[1, 2, 3, 4], &selections);
    let grid = run_grid(
        "ablation_a1_mlc_k1",
        &points,
        0,
        |&(k, selection), seed| {
            let mut cfg =
                StreamingConfig::paper(churn_config(AlgorithmKind::MinimumDepth, size, seed), k);
            cfg.selection = selection;
            cfg
        },
        scale,
    );
    for (k, pair) in (1..).zip(grid.chunks(2)) {
        let [mlc, random] = [&pair[0], &pair[1]]
            .map(|reports| mean_over(reports, |r| r.starving_ratio_percent.mean()));
        let advantage = if random > 0.0 {
            (1.0 - mlc / random) * 100.0
        } else {
            0.0
        };
        println!(
            "{}",
            row([k.to_string(), fmt(mlc), fmt(random), fmt(advantage)])
        );
    }
}
