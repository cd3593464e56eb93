//! Figure 12: average starving-time ratio vs network size for recovery
//! group sizes 1–4 (minimum-depth tree, cooperative recovery).
//!
//! Expected shape: a small increase in group size cuts the starving ratio
//! dramatically — group size 3 roughly an order of magnitude below size 1.

use rom_bench::{banner, churn_config, fmt, mean_over, product, row, run_grid, Scale};
use rom_engine::{AlgorithmKind, StreamingConfig};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 12",
        "avg. starving time ratio (%) vs steady-state size, group sizes 1-4",
        scale,
    );
    println!(
        "{}",
        row([
            "size".into(),
            "K=1".into(),
            "K=2".into(),
            "K=3".into(),
            "K=4".into(),
        ])
    );
    // One point per (size, K); --trace/--profile capture the smallest
    // K=1 point (smallest artifacts).
    let sizes = scale.sizes();
    let points = product(&sizes, &[1, 2, 3, 4]);
    let grid = run_grid(
        "fig12_k1_smallest",
        &points,
        0,
        |&(size, k), seed| {
            StreamingConfig::paper(churn_config(AlgorithmKind::MinimumDepth, size, seed), k)
        },
        scale,
    );
    for (size, by_k) in sizes.iter().zip(grid.chunks(4)) {
        let mut cells = vec![size.to_string()];
        cells.extend(
            by_k.iter()
                .map(|reports| fmt(mean_over(reports, |r| r.starving_ratio_percent.mean()))),
        );
        println!("{}", row(cells));
    }
}
