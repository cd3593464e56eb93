//! Ablation: how much of the disruption problem is *abruptness*?
//!
//! The paper evaluates "the extreme case in which every node departs
//! abruptly without notification" (§6). This ablation sweeps the graceful
//! fraction to show how cooperative departures shrink the problem ROST
//! solves — and that ROST still wins on whatever abrupt remainder exists.

use rom_bench::{banner, churn_config, fmt, mean_over, product, row, run_grid, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Ablation A3",
        "disruptions per mean lifetime vs graceful-departure fraction",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");
    println!(
        "{}",
        row(["graceful_%".into(), "min-depth".into(), "rost".into()])
    );
    // One point per (fraction, algorithm); --trace/--profile capture the
    // all-abrupt ROST point (the paper's extreme case).
    let fractions = [0.0f64, 0.25, 0.5, 0.75, 1.0];
    let points = product(
        &fractions,
        &[AlgorithmKind::MinimumDepth, AlgorithmKind::Rost],
    );
    let grid = run_grid(
        "ablation_a3_abrupt_rost",
        &points,
        1,
        |&(graceful, alg), seed| {
            let mut cfg = churn_config(alg, size, seed);
            cfg.graceful_fraction = graceful;
            cfg
        },
        scale,
    );
    for (graceful, pair) in fractions.into_iter().zip(grid.chunks(2)) {
        let mut cells = vec![fmt(graceful * 100.0)];
        cells.extend(
            pair.iter()
                .map(|reports| fmt(mean_over(reports, |r| r.disruptions_per_mean_lifetime()))),
        );
        println!("{}", row(cells));
    }
}
