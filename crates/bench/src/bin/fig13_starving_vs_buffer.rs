//! Figure 13: average starving-time ratio vs playback buffer size
//! (5–30 s) for recovery group sizes 1–3 at the focus size.
//!
//! Expected shape: larger buffers help, but adding one recovery node is
//! worth tens of seconds of buffer (K=2 at 5 s ≈ K=1 at ~27 s).

use rom_bench::{banner, churn_config, fmt, mean_over, product, row, run_grid, Scale};
use rom_engine::{AlgorithmKind, StreamingConfig};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 13",
        "avg. starving time ratio (%) vs buffer size (s), group sizes 1-3",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members");
    println!(
        "{}",
        row(["buffer_s".into(), "K=1".into(), "K=2".into(), "K=3".into()])
    );
    // One point per (buffer, K); --trace/--profile capture the hardest
    // cell: the smallest buffer with a single recovery source.
    let buffers = [5.0f64, 10.0, 15.0, 20.0, 25.0, 30.0];
    let points = product(&buffers, &[1, 2, 3]);
    let grid = run_grid(
        "fig13_buffer5_k1",
        &points,
        0,
        |&(buffer, k), seed| {
            let mut cfg =
                StreamingConfig::paper(churn_config(AlgorithmKind::MinimumDepth, size, seed), k);
            cfg.buffer_secs = buffer;
            cfg
        },
        scale,
    );
    for (buffer, by_k) in buffers.into_iter().zip(grid.chunks(3)) {
        let mut cells = vec![fmt(buffer)];
        cells.extend(
            by_k.iter()
                .map(|reports| fmt(mean_over(reports, |r| r.starving_ratio_percent.mean()))),
        );
        println!("{}", row(cells));
    }
}
