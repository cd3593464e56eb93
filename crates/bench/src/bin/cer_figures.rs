//! Figures 12 and 13 and ablation A1: cuts of one set of streaming runs
//! over a minimum-depth tree with cooperative error recovery (§6). The
//! Fig. 12 grid (steady-state size × recovery group size) comes first,
//! then the other buffer sizes and random group selection; a
//! configuration two tables share is one point of one sweep and runs once
//! per seed. The three tables go to `--out DIR` (created if missing), one
//! CSV file each:
//!
//! - `fig12_starving_vs_size.csv`: average starving-time ratio vs network
//!   size for recovery group sizes 1–4. A small increase in group size
//!   cuts the starving ratio dramatically — group size 3 roughly an order
//!   of magnitude below size 1.
//! - `fig13_starving_vs_buffer.csv`: average starving-time ratio vs
//!   playback buffer size (5–30 s) for group sizes 1–3 at the focus
//!   size. Larger buffers help, but adding one recovery node is worth
//!   tens of seconds of buffer (K=2 at 5 s ≈ K=1 at ~27 s).
//! - `ablation_group_selection.csv` (A1): how much of CER's benefit comes
//!   from *minimum-loss-correlation* group selection (Algorithm 1) rather
//!   than from having several recovery sources? The paper motivates MLC
//!   with the failure-correlation argument (§4.1) but does not isolate
//!   it; A1 swaps Algorithm 1 for uniform random selection at equal
//!   group sizes, everything else fixed.
//!
//! `--trace`/`--profile` capture the K=1 run at the smallest size, seed 1
//! (the smallest artifacts). Every table is byte-identical across runs
//! and `--jobs` values.

use rom_bench::{
    banner_text, churn_config, fmt, mean_over, point_of, run_grid, table, write_tables, Scale,
};
use rom_engine::{AlgorithmKind, GroupSelection, StreamingConfig};

/// Fig. 12's recovery group sizes; Fig. 13 plots the first three.
const GROUPS: [usize; 4] = [1, 2, 3, 4];

/// Fig. 13's playback buffers, in seconds; the first is the §6 default.
const BUFFERS: [f64; 6] = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0];

/// One streaming configuration at seed 1: the §6 defaults with `k`
/// recovery nodes at `size` members, then the buffer and the selection
/// rule.
fn cell(size: usize, k: usize, buffer_secs: f64, selection: GroupSelection) -> StreamingConfig {
    let mut cfg = StreamingConfig::paper(churn_config(AlgorithmKind::MinimumDepth, size, 1), k);
    cfg.buffer_secs = buffer_secs;
    cfg.selection = selection;
    cfg
}

/// Every distinct configuration the tables read, at seed 1, and where
/// each table finds its cells: indices into `points`.
struct Layout {
    points: Vec<StreamingConfig>,
    /// Fig. 12, `[size][K - 1]`.
    by_size: Vec<[usize; 4]>,
    /// Fig. 13, `[buffer][K - 1]`.
    by_buffer: [[usize; 3]; 6],
    /// A1, `[K - 1][selection]`.
    by_selection: [[usize; 2]; 4],
}

impl Layout {
    fn new(scale: Scale) -> Self {
        let mut points: Vec<StreamingConfig> = Vec::new();
        let mut add = |cfg| point_of(&mut points, cfg);
        let mlc = GroupSelection::MinimumLossCorrelation;
        let focus = scale.focus_size();
        let by_size = scale
            .sizes()
            .into_iter()
            .map(|size| GROUPS.map(|k| add(cell(size, k, BUFFERS[0], mlc))))
            .collect();
        let by_buffer = BUFFERS.map(|buffer| [1, 2, 3].map(|k| add(cell(focus, k, buffer, mlc))));
        // A1: Algorithm 1 (the default), then random selection.
        let by_selection = GROUPS
            .map(|k| [mlc, GroupSelection::Random].map(|s| add(cell(focus, k, BUFFERS[0], s))));
        Layout {
            points,
            by_size,
            by_buffer,
            by_selection,
        }
    }
}

fn main() {
    let (scale, dir) = Scale::from_args_with_out();
    let layout = Layout::new(scale);
    let grid = run_grid(
        "fig12_k1_smallest",
        &layout.points,
        layout.by_size[0][0],
        |cfg, seed| StreamingConfig {
            churn: cfg.churn.clone().with_seed(seed),
            ..cfg.clone()
        },
        scale,
    );
    // The seed means of the starving ratio at `points`.
    let starving = |points: &[usize]| -> Vec<f64> {
        let ratio = |p: &usize| mean_over(&grid[*p], |r| r.starving_ratio_percent.mean());
        points.iter().map(ratio).collect()
    };
    let focus = format!("# focus size: {} members", scale.focus_size());
    let fig12 = table(
        vec![banner_text(
            "Figure 12",
            "avg. starving time ratio (%) vs steady-state size, group sizes 1-4",
            scale,
        )],
        "size,K=1,K=2,K=3,K=4",
        (scale.sizes().iter().zip(&layout.by_size))
            .map(|(size, points)| (size.to_string(), starving(points))),
    );
    let fig13 = table(
        vec![
            banner_text(
                "Figure 13",
                "avg. starving time ratio (%) vs buffer size (s), group sizes 1-3",
                scale,
            ),
            focus.clone(),
        ],
        "buffer_s,K=1,K=2,K=3",
        (BUFFERS.iter().zip(&layout.by_buffer))
            .map(|(&buffer, points)| (fmt(buffer), starving(points))),
    );
    let a1 = table(
        vec![
            banner_text(
                "Ablation A1",
                "MLC (Algorithm 1) vs random recovery-group selection: starving ratio (%)",
                scale,
            ),
            focus + ", cooperative recovery",
        ],
        "group_size,mlc_mean,random_mean,mlc_advantage_%",
        GROUPS.iter().zip(&layout.by_selection).map(|(k, points)| {
            let ratios = starving(points);
            let (mlc, random) = (ratios[0], ratios[1]);
            let advantage = if random > 0.0 {
                (1.0 - mlc / random) * 100.0
            } else {
                0.0
            };
            (k.to_string(), vec![mlc, random, advantage])
        }),
    );
    write_tables(
        &dir,
        [
            ("fig12_starving_vs_size.csv", fig12),
            ("fig13_starving_vs_buffer.csv", fig13),
            ("ablation_group_selection.csv", a1),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The point list runs no configuration twice, and the cells Fig. 13
    /// and A1 share with Fig. 12 are its points: Fig. 13's 5 s row and
    /// A1's MLC column are Fig. 12's focus-size row. Checked at both
    /// scales, without simulating.
    #[test]
    fn shared_cells_are_one_point() {
        for (paper, points) in [(false, 35), (true, 39)] {
            let scale = Scale {
                paper,
                seeds: 3,
                jobs: 1,
                trace: None,
                profile: None,
            };
            let layout = Layout::new(scale);
            assert_eq!(layout.points.len(), points);
            for (i, cfg) in layout.points.iter().enumerate() {
                assert!(!layout.points[i + 1..].contains(cfg));
            }
            let focus = scale
                .sizes()
                .iter()
                .position(|&size| size == scale.focus_size())
                .expect("the sizes include the focus size");
            let at_focus = layout.by_size[focus];
            assert_eq!(layout.by_buffer[0], [at_focus[0], at_focus[1], at_focus[2]]);
            assert_eq!(layout.by_selection.map(|[mlc, _]| mlc), at_focus);
            // The Fig. 12 grid leads, so the traced cell keeps index 0.
            assert_eq!(layout.by_size[0][0], 0);
        }
    }
}
