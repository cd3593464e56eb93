//! Figures 4–11, the headline claims and ablations A2 and A3: different
//! metrics and cuts of one set of churn runs (§5). The Fig. 4 grid (every
//! construction algorithm at every steady-state size) comes first, then
//! the ROST switching intervals, the unguarded ROST variant and the
//! graceful-departure fractions; a configuration two tables share is one
//! point of one sweep and runs once per seed. The typical member's runs
//! behind Figs. 6 and 9 are a second, one-seed sweep. The eleven tables
//! go to `--out DIR` (created if missing), one CSV file each:
//!
//! - `fig04_disruptions.csv`: avg. streaming disruptions per node (per
//!   mean lifetime) vs size. Expected shape (paper §6): minimum-depth and
//!   longest-first worst and most size-sensitive; relaxed BO better;
//!   relaxed TO better still; ROST lowest, 36–57% below relaxed BO, and
//!   much less size-sensitive.
//! - `fig05_disruption_cdf.csv`: CDF of per-node disruption counts at
//!   the focus size (8 000 members at paper scale). ROST's CDF dominates
//!   (most members see few disruptions); min-depth and longest-first
//!   have long right tails.
//! - `fig06_member_disruptions.csv` and `fig09_member_delay.csv`: the
//!   disruptions and the service delay of a typical member (moderate
//!   bandwidth, long lifetime) over time. Under ROST the disruption curve
//!   flattens and the delay falls as the member ages and climbs the tree.
//! - `fig07_service_delay.csv`: avg. service delay vs size.
//!   Longest-first worst by far (tall tree); ROST the best of the three
//!   distributed algorithms; centralized relaxed BO the global best with
//!   ROST within tens of percent.
//! - `fig08_stretch.csv`: avg. network stretch (overlay delay / unicast
//!   delay) vs size. Same ordering as Figure 7.
//! - `fig10_protocol_overhead.csv`: optimization-induced reconnections
//!   per node lifetime vs size. Minimum-depth and longest-first exactly
//!   zero; relaxed BO/TO substantial (evictions); ROST far below one
//!   reconnection per lifetime.
//! - `fig11_switching_interval.csv`: ROST per switching interval.
//!   Smaller intervals improve reliability, delay and stretch at a
//!   modest overhead cost (≤ ~0.15 reconnections per lifetime).
//! - `headline_claims.csv`: the quantitative claims §1 makes for ROST at
//!   the focus size —
//!   1. "reduces the average number of streaming disruptions per member
//!      by 36–57% compared to a centralized depth-optimal approach";
//!   2. "achieves the smallest end-to-end service delay (or tree depth)
//!      among three representative distributed algorithms, and only
//!      incurs a small increase in service delay of 10–15% compared to
//!      the centralized depth-optimal approach";
//!   3. "introduces a very low protocol overhead".
//! - `ablation_bandwidth_guard.csv` (A2): ROST with and without the §3.3
//!   bandwidth guard, which "avoids unnecessary switching".
//! - `ablation_graceful.csv` (A3): min-depth and ROST as the share of
//!   graceful departures grows from the paper's all-abrupt extreme.
//!
//! `--trace`/`--profile` capture the ROST run at the smallest size,
//! seed 1 (the smallest artifacts). Every table is byte-identical across
//! runs and `--jobs` values.

use rom_bench::{
    banner_text, churn_config, fmt, mean_over, observer_banner, observer_traces, point_of, row,
    run_grid, table, write_tables, Scale,
};
use rom_engine::{AlgorithmKind, ChurnConfig, ChurnReport, ObserverTrace};
use rom_stats::Ecdf;

/// A per-run quantity a table averages over seeds.
type Metric = fn(&ChurnReport) -> f64;
const DISRUPTIONS: Metric = ChurnReport::disruptions_per_mean_lifetime;
const DELAY: Metric = |r| r.service_delay_ms.mean();
const STRETCH: Metric = |r| r.stretch.mean();
const DEPTH: Metric = |r| r.depth.mean();
const RECONNECTIONS: Metric = |r| r.reconnections_per_lifetime.mean();
const SWITCHES: Metric = |r| r.switches as f64;

/// Fig. 11's ROST switching intervals, in seconds.
const INTERVALS: [f64; 4] = [480.0, 960.0, 1200.0, 1800.0];
/// A2's variants: the row name and whether the bandwidth guard is on.
const GUARD: [(&str, bool); 2] = [("guarded (paper)", true), ("unguarded", false)];
/// A3's graceful-departure fractions, each run under min-depth and ROST.
const GRACEFUL: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The algorithms' names in [`AlgorithmKind::ALL`] order, comma-joined:
/// the columns of the tables with one column per algorithm.
fn algorithm_names() -> String {
    AlgorithmKind::ALL.map(AlgorithmKind::name).join(",")
}

/// The position of `alg` in [`AlgorithmKind::ALL`].
fn column(alg: AlgorithmKind) -> usize {
    AlgorithmKind::ALL
        .iter()
        .position(|&a| a == alg)
        .expect("every algorithm has a column")
}

/// Every distinct configuration the tables read, at seed 1, and where
/// each table finds its cells: indices into `points`.
struct Layout {
    points: Vec<ChurnConfig>,
    /// The Fig. 4 grid, `[size][algorithm]`.
    by_size: Vec<[usize; 5]>,
    intervals: [usize; 4],
    guard: [usize; 2],
    /// Per fraction, min-depth and ROST.
    graceful: [[usize; 2]; 5],
}

impl Layout {
    fn new(scale: Scale) -> Self {
        let mut points = Vec::new();
        let mut add = |cfg| point_of(&mut points, cfg);
        let focus = |alg| churn_config(alg, scale.focus_size(), 1);
        let by_size = scale
            .sizes()
            .into_iter()
            .map(|size| AlgorithmKind::ALL.map(|alg| add(churn_config(alg, size, 1))))
            .collect();
        let intervals = INTERVALS.map(|interval| {
            let mut cfg = focus(AlgorithmKind::Rost);
            cfg.rost = cfg.rost.with_switching_interval(interval);
            add(cfg)
        });
        let guard = GUARD.map(|(_, guarded)| {
            let mut cfg = focus(AlgorithmKind::Rost);
            if !guarded {
                cfg.rost = cfg.rost.without_bandwidth_guard();
            }
            add(cfg)
        });
        let graceful = GRACEFUL.map(|fraction| {
            [AlgorithmKind::MinimumDepth, AlgorithmKind::Rost].map(|alg| {
                let mut cfg = focus(alg);
                cfg.graceful_fraction = fraction;
                add(cfg)
            })
        });
        Layout {
            points,
            by_size,
            intervals,
            guard,
            graceful,
        }
    }
}

fn main() {
    let (scale, dir) = Scale::from_args_with_out();
    let layout = Layout::new(scale);
    let grid = run_grid(
        "churn_rost_smallest",
        &layout.points,
        layout.by_size[0][column(AlgorithmKind::Rost)],
        |cfg, seed| cfg.clone().with_seed(seed),
        scale,
    );
    let traces = observer_traces(scale);
    // The seed means of `metric` at each of `points`.
    let means = |points: &[usize], metric: Metric| -> Vec<f64> {
        points
            .iter()
            .map(|&p| mean_over(&grid[p], metric))
            .collect()
    };
    let sizes = scale.sizes();
    let focus_column = sizes
        .iter()
        .position(|&size| size == scale.focus_size())
        .expect("the sizes include the focus size");
    let focus: Vec<&[ChurnReport]> = layout.by_size[focus_column]
        .iter()
        .map(|&p| grid[p].as_slice())
        .collect();
    // A size-axis figure: one row per size, one column per algorithm.
    // Fig. 4 leads with the population of the last column's runs
    // (ROST's).
    let size_axis = |figure, caption, population: bool, metric| {
        let header = if population {
            format!("size,avg_population,{}", algorithm_names())
        } else {
            format!("size,{}", algorithm_names())
        };
        let rows = sizes.iter().zip(&layout.by_size).map(|(size, points)| {
            let mut values = Vec::new();
            if population {
                values = means(&points[points.len() - 1..], |r| r.population.mean());
            }
            values.extend(means(points, metric));
            (size.to_string(), values)
        });
        table(vec![banner_text(figure, caption, scale)], &header, rows)
    };
    // One row per `(label, point)`, one column per metric.
    let metric_rows = |labels: Vec<String>, points: &[usize], metrics: &[Metric]| {
        let values = points
            .iter()
            .map(|&p| metrics.iter().map(|&m| mean_over(&grid[p], m)).collect());
        labels
            .into_iter()
            .zip(values)
            .collect::<Vec<(String, Vec<f64>)>>()
    };
    let fig11 = table(
        focus_head(
            "Figure 11",
            "effect of the ROST switching interval (four sub-plots)",
            scale,
        ),
        "interval_s,disruptions,service_delay_ms,stretch,reconnections",
        metric_rows(
            INTERVALS.map(fmt).to_vec(),
            &layout.intervals,
            &[DISRUPTIONS, DELAY, STRETCH, RECONNECTIONS],
        ),
    );
    let guard = table(
        focus_head(
            "Ablation A2",
            "ROST with vs without the bandwidth guard",
            scale,
        ),
        "variant,disruptions,delay_ms,stretch,depth,reconnections,switches",
        metric_rows(
            GUARD.map(|(name, _)| name.to_string()).to_vec(),
            &layout.guard,
            &[DISRUPTIONS, DELAY, STRETCH, DEPTH, RECONNECTIONS, SWITCHES],
        ),
    );
    let graceful = table(
        focus_head(
            "Ablation A3",
            "disruptions per mean lifetime vs graceful-departure fraction",
            scale,
        ),
        "graceful_%,min-depth,rost",
        GRACEFUL
            .iter()
            .zip(&layout.graceful)
            .map(|(fraction, points)| (fmt(fraction * 100.0), means(points, DISRUPTIONS))),
    );
    let fig04 = size_axis(
        "Figure 4",
        "avg. streaming disruptions per node (per mean lifetime) vs steady-state size",
        true,
        DISRUPTIONS,
    );
    let tables = [
        ("fig04_disruptions.csv", fig04),
        ("fig05_disruption_cdf.csv", fig05(scale, &focus)),
        ("fig06_member_disruptions.csv", fig06(scale, &traces)),
        ("fig09_member_delay.csv", fig09(scale, &traces)),
        ("fig11_switching_interval.csv", fig11),
        ("headline_claims.csv", headline(scale, &focus)),
        ("ablation_bandwidth_guard.csv", guard),
        ("ablation_graceful.csv", graceful),
    ];
    let size_axes = [
        (
            "fig07_service_delay.csv",
            "Figure 7",
            "avg. service delay (ms) vs steady-state size",
            DELAY,
        ),
        (
            "fig08_stretch.csv",
            "Figure 8",
            "avg. network stretch vs steady-state size",
            STRETCH,
        ),
        (
            "fig10_protocol_overhead.csv",
            "Figure 10",
            "avg. optimization reconnections per node lifetime vs size",
            RECONNECTIONS,
        ),
    ]
    .map(|(file, figure, caption, metric)| (file, size_axis(figure, caption, false, metric)));
    write_tables(&dir, tables.into_iter().chain(size_axes));
}

/// A focus-size table's head: the banner and the focus size.
fn focus_head(figure: &str, caption: &str, scale: Scale) -> Vec<String> {
    vec![
        banner_text(figure, caption, scale),
        format!("# focus size: {} members", scale.focus_size()),
    ]
}

/// Figure 5: one ECDF per algorithm, pooled over the focus size's seeds.
fn fig05(scale: Scale, focus: &[&[ChurnReport]]) -> Vec<String> {
    let cdfs: Vec<Ecdf> = focus
        .iter()
        .map(|reports| {
            Ecdf::from_samples(
                reports
                    .iter()
                    .flat_map(|r| r.disruption_counts.iter().copied()),
            )
        })
        .collect();
    let mut lines = table(
        focus_head(
            "Figure 5",
            "CDF of per-node disruption counts (power-of-two grid)",
            scale,
        ),
        &format!("disruptions,{}", algorithm_names()),
        Ecdf::power_of_two_grid(128.0).into_iter().map(|x| {
            let percent = cdfs.iter().map(|cdf| cdf.fraction_at_or_below(x) * 100.0);
            (fmt(x), percent.collect())
        }),
    );
    lines.push("# values are cumulative percentages of nodes".to_string());
    lines
}

/// A member-trace figure (Figs. 6, 9): one row per algorithm, the
/// algorithm's name, then `cells` of its typical member's trace.
fn member_table(
    head: String,
    header: &str,
    traces: &[ObserverTrace],
    cells: impl Fn(&ObserverTrace) -> Vec<String>,
) -> Vec<String> {
    let mut lines = vec![head, row(["algorithm".into(), header.into()])];
    for (alg, trace) in AlgorithmKind::ALL.into_iter().zip(traces) {
        lines.push(row(
            std::iter::once(alg.name().to_string()).chain(cells(trace))
        ));
    }
    lines
}

/// Figure 6: the disruption instants, as `minute:cumulative-count`.
fn fig06(scale: Scale, traces: &[ObserverTrace]) -> Vec<String> {
    let caption = "accumulative disruptions of a typical member over time (minutes)";
    let mut lines = member_table(
        observer_banner("Figure 6", caption, scale),
        "minute:cumulative...",
        traces,
        |trace| {
            let minutes = trace.disruption_minutes.iter().zip(1..);
            let cells: Vec<String> = minutes.map(|(m, i)| format!("{}:{i}", fmt(*m))).collect();
            if cells.is_empty() {
                vec!["none".to_string()]
            } else {
                cells
            }
        },
    );
    lines.push("# each entry is minute:cumulative-count at a disruption instant".to_string());
    lines
}

/// Figure 9: the delay samples, as `minute:delay_ms`.
fn fig09(scale: Scale, traces: &[ObserverTrace]) -> Vec<String> {
    let caption = "service delay (ms) of a typical member over time (minutes)";
    member_table(
        observer_banner("Figure 9", caption, scale),
        "minute:delay_ms...",
        traces,
        |trace| {
            let samples = trace.delay_samples.iter();
            samples
                .map(|&(m, d)| format!("{}:{}", fmt(m), fmt(d)))
                .collect()
        },
    )
}

/// The headline claims: four metrics per algorithm at the focus size,
/// then ROST's three claims against them.
fn headline(scale: Scale, focus: &[&[ChurnReport]]) -> Vec<String> {
    // (disruptions, delay, depth, overhead) per algorithm.
    let metrics: Vec<[f64; 4]> = focus
        .iter()
        .map(|reports| [DISRUPTIONS, DELAY, DEPTH, RECONNECTIONS].map(|m| mean_over(reports, m)))
        .collect();
    let mut lines = table(
        vec![
            banner_text(
                "Headline claims",
                "the §1 quantitative claims, measured",
                scale,
            ),
            format!("# focus size: {} members\n", scale.focus_size()),
        ],
        "algorithm,disruptions,delay_ms,depth,overhead",
        AlgorithmKind::ALL
            .iter()
            .zip(&metrics)
            .map(|(alg, m)| (alg.name().to_string(), m.to_vec())),
    );
    let get = |alg| metrics[column(alg)];
    let rost = get(AlgorithmKind::Rost);
    let bo = get(AlgorithmKind::RelaxedBandwidthOrdered);
    let to = get(AlgorithmKind::RelaxedTimeOrdered);
    let md = get(AlgorithmKind::MinimumDepth);
    let lf = get(AlgorithmKind::LongestFirst);

    lines.extend([
        String::new(),
        "# claim 1 — disruption reduction (paper: 36-57% vs relaxed BO):".to_string(),
        format!(
            "claim1,rost_vs_bo_%,{}",
            fmt((1.0 - rost[0] / bo[0]) * 100.0)
        ),
        format!(
            "claim1,rost_vs_to_%,{}",
            fmt((1.0 - rost[0] / to[0]) * 100.0)
        ),
        "# claim 2 — delay (paper: best distributed; +10-15% vs relaxed BO):".to_string(),
        format!(
            "claim2,rost_best_distributed,{}",
            rost[1] < md[1] && rost[1] < lf[1]
        ),
        format!(
            "claim2,rost_delay_increase_vs_bo_%,{}",
            fmt((rost[1] / bo[1] - 1.0) * 100.0)
        ),
        "# claim 3 — overhead (paper: far below one reconnection/lifetime):".to_string(),
        format!("claim3,rost_overhead,{}", fmt(rost[3])),
        format!("claim3,far_below_one,{}", rost[3] < 0.5),
    ]);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No configuration is listed twice, and the ablations' shared cells
    /// are Fig. 4's focus-size points: A2's guarded row is ROST, A3's
    /// all-abrupt row min-depth and ROST. At both scales, unsimulated.
    #[test]
    fn shared_cells_are_one_point() {
        for (paper, points) in [(false, 33), (true, 38)] {
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
            let sizes = scale.sizes();
            let focus = sizes.iter().position(|&s| s == scale.focus_size());
            let at_focus = layout.by_size[focus.expect("the sizes include the focus size")];
            let [md, rost] = [AlgorithmKind::MinimumDepth, AlgorithmKind::Rost].map(column);
            assert_eq!(layout.guard[0], at_focus[rost]);
            assert_eq!(layout.graceful[0], [at_focus[md], at_focus[rost]]);
            // The Fig. 4 grid leads, so the traced cell keeps index 4.
            assert_eq!(layout.by_size[0][rost], 4);
        }
    }
}
