//! Figures 4, 5, 7, 8 and 10 and the headline claims: different metrics
//! of one grid of churn runs (§5), every construction algorithm at every
//! steady-state size. The grid runs once, and the six tables go to
//! `--out DIR` (created if missing), one CSV file each:
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
//! - `headline_claims.csv`: the quantitative claims §1 makes for ROST at
//!   the focus size —
//!   1. "reduces the average number of streaming disruptions per member
//!      by 36–57% compared to a centralized depth-optimal approach";
//!   2. "achieves the smallest end-to-end service delay (or tree depth)
//!      among three representative distributed algorithms, and only
//!      incurs a small increase in service delay of 10–15% compared to
//!      the centralized depth-optimal approach";
//!   3. "introduces a very low protocol overhead".
//!
//! `--trace`/`--profile` capture the ROST run at the smallest size,
//! seed 1 (the smallest artifacts). Every table is byte-identical across
//! runs and `--jobs` values.

use rom_bench::{banner_text, churn_config, fmt, mean_over, product, row, run_grid, Scale};
use rom_engine::{AlgorithmKind, ChurnReport};
use rom_stats::Ecdf;

/// The reports of one size: `[algorithm][seed - 1]`, algorithms in
/// [`AlgorithmKind::ALL`] order.
type Column = [Vec<ChurnReport>];

fn main() {
    let (scale, dir) = Scale::from_args_with_out();
    // Fail before the sweep, not after it.
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {dir}: {err}");
        std::process::exit(2)
    }
    let sizes = scale.sizes();
    let points = product(&sizes, &AlgorithmKind::ALL);
    let rost_smallest = points
        .iter()
        .position(|&(_, alg)| alg == AlgorithmKind::Rost)
        .expect("ROST is one of the algorithms");
    let grid = run_grid(
        "churn_rost_smallest",
        &points,
        rost_smallest,
        |&(size, alg), seed| churn_config(alg, size, seed),
        scale,
    );
    let by_size: Vec<&Column> = grid.chunks(AlgorithmKind::ALL.len()).collect();
    let focus = by_size[sizes
        .iter()
        .position(|&size| size == scale.focus_size())
        .expect("the sizes include the focus size")];

    let size_axis = |figure, caption, population, metric| {
        size_table(figure, caption, population, metric, scale, &sizes, &by_size)
    };
    let tables = [
        (
            "fig04_disruptions.csv",
            size_axis(
                "Figure 4",
                "avg. streaming disruptions per node (per mean lifetime) vs steady-state size",
                true,
                ChurnReport::disruptions_per_mean_lifetime,
            ),
        ),
        ("fig05_disruption_cdf.csv", fig05(scale, focus)),
        (
            "fig07_service_delay.csv",
            size_axis(
                "Figure 7",
                "avg. service delay (ms) vs steady-state size",
                false,
                |r| r.service_delay_ms.mean(),
            ),
        ),
        (
            "fig08_stretch.csv",
            size_axis(
                "Figure 8",
                "avg. network stretch vs steady-state size",
                false,
                |r| r.stretch.mean(),
            ),
        ),
        (
            "fig10_protocol_overhead.csv",
            size_axis(
                "Figure 10",
                "avg. optimization reconnections per node lifetime vs size",
                false,
                |r| r.reconnections_per_lifetime.mean(),
            ),
        ),
        ("headline_claims.csv", headline(scale, focus)),
    ];
    for (file, lines) in tables {
        let path = format!("{dir}/{file}");
        if let Err(err) = std::fs::write(&path, lines.join("\n") + "\n") {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(2)
        }
    }
}

/// A size-axis figure: one row per size, one column per algorithm, each
/// the seed mean of `metric`. With `population` (Fig. 4) an
/// `avg_population` column leads the algorithms: the mean population of
/// the last column's runs (ROST's).
fn size_table(
    figure: &str,
    caption: &str,
    population: bool,
    metric: fn(&ChurnReport) -> f64,
    scale: Scale,
    sizes: &[usize],
    by_size: &[&Column],
) -> Vec<String> {
    let mut lines = vec![banner_text(figure, caption, scale)];
    let mut header = vec!["size".to_string()];
    if population {
        header.push("avg_population".to_string());
    }
    header.extend(AlgorithmKind::ALL.iter().map(|a| a.name().to_string()));
    lines.push(row(header));
    for (size, column) in sizes.iter().zip(by_size) {
        let mut cells = vec![size.to_string()];
        if population {
            let last = column.last().expect("one report vector per algorithm");
            cells.push(fmt(mean_over(last, |r| r.population.mean())));
        }
        cells.extend(column.iter().map(|reports| fmt(mean_over(reports, metric))));
        lines.push(row(cells));
    }
    lines
}

/// Figure 5: one ECDF per algorithm, pooled over the focus size's seeds.
fn fig05(scale: Scale, focus: &Column) -> Vec<String> {
    let mut lines = vec![
        banner_text(
            "Figure 5",
            "CDF of per-node disruption counts (power-of-two grid)",
            scale,
        ),
        format!("# focus size: {} members", scale.focus_size()),
    ];
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
    let mut header = vec!["disruptions".to_string()];
    header.extend(AlgorithmKind::ALL.iter().map(|a| a.name().to_string()));
    lines.push(row(header));
    for x in Ecdf::power_of_two_grid(128.0) {
        let mut cells = vec![fmt(x)];
        cells.extend(
            cdfs.iter()
                .map(|cdf| fmt(cdf.fraction_at_or_below(x) * 100.0)),
        );
        lines.push(row(cells));
    }
    lines.push("# values are cumulative percentages of nodes".to_string());
    lines
}

/// The headline claims: four metrics per algorithm at the focus size,
/// then ROST's three claims against them.
fn headline(scale: Scale, focus: &Column) -> Vec<String> {
    let mut lines = vec![
        banner_text(
            "Headline claims",
            "the §1 quantitative claims, measured",
            scale,
        ),
        format!("# focus size: {} members\n", scale.focus_size()),
        row([
            "algorithm".into(),
            "disruptions".into(),
            "delay_ms".into(),
            "depth".into(),
            "overhead".into(),
        ]),
    ];
    // (disruptions, delay, depth, overhead) per algorithm.
    let metrics: Vec<(f64, f64, f64, f64)> = focus
        .iter()
        .map(|reports| {
            (
                mean_over(reports, ChurnReport::disruptions_per_mean_lifetime),
                mean_over(reports, |r| r.service_delay_ms.mean()),
                mean_over(reports, |r| r.depth.mean()),
                mean_over(reports, |r| r.reconnections_per_lifetime.mean()),
            )
        })
        .collect();
    for (alg, m) in AlgorithmKind::ALL.iter().zip(&metrics) {
        let name = alg.name().to_string();
        lines.push(row([name, fmt(m.0), fmt(m.1), fmt(m.2), fmt(m.3)]));
    }

    let get = |alg: AlgorithmKind| {
        let index = AlgorithmKind::ALL
            .iter()
            .position(|&a| a == alg)
            .expect("every algorithm has a column");
        metrics[index]
    };
    let rost = get(AlgorithmKind::Rost);
    let bo = get(AlgorithmKind::RelaxedBandwidthOrdered);
    let to = get(AlgorithmKind::RelaxedTimeOrdered);
    let md = get(AlgorithmKind::MinimumDepth);
    let lf = get(AlgorithmKind::LongestFirst);

    lines.extend([
        String::new(),
        "# claim 1 — disruption reduction (paper: 36-57% vs relaxed BO):".to_string(),
        format!("claim1,rost_vs_bo_%,{}", fmt((1.0 - rost.0 / bo.0) * 100.0)),
        format!("claim1,rost_vs_to_%,{}", fmt((1.0 - rost.0 / to.0) * 100.0)),
        "# claim 2 — delay (paper: best distributed; +10-15% vs relaxed BO):".to_string(),
        format!(
            "claim2,rost_best_distributed,{}",
            rost.1 < md.1 && rost.1 < lf.1
        ),
        format!(
            "claim2,rost_delay_increase_vs_bo_%,{}",
            fmt((rost.1 / bo.1 - 1.0) * 100.0)
        ),
        "# claim 3 — overhead (paper: far below one reconnection/lifetime):".to_string(),
        format!("claim3,rost_overhead,{}", fmt(rost.3)),
        format!("claim3,far_below_one,{}", rost.3 < 0.5),
    ]);
    lines
}
