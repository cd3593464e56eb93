//! The paper's abstract in one table: runs all five algorithms at one
//! size and prints the quantitative claims §1 makes for ROST —
//!
//! 1. "reduces the average number of streaming disruptions per member by
//!    36–57% compared to a centralized depth-optimal approach";
//! 2. "achieves the smallest end-to-end service delay (or tree depth)
//!    among three representative distributed algorithms, and only incurs
//!    a small increase in service delay of 10–15% compared to the
//!    centralized depth-optimal approach";
//! 3. "introduces a very low protocol overhead".
//!
//! The printed table is byte-identical across runs and `--jobs` values.
//! Performance is measured by the `perfbench` package, not here.

use rom_bench::{banner, churn_config, fmt, mean_over, replicate_churn_traced, row, Scale};
use rom_engine::{AlgorithmKind, ChurnReport};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Headline claims",
        "the §1 quantitative claims, measured",
        scale,
    );
    let size = scale.focus_size();
    println!("# focus size: {size} members\n");

    // One replicate sweep per algorithm; --trace/--profile capture the
    // seed-1 ROST run (the algorithm the claims are about).
    let run = |alg: AlgorithmKind| -> Vec<ChurnReport> {
        replicate_churn_traced(
            "headline_claims_rost",
            |seed| churn_config(alg, size, seed),
            scale,
            scale.sidecars().when(alg == AlgorithmKind::Rost),
        )
    };
    let metrics = |reports: &[ChurnReport]| {
        (
            mean_over(reports, |r| r.disruptions_per_mean_lifetime()),
            mean_over(reports, |r| r.service_delay_ms.mean()),
            mean_over(reports, |r| r.depth.mean()),
            mean_over(reports, |r| r.reconnections_per_lifetime.mean()),
        )
    };

    println!(
        "{}",
        row([
            "algorithm".into(),
            "disruptions".into(),
            "delay_ms".into(),
            "depth".into(),
            "overhead".into(),
        ])
    );
    let mut by_alg = Vec::new();
    for alg in AlgorithmKind::ALL {
        let m = metrics(&run(alg));
        println!(
            "{}",
            row([
                alg.name().to_string(),
                fmt(m.0),
                fmt(m.1),
                fmt(m.2),
                fmt(m.3),
            ])
        );
        by_alg.push((alg, m));
    }

    let get = |alg: AlgorithmKind| by_alg.iter().find(|(a, _)| *a == alg).unwrap().1;
    let rost = get(AlgorithmKind::Rost);
    let bo = get(AlgorithmKind::RelaxedBandwidthOrdered);
    let to = get(AlgorithmKind::RelaxedTimeOrdered);
    let md = get(AlgorithmKind::MinimumDepth);
    let lf = get(AlgorithmKind::LongestFirst);

    println!("\n# claim 1 — disruption reduction (paper: 36-57% vs relaxed BO):");
    println!("claim1,rost_vs_bo_%,{}", fmt((1.0 - rost.0 / bo.0) * 100.0));
    println!("claim1,rost_vs_to_%,{}", fmt((1.0 - rost.0 / to.0) * 100.0));

    println!("# claim 2 — delay (paper: best distributed; +10-15% vs relaxed BO):");
    println!(
        "claim2,rost_best_distributed,{}",
        rost.1 < md.1 && rost.1 < lf.1
    );
    println!(
        "claim2,rost_delay_increase_vs_bo_%,{}",
        fmt((rost.1 / bo.1 - 1.0) * 100.0)
    );

    println!("# claim 3 — overhead (paper: far below one reconnection/lifetime):");
    println!("claim3,rost_overhead,{}", fmt(rost.3));
    println!("claim3,far_below_one,{}", rost.3 < 0.5);
}
