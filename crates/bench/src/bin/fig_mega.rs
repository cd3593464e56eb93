//! # `fig_mega` — million-member scale sweep
//!
//! Not a paper figure: a scale study. Runs the full churn engine (ROST)
//! at 100k, 300k and 1M steady-state members under the paper's §5
//! dynamics, with [`ChurnConfig::mega`]'s fixed event budget as the
//! designed stopping rule — every cell is a complete measurement of the
//! same number of dispatches, so events/second is comparable across
//! sizes. Cells run serially in ascending size order.
//!
//! ```text
//! fig_mega [--seed N] [--sizes a,b,c] [--profile PATH]
//! ```
//!
//! Stdout carries only deterministic quantities (events, exact queue
//! peaks, population). `--profile PATH` records a span profile of the
//! **largest** cell (the one whose hotspots matter at scale), with its
//! wall-clock throughput; profiling never perturbs stdout.

use rom_bench::{instrumented_churn_cell, Sidecars};
use rom_engine::{AlgorithmKind, ChurnConfig, ChurnSim};

/// The default member-count sweep: the tree wall's 100k point, a middle
/// point, and the headline 1M cell.
const SIZES: [usize; 3] = [100_000, 300_000, 1_000_000];

struct Args {
    seed: u64,
    sizes: Vec<usize>,
    profile: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: fig_mega [--seed N] [--sizes a,b,c] [--profile PATH]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seed: 42,
        sizes: SIZES.to_vec(),
        profile: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                parsed.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--sizes" => {
                let list = args.next().unwrap_or_else(|| usage());
                parsed.sizes = list
                    .split(',')
                    .map(|v| v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--profile" => parsed.profile = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    println!(
        "# fig_mega — ROST churn at mega scale (seed {}, fixed event budget)",
        args.seed
    );
    println!("members,outcome,events,peak_queue,peak_queue_bytes,population_mean,disruptions");

    let mut sizes = args.sizes.clone();
    sizes.sort_unstable();
    let largest = *sizes.last().expect("at least one size");
    for members in sizes {
        let cfg = ChurnConfig::mega(AlgorithmKind::Rost, members).with_seed(args.seed);
        let profile_path = args.profile.as_deref().filter(|_| members == largest);
        let report = if let Some(path) = profile_path {
            let sidecars = Sidecars {
                trace: None,
                // Leaked to 'static like Scale does for its paths: one
                // leak per process invocation.
                profile: Some(Box::leak(path.to_string().into_boxed_str())),
            };
            let (report, _, profile) =
                instrumented_churn_cell("fig_mega", cfg, args.seed, sidecars);
            if let Some(json) = profile {
                if let Err(err) = std::fs::write(path, json) {
                    eprintln!("error: cannot write {path}: {err}");
                    std::process::exit(2)
                }
            }
            report
        } else {
            ChurnSim::new(cfg).run()
        };
        println!(
            "{members},{:?},{},{},{},{:.1},{:.4}",
            report.outcome,
            report.events_processed,
            report.queue_high_water,
            report.queue_bytes_high_water,
            report.population.mean(),
            report.disruptions_per_mean_lifetime(),
        );
    }
}
