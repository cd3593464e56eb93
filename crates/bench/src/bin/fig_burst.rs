//! # `fig_burst` — bursty loss vs the uniform baseline, matched average
//!
//! Not a paper figure: a pathology study. Sweeps the Gilbert–Elliott
//! burst factor β ∈ {1, 2, 4, 8} at a **matched average loss rate** —
//! β = 1 *is* the uniform-loss baseline, bit for bit (the degenerate
//! equivalence pinned by `pathology_properties`) — and reports how loss
//! clustering alone moves the starving-time ratio and the CER repair
//! success rate. Every cell runs with the full invariant registry armed;
//! any violation exits non-zero.
//!
//! ```text
//! fig_burst --seed <n> [--paper] [--jobs N] [--trace PATH] [--profile PATH]
//! ```
//!
//! With `--trace`, the grid's merged JSONL trace lands at `PATH` with
//! the aggregate manifest at `PATH.manifest.json` and the metrics
//! snapshots at `PATH.metrics.json` (one object per cell, grid order).
//! Cells merge in grid order regardless of `--jobs`, so every artifact
//! — including the CSV on stdout — is byte-identical at any worker
//! count and across repeated runs of the same seed.

use rom_bench::{default_jobs, observed_cell, write_sidecars, Sidecars, Sweep};
use rom_chaos::{ChaosAction, Injection, InvariantRegistry, Scenario};
use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};

/// The burst-factor grid; β = 1 is the uniform-loss control.
const BETAS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// The matched average loss rate every β runs at.
const AVG_LOSS: f64 = 0.1;
/// Fraction of attached members whose access links turn bursty.
const FRACTION: f64 = 0.4;

struct Args {
    seed: u64,
    paper: bool,
    jobs: usize,
    sidecars: Sidecars,
}

fn usage() -> ! {
    eprintln!("usage: fig_burst [--seed N] [--paper] [--jobs N] [--trace PATH] [--profile PATH]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seed: 42,
        paper: false,
        jobs: default_jobs(),
        sidecars: Sidecars::none(),
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
            "--paper" => parsed.paper = true,
            "--jobs" => {
                parsed.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => parsed.sidecars.trace = Some(leak(args.next())),
            "--profile" => parsed.sidecars.profile = Some(leak(args.next())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    parsed
}

/// A path argument as the `'static` string [`Sidecars`] holds.
fn leak(path: Option<String>) -> &'static str {
    Box::leak(path.unwrap_or_else(|| usage()).into_boxed_str())
}

/// One bursty-loss injection covering the middle of the measurement
/// window, at the matched average rate with the given burst factor.
fn burst_scenario(start_secs: f64, span_secs: f64, burst_factor: f64) -> Scenario {
    Scenario {
        name: "fig-burst",
        injections: vec![Injection {
            at_secs: start_secs + 0.1 * span_secs,
            action: ChaosAction::BurstyLoss {
                fraction: FRACTION,
                avg_loss: AVG_LOSS,
                burst_factor,
                duration_secs: 0.6 * span_secs,
            },
        }],
    }
}

fn main() {
    let args = parse_args();
    let (size, start_secs, span_secs) = if args.paper {
        (2_000, 2_400.0, 2_400.0)
    } else {
        (250, 450.0, 600.0)
    };

    let mut out = Sweep::with_jobs(args.jobs).run(BETAS.len(), 1, |cell| {
        let mut churn = if args.paper {
            ChurnConfig::paper(AlgorithmKind::Rost, size)
        } else {
            ChurnConfig::quick(AlgorithmKind::Rost, size)
        }
        .with_seed(args.seed);
        churn.chaos = Some(burst_scenario(start_secs, span_secs, BETAS[cell.point]));
        let cfg = StreamingConfig::paper(churn, 2);
        observed_cell("fig_burst", cfg, args.seed, args.sidecars, |cfg, obs| {
            StreamingSim::new(cfg).run_observed(obs, Some(InvariantRegistry::with_all()))
        })
    });
    // Every cell ran the user's --seed; the grid point already encodes β.
    for (id, _) in &mut out.traces {
        id.seed = args.seed;
    }
    write_sidecars(&out, "fig_burst", args.sidecars);

    println!(
        "# fig_burst — GE burst factor sweep at matched {:.0}% average loss \
         (fraction {FRACTION}, seed {}, β=1 is the uniform baseline)",
        AVG_LOSS * 100.0,
        args.seed
    );
    println!(
        "model,burst_factor,seed,outcome,starving_ratio_mean_pct,outages,\
         repaired_on_time,starved,repair_success_pct,violations"
    );
    let mut tripped = Vec::new();
    for (point, mut reports) in out.reports.into_iter().enumerate() {
        let (report, registry) = reports.remove(0);
        let beta = BETAS[point];
        let model = if point == 0 { "uniform" } else { "bursty" };
        let repaired = report.packets_repaired_on_time;
        let starved = report.packets_starved;
        let attempted = repaired + starved;
        let success_pct = if attempted == 0 {
            100.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                repaired as f64 / attempted as f64 * 100.0
            }
        };
        println!(
            "{model},{beta},{},{:?},{:.4},{},{repaired},{starved},{success_pct:.2},{}",
            args.seed,
            report.outcome(),
            report.starving_ratio_percent.mean(),
            report.outages,
            registry.violations().len()
        );
        if !registry.is_clean() {
            tripped.push((beta, registry));
        }
    }

    if !tripped.is_empty() {
        for (beta, registry) in &tripped {
            for v in registry.violations() {
                let subject = v
                    .subject
                    .map_or(String::new(), |id| format!(" member={}", id.0));
                eprintln!(
                    "violation: β={beta} t={:.3}s invariant={}{subject}: {}",
                    v.time, v.invariant, v.detail
                );
            }
        }
        std::process::exit(1)
    }
}
