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

use rom_bench::{exit_on_violations, ChaosRun};
use rom_chaos::{ChaosAction, Injection, LinkProfile, Scenario, Victims};

/// The burst-factor grid; β = 1 is the uniform-loss control.
const BETAS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// The matched average loss rate every β runs at.
const AVG_LOSS: f64 = 0.1;
/// Fraction of attached members whose access links turn bursty.
const FRACTION: f64 = 0.4;

fn usage() -> ! {
    eprintln!("usage: fig_burst [--seed N] [--paper] [--jobs N] [--trace PATH] [--profile PATH]");
    std::process::exit(2)
}

/// One bursty-loss injection covering the middle of the measurement
/// window, at the matched average rate with the given burst factor.
fn burst_scenario(start_secs: f64, span_secs: f64, burst_factor: f64) -> Scenario {
    Scenario {
        name: "fig-burst",
        injections: vec![Injection {
            at_secs: start_secs + 0.1 * span_secs,
            action: ChaosAction::Link {
                victims: Victims::Fraction(FRACTION),
                profile: LinkProfile::bursty_loss(AVG_LOSS, burst_factor, 0.6 * span_secs),
            },
        }],
    }
}

fn main() {
    let chaos = ChaosRun::from_args(usage, |_, _| usage());
    let (start_secs, span_secs) = chaos.window();
    let scenarios: Vec<Scenario> = BETAS
        .iter()
        .map(|&beta| burst_scenario(start_secs, span_secs, beta))
        .collect();
    let cells = chaos.run("fig_burst", &scenarios);

    println!(
        "# fig_burst — GE burst factor sweep at matched {:.0}% average loss \
         (fraction {FRACTION}, seed {}, β=1 is the uniform baseline)",
        AVG_LOSS * 100.0,
        chaos.seed
    );
    println!(
        "model,burst_factor,seed,outcome,starving_ratio_mean_pct,outages,\
         repaired_on_time,starved,repair_success_pct,violations"
    );
    for (point, (report, registry)) in cells.iter().enumerate() {
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
            chaos.seed,
            report.outcome(),
            report.starving_ratio_percent.mean(),
            report.outages,
            registry.violations().len()
        );
    }
    exit_on_violations(
        BETAS
            .iter()
            .zip(&cells)
            .map(|(beta, (_, registry))| (format!("β={beta} "), registry)),
    );
}
