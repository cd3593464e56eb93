//! # `fig_chaos` — chaos scenarios under runtime invariant checking
//!
//! Not a paper figure: a fault-injection harness. Runs one named
//! rom-chaos scenario through the full streaming engine with every
//! cross-cutting invariant armed, prints a one-row summary, and exits
//! non-zero if any invariant tripped. The scenario's injections are
//! scheduled mid-measurement so warmup equilibrium is undisturbed.
//!
//! ```text
//! fig_chaos --scenario <name> --seed <n> [--paper] [--jobs N] [--trace PATH] [--profile PATH]
//! fig_chaos --list
//! ```
//!
//! With `--trace`, the run's JSONL trace lands at `PATH` with the
//! aggregate manifest at `PATH.manifest.json`, the metrics snapshot at
//! `PATH.metrics.json` and the per-member health timeline at
//! `PATH.health.jsonl` (the same merged-sweep format every figure
//! binary writes); invariant violations appear in the trace as
//! `chaos`-subsystem error events. With `--profile`, the run's span
//! profile (the only artifact carrying wall-clock time) lands at the
//! given path.

use rom_bench::{default_jobs, observed_cell, write_sidecars, Sidecars, Sweep};
use rom_chaos::{InvariantRegistry, Scenario};
use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};

struct Args {
    scenario: String,
    seed: u64,
    paper: bool,
    jobs: usize,
    sidecars: Sidecars,
}

fn usage() -> ! {
    eprintln!(
        "usage: fig_chaos [--scenario NAME] [--seed N] [--paper] [--jobs N] [--trace PATH] [--profile PATH] [--list]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        scenario: "combined".to_string(),
        seed: 42,
        paper: false,
        jobs: default_jobs(),
        sidecars: Sidecars::none(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => parsed.scenario = args.next().unwrap_or_else(|| usage()),
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
            "--list" => {
                for name in Scenario::NAMES {
                    println!("{name}");
                }
                std::process::exit(0)
            }
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

fn main() {
    let args = parse_args();

    // Inject after warmup has settled and finish well inside the
    // measurement window (quick: 300 s warmup + 900 s measure; paper:
    // 1 800 s + 3 600 s).
    let (size, start_secs, span_secs) = if args.paper {
        (2_000, 2_400.0, 2_400.0)
    } else {
        (250, 450.0, 600.0)
    };
    let mut churn = if args.paper {
        ChurnConfig::paper(AlgorithmKind::Rost, size)
    } else {
        ChurnConfig::quick(AlgorithmKind::Rost, size)
    }
    .with_seed(args.seed);

    let Some(scenario) = Scenario::by_name(&args.scenario, start_secs, span_secs) else {
        eprintln!(
            "error: unknown scenario `{}` (--list prints the catalogue)",
            args.scenario
        );
        std::process::exit(2)
    };
    let injections = scenario.injections.len();
    churn.chaos = Some(scenario);
    let cfg = StreamingConfig::paper(churn, 2);
    let name = format!("fig_chaos:{}", args.scenario);

    // A single checked cell through the sweep engine, so the trace
    // artifacts merge and land exactly like every other binary's.
    let mut out = Sweep::with_jobs(args.jobs).run(1, 1, |_cell| {
        observed_cell(&name, cfg.clone(), args.seed, args.sidecars, |cfg, obs| {
            StreamingSim::new(cfg).run_observed(obs, Some(InvariantRegistry::with_all()))
        })
    });
    // The grid is 1×1, so its cell coordinates carry no information;
    // stamp the user's --seed into the aggregate manifest instead.
    for (id, _) in &mut out.traces {
        id.seed = args.seed;
    }
    write_sidecars(&out, &name, args.sidecars);
    let (report, registry) = out
        .into_single_point()
        .into_iter()
        .next()
        .expect("one cell ran");

    let armed = registry.names().join("+");
    println!(
        "# fig_chaos — scenario `{}` (injections: {injections}) seed {} under invariants [{armed}]",
        args.scenario, args.seed
    );
    println!("scenario,seed,outcome,events,outages,violations");
    println!(
        "{},{},{:?},{},{},{}",
        args.scenario,
        args.seed,
        report.outcome(),
        report.events_processed(),
        report.outages,
        registry.violations().len()
    );

    if !registry.is_clean() {
        for v in registry.violations() {
            let subject = v
                .subject
                .map_or(String::new(), |id| format!(" member={}", id.0));
            eprintln!(
                "violation: t={:.3}s invariant={}{subject}: {}",
                v.time, v.invariant, v.detail
            );
        }
        std::process::exit(1)
    }
}
