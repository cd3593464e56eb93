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

use rom_bench::{exit_on_violations, ChaosRun};
use rom_chaos::Scenario;

fn usage() -> ! {
    eprintln!(
        "usage: fig_chaos [--scenario NAME] [--seed N] [--paper] [--jobs N] [--trace PATH] [--profile PATH] [--list]"
    );
    std::process::exit(2)
}

fn main() {
    let mut scenario_name = "combined".to_string();
    let chaos = ChaosRun::from_args(usage, |arg, args| match arg {
        "--scenario" => scenario_name = args.next().unwrap_or_else(|| usage()),
        "--list" => {
            for name in Scenario::NAMES {
                println!("{name}");
            }
            std::process::exit(0)
        }
        _ => usage(),
    });
    let (start_secs, span_secs) = chaos.window();
    let Some(scenario) = Scenario::by_name(&scenario_name, start_secs, span_secs) else {
        eprintln!("error: unknown scenario `{scenario_name}` (--list prints the catalogue)");
        std::process::exit(2)
    };
    let injections = scenario.injections.len();
    let name = format!("fig_chaos:{scenario_name}");
    let (report, registry) = chaos.run(&name, &[scenario]).pop().expect("one cell ran");

    let armed = registry.names().join("+");
    println!(
        "# fig_chaos — scenario `{scenario_name}` (injections: {injections}) seed {} under invariants [{armed}]",
        chaos.seed
    );
    println!("scenario,seed,outcome,events,outages,violations");
    println!(
        "{scenario_name},{},{:?},{},{},{}",
        chaos.seed,
        report.outcome(),
        report.events_processed(),
        report.outages,
        registry.violations().len()
    );
    exit_on_violations([(String::new(), &registry)]);
}
