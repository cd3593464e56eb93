//! The benchmark's command-line entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn-rost-100k --seed 42 --seconds 30 --trace 0 [--out record.json]
//! ```
//!
//! `--trace 0` makes untraced runs of distinct inputs derived from the
//! seed for a third of `--seconds`, runs them twice more, and reports the
//! medians over inputs of each input's best run.
//! `--trace 1` makes one untraced and one profiled run and reports the
//! per-layer metrics. The last stdout line is the result object; the full
//! record with provenance goes only to the `--out` path, when given.

use rom_bench::calibration_spin_ns;
use rom_net::{DelayOracle, TransitStubNetwork};
use rom_perfbench::clock::{timed, Stopwatch};
use rom_perfbench::probe::probe;
use rom_perfbench::record::{
    git_revision, median, metric, number, record_json, result_json, string, Metric, Provenance,
};
use rom_perfbench::rollup::{ratio, Profile};
use rom_perfbench::run::{run_inspected, run_plain, run_traced, setup_only, TimedRun};
use rom_perfbench::workload::{Config, Workload};
use rom_sim::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Passes an untraced measurement makes over its cells.
const PASSES: u64 = 3;
/// Underlay generations behind the `net.*` medians.
const NET_REPS: usize = 5;
/// Members the outside overlay probe switches and removes.
const PROBE_SAMPLES: usize = 2_000;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: rom-perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--out PATH]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = Some(value.clone()),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("missing or unknown --workload")),
        seed: seed.unwrap_or_else(|| usage("missing or invalid --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing or invalid --seconds")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        out,
    }
}

/// What one invocation measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Each run's raw numbers, as JSON objects for the record.
    runs: Vec<String>,
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv);
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let result = result_json(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    if let Some(path) = &args.out {
        let prov = Provenance {
            revision: git_revision(),
            argv: argv.clone(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            calibration_spin_ns: calibration_spin_ns(),
            workload: args.workload.name(),
            seed: args.seed,
        };
        if let Err(err) = std::fs::write(path, record_json(&prov, &outcome.runs, &result)) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(2)
        }
    }
    println!("{result}");
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| "the run panicked".to_string())
}

fn run_json(seed: u64, run: &TimedRun) -> String {
    format!(
        "{{\"seed\":{},\"setup_s\":{},\"run_s\":{},\"events\":{},\"digest\":\"{:016x}\"}}",
        seed,
        number(run.setup_s),
        number(run.run_s),
        run.facts.events,
        run.facts.digest
    )
}

/// One input of an untraced measurement and its runs.
struct Cell {
    seed: u64,
    /// The digest every run of this cell must have, once known.
    expected: Option<u64>,
    runs: Vec<TimedRun>,
    failed: bool,
}

/// End-to-end metrics. The first pass runs distinct cells (see
/// [`Workload::cell_seed`]) for about a `PASSES`-th of `--seconds`; the other
/// passes run the same cells again, and each repeat must reproduce its
/// cell's digest. Co-tenants on a shared host only ever slow a run, so
/// each cell keeps its best pass; the cells' medians are reported, so a
/// seed whose tree is unusually costly does not move the result.
fn untraced(args: &Args) -> Outcome {
    let (workload, seed) = (args.workload, args.seed);
    let watch = Stopwatch::start();
    let (mut attempted, mut failed) = (0, 0);
    let mut cells: Vec<Cell> = Vec::new();
    // The first pass takes a cell only if it should end within its share
    // of `--seconds`, judged by the cell before.
    let mut last_s = 0.0;
    for pass in 0..PASSES {
        for ix in 0.. {
            let in_share = watch.secs() + last_s <= args.seconds / PASSES as f64;
            if pass == 0 && (ix == 0 || in_share) {
                let cell_seed = workload.cell_seed(seed, ix);
                cells.push(Cell {
                    seed: cell_seed,
                    expected: if ix == 0 {
                        workload.expected_digest(seed)
                    } else {
                        None
                    },
                    runs: Vec::new(),
                    failed: false,
                });
            }
            let Some(cell) = cells.get_mut(ix as usize) else {
                break;
            };
            attempted += 1;
            let cfg = workload.config(cell.seed);
            let expected = cell.expected;
            let (checked, secs) = timed(|| {
                guarded(|| run_plain(&cfg)).and_then(|run| run.facts.check(expected).map(|()| run))
            });
            last_s = secs;
            match checked {
                Ok(run) => {
                    cell.expected = Some(run.facts.digest);
                    cell.runs.push(run);
                }
                Err(err) => {
                    failed += 1;
                    cell.failed = true;
                    eprintln!("run {attempted} (seed {}) failed: {err}", cell.seed);
                }
            }
        }
    }
    let good: Vec<&Cell> = cells.iter().filter(|c| !c.failed).collect();
    let best = |f: fn(&TimedRun) -> f64, pick: fn(f64, f64) -> f64| {
        let per_cell: Vec<f64> = good
            .iter()
            .filter_map(|c| c.runs.iter().map(f).reduce(pick))
            .collect();
        median(&per_cell)
    };
    let rss_mb = rom_obs::peak_rss_bytes().unwrap_or(0) as f64 / f64::from(1u32 << 20);
    Outcome {
        attempted,
        failed,
        metrics: vec![
            metric(
                "events_per_s",
                best(TimedRun::events_per_s, f64::max),
                "1/s",
            ),
            metric("wall_s", best(TimedRun::wall_s, f64::min), "s"),
            metric("setup_s", best(|r| r.setup_s, f64::min), "s"),
            metric("peak_rss_mb", rss_mb, "MB"),
        ],
        runs: good
            .iter()
            .flat_map(|c| c.runs.iter().map(|r| run_json(c.seed, r)))
            .collect(),
    }
}

/// Per-layer metrics: one untraced and one profiled run, the underlay
/// set-up split, and the outside overlay probe.
fn traced(args: &Args) -> Outcome {
    let (workload, seed) = (args.workload, args.seed);
    let mut failures = Vec::new();
    let cfg = &workload.config(seed);
    let plain = guarded(|| run_inspected(cfg)).and_then(|r| {
        r.run
            .facts
            .check(workload.expected_digest(seed))
            .map(|()| r)
    });
    let plain = plain
        .map_err(|e| failures.push(format!("untraced run: {e}")))
        .ok();
    let reference = plain.as_ref().map(|p| p.run.facts.digest);
    let traced = guarded(|| run_traced(workload, cfg, seed))
        .and_then(|r| r)
        .and_then(|t| t.facts.check(reference).map(|()| t));
    let traced = traced
        .map_err(|e| failures.push(format!("traced run: {e}")))
        .ok();
    if let Some((tree, _)) = plain.as_ref().and_then(|p| p.tree.as_ref()) {
        if let Err(v) = tree.check_invariants() {
            failures.push(format!("converged tree breaks an invariant: {v:?}"));
        }
    }
    for failure in &failures {
        eprintln!("{failure}");
    }

    let net = net_split(cfg);
    let costs = plain
        .as_ref()
        .and_then(|p| p.tree.as_ref())
        .map(|(tree, now)| probe(tree, *now, seed, PROBE_SAMPLES))
        .unwrap_or_default();

    let mut metrics = Vec::new();
    if let (Some(plain), Some(traced)) = (&plain, &traced) {
        let p = &traced.profile;
        let f = &traced.facts;
        let rollup = p.rollup();
        let switch = p.span("overlay.switch");
        let remove = p.span("overlay.remove");
        let reattach = p.span("overlay.reattach");
        let attempts = p.span("rost.attempt").count;
        metrics = vec![
            metric("sim.events", f.events as f64, "count"),
            metric(
                "overlay.switch_restamp.ns_per_op",
                p.span("overlay.switch_restamp").ns_per_op(),
                "ns",
            ),
            metric(
                "overlay.switch_restamp.count",
                p.span("overlay.switch_restamp").count as f64,
                "count",
            ),
            metric("overlay.switch.ns_per_op", switch.ns_per_op(), "ns"),
            metric("overlay.remove.ns_per_op", remove.ns_per_op(), "ns"),
            metric("overlay.reattach.ns_per_op", reattach.ns_per_op(), "ns"),
            metric(
                "overlay.attach.ns_per_op",
                p.span("overlay.attach").ns_per_op(),
                "ns",
            ),
            metric(
                "overlay.usurp.ns_per_op",
                p.span("overlay.usurp").ns_per_op(),
                "ns",
            ),
            metric(
                "overlay.find_eviction.ns_per_op",
                p.span("overlay.find_eviction").ns_per_op(),
                "ns",
            ),
            metric(
                "overlay.find_eviction.count",
                p.span("overlay.find_eviction").count as f64,
                "count",
            ),
            metric(
                "engine.arrival.self_ns_per_op",
                p.span("engine.arrival").self_ns_per_op(),
                "ns",
            ),
            metric(
                "engine.rejoin.self_ns_per_op",
                p.span("engine.rejoin").self_ns_per_op(),
                "ns",
            ),
            metric(
                "engine.sample.self_ms",
                p.span("engine.sample").self_ns as f64 / 1e6,
                "ms",
            ),
            metric("rost.attempt.count", attempts as f64, "count"),
            metric(
                "rost.switch_yield",
                ratio(f.switches as f64, attempts as f64),
                "ratio",
            ),
            metric(
                "cer.group_select.ns_per_op",
                p.span("cer.group_select").ns_per_op(),
                "ns",
            ),
            metric(
                "cer.repair.self_ns_per_op",
                p.span("cer.repair").self_ns_per_op(),
                "ns",
            ),
            metric("cer.on_time_share", f.on_time_share(), "ratio"),
            metric("sim.queue.ns_per_op", p.span("sim.queue").ns_per_op(), "ns"),
            metric("sim.queue_high_water", f.queue_high_water as f64, "count"),
            metric(
                "sim.queue_bytes_high_water",
                f.queue_bytes_high_water as f64,
                "B",
            ),
            metric("net.topology_s", net.topology_s, "s"),
            metric("net.oracle_s", net.oracle_s, "s"),
            metric(
                "net.setup_share",
                ratio(net.topology_s + net.oracle_s, net.setup_s),
                "ratio",
            ),
            metric("layer.sim.self_share", rollup.share("sim"), "ratio"),
            metric("layer.overlay.self_share", rollup.share("overlay"), "ratio"),
            metric("layer.rost.self_share", rollup.share("rost"), "ratio"),
            metric("layer.cer.self_share", rollup.share("cer"), "ratio"),
            metric("layer.engine.self_share", rollup.share("engine"), "ratio"),
            metric("unattributed_share", rollup.unattributed, "ratio"),
            metric(
                "trace_overhead",
                ratio(p.wall_ns as f64 / 1e9, plain.run.wall_s()),
                "ratio",
            ),
            metric(
                "probe.swap_with_parent.ns_per_op",
                costs.swap.ns_per_op(),
                "ns",
            ),
            metric(
                "probe.swap_with_parent.engine_ratio",
                ratio(costs.swap.ns_per_op(), switch.ns_per_op()),
                "ratio",
            ),
            metric("probe.remove.ns_per_op", costs.remove.ns_per_op(), "ns"),
            metric(
                "probe.remove.engine_ratio",
                ratio(costs.remove.ns_per_op(), remove.ns_per_op()),
                "ratio",
            ),
            metric("probe.reattach.ns_per_op", costs.reattach.ns_per_op(), "ns"),
            metric(
                "probe.reattach.engine_ratio",
                ratio(costs.reattach.ns_per_op(), reattach.ns_per_op()),
                "ratio",
            ),
        ];
    }
    let mut runs: Vec<String> = plain.iter().map(|p| run_json(seed, &p.run)).collect();
    runs.extend(traced.iter().map(|t| profile_json(&t.profile)));
    Outcome {
        attempted: 2,
        failed: failures.len().min(2) as u64,
        metrics,
        runs,
    }
}

/// The profiled run's span tree, for the record.
fn profile_json(profile: &Profile) -> String {
    let spans: Vec<String> = profile
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"path\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                string(&s.path),
                s.count,
                s.total_ns,
                s.self_ns
            )
        })
        .collect();
    format!(
        "{{\"profile_wall_ns\":{},\"spans\":[{}]}}",
        profile.wall_ns,
        spans.join(",")
    )
}

/// Median seconds of `TransitStubNetwork::generate`, of
/// `DelayOracle::build` — the two underlay steps of the simulator's
/// set-up, on the workload's own topology configuration and `"topology"`
/// RNG fork — and of the whole set-up, sampled alternately.
fn net_split(cfg: &Config) -> NetSplit {
    let churn = cfg.churn();
    let (mut topology, mut oracle, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..NET_REPS {
        // rom-lint: allow(rng-fork-discipline) -- re-derives the simulator's own root stream from the workload seed so the timed underlay is the one ChurnSim::new builds
        let mut rng = SimRng::seed_from(churn.seed).fork("topology");
        let (net, topology_s) = timed(|| TransitStubNetwork::generate(&churn.topology, &mut rng));
        let (_, oracle_s) = timed(|| DelayOracle::build(&net));
        topology.push(topology_s);
        oracle.push(oracle_s);
        setup.push(setup_only(cfg));
    }
    NetSplit {
        topology_s: median(&topology),
        oracle_s: median(&oracle),
        setup_s: median(&setup),
    }
}

/// Medians measured by [`net_split`].
struct NetSplit {
    topology_s: f64,
    oracle_s: f64,
    setup_s: f64,
}
