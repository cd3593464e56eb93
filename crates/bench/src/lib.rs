//! # rom-bench: figure regeneration and benchmark harness
//!
//! One binary per evaluation figure of the paper (`fig06_member_disruptions`
//! … `fig14_rost_cer`), each printing the same series the paper plots as
//! CSV rows, except `churn_figures`, which writes Figs. 4, 5, 7, 8 and 10
//! and the headline claims from one run of their shared churn grid into
//! the required `--out DIR` (no other binary accepts `--out`); plus
//! criterion micro-benchmarks. Each binary runs its whole grid of
//! configurations × seeds as one [`run_grid`] sweep. No binary or bench
//! here writes files other than the ones its flags name; performance
//! baselines live in the `perfbench` package.
//!
//! Every binary accepts:
//!
//! - `--paper` — run at the paper's §5 scale (network sizes up to 14 000
//!   members over the 15 600-node topology). The default is a reduced
//!   scale that finishes in seconds-to-minutes on a laptop.
//! - `--seeds N` — number of replicated runs per point (default 3, at
//!   least 1; each uses an independent seed and the printed value is the
//!   mean).
//! - `--jobs N` — number of worker threads for the sweep (default:
//!   available parallelism). Output is byte-identical for any `N`;
//!   `--jobs 1` runs the cells inline on the calling thread.
//! - `--trace PATH` — write a structured JSONL trace of one designated
//!   run (binary-specific; typically the flagship configuration at seed
//!   1) to `PATH`, with the aggregate [`rom_obs::SweepManifest`] at
//!   `PATH.manifest.json`, the metrics snapshots at `PATH.metrics.json`
//!   and the per-member health timelines at `PATH.health.jsonl`. Traces
//!   are deterministic: same seed, same bytes — regardless of `--jobs`.
//! - `--profile PATH` — record a hierarchical span profile of the same
//!   designated run and write it to `PATH` (conventionally
//!   `*.profile.json`). The profile carries wall-clock numbers and is the
//!   **only** artifact allowed to: stdout, traces, manifests and metrics
//!   stay byte-identical whether or not profiling is on.

mod jsonv;
mod sweep;

pub use jsonv::Json;
pub use sweep::{CellId, CellOut, CellTrace, Sweep, SweepOutput};

use rom_chaos::InvariantRegistry;
use rom_engine::{AlgorithmKind, ChurnConfig, ChurnSim, StreamingConfig, StreamingSim};
use rom_engine::{ChurnReport, ObserverSpec, ObserverTrace, StreamingReport};
use rom_obs::{fnv1a, Obs, Prof, RunManifest};
use rom_sim::RunOutcome;
use rom_stats::Summary;
use std::fmt::Debug;
use std::time::Instant;

/// Scale and replication options shared by every figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Full §5 scale when true.
    pub paper: bool,
    /// Number of replicated seeds per data point.
    pub seeds: u64,
    /// Worker threads for the grid sweep (`--jobs N`, default:
    /// available parallelism; 1 = serial).
    pub jobs: usize,
    /// JSONL trace output path (`--trace PATH`); tracing is off when
    /// `None`. Leaked to `'static` so `Scale` stays `Copy`.
    pub trace: Option<&'static str>,
    /// Span-profile output path (`--profile PATH`); profiling is off when
    /// `None`. Leaked to `'static` so `Scale` stays `Copy`.
    pub profile: Option<&'static str>,
}

impl Scale {
    /// Parses `--paper`, `--seeds N`, `--jobs N`, `--trace PATH` and
    /// `--profile PATH` from the process arguments. Unknown arguments
    /// (`--out` among them) and zero counts abort with a usage message.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(false).0
    }

    /// [`from_args`](Self::from_args) plus the `--out DIR` that
    /// `churn_figures` requires: the scale and the output directory.
    /// A missing `--out` aborts with the usage message.
    #[must_use]
    pub fn from_args_with_out() -> (Self, String) {
        let (scale, out) = Self::parse(true);
        (scale, out.unwrap_or_else(|| usage()))
    }

    /// The shared parser; `--out` is a usage error unless `accept_out`.
    fn parse(accept_out: bool) -> (Self, Option<String>) {
        let mut out = None;
        let mut scale = Scale {
            paper: false,
            seeds: 3,
            jobs: default_jobs(),
            trace: None,
            profile: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => scale.paper = true,
                "--seeds" => {
                    let n = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage());
                    scale.seeds = n;
                }
                "--jobs" => {
                    let n: usize = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage());
                    scale.jobs = n;
                }
                "--trace" => {
                    let path = args.next().unwrap_or_else(|| usage());
                    scale.trace = Some(Box::leak(path.into_boxed_str()));
                }
                "--profile" => {
                    let path = args.next().unwrap_or_else(|| usage());
                    scale.profile = Some(Box::leak(path.into_boxed_str()));
                }
                "--out" if accept_out => out = Some(args.next().unwrap_or_else(|| usage())),
                _ => usage(),
            }
        }
        (scale, out)
    }

    /// The sidecar requests (`--trace`/`--profile`) of this invocation,
    /// for [`run_grid`] to attach to its designated cell, or for an
    /// [`observed_cell`].
    #[must_use]
    pub fn sidecars(self) -> Sidecars {
        Sidecars {
            trace: self.trace,
            profile: self.profile,
        }
    }

    /// The steady-state sizes swept by the size-axis figures
    /// (Figs. 4, 7, 8, 10, 12), [`focus_size`](Self::focus_size) among them.
    #[must_use]
    pub fn sizes(self) -> Vec<usize> {
        if self.paper {
            vec![2_000, 5_000, 8_000, 11_000, 14_000]
        } else {
            vec![500, 1_000, 2_000, 4_000]
        }
    }

    /// The single size used by fixed-size figures (Figs. 5, 6, 9, 11, 13,
    /// 14): the paper uses 8 000.
    #[must_use]
    pub fn focus_size(self) -> usize {
        if self.paper {
            8_000
        } else {
            2_000
        }
    }

    /// The observer horizon for the member-trace figures (Figs. 6, 9):
    /// the paper plots 300 minutes.
    #[must_use]
    pub fn observer_minutes(self) -> f64 {
        if self.paper {
            300.0
        } else {
            120.0
        }
    }
}

/// The default `--jobs`: every available core.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Times a fixed single-core integer spin, in ns per iteration.
///
/// Recorded in every perfbench record and used by the mega walls'
/// absolute backstops, so runs can be compared across machines:
/// `events_per_sec × spin_ns` cancels raw CPU speed to first order,
/// leaving only genuine changes in work per event.
#[must_use]
pub fn calibration_spin_ns() -> f64 {
    const ITERS: u64 = 1 << 24;
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64 / ITERS as f64
}

fn usage() -> ! {
    eprintln!(
        "usage: <figure-binary> [--paper] [--seeds N] [--jobs N] [--trace PATH] [--profile PATH]\n       \
         churn_figures --out DIR [same options]"
    );
    std::process::exit(2)
}

/// Sidecar outputs requested for a binary's designated instrumented run
/// — the shared `--trace`/`--profile` handling every figure binary goes
/// through instead of plumbing two `Option`s per call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sidecars {
    /// JSONL trace destination (plus `.manifest.json`, `.metrics.json`
    /// and `.health.jsonl` siblings).
    pub trace: Option<&'static str>,
    /// Span-profile destination (wall-clock numbers live only here).
    pub profile: Option<&'static str>,
}

impl Sidecars {
    /// No sidecars requested.
    #[must_use]
    pub fn none() -> Self {
        Sidecars::default()
    }
}

/// The §5 churn configuration for one data point.
#[must_use]
pub fn churn_config(algorithm: AlgorithmKind, size: usize, seed: u64) -> ChurnConfig {
    ChurnConfig::paper(algorithm, size).with_seed(seed)
}

/// The points of a two-axis grid, `outer`-major: `chunks(inner.len())`
/// of a [`run_grid`] result are then its rows.
#[must_use]
pub fn product<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect()
}

/// A configuration one sweep cell runs: the churn and the streaming
/// simulators' configs, so that one grid function and one instrumented
/// cell serve both.
pub trait CellConfig: Debug {
    /// The report the run returns.
    type Report: AsRef<ChurnReport> + Debug + Send;

    /// Builds the simulator from this config and runs it observed by
    /// `obs`, with no invariant registry armed.
    fn run_observed(self, obs: Obs) -> (Self::Report, Obs, InvariantRegistry);
}

impl CellConfig for ChurnConfig {
    type Report = ChurnReport;

    fn run_observed(self, obs: Obs) -> (ChurnReport, Obs, InvariantRegistry) {
        ChurnSim::new(self).run_observed(obs, None)
    }
}

impl CellConfig for StreamingConfig {
    type Report = StreamingReport;

    fn run_observed(self, obs: Obs) -> (StreamingReport, Obs, InvariantRegistry) {
        StreamingSim::new(self).run_observed(obs, None)
    }
}

/// Runs a binary's whole grid — every point of `points` × seeds
/// `1..=scale.seeds` — in one sweep over `scale.jobs` workers and returns
/// the reports indexed `[point][seed - 1]`. `make` builds each cell's
/// config from its point and seed.
///
/// The `--trace`/`--profile` sidecars of `scale` instrument the seed-1
/// cell of point `designated` alone: its trace JSONL lands at the trace
/// path with the aggregate manifest, metrics and health siblings (see
/// [`SweepOutput::write_trace`]), and its span profile at the profile
/// path (see [`SweepOutput::write_profile`]). `name` labels that run in
/// its manifest and profile, and every cell in its truncation warning.
#[must_use]
pub fn run_grid<P: Sync, C: CellConfig>(
    name: &str,
    points: &[P],
    designated: usize,
    make: impl Fn(&P, u64) -> C + Sync,
    scale: Scale,
) -> Vec<Vec<C::Report>> {
    let out = sweep_grid(name, points, designated, make, scale);
    write_sidecars(&out, name, scale.sidecars());
    out.reports
        .into_iter()
        .map(|seeds| seeds.into_iter().map(|(report, _)| report).collect())
        .collect()
}

/// The sweep of [`run_grid`], before its sidecars are written.
fn sweep_grid<P: Sync, C: CellConfig>(
    name: &str,
    points: &[P],
    designated: usize,
    make: impl Fn(&P, u64) -> C + Sync,
    scale: Scale,
) -> SweepOutput<(C::Report, InvariantRegistry)> {
    Sweep::with_jobs(scale.jobs).run(points.len(), scale.seeds, |cell| {
        let sidecars = if cell.point == designated && cell.seed == 1 {
            scale.sidecars()
        } else {
            Sidecars::none()
        };
        let cfg = make(&points[cell.point], cell.seed);
        observed_cell(name, cfg, cell.seed, sidecars, C::run_observed)
    })
}

/// The typical member's trace under each algorithm, in
/// [`AlgorithmKind::ALL`] order, for the member-trace figures (Figs. 6
/// and 9): one seed-1 run per algorithm at the focus size, in which a
/// member of moderate bandwidth and long lifetime is observed for
/// [`Scale::observer_minutes`]. `--trace`/`--profile` capture the ROST
/// run; `name` labels it.
#[must_use]
pub fn observer_traces(name: &str, scale: Scale) -> Vec<ObserverTrace> {
    let horizon_secs = scale.observer_minutes() * 60.0;
    let rost = AlgorithmKind::ALL
        .iter()
        .position(|&alg| alg == AlgorithmKind::Rost)
        .expect("ROST is one of the algorithms");
    let make = |&alg: &AlgorithmKind, seed| {
        let mut cfg = churn_config(alg, scale.focus_size(), seed);
        cfg.measure_secs = horizon_secs;
        cfg.observer = Some(ObserverSpec {
            bandwidth: 2.0,
            lifetime_secs: horizon_secs + 600.0,
        });
        cfg
    };
    let one_seed = Scale { seeds: 1, ..scale };
    let grid = run_grid(name, &AlgorithmKind::ALL, rost, make, one_seed);
    grid.into_iter()
        .flatten()
        .map(|report| report.observer.expect("observer configured"))
        .collect()
}

/// Writes whatever sidecars a finished sweep carries to the requested
/// paths.
pub fn write_sidecars<R>(out: &SweepOutput<R>, name: &str, sidecars: Sidecars) {
    if let Some(path) = sidecars.trace {
        out.write_trace(path, name);
    }
    if let Some(path) = sidecars.profile {
        out.write_profile(path);
    }
}

/// Runs one churn configuration through [`observed_cell`] and returns
/// the report plus the optional trace artifacts and profile JSON.
#[must_use]
pub fn instrumented_churn_cell(
    name: &str,
    cfg: ChurnConfig,
    seed: u64,
    sidecars: Sidecars,
) -> (ChurnReport, Option<CellTrace>, Option<String>) {
    let out = observed_cell(name, cfg, seed, sidecars, ChurnConfig::run_observed);
    (out.report.0, out.trace, out.profile)
}

/// Streaming variant of [`instrumented_churn_cell`].
#[must_use]
pub fn instrumented_streaming_cell(
    name: &str,
    cfg: StreamingConfig,
    seed: u64,
    sidecars: Sidecars,
) -> (StreamingReport, Option<CellTrace>, Option<String>) {
    let out = observed_cell(name, cfg, seed, sidecars, StreamingConfig::run_observed);
    (out.report.0, out.trace, out.profile)
}

/// Runs one simulation cell with the requested instrumentation — the one
/// place a figure, chaos or benchmark cell is observed.
///
/// It builds the cell's [`Obs`]: enabled, recording the JSONL trace,
/// the health timelines and the metrics, when `sidecars.trace` is set
/// (disabled otherwise), with the span profiler on when
/// `sidecars.profile` is.
/// `run` builds the simulator from `cfg` and runs it observed — arming
/// an invariant registry if it wants one — and the finished `Obs` is
/// packaged into the cell's trace artifacts (JSONL, manifest, metrics,
/// health) and profile JSON; a truncated run adds its warning. With
/// `Sidecars::none()` this is exactly the plain run: the disabled
/// observability and profiling paths are allocation-free.
pub fn observed_cell<C: Debug, R: AsRef<ChurnReport>>(
    name: &str,
    cfg: C,
    seed: u64,
    sidecars: Sidecars,
    run: impl FnOnce(C, Obs) -> (R, Obs, InvariantRegistry),
) -> CellOut<(R, InvariantRegistry)> {
    let config_digest = fnv1a(format!("{cfg:?}").as_bytes());
    let obs = if sidecars.trace.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let prof = if sidecars.profile.is_some() {
        Prof::enabled()
    } else {
        Prof::disabled()
    };
    let started = Instant::now();
    let (report, obs, invariants) = run(cfg, obs.with_prof(prof));
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let churn = report.as_ref();
    let (events, outcome) = (churn.events_processed, churn.outcome);
    let trace = sidecars.trace.map(|_| CellTrace {
        jsonl: obs.trace_jsonl().as_bytes().to_vec(),
        metrics_json: obs.snapshot().to_json(),
        manifest: run_manifest(name, seed, config_digest, &obs, events, outcome),
        health: obs.health_jsonl(),
    });
    let profile = obs
        .prof()
        .report()
        .map(|r| r.to_json(name, seed, events, wall_ns));
    CellOut {
        report: (report, invariants),
        warnings: truncation_warning(name, seed, outcome)
            .into_iter()
            .collect(),
        trace,
        profile,
    }
}

/// Builds the [`RunManifest`] of a traced run: name, seed, provenance
/// digests, event counts, and — crucially — the [`RunOutcome`], so a
/// truncated run is recorded as `BudgetExhausted` in the manifest rather
/// than passing silently as a completed measurement.
#[must_use]
pub fn run_manifest(
    name: &str,
    seed: u64,
    config_digest: u64,
    obs: &Obs,
    events_processed: u64,
    outcome: RunOutcome,
) -> RunManifest {
    let metrics = obs.snapshot().to_json();
    let mut manifest = RunManifest::new(name, seed)
        .with_extra("metrics_digest", format!("{:016x}", fnv1a(metrics.as_bytes())));
    manifest.config_digest = config_digest;
    manifest.events_processed = events_processed;
    manifest.trace_events = obs.trace_events();
    manifest.outcome = format!("{outcome:?}");
    manifest
}

/// The deferred-warning text for a run whose event loop stopped early
/// (its measurements cover less simulated time than configured), or
/// `None` for a complete run. Returned through the cell's result slot so
/// the sweep engine prints it in deterministic `(point, seed)` order
/// after the join — worker threads never write to stderr directly.
#[must_use]
pub fn truncation_warning(name: &str, seed: u64, outcome: RunOutcome) -> Option<String> {
    (outcome == RunOutcome::BudgetExhausted)
        .then(|| format!("warning: {name} seed {seed}: event budget exhausted, run truncated"))
}

/// Mean of a per-report scalar across replicated runs.
#[must_use]
pub fn mean_over<R>(reports: &[R], f: impl Fn(&R) -> f64) -> f64 {
    let s: Summary = reports.iter().map(f).collect();
    s.mean()
}

/// Prints the standard figure banner.
pub fn banner(figure: &str, caption: &str, scale: Scale) {
    println!("{}", banner_text(figure, caption, scale));
}

/// The text of the standard figure banner: two `#` lines, without a
/// trailing newline.
#[must_use]
pub fn banner_text(figure: &str, caption: &str, scale: Scale) -> String {
    format!(
        "# {figure} — {caption}\n# scale: {} | seeds per point: {}",
        if scale.paper {
            "paper (§5)"
        } else {
            "reduced (use --paper for full scale)"
        },
        scale.seeds
    )
}

/// Formats a float with enough precision for the tables.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v.abs().to_bits() == 0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// Joins row cells with commas.
#[must_use]
pub fn row<I: IntoIterator<Item = String>>(cells: I) -> String {
    cells.into_iter().collect::<Vec<_>>().join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults() {
        let s = Scale {
            paper: false,
            seeds: 3,
            jobs: 1,
            trace: None,
            profile: None,
        };
        assert_eq!(s.sizes(), vec![500, 1_000, 2_000, 4_000]);
        assert_eq!(s.focus_size(), 2_000);
        assert!(s.sizes().contains(&s.focus_size()));
        assert_eq!(s.sidecars(), Sidecars::none());
        let p = Scale {
            paper: true,
            seeds: 3,
            jobs: 1,
            trace: None,
            profile: None,
        };
        assert_eq!(p.sizes().last(), Some(&14_000));
        assert_eq!(p.focus_size(), 8_000);
        assert!(p.sizes().contains(&p.focus_size()));
        assert_eq!(p.observer_minutes(), 300.0);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.1234");
        assert_eq!(fmt(12.3456), "12.346");
        assert_eq!(fmt(1234.5), "1234.5");
        assert_eq!(row(["a".into(), "b".into()]), "a,b");
    }

    #[test]
    fn config_uses_seed() {
        let c = churn_config(AlgorithmKind::Rost, 1_000, 7);
        assert_eq!(c.seed, 7);
        assert_eq!(c.target_size, 1_000);
    }

    fn tiny_cell(&algorithm: &AlgorithmKind, seed: u64) -> ChurnConfig {
        let mut cfg = ChurnConfig::quick(algorithm, 40).with_seed(seed);
        cfg.warmup_secs = 60.0;
        cfg.measure_secs = 120.0;
        cfg
    }

    #[test]
    fn grid_instruments_only_the_designated_cell() {
        // Three points at two seeds, both sidecars requested, designating
        // the middle point.
        let points = [
            AlgorithmKind::MinimumDepth,
            AlgorithmKind::Rost,
            AlgorithmKind::LongestFirst,
        ];
        let grid = |jobs| {
            let scale = Scale {
                paper: false,
                seeds: 2,
                jobs,
                trace: Some("in-memory"),
                profile: Some("in-memory"),
            };
            let out = sweep_grid("tiny", &points, 1, tiny_cell, scale);
            let reports: Vec<Vec<String>> = out
                .reports
                .iter()
                .map(|seeds| seeds.iter().map(|(r, _)| format!("{r:?}")).collect())
                .collect();
            (reports, out)
        };
        // The cells that carry a trace and a profile.
        let instrumented = |out: &SweepOutput<_>| -> (Vec<CellId>, Vec<CellId>) {
            (
                out.traces.iter().map(|t| t.0).collect(),
                out.profiles.iter().map(|p| p.0).collect(),
            )
        };
        let designated = vec![CellId { point: 1, seed: 1 }];
        let (reports, serial) = grid(1);
        assert_eq!(instrumented(&serial), (designated.clone(), designated));
        assert!(!serial.merged_health().is_empty());

        // Slot [p][s] holds point p at seed s + 1, and the seeds differ,
        // so a swapped slot would show.
        assert_eq!(reports.len(), points.len());
        for (seeds, alg) in reports.iter().zip(&points) {
            assert_ne!(seeds[0], seeds[1]);
            for (seed, report) in (1..).zip(seeds) {
                let alone = ChurnSim::new(tiny_cell(alg, seed)).run();
                assert_eq!(*report, format!("{alone:?}"));
            }
        }

        let (parallel_reports, parallel) = grid(3);
        assert_eq!(parallel_reports, reports);
        assert_eq!(parallel.merged_jsonl(), serial.merged_jsonl());
        assert_eq!(
            parallel.merged_manifest("tiny").to_json(),
            serial.merged_manifest("tiny").to_json()
        );
        assert_eq!(parallel.merged_metrics(), serial.merged_metrics());
        assert_eq!(parallel.merged_health(), serial.merged_health());
        assert_eq!(instrumented(&parallel), instrumented(&serial));
    }

    #[test]
    fn truncation_warning_only_on_budget_exhaustion() {
        assert!(truncation_warning("x", 1, RunOutcome::HorizonReached).is_none());
        assert!(truncation_warning("x", 1, RunOutcome::Drained).is_none());
        let warning =
            truncation_warning("fig", 4, RunOutcome::BudgetExhausted).expect("warns on truncation");
        assert!(warning.contains("fig seed 4"));
    }
}
