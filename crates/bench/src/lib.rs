//! # rom-bench: figure regeneration and benchmark harness
//!
//! Two table writers, `churn_figures` (Figs. 4–11, the headline claims
//! and ablations A2 and A3) and `cer_figures` (Figs. 12 and 13 and
//! ablation A1), each run the distinct configurations of their tables as
//! one sweep, so that a cell two tables share runs once per seed, and
//! write one CSV file per table into the required `--out DIR` (no other
//! binary accepts `--out`). `fig14_rost_cer` prints Fig. 14's series as
//! CSV rows; plus scale, chaos and profiling harnesses and criterion
//! micro-benchmarks. Each binary runs its whole grid of configurations ×
//! seeds as one [`run_grid`] sweep. No binary or bench here writes files
//! other than the ones its flags name; performance baselines live in the
//! `perfbench` package.
//!
//! Every figure binary accepts:
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
//!   run (binary-specific; typically the flagship configuration at
//!   seed 1) to `PATH`, with the aggregate [`rom_obs::SweepManifest`] at
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

use rom_chaos::{InvariantRegistry, Scenario};
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

    /// [`from_args`](Self::from_args) plus the `--out DIR` that the
    /// table writers require: the scale and the output directory, created
    /// if missing. A missing `--out` aborts with the usage message, a
    /// directory that cannot be created with exit code 2, both before
    /// anything is simulated.
    #[must_use]
    pub fn from_args_with_out() -> (Self, String) {
        let (scale, out) = Self::parse(true);
        let dir = out.unwrap_or_else(|| usage());
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("error: cannot create {dir}: {err}");
            std::process::exit(2)
        }
        (scale, dir)
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

    /// The scale the member-trace figures (Figs. 6, 9) run at: this one
    /// at a single seed, because each observer trace is one seed-1 run
    /// per algorithm (see [`observer_traces`]), and without sidecars,
    /// which belong to the designated cell of the writer's grid.
    #[must_use]
    pub fn observer(self) -> Self {
        Scale {
            seeds: 1,
            trace: None,
            profile: None,
            ..self
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
         churn_figures|cer_figures --out DIR [same options]"
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

/// The index of `cfg` in `points`, appended unless an equal configuration
/// is listed already. A table writer lists its tables' configurations
/// this way, so that one [`run_grid`] over `points` runs a configuration
/// two tables share once per seed, and each table reads its reports by
/// index.
pub fn point_of<C: PartialEq>(points: &mut Vec<C>, cfg: C) -> usize {
    points.iter().position(|p| *p == cfg).unwrap_or_else(|| {
        points.push(cfg);
        points.len() - 1
    })
}

/// Writes each `(file, lines)` table to `dir/file`, one line per entry
/// and a newline after the last. A table that cannot be written aborts
/// with exit code 2.
pub fn write_tables<'a>(dir: &str, tables: impl IntoIterator<Item = (&'a str, Vec<String>)>) {
    for (file, lines) in tables {
        let path = format!("{dir}/{file}");
        if let Err(err) = std::fs::write(&path, lines.join("\n") + "\n") {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(2)
        }
    }
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

    /// The steady-state member count the config sets: what a cell costs,
    /// to a first approximation.
    fn members(&self) -> usize;
}

impl CellConfig for ChurnConfig {
    type Report = ChurnReport;

    fn members(&self) -> usize {
        self.target_size
    }

    fn run_observed(self, obs: Obs) -> (ChurnReport, Obs, InvariantRegistry) {
        set_up(&obs, || ChurnSim::new(self)).run_observed(obs, None)
    }
}

impl CellConfig for StreamingConfig {
    type Report = StreamingReport;

    fn members(&self) -> usize {
        self.churn.target_size
    }

    fn run_observed(self, obs: Obs) -> (StreamingReport, Obs, InvariantRegistry) {
        set_up(&obs, || StreamingSim::new(self)).run_observed(obs, None)
    }
}

/// Builds a simulator inside a root `engine.setup` span of `obs`'s
/// profiler, so that a profile counts the underlay, the delay oracle,
/// the seeded workload and the tree as set-up rather than as time
/// outside every span. The engine closes the run with its own
/// `engine.teardown` span.
fn set_up<S>(obs: &Obs, build: impl FnOnce() -> S) -> S {
    let _span = obs.prof().span("engine.setup");
    build()
}

/// Runs a binary's whole grid — every point of `points` × seeds
/// `1..=scale.seeds` — in one sweep over `scale.jobs` workers and returns
/// the reports indexed `[point][seed - 1]`. `make` builds each cell's
/// config from its point and seed. The cells are handed out largest
/// [`members`](CellConfig::members) first, so that the sweep does not
/// end on its biggest cells with workers idle.
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
    let members: Vec<usize> = points.iter().map(|p| make(p, 1).members()).collect();
    Sweep::with_jobs(scale.jobs).run_heaviest_first(&members, scale.seeds, |cell| {
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
/// [`Scale::observer_minutes`]. The runs are one sweep at
/// [`Scale::observer`], so no sidecar is written.
#[must_use]
pub fn observer_traces(scale: Scale) -> Vec<ObserverTrace> {
    let horizon_secs = scale.observer_minutes() * 60.0;
    let make = |&alg: &AlgorithmKind, seed| {
        let mut cfg = churn_config(alg, scale.focus_size(), seed);
        cfg.measure_secs = horizon_secs;
        cfg.observer = Some(ObserverSpec {
            bandwidth: 2.0,
            lifetime_secs: horizon_secs + 600.0,
        });
        cfg
    };
    let observer = scale.observer();
    let grid = run_grid("churn_observer", &AlgorithmKind::ALL, 0, make, observer);
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

/// A checked chaos run, as `fig_chaos` and `fig_burst` take it from
/// their flags: the scale, the seed every cell runs, the sweep's worker
/// count and the sidecars every cell is observed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosRun {
    /// Full scale (2 000 members) instead of the reduced 250.
    pub paper: bool,
    /// The seed of every cell.
    pub seed: u64,
    /// Worker threads for the sweep.
    pub jobs: usize,
    /// Trace and profile outputs, merged over the cells.
    pub sidecars: Sidecars,
}

impl ChaosRun {
    /// Parses the flags both chaos harnesses take — `--seed N` (default
    /// 42), `--paper`, `--jobs N`, `--trace PATH`, `--profile PATH` —
    /// from the process arguments, handing any other argument to `other`
    /// with the arguments after it. `usage` aborts on a missing or
    /// malformed value.
    pub fn from_args(
        usage: fn() -> !,
        mut other: impl FnMut(&str, &mut dyn Iterator<Item = String>),
    ) -> Self {
        let mut run = ChaosRun {
            paper: false,
            seed: 42,
            jobs: default_jobs(),
            sidecars: Sidecars::none(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = || args.next().unwrap_or_else(|| usage());
            match arg.as_str() {
                "--seed" => run.seed = value().parse().unwrap_or_else(|_| usage()),
                "--paper" => run.paper = true,
                "--jobs" => {
                    run.jobs = value()
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage());
                }
                "--trace" => run.sidecars.trace = Some(Box::leak(value().into_boxed_str())),
                "--profile" => run.sidecars.profile = Some(Box::leak(value().into_boxed_str())),
                _ => other(&arg, &mut args),
            }
        }
        run
    }

    /// The injection window `(start_secs, span_secs)`: after warm-up has
    /// settled and well inside the measurement window (reduced: 300 s
    /// warm-up + 900 s measured; paper: 1 800 s + 3 600 s).
    #[must_use]
    pub fn window(self) -> (f64, f64) {
        if self.paper {
            (2_400.0, 2_400.0)
        } else {
            (450.0, 600.0)
        }
    }

    /// Runs one checked cell per scenario in one sweep: ROST streaming
    /// with recovery groups of two (K = 2), 250 members on the reduced
    /// config or 2 000 on the paper's, with every invariant armed. The
    /// merged sidecars are written under `name`, with the seed stamped
    /// into the manifest (the grid point encodes only the scenario).
    /// Returns each scenario's report and registry, in order.
    #[must_use]
    pub fn run(
        self,
        name: &str,
        scenarios: &[Scenario],
    ) -> Vec<(StreamingReport, InvariantRegistry)> {
        let mut out = Sweep::with_jobs(self.jobs).run(scenarios.len(), 1, |cell| {
            let mut churn = if self.paper {
                ChurnConfig::paper(AlgorithmKind::Rost, 2_000)
            } else {
                ChurnConfig::quick(AlgorithmKind::Rost, 250)
            }
            .with_seed(self.seed);
            churn.chaos = Some(scenarios[cell.point].clone());
            let cfg = StreamingConfig::paper(churn, 2);
            observed_cell(name, cfg, self.seed, self.sidecars, |cfg, obs| {
                set_up(&obs, || StreamingSim::new(cfg))
                    .run_observed(obs, Some(InvariantRegistry::with_all()))
            })
        });
        for (id, _) in &mut out.traces {
            id.seed = self.seed;
        }
        write_sidecars(&out, name, self.sidecars);
        out.reports.into_iter().flatten().collect()
    }
}

/// Prints every violation the registries recorded to stderr, one line
/// each after its cell's `label`, and exits 1 if there was any.
pub fn exit_on_violations<'a>(cells: impl IntoIterator<Item = (String, &'a InvariantRegistry)>) {
    let mut tripped = false;
    for (label, registry) in cells {
        for v in registry.violations() {
            let subject = v
                .subject
                .map_or(String::new(), |id| format!(" member={}", id.0));
            eprintln!(
                "violation: {label}t={:.3}s invariant={}{subject}: {}",
                v.time, v.invariant, v.detail
            );
            tripped = true;
        }
    }
    if tripped {
        std::process::exit(1)
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

/// The header of a member-trace figure (Figs. 6, 9): the banner of the
/// one-seed scale its runs use, then the focus size and the horizon.
#[must_use]
pub fn observer_banner(figure: &str, caption: &str, scale: Scale) -> String {
    format!(
        "{}\n# focus size: {} members, horizon: {} minutes",
        banner_text(figure, caption, scale.observer()),
        scale.focus_size(),
        scale.observer_minutes()
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

/// A table's lines: the `head` lines (banner and notes), the `header`
/// row, then one row per `(label, values)`, each value through [`fmt`].
#[must_use]
pub fn table(
    head: Vec<String>,
    header: &str,
    rows: impl IntoIterator<Item = (String, Vec<f64>)>,
) -> Vec<String> {
    let mut lines = head;
    lines.push(header.to_string());
    lines.extend(
        rows.into_iter()
            .map(|(label, values)| row(std::iter::once(label).chain(values.into_iter().map(fmt)))),
    );
    lines
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
        // The observer runs take neither the seeds nor the sidecars.
        let traced = Scale {
            trace: Some("t.jsonl"),
            profile: Some("p.json"),
            ..s
        };
        assert_eq!(traced.observer(), Scale { seeds: 1, ..s });
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
    fn member_trace_banners_state_the_one_seed_they_run() {
        for (paper, scale_text, focus, minutes) in [
            (false, "reduced (use --paper for full scale)", 2_000, 120),
            (true, "paper (§5)", 8_000, 300),
        ] {
            let scale = Scale {
                paper,
                seeds: 3,
                jobs: 2,
                trace: None,
                profile: None,
            };
            assert_eq!(
                observer_banner("Figure 6", "caption", scale),
                format!(
                    "# Figure 6 — caption\n# scale: {scale_text} | seeds per point: 1\n\
                     # focus size: {focus} members, horizon: {minutes} minutes"
                )
            );
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.1234");
        assert_eq!(fmt(12.3456), "12.346");
        assert_eq!(fmt(1234.5), "1234.5");
        assert_eq!(row(["a".into(), "b".into()]), "a,b");
        assert_eq!(
            table(vec!["# t".into()], "x,y", [("1".into(), vec![0.5])]),
            ["# t", "x,y", "1,0.5000"]
        );
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
