//! The parallel deterministic sweep engine.
//!
//! Every figure binary replicates its data points over independent seeds
//! — an embarrassingly parallel axis that used to run serially. [`Sweep`]
//! fans a `(point, seed)` grid out over scoped worker threads
//! (`std::thread::scope`, no dependencies) while keeping every output
//! byte-identical to the serial run:
//!
//! - **Seed-ordered slots.** Workers pull cells from a shared atomic
//!   cursor and may finish in any order, but each result lands in the
//!   slot preassigned to its grid index. Everything the caller can
//!   observe — report vectors, deferred warnings, merged trace sidecars
//!   — is drained from the slots in `(point, seed)` order after the
//!   join, so completion order cannot leak into output.
//! - **Per-run telemetry.** A traced cell gets its own private
//!   [`Obs`](rom_obs::Obs) recording its trace, health timelines and
//!   metrics in memory; no two runs ever share a recorder, so no
//!   cross-thread interleaving can occur. The per-cell artifacts are
//!   merged after the join, sorted by `(point, seed)`, into one JSONL
//!   trace, one aggregate [`SweepManifest`], one metrics sidecar and one
//!   health sidecar.
//! - **Deferred warnings.** Runs report anomalies (e.g. truncation) as
//!   strings in their [`CellOut`]; the engine prints them to stderr in
//!   grid order after the join instead of letting worker threads race on
//!   stderr.
//!
//! `jobs = 1` executes the cells inline on the calling thread — today's
//! serial path — and any other worker count produces the same bytes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use rom_obs::{RunManifest, SweepManifest};

/// Grid coordinates of one sweep cell: configuration point × seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId {
    /// Index of the configuration point (order of the caller's grid).
    pub point: usize,
    /// The replicate seed, `1..=seeds`.
    pub seed: u64,
}

/// Trace artifacts captured by one traced cell, in memory.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The run's JSONL trace bytes.
    pub jsonl: Vec<u8>,
    /// The run's provenance manifest.
    pub manifest: RunManifest,
    /// The run's metrics snapshot, serialized.
    pub metrics_json: String,
    /// Per-member health timeline records (one JSON object per member,
    /// id-ascending).
    pub health: String,
}

/// Everything a worker hands back for one cell.
#[derive(Debug)]
pub struct CellOut<R> {
    /// The run's report.
    pub report: R,
    /// Warnings to print (in grid order) after the join.
    pub warnings: Vec<String>,
    /// Trace artifacts, when this cell was traced.
    pub trace: Option<CellTrace>,
    /// The serialized span-profile sidecar body, when this cell was
    /// profiled. Wall-clock numbers live only here — never in `trace`.
    pub profile: Option<String>,
}

impl<R> CellOut<R> {
    /// A cell with no warnings, no trace and no profile.
    #[must_use]
    pub fn plain(report: R) -> Self {
        CellOut {
            report,
            warnings: Vec::new(),
            trace: None,
            profile: None,
        }
    }
}

/// The deterministic parallel sweep engine. See the module docs for the
/// determinism argument.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    jobs: usize,
}

impl Sweep {
    /// An engine running at most `jobs` cells concurrently (clamped to at
    /// least 1). `jobs = 1` runs inline on the calling thread.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Sweep { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    #[must_use]
    pub fn jobs(self) -> usize {
        self.jobs
    }

    /// Runs the full `points × seeds` grid through `run_cell` and
    /// collects the results into `(point, seed)`-ordered slots.
    ///
    /// `run_cell` is called exactly once per cell with seeds `1..=seeds`,
    /// from worker threads when `jobs > 1`. It must derive everything
    /// from the [`CellId`] alone (the configs it builds are seeded, so
    /// this holds by construction). Deferred warnings are printed to
    /// stderr, in grid order, before this returns.
    pub fn run<R: Send>(
        self,
        points: usize,
        seeds: u64,
        run_cell: impl Fn(CellId) -> CellOut<R> + Sync,
    ) -> SweepOutput<R> {
        let seeds_per_point = usize::try_from(seeds).unwrap_or(usize::MAX);
        let total = points.saturating_mul(seeds_per_point);
        let cell_of = |index: usize| CellId {
            point: index / seeds_per_point.max(1),
            seed: (index % seeds_per_point.max(1)) as u64 + 1,
        };

        let mut slots: Vec<Option<CellOut<R>>> = (0..total).map(|_| None).collect();
        let workers = self.jobs.min(total);
        if workers <= 1 {
            // The serial path: cells run inline, in grid order.
            for (index, slot) in slots.iter_mut().enumerate() {
                *slot = Some(run_cell(cell_of(index)));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, CellOut<R>)>();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    let run_cell = &run_cell;
                    scope.spawn(move || loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= total {
                            break;
                        }
                        if tx.send((index, run_cell(cell_of(index)))).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
            });
            // The scope joined every worker (propagating any panic), so
            // the channel holds exactly one result per cell.
            for (index, out) in rx.try_iter() {
                slots[index] = Some(out);
            }
        }

        // Drain in grid order: completion order is now unobservable.
        let mut reports: Vec<Vec<R>> = (0..points).map(|_| Vec::new()).collect();
        let mut traces = Vec::new();
        let mut profiles = Vec::new();
        for (index, slot) in slots.into_iter().enumerate() {
            if let Some(out) = slot {
                for warning in &out.warnings {
                    eprintln!("{warning}");
                }
                let id = cell_of(index);
                if let Some(trace) = out.trace {
                    traces.push((id, trace));
                }
                if let Some(profile) = out.profile {
                    profiles.push((id, profile));
                }
                reports[id.point].push(out.report);
            }
        }
        SweepOutput {
            reports,
            traces,
            profiles,
        }
    }
}

/// The slot-ordered results of one sweep.
#[derive(Debug)]
pub struct SweepOutput<R> {
    /// Reports indexed `[point][seed - 1]`.
    pub reports: Vec<Vec<R>>,
    /// Trace artifacts of every traced cell, sorted by `(point, seed)`.
    pub traces: Vec<(CellId, CellTrace)>,
    /// Profile sidecar bodies of every profiled cell, sorted by
    /// `(point, seed)`.
    pub profiles: Vec<(CellId, String)>,
}

impl<R> SweepOutput<R> {
    /// The traced cells' JSONL bytes concatenated in `(point, seed)`
    /// order — with one traced cell, exactly that cell's trace.
    #[must_use]
    pub fn merged_jsonl(&self) -> Vec<u8> {
        let mut merged = Vec::new();
        for (_, trace) in &self.traces {
            merged.extend_from_slice(&trace.jsonl);
        }
        merged
    }

    /// The aggregate manifest over every traced cell, sorted by
    /// `(point, seed)`.
    #[must_use]
    pub fn merged_manifest(&self, name: &str) -> SweepManifest {
        let mut manifest = SweepManifest::new(name);
        for (id, trace) in &self.traces {
            manifest.push(id.point, id.seed, trace.manifest.clone());
        }
        manifest
    }

    /// The traced cells' metrics snapshots, one JSON object per line in
    /// `(point, seed)` order.
    #[must_use]
    pub fn merged_metrics(&self) -> String {
        let mut merged = String::new();
        for (_, trace) in &self.traces {
            merged.push_str(&trace.metrics_json);
            merged.push('\n');
        }
        merged
    }

    /// The traced cells' per-member health timelines concatenated in
    /// `(point, seed)` order.
    #[must_use]
    pub fn merged_health(&self) -> String {
        let mut merged = String::new();
        for (_, trace) in &self.traces {
            merged.push_str(&trace.health);
        }
        merged
    }

    /// The profiled cells' sidecar bodies, one JSON object per line in
    /// `(point, seed)` order.
    #[must_use]
    pub fn merged_profiles(&self) -> String {
        let mut merged = String::new();
        for (_, profile) in &self.profiles {
            merged.push_str(profile);
            merged.push('\n');
        }
        merged
    }

    /// Writes the merged trace artifacts: the concatenated JSONL at
    /// `path`, the aggregate manifest at `path.manifest.json`, the merged
    /// metrics at `path.metrics.json` and the per-member timelines at
    /// `path.health.jsonl`.
    ///
    /// Aborts the process when the trace itself cannot be written (the
    /// bench-appropriate policy — a requested trace that silently goes
    /// missing is worse than no run); sidecar failures only warn.
    pub fn write_trace(&self, path: &str, name: &str) {
        if let Err(err) = std::fs::write(path, self.merged_jsonl()) {
            eprintln!("error: cannot write trace file {path}: {err}");
            std::process::exit(2)
        }
        let sidecars = [
            (
                format!("{path}.manifest.json"),
                self.merged_manifest(name).to_json(),
            ),
            (format!("{path}.metrics.json"), self.merged_metrics()),
            (format!("{path}.health.jsonl"), self.merged_health()),
        ];
        for (file, contents) in sidecars {
            if let Err(err) = std::fs::write(&file, contents) {
                eprintln!("warning: cannot write {file}: {err}");
            }
        }
    }

    /// Writes the merged profile sidecar (one JSON object per profiled
    /// cell) to `path`. Same abort policy as [`write_trace`](Self::write_trace):
    /// a requested profile that cannot be written kills the run.
    pub fn write_profile(&self, path: &str) {
        if let Err(err) = std::fs::write(path, self.merged_profiles()) {
            eprintln!("error: cannot write profile file {path}: {err}");
            std::process::exit(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell function that records nothing but its own coordinates.
    fn echo(cell: CellId) -> CellOut<(usize, u64)> {
        CellOut::plain((cell.point, cell.seed))
    }

    #[test]
    fn empty_grid_succeeds() {
        for (points, seeds) in [(0, 0), (0, 3), (4, 0)] {
            let out = Sweep::with_jobs(4).run(points, seeds, echo);
            assert_eq!(out.reports.len(), points);
            assert!(out.reports.iter().all(Vec::is_empty));
            assert!(out.traces.is_empty());
            assert!(out.merged_jsonl().is_empty());
        }
        assert!(Sweep::with_jobs(1).run(0, 5, echo).reports.is_empty());
    }

    #[test]
    fn one_point_grid_succeeds() {
        for jobs in [1, 2, 8] {
            let out = Sweep::with_jobs(jobs).run(1, 1, echo);
            assert_eq!(out.reports, vec![vec![(0, 1)]]);
        }
    }

    #[test]
    fn slots_are_grid_ordered_for_any_worker_count() {
        let serial = Sweep::with_jobs(1).run(3, 4, echo);
        for jobs in [2, 3, 8, 64] {
            let parallel = Sweep::with_jobs(jobs).run(3, 4, echo);
            assert_eq!(parallel.reports, serial.reports);
        }
        // Slot k of point p is always seed k+1.
        for (point, seeds) in serial.reports.iter().enumerate() {
            for (slot, &(p, s)) in seeds.iter().enumerate() {
                assert_eq!((p, s), (point, slot as u64 + 1));
            }
        }
    }

    #[test]
    fn traces_merge_in_grid_order() {
        let traced = |cell: CellId| CellOut {
            report: (),
            warnings: Vec::new(),
            trace: Some(CellTrace {
                jsonl: format!("{{\"p\":{},\"s\":{}}}\n", cell.point, cell.seed).into_bytes(),
                manifest: RunManifest::new("cell", cell.seed),
                metrics_json: format!("{{\"point\":{}}}", cell.point),
                health: format!("{{\"h\":{}}}\n", cell.seed),
            }),
            profile: Some(format!("{{\"prof\":{}}}", cell.point)),
        };
        let serial = Sweep::with_jobs(1).run(2, 3, traced);
        for jobs in [2, 8] {
            let parallel = Sweep::with_jobs(jobs).run(2, 3, traced);
            assert_eq!(parallel.merged_jsonl(), serial.merged_jsonl());
            assert_eq!(
                parallel.merged_manifest("m").to_json(),
                serial.merged_manifest("m").to_json()
            );
            assert_eq!(parallel.merged_metrics(), serial.merged_metrics());
            assert_eq!(parallel.merged_health(), serial.merged_health());
            assert_eq!(parallel.merged_profiles(), serial.merged_profiles());
        }
        let text = String::from_utf8(serial.merged_jsonl()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"p\":0,\"s\":1}");
        assert_eq!(lines[5], "{\"p\":1,\"s\":3}");
        assert!(serial.merged_health().starts_with("{\"h\":1}\n"));
        let merged_profiles = serial.merged_profiles();
        let profiles: Vec<&str> = merged_profiles.lines().map(str::trim).collect();
        assert_eq!(profiles.len(), 6);
        assert_eq!(profiles[0], "{\"prof\":0}");
    }

    #[test]
    fn plain_cells_yield_no_sidecars() {
        let out = Sweep::with_jobs(2).run(2, 2, echo);
        assert!(out.profiles.is_empty());
        assert!(out.merged_health().is_empty());
        assert!(out.merged_profiles().is_empty());
    }

    #[test]
    fn jobs_clamp_to_at_least_one() {
        assert_eq!(Sweep::with_jobs(0).jobs(), 1);
        let out = Sweep::with_jobs(0).run(1, 2, echo);
        assert_eq!(out.reports, vec![vec![(0, 1), (0, 2)]]);
    }
}
