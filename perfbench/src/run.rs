//! Timed simulator runs through the public entry points, and the output
//! check each run must pass.

use crate::clock::timed;
use crate::digest::{churn_digest, streaming_digest};
use crate::rollup::{ratio, Profile};
use crate::workload::{Config, Workload};
use rom_bench::{instrumented_churn_cell, instrumented_streaming_cell, Sidecars};
use rom_engine::{ChurnReport, ChurnSim, StreamingReport, StreamingSim};
use rom_overlay::MulticastTree;
use rom_sim::{RunOutcome, SimTime};

/// The deterministic facts of one finished run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunFacts {
    /// Report digest (see [`crate::digest`]).
    pub digest: u64,
    /// How the event loop ended.
    pub outcome: RunOutcome,
    /// Events dispatched.
    pub events: u64,
    /// Completed ROST switches.
    pub switches: u64,
    /// Peak pending events in the scheduler queue.
    pub queue_high_water: u64,
    /// Byte footprint of that peak.
    pub queue_bytes_high_water: u64,
    /// Packets CER repaired before their deadline (streaming only).
    pub repaired_on_time: u64,
    /// Packets that missed their deadline (streaming only).
    pub starved: u64,
}

impl RunFacts {
    /// Facts of a churn report.
    #[must_use]
    pub fn churn(r: &ChurnReport) -> Self {
        RunFacts {
            digest: churn_digest(r),
            outcome: r.outcome,
            events: r.events_processed,
            switches: r.switches,
            queue_high_water: r.queue_high_water,
            queue_bytes_high_water: r.queue_bytes_high_water,
            repaired_on_time: 0,
            starved: 0,
        }
    }

    /// Facts of a streaming report.
    #[must_use]
    pub fn streaming(r: &StreamingReport) -> Self {
        RunFacts {
            digest: streaming_digest(r),
            repaired_on_time: r.packets_repaired_on_time,
            starved: r.packets_starved,
            ..RunFacts::churn(&r.churn)
        }
    }

    /// Share of repaired or starved packets that were repaired on time.
    #[must_use]
    pub fn on_time_share(&self) -> f64 {
        ratio(
            self.repaired_on_time as f64,
            (self.repaired_on_time + self.starved) as f64,
        )
    }

    /// The output check. A run fails if its event loop did not reach the
    /// horizon, or if its digest differs from `expected` — the recorded
    /// digest of the default seed, or an earlier run's of the same input.
    ///
    /// # Errors
    ///
    /// A message saying which check failed.
    pub fn check(&self, expected: Option<u64>) -> Result<(), String> {
        if self.outcome != RunOutcome::HorizonReached || self.events == 0 {
            return Err(format!(
                "run ended {:?} after {} events",
                self.outcome, self.events
            ));
        }
        match expected {
            Some(digest) if digest != self.digest => Err(format!(
                "digest {:016x} differs from the expected {digest:016x}",
                self.digest
            )),
            _ => Ok(()),
        }
    }
}

/// One untraced run: set-up and run timed apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedRun {
    /// The run's facts.
    pub facts: RunFacts,
    /// Seconds in `ChurnSim::new` / `StreamingSim::new`.
    pub setup_s: f64,
    /// Seconds in the run itself.
    pub run_s: f64,
}

impl TimedRun {
    /// Events dispatched per second of run time.
    #[must_use]
    pub fn events_per_s(&self) -> f64 {
        ratio(self.facts.events as f64, self.run_s)
    }

    /// Set-up plus run seconds.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// Builds and runs `cfg` with observability off.
#[must_use]
pub fn run_plain(cfg: &Config) -> TimedRun {
    match cfg {
        Config::Churn(c) => {
            let (sim, setup_s) = timed(|| ChurnSim::new(c.clone()));
            let (report, run_s) = timed(|| sim.run());
            TimedRun {
                facts: RunFacts::churn(&report),
                setup_s,
                run_s,
            }
        }
        Config::Streaming(c) => {
            let (sim, setup_s) = timed(|| StreamingSim::new(c.clone()));
            let (report, run_s) = timed(|| sim.run());
            TimedRun {
                facts: RunFacts::streaming(&report),
                setup_s,
                run_s,
            }
        }
    }
}

/// Seconds one set-up of `cfg` takes (the simulator is dropped untimed).
#[must_use]
pub fn setup_only(cfg: &Config) -> f64 {
    match cfg {
        Config::Churn(c) => timed(|| ChurnSim::new(c.clone())).1,
        Config::Streaming(c) => timed(|| StreamingSim::new(c.clone())).1,
    }
}

/// An untraced run that also hands back a copy of the converged tree
/// (churn workloads only) and the simulation time it was taken at.
#[derive(Debug)]
pub struct InspectedRun {
    /// Timings and facts; the tree copy's cost is not in `run_s`.
    pub run: TimedRun,
    /// The final tree and end time, for churn workloads.
    pub tree: Option<(MulticastTree, SimTime)>,
}

/// Like [`run_plain`], but through `ChurnSim::run_inspect` for churn
/// workloads, keeping a clone of the final tree.
#[must_use]
pub fn run_inspected(cfg: &Config) -> InspectedRun {
    match cfg {
        Config::Churn(c) => {
            let (sim, setup_s) = timed(|| ChurnSim::new(c.clone()));
            let mut kept = None;
            let mut copy_s = 0.0;
            let (report, total_s) = timed(|| {
                sim.run_inspect(|tree, now| {
                    let (tree, secs) = timed(|| tree.clone());
                    copy_s = secs;
                    kept = Some((tree, now));
                })
            });
            InspectedRun {
                run: TimedRun {
                    facts: RunFacts::churn(&report),
                    setup_s,
                    run_s: total_s - copy_s,
                },
                tree: kept,
            }
        }
        Config::Streaming(_) => InspectedRun {
            run: run_plain(cfg),
            tree: None,
        },
    }
}

/// A run with the span profiler on.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The run's facts (must equal the untraced run's).
    pub facts: RunFacts,
    /// Its span profile; `wall_ns` covers set-up and run.
    pub profile: Profile,
}

/// Runs `cfg` through `rom_bench`'s instrumented cell with an in-memory
/// profile sidecar and parses the profile.
///
/// # Errors
///
/// When the profile is missing or malformed.
pub fn run_traced(workload: Workload, cfg: &Config, seed: u64) -> Result<TracedRun, String> {
    let sidecars = Sidecars {
        trace: None,
        profile: Some("memory"),
    };
    let name = workload.name();
    let (facts, json) = match cfg {
        Config::Churn(c) => {
            let (report, _, json) = instrumented_churn_cell(name, c.clone(), seed, sidecars);
            (RunFacts::churn(&report), json)
        }
        Config::Streaming(c) => {
            let (report, _, json) = instrumented_streaming_cell(name, c.clone(), seed, sidecars);
            (RunFacts::streaming(&report), json)
        }
    };
    let profile = Profile::parse(&json.ok_or("the profiled run returned no profile")?)?;
    Ok(TracedRun { facts, profile })
}
