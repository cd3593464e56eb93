//! # rom-obs: deterministic observability for the ROM workspace
//!
//! Every simulator in this workspace is bit-for-bit reproducible from a
//! single `u64` seed — so its observability layer must be too. This crate
//! provides three pieces, all dependency-free and all clocked exclusively
//! on *simulation* time:
//!
//! - a **structured trace** ([`TraceEvent`], tagged by [`Subsystem`] and
//!   [`Level`]) that an enabled [`Obs`] records as JSONL and folds into
//!   per-member health timelines,
//! - **metrics** (counters, gauges with high-water marks, fixed-bucket
//!   histograms) snapshotable into [`MetricsSnapshot`],
//! - **run provenance** ([`RunManifest`]: seed, config digest, crate
//!   version, event counts, outcome) emitted alongside bench CSVs.
//!
//! The [`Obs`] handle is the one recorder: instrumented hot paths cost
//! one branch when it is disabled.
//!
//! ## Determinism rules
//!
//! - Timestamps are sim-time seconds (`f64`), never wall clock
//!   (`Instant`/`SystemTime` are banned here by rom-lint R8; the span
//!   profiler ([`Prof`]) is the one justified-allow exception, and its
//!   readings reach only the `.profile.json` sidecar).
//! - Event fields live in a `BTreeMap`, so serialization order is the key
//!   order, not hash order (rom-lint R1).
//! - `f64` values serialize through Rust's shortest-round-trip `Display`,
//!   which is deterministic across runs and platforms.
//!
//! Two identical-seed runs therefore produce byte-identical JSONL traces
//! — a property the workspace pins with an integration test.
//!
//! # Examples
//!
//! ```
//! use rom_obs::{Obs, Subsystem, TraceEvent};
//!
//! let mut obs = Obs::enabled();
//! if obs.is_active() {
//!     obs.emit(TraceEvent::new(1.5, Subsystem::Churn, "join").u64("id", 7));
//! }
//! obs.count("churn.joins", 1);
//! assert_eq!(obs.trace_jsonl().lines().count(), 1);
//! assert_eq!(obs.snapshot().counter("churn.joins"), 1);
//! ```

mod health;
mod json;
mod manifest;
mod metrics;
mod mem;
mod prof;
mod trace;

use health::HealthAccumulator;
use metrics::MetricsRegistry;

pub use manifest::{fnv1a, RunManifest, SweepManifest};
pub use mem::peak_rss_bytes;
pub use metrics::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
pub use prof::{Prof, ProfReport, SpanGuard, SpanStat};
pub use trace::{FieldValue, Level, Subsystem, TraceEvent};

/// The trace and metrics recorder that instrumented code threads through
/// its hot paths.
///
/// A default-constructed (or [`Obs::disabled`]) handle is inert: every
/// method is a single-branch no-op, no allocation. An [`Obs::enabled`]
/// handle appends each emitted event to an in-memory JSONL trace, folds
/// it into the per-member health timelines, and keeps the metrics.
#[derive(Debug, Default)]
pub struct Obs {
    recording: Option<Recording>,
    prof: Prof,
}

/// What an enabled [`Obs`] has recorded so far.
#[derive(Debug, Default)]
struct Recording {
    /// One JSON object per emitted event, each ending in a newline.
    jsonl: String,
    events: u64,
    health: HealthAccumulator,
    metrics: MetricsRegistry,
}

impl Obs {
    /// An inert handle: all recording methods are no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// A handle recording the trace, the health timelines and metrics.
    #[must_use]
    pub fn enabled() -> Self {
        Obs {
            recording: Some(Recording::default()),
            prof: Prof::disabled(),
        }
    }

    /// Attaches a span profiler (builder style). Profiling is orthogonal
    /// to recording: spans are driven by the clones of this handle that
    /// instrumented structures carry, and their wall-clock numbers never
    /// enter the trace or the metrics.
    #[must_use]
    pub fn with_prof(mut self, prof: Prof) -> Self {
        self.prof = prof;
        self
    }

    /// The span-profiler handle (disabled unless installed via
    /// [`with_prof`](Self::with_prof)).
    #[must_use]
    pub fn prof(&self) -> &Prof {
        &self.prof
    }

    /// True if this handle records anything at all.
    ///
    /// Guard event construction with this so the disabled path never
    /// allocates:
    ///
    /// ```
    /// # use rom_obs::{Obs, Subsystem, TraceEvent};
    /// # let mut obs = Obs::disabled();
    /// if obs.is_active() {
    ///     obs.emit(TraceEvent::new(0.0, Subsystem::Rost, "switch"));
    /// }
    /// ```
    #[inline]
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.recording.is_some()
    }

    /// Records a trace event: its JSON line and its health fold.
    pub fn emit(&mut self, event: TraceEvent) {
        if let Some(rec) = self.recording.as_mut() {
            event.write_json(&mut rec.jsonl);
            rec.jsonl.push('\n');
            rec.health.observe(&event);
            rec.events += 1;
        }
    }

    /// Adds `n` to the counter `name`.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if let Some(rec) = self.recording.as_mut() {
            rec.metrics.count(name, n);
        }
    }

    /// Sets the gauge `name` to `value`, updating its high-water mark.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if let Some(rec) = self.recording.as_mut() {
            rec.metrics.gauge(name, value);
        }
    }

    /// Records `value` into the histogram `name` (auto-registered with
    /// the default buckets on first use).
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if let Some(rec) = self.recording.as_mut() {
            rec.metrics.observe(name, value);
        }
    }

    /// Registers the histogram `name` with explicit bucket `bounds`
    /// before its first observation (no-op when inactive or already
    /// registered).
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        if let Some(rec) = self.recording.as_mut() {
            rec.metrics.register_histogram(name, bounds);
        }
    }

    /// Number of trace events recorded so far.
    #[must_use]
    pub fn trace_events(&self) -> u64 {
        self.recording.as_ref().map_or(0, |rec| rec.events)
    }

    /// The trace recorded so far: one JSON object per line (empty when
    /// disabled).
    #[must_use]
    pub fn trace_jsonl(&self) -> &str {
        self.recording.as_ref().map_or("", |rec| rec.jsonl.as_str())
    }

    /// The per-member health timelines folded from the trace, one JSON
    /// object per member in ascending id order — the `.health.jsonl`
    /// sidecar body (empty when disabled).
    #[must_use]
    pub fn health_jsonl(&self) -> String {
        self.recording
            .as_ref()
            .map_or_else(String::new, |rec| rec.health.to_jsonl())
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.recording
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |rec| rec.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let mut obs = Obs::disabled();
        assert!(!obs.is_active());
        obs.count("c", 5);
        obs.gauge("g", 1.0);
        obs.observe("h", 1.0);
        obs.emit(TraceEvent::new(0.0, Subsystem::Sim, "x"));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("c"), 0);
        assert_eq!(obs.trace_events(), 0);
        assert!(obs.trace_jsonl().is_empty());
        assert!(obs.health_jsonl().is_empty());
    }

    #[test]
    fn enabled_handle_records_lines_health_and_metrics() {
        let events = [
            TraceEvent::new(1.0, Subsystem::Churn, "join").u64("id", 4),
            TraceEvent::new(2.5, Subsystem::Rost, "switch").u64("id", 4),
            TraceEvent::new(3.0, Subsystem::Churn, "join")
                .level(Level::Debug)
                .u64("id", 2),
        ];
        let mut obs = Obs::enabled();
        assert!(obs.is_active());
        let mut health = HealthAccumulator::default();
        for event in &events {
            obs.emit(event.clone());
            health.observe(event);
        }
        obs.gauge("depth", 3.0);
        obs.gauge("depth", 1.0);

        let lines: Vec<&str> = obs.trace_jsonl().lines().collect();
        let expected: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
        assert_eq!(lines, expected);
        assert_eq!(obs.trace_events(), 3);
        assert_eq!(obs.health_jsonl(), health.to_jsonl());
        let g = obs.snapshot().gauge("depth").expect("gauge registered");
        assert_eq!(g.value.to_bits(), 1.0_f64.to_bits());
        assert_eq!(g.high_water.to_bits(), 3.0_f64.to_bits());
    }
}
