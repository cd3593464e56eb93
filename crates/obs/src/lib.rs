//! # rom-obs: deterministic observability for the ROM workspace
//!
//! Every simulator in this workspace is bit-for-bit reproducible from a
//! single `u64` seed — so its observability layer must be too. This crate
//! provides three pieces, all dependency-free and all clocked exclusively
//! on *simulation* time:
//!
//! - a **structured trace layer** ([`TraceEvent`] written through the
//!   [`Sink`] trait, with ring-buffer, JSONL and null
//!   implementations, filterable by [`Subsystem`] and [`Level`]),
//! - a **metrics registry** ([`MetricsRegistry`]: counters, gauges with
//!   high-water marks, fixed-bucket histograms) snapshotable into
//!   [`MetricsSnapshot`],
//! - **run provenance** ([`RunManifest`]: seed, config digest, crate
//!   version, event counts, outcome) emitted alongside bench CSVs.
//!
//! The [`Obs`] handle bundles a tracer and a registry behind a single
//! `active` flag so instrumented hot paths cost one branch when
//! observability is off.
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
//! use rom_obs::{Level, Obs, RingSink, Subsystem, TraceEvent, Tracer};
//!
//! let (sink, handle) = RingSink::new(16);
//! let mut obs = Obs::new(Tracer::to_sink(Box::new(sink)));
//! if obs.enabled(Subsystem::Churn, Level::Info) {
//!     obs.emit(TraceEvent::new(1.5, Subsystem::Churn, "join").u64("id", 7));
//! }
//! obs.count("churn.joins", 1);
//! obs.finish();
//! assert_eq!(handle.len(), 1);
//! assert_eq!(obs.snapshot().counter("churn.joins"), 1);
//! ```

mod health;
mod json;
mod manifest;
mod metrics;
mod mem;
mod prof;
mod trace;

pub use health::{HealthAccumulator, HealthHandle, HealthSink, MemberHealth};
pub use manifest::{fnv1a, RunManifest, SweepManifest};
pub use metrics::{
    GaugeSnapshot, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, DEFAULT_BUCKETS,
};
pub use mem::peak_rss_bytes;
pub use prof::{Prof, ProfCore, ProfReport, SpanGuard, SpanStat, PROF_HIST_BUCKETS};
pub use trace::{
    FieldValue, JsonlSink, Level, NullSink, RingHandle, RingSink, SharedBuffer, Sink, Subsystem,
    TraceEvent, Tracer,
};

/// A combined tracer + metrics handle that instrumented code threads
/// through its hot paths.
///
/// A default-constructed (or [`Obs::disabled`]) handle is inert: every
/// method is a single-branch no-op, no allocation, no sink. Construct one
/// with [`Obs::new`] to activate both tracing and metrics, or with
/// `Obs::new(Tracer::disabled())` to collect metrics without a trace sink.
#[derive(Debug, Default)]
pub struct Obs {
    active: bool,
    tracer: Tracer,
    metrics: MetricsRegistry,
    prof: Prof,
}

impl Obs {
    /// An inert handle: all recording methods are no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// An active handle tracing through `tracer` and collecting metrics.
    #[must_use]
    pub fn new(tracer: Tracer) -> Self {
        Obs {
            active: true,
            tracer,
            metrics: MetricsRegistry::new(),
            prof: Prof::disabled(),
        }
    }

    /// Attaches a span profiler (builder style). Profiling is orthogonal
    /// to the `active` flag: spans are driven by the clones of this
    /// handle that instrumented structures carry, and their wall-clock
    /// numbers never enter the trace/metrics pipeline.
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
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True if a trace event for `subsystem` at `level` would be recorded.
    ///
    /// Guard event construction with this so the disabled path never
    /// allocates:
    ///
    /// ```
    /// # use rom_obs::{Level, Obs, Subsystem, TraceEvent};
    /// # let mut obs = Obs::disabled();
    /// if obs.enabled(Subsystem::Rost, Level::Info) {
    ///     obs.emit(TraceEvent::new(0.0, Subsystem::Rost, "switch"));
    /// }
    /// ```
    #[inline]
    #[must_use]
    pub fn enabled(&self, subsystem: Subsystem, level: Level) -> bool {
        self.active && self.tracer.enabled(subsystem, level)
    }

    /// Records a trace event (if its subsystem/level pass the filter).
    pub fn emit(&mut self, event: TraceEvent) {
        if self.active {
            self.tracer.emit(event);
        }
    }

    /// Adds `n` to the counter `name`.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.active {
            self.metrics.count(name, n);
        }
    }

    /// Sets the gauge `name` to `value`, updating its high-water mark.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if self.active {
            self.metrics.gauge(name, value);
        }
    }

    /// Records `value` into the histogram `name` (auto-registered with
    /// [`DEFAULT_BUCKETS`] on first use).
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if self.active {
            self.metrics.observe(name, value);
        }
    }

    /// Registers the histogram `name` with explicit bucket `bounds`
    /// before its first observation (no-op when inactive or already
    /// registered).
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        if self.active {
            self.metrics.register_histogram(name, bounds);
        }
    }

    /// Number of trace events actually recorded so far.
    #[must_use]
    pub fn trace_events(&self) -> u64 {
        self.tracer.emitted()
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Flushes the trace sink. Call once at end of run.
    pub fn finish(&mut self) {
        self.tracer.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let mut obs = Obs::disabled();
        assert!(!obs.is_active());
        assert!(!obs.enabled(Subsystem::Sim, Level::Warn));
        obs.count("c", 5);
        obs.gauge("g", 1.0);
        obs.observe("h", 1.0);
        obs.emit(TraceEvent::new(0.0, Subsystem::Sim, "x"));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("c"), 0);
        assert_eq!(obs.trace_events(), 0);
    }

    #[test]
    fn disabled_tracer_still_collects_metrics() {
        let mut obs = Obs::new(Tracer::disabled());
        assert!(obs.is_active());
        assert!(!obs.enabled(Subsystem::Cer, Level::Warn));
        obs.count("c", 2);
        obs.count("c", 3);
        assert_eq!(obs.snapshot().counter("c"), 5);
        assert_eq!(obs.trace_events(), 0);
    }

    #[test]
    fn active_handle_traces_and_counts() {
        let (sink, handle) = RingSink::new(8);
        let mut obs = Obs::new(Tracer::to_sink(Box::new(sink)));
        if obs.enabled(Subsystem::Churn, Level::Info) {
            obs.emit(TraceEvent::new(2.0, Subsystem::Churn, "join").u64("id", 1));
        }
        obs.gauge("depth", 3.0);
        obs.gauge("depth", 1.0);
        obs.finish();
        assert_eq!(obs.trace_events(), 1);
        assert_eq!(handle.len(), 1);
        let snap = obs.snapshot();
        let g = snap.gauge("depth").expect("gauge registered");
        assert_eq!(g.value.to_bits(), 1.0_f64.to_bits());
        assert_eq!(g.high_water.to_bits(), 3.0_f64.to_bits());
    }
}
