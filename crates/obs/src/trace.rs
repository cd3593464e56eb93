//! The structured trace layer: typed sim-time events, subsystem/level
//! filtering, and pluggable sinks.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json;

/// Severity of a trace event. Ordered: `Debug < Info < Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// High-volume events (individual joins, lock traffic).
    Debug,
    /// The structural story of a run (failures, switches, repairs).
    Info,
    /// Anomalies worth surfacing even in quiet traces.
    Warn,
}

impl Level {
    /// Stable lowercase name used in serialized traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// The workspace subsystem an event originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// The discrete-event kernel (`rom-sim`).
    Sim,
    /// Churn-driven tree dynamics (`rom-engine`).
    Churn,
    /// Switching protocol and locks (`rom-rost`).
    Rost,
    /// Cooperative error recovery (`rom-cer`).
    Cer,
    /// Packet-level streaming state (`rom-engine`).
    Streaming,
    /// Referee verification and audited switching (`rom-rost`).
    Referee,
    /// Fault injection and invariant checking (`rom-chaos`).
    Chaos,
}

impl Subsystem {
    /// All subsystems, in serialization order.
    pub const ALL: [Subsystem; 7] = [
        Subsystem::Sim,
        Subsystem::Churn,
        Subsystem::Rost,
        Subsystem::Cer,
        Subsystem::Streaming,
        Subsystem::Referee,
        Subsystem::Chaos,
    ];

    /// Stable lowercase name used in serialized traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Sim => "sim",
            Subsystem::Churn => "churn",
            Subsystem::Rost => "rost",
            Subsystem::Cer => "cer",
            Subsystem::Streaming => "streaming",
            Subsystem::Referee => "referee",
            Subsystem::Chaos => "chaos",
        }
    }

    /// One-hot bit for subsystem-mask filtering.
    #[must_use]
    pub(crate) fn bit(self) -> u8 {
        match self {
            Subsystem::Sim => 1 << 0,
            Subsystem::Churn => 1 << 1,
            Subsystem::Rost => 1 << 2,
            Subsystem::Cer => 1 << 3,
            Subsystem::Streaming => 1 << 4,
            Subsystem::Referee => 1 << 5,
            Subsystem::Chaos => 1 << 6,
        }
    }

    pub(crate) const MASK_ALL: u8 = 0b111_1111;
}

/// A typed field value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Floating point (times, fractions).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (names picked at the call site).
    Str(&'static str),
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match *self {
            FieldValue::U64(v) => json::push_u64(out, v),
            FieldValue::F64(v) => json::push_f64(out, v),
            FieldValue::Bool(v) => out.push_str(if v { "true" } else { "false" }),
            FieldValue::Str(s) => json::push_str_literal(out, s),
        }
    }
}

/// A single sim-time-stamped structured trace event.
///
/// Fields are keyed by static strings in a `BTreeMap`, so serialization
/// order is lexicographic and therefore deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time in seconds (never wall clock).
    pub time: f64,
    /// Originating subsystem.
    pub subsystem: Subsystem,
    /// Severity.
    pub level: Level,
    /// Event kind, e.g. `"join"`, `"switch"`, `"repair"`.
    pub kind: &'static str,
    /// Typed payload, ordered by key.
    pub fields: BTreeMap<&'static str, FieldValue>,
}

impl TraceEvent {
    /// A new `Info`-level event with no fields.
    #[must_use]
    pub fn new(time: f64, subsystem: Subsystem, kind: &'static str) -> Self {
        TraceEvent {
            time,
            subsystem,
            level: Level::Info,
            kind,
            fields: BTreeMap::new(),
        }
    }

    /// Overrides the severity (builder style).
    #[must_use]
    pub fn level(mut self, level: Level) -> Self {
        self.level = level;
        self
    }

    /// Attaches an unsigned-integer field.
    #[must_use]
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.insert(key, FieldValue::U64(value));
        self
    }

    /// Attaches a floating-point field.
    #[must_use]
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.insert(key, FieldValue::F64(value));
        self
    }

    /// Attaches a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.insert(key, FieldValue::Bool(value));
        self
    }

    /// Attaches a static-string field.
    #[must_use]
    pub fn str(mut self, key: &'static str, value: &'static str) -> Self {
        self.fields.insert(key, FieldValue::Str(value));
        self
    }

    /// Serializes the event as one JSON object appended onto `out`
    /// (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t\":");
        json::push_f64(out, self.time);
        out.push_str(",\"sub\":\"");
        out.push_str(self.subsystem.as_str());
        out.push_str("\",\"lvl\":\"");
        out.push_str(self.level.as_str());
        out.push_str("\",\"kind\":");
        json::push_str_literal(out, self.kind);
        out.push_str(",\"fields\":{");
        let mut first = true;
        for (key, value) in &self.fields {
            if !first {
                out.push(',');
            }
            first = false;
            json::push_str_literal(out, key);
            out.push(':');
            value.write_json(out);
        }
        out.push_str("}}");
    }

    /// The event as a standalone JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Destination for trace events.
///
/// Implementations must be deterministic: same event sequence in, same
/// observable state out. Sinks are `Send` so a whole observed simulator
/// can be handed to a sweep worker thread; each run still owns its sink
/// exclusively — there is no concurrent recording into one sink.
pub trait Sink: fmt::Debug + Send {
    /// Records one event. Infallible by design; sinks that can fail
    /// (e.g. file I/O) swallow errors and expose a count instead.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes buffered output. Called once at end of run.
    fn flush(&mut self) {}

    /// False if this sink discards everything, letting [`Tracer`] skip
    /// event construction entirely.
    #[must_use]
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A sink that discards every event and reports itself disabled, so the
/// instrumented hot path never even builds the [`TraceEvent`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// A bounded in-memory sink keeping the most recent events.
///
/// Created together with a [`RingHandle`] through which the retained
/// events can be read back after the run (the sink itself is boxed away
/// inside the tracer).
#[derive(Debug)]
pub struct RingSink {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
    capacity: usize,
}

/// Locks a shared buffer, recovering the data even if another holder
/// panicked mid-access (determinism is per-run; a poisoned run has
/// already failed loudly).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RingSink {
    /// A ring retaining at most `capacity` events (oldest evicted first).
    #[must_use]
    pub fn new(capacity: usize) -> (RingSink, RingHandle) {
        let buf = Arc::new(Mutex::new(VecDeque::new()));
        let handle = RingHandle(Arc::clone(&buf));
        (RingSink { buf, capacity }, handle)
    }
}

impl Sink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut buf = lock_unpoisoned(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Read side of a [`RingSink`].
#[derive(Debug, Clone)]
pub struct RingHandle(Arc<Mutex<VecDeque<TraceEvent>>>);

impl RingHandle {
    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.0).len()
    }

    /// True if nothing was retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.0).is_empty()
    }

    /// A copy of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.0).iter().cloned().collect()
    }
}

/// A sink writing one JSON object per line to any [`Write`] target.
///
/// The serialization buffer is reused across events, so steady-state
/// recording does not allocate. I/O errors are swallowed (sinks are
/// infallible) but counted in [`JsonlSink::write_errors`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    line: String,
    write_errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    #[must_use]
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: String::with_capacity(256),
            write_errors: 0,
        }
    }

    /// Number of write/flush errors swallowed so far.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

impl<W: Write + fmt::Debug + Send> Sink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        if self.out.write_all(self.line.as_bytes()).is_err() {
            self.write_errors += 1;
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.write_errors += 1;
        }
    }
}

/// A cloneable in-memory byte buffer implementing [`Write`].
///
/// Pair one with a [`JsonlSink`] to capture a trace in memory and read
/// the bytes back after the sink has been boxed into a tracer — the
/// byte-identity determinism tests are built on this.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// A copy of everything written so far.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        lock_unpoisoned(&self.bytes).clone()
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.bytes).len()
    }

    /// True if nothing was written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.bytes).is_empty()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        lock_unpoisoned(&self.bytes).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Filters trace events by subsystem and level and hands the survivors
/// to a boxed [`Sink`].
///
/// A default-constructed tracer has no sink and records nothing.
#[derive(Debug)]
pub struct Tracer {
    sink: Option<Box<dyn Sink>>,
    min_level: Level,
    mask: u8,
    emitted: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            sink: None,
            min_level: Level::Debug,
            mask: Subsystem::MASK_ALL,
            emitted: 0,
        }
    }
}

impl Tracer {
    /// A tracer with no sink: records nothing, costs one branch.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer recording everything into `sink`.
    #[must_use]
    pub fn to_sink(sink: Box<dyn Sink>) -> Self {
        Tracer {
            sink: Some(sink),
            ..Tracer::default()
        }
    }

    /// Drops events below `level` (builder style).
    #[must_use]
    pub fn with_min_level(mut self, level: Level) -> Self {
        self.min_level = level;
        self
    }

    /// Keeps only events from `subsystems` (builder style).
    #[must_use]
    pub fn with_subsystems(mut self, subsystems: &[Subsystem]) -> Self {
        self.mask = subsystems.iter().fold(0, |m, s| m | s.bit());
        self
    }

    /// True if an event for `subsystem` at `level` would be recorded.
    #[inline]
    #[must_use]
    pub fn enabled(&self, subsystem: Subsystem, level: Level) -> bool {
        match &self.sink {
            Some(sink) => {
                sink.is_enabled() && level >= self.min_level && (self.mask & subsystem.bit()) != 0
            }
            None => false,
        }
    }

    /// Records `event` if it passes the filter.
    pub fn emit(&mut self, event: TraceEvent) {
        if self.enabled(event.subsystem, event.level) {
            if let Some(sink) = self.sink.as_mut() {
                sink.record(&event);
                self.emitted += 1;
            }
        }
    }

    /// Number of events recorded (post-filter) so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Flushes the sink. Call once at end of run.
    pub fn finish(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: &'static str) -> TraceEvent {
        TraceEvent::new(t, Subsystem::Churn, kind)
    }

    #[test]
    fn event_json_is_key_ordered_and_stable() {
        let e = TraceEvent::new(12.5, Subsystem::Rost, "switch")
            .u64("id", 7)
            .f64("btp", 0.25)
            .bool("ok", true)
            .str("algo", "rost");
        assert_eq!(
            e.to_json(),
            "{\"t\":12.5,\"sub\":\"rost\",\"lvl\":\"info\",\"kind\":\"switch\",\
             \"fields\":{\"algo\":\"rost\",\"btp\":0.25,\"id\":7,\"ok\":true}}"
        );
    }

    #[test]
    fn null_sink_reports_disabled() {
        let tracer = Tracer::to_sink(Box::new(NullSink));
        assert!(!tracer.enabled(Subsystem::Sim, Level::Warn));
    }

    #[test]
    fn level_filter_drops_below_min() {
        let (sink, handle) = RingSink::new(8);
        let mut tracer = Tracer::to_sink(Box::new(sink)).with_min_level(Level::Info);
        tracer.emit(ev(1.0, "debug-noise").level(Level::Debug));
        tracer.emit(ev(2.0, "keep"));
        assert_eq!(tracer.emitted(), 1);
        assert_eq!(handle.events()[0].kind, "keep");
    }

    #[test]
    fn subsystem_mask_filters() {
        let (sink, handle) = RingSink::new(8);
        let mut tracer =
            Tracer::to_sink(Box::new(sink)).with_subsystems(&[Subsystem::Cer, Subsystem::Rost]);
        tracer.emit(TraceEvent::new(1.0, Subsystem::Churn, "drop-me"));
        tracer.emit(TraceEvent::new(2.0, Subsystem::Cer, "keep-me"));
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.events()[0].subsystem, Subsystem::Cer);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let (sink, handle) = RingSink::new(3);
        let mut tracer = Tracer::to_sink(Box::new(sink));
        for i in 0..10u64 {
            tracer.emit(ev(i as f64, "e").u64("i", i));
        }
        let kept: Vec<u64> = handle
            .events()
            .iter()
            .map(|e| match e.fields["i"] {
                FieldValue::U64(v) => v,
                ref other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuffer::new();
        let mut tracer = Tracer::to_sink(Box::new(JsonlSink::new(buf.clone())));
        tracer.emit(ev(1.0, "a"));
        tracer.emit(ev(2.0, "b").u64("n", 1));
        tracer.finish();
        let text = String::from_utf8(buf.contents()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":1,"));
        assert!(lines[1].contains("\"n\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        tracer.emit(ev(0.0, "x"));
        assert_eq!(tracer.emitted(), 0);
        assert!(!tracer.enabled(Subsystem::Sim, Level::Warn));
    }
}
