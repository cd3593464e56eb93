//! The structured trace layer: typed sim-time events and their one-line
//! JSON form.

use std::collections::BTreeMap;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
