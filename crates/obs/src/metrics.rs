//! The metrics registry: counters, gauges with high-water marks, and
//! fixed-bucket histograms, keyed by static names in `BTreeMap`s so
//! snapshots serialize in a deterministic order.

use std::collections::BTreeMap;

use crate::json;

/// Default histogram bucket upper bounds (seconds-ish scale), used when a
/// histogram is observed before being registered explicitly.
const DEFAULT_BUCKETS: [f64; 10] = [
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
];

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Gauge {
    value: f64,
    high_water: f64,
}

impl Gauge {
    fn set(&mut self, value: f64) {
        self.value = value;
        if value > self.high_water {
            self.high_water = value;
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    /// Ascending upper bounds; `counts` has one extra overflow bucket.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }
}

/// Point-in-time copy of a gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSnapshot {
    /// Last value set.
    pub value: f64,
    /// Maximum value ever set.
    pub high_water: f64,
}

/// Point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

/// Counters, gauges and histograms for one run.
///
/// Names are `&'static str` so recording never allocates; all maps are
/// `BTreeMap` so iteration (and therefore serialization) order is the
/// lexicographic key order.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Adds `n` to the counter `name` (auto-registered at zero).
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets the gauge `name` to `value`, updating its high-water mark.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.entry(name).or_default().set(value);
    }

    /// Registers the histogram `name` with explicit bucket `bounds`
    /// (ascending upper bounds). No-op if already registered.
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records `value` into the histogram `name` (auto-registered with
    /// [`DEFAULT_BUCKETS`] on first use).
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(&DEFAULT_BUCKETS))
            .observe(value);
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| (name.to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, g)| {
                    (
                        name.to_string(),
                        GaugeSnapshot {
                            value: g.value,
                            high_water: g.high_water,
                        },
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.to_string(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            total: h.total,
                            sum: h.sum,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a run's metrics, comparable across runs and
/// serializable to deterministic JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter `name`, or 0 if never incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name`, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if ever observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serializes the snapshot as one deterministic JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            json::push_str_literal(&mut out, name);
            out.push(':');
            json::push_u64(&mut out, *v);
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for (name, g) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            json::push_str_literal(&mut out, name);
            out.push_str(":{\"value\":");
            json::push_f64(&mut out, g.value);
            out.push_str(",\"high_water\":");
            json::push_f64(&mut out, g.high_water);
            out.push('}');
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            json::push_str_literal(&mut out, name);
            out.push_str(":{\"bounds\":[");
            for (i, b) in h.bounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_f64(&mut out, *b);
            }
            out.push_str("],\"counts\":[");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_u64(&mut out, *c);
            }
            out.push_str("],\"total\":");
            json::push_u64(&mut out, h.total);
            out.push_str(",\"sum\":");
            json::push_f64(&mut out, h.sum);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::default();
        m.count("a", 1);
        m.count("a", 4);
        m.count("b", 2);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut m = MetricsRegistry::default();
        m.gauge("depth", 3.0);
        m.gauge("depth", 9.0);
        m.gauge("depth", 2.0);
        let g = m.snapshot().gauge("depth").expect("set");
        assert_eq!(g.value.to_bits(), 2.0_f64.to_bits());
        assert_eq!(g.high_water.to_bits(), 9.0_f64.to_bits());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = MetricsRegistry::default();
        m.register_histogram("lat", &[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 99.0] {
            m.observe("lat", v);
        }
        let snap = m.snapshot();
        let h = snap.histogram("lat").expect("registered");
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.total, 4);
        assert_eq!(h.sum.to_bits(), 105.4_f64.to_bits());
    }

    #[test]
    fn observe_auto_registers_with_default_buckets() {
        let mut m = MetricsRegistry::default();
        m.observe("auto", 0.02);
        let snap = m.snapshot();
        let h = snap.histogram("auto").expect("auto-registered");
        assert_eq!(h.bounds.len(), DEFAULT_BUCKETS.len());
        assert_eq!(h.counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_ordered() {
        let mut m = MetricsRegistry::default();
        m.count("z", 1);
        m.count("a", 2);
        m.gauge("g", 1.5);
        m.register_histogram("h", &[1.0]);
        m.observe("h", 0.5);
        let a = m.snapshot();
        let b = m.snapshot();
        assert_eq!(a, b);
        let js = a.to_json();
        assert_eq!(js, b.to_json());
        // "a" serializes before "z" regardless of insertion order.
        let a_pos = js.find("\"a\"").expect("a present");
        let z_pos = js.find("\"z\"").expect("z present");
        assert!(a_pos < z_pos);
        assert!(js.contains("\"high_water\":1.5"));
        assert!(js.contains("\"counts\":[1,0]"));
    }
}
