//! Per-layer roll-up of a `.profile.json` span profile.
//!
//! Spans are named `"<layer>.<operation>"`; a span's layer is the prefix
//! of its leaf name, wherever it sits in the tree. Because every span's
//! self time is its total minus its direct children's totals, the self
//! times of all spans add up to the root spans' totals, and the run's wall
//! time outside every root span is the unattributed rest. So the layer
//! shares plus the unattributed share always sum to one.

use rom_bench::Json;

/// The layers whose spans the profile carries, in report order.
pub const LAYERS: [&str; 5] = ["sim", "overlay", "rost", "cer", "engine"];

/// One node of the span tree, as the profile sidecar records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Slash-joined ancestry, e.g. `"engine.arrival/overlay.attach"`.
    pub path: String,
    /// Completed invocations.
    pub count: u64,
    /// Total wall nanoseconds.
    pub total_ns: u64,
    /// Total minus the direct children's totals.
    pub self_ns: u64,
}

impl SpanRow {
    /// The leaf span name (the last path segment).
    #[must_use]
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// True for a span with no parent span.
    #[must_use]
    pub fn is_root(&self) -> bool {
        !self.path.contains('/')
    }

    /// The layer a span belongs to: its leaf name's prefix.
    #[must_use]
    pub fn layer(&self) -> &str {
        let name = self.name();
        name.split('.').next().unwrap_or(name)
    }
}

/// Sums of one span name over every path it appears under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Invocations.
    pub count: u64,
    /// Total wall nanoseconds.
    pub total_ns: u64,
    /// Self nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean total nanoseconds per invocation (0 for an absent span).
    #[must_use]
    pub fn ns_per_op(self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }

    /// Mean self nanoseconds per invocation (0 for an absent span).
    #[must_use]
    pub fn self_ns_per_op(self) -> f64 {
        ratio(self.self_ns as f64, self.count as f64)
    }
}

/// A parsed span profile of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Wall time of the whole profiled run (setup and run), nanoseconds.
    pub wall_ns: u64,
    /// Every span-tree node.
    pub spans: Vec<SpanRow>,
}

/// Self-time shares of one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// `(layer, self ns ÷ wall ns)` for each of [`LAYERS`].
    pub layers: Vec<(&'static str, f64)>,
    /// Wall time outside every root span, plus the self time of spans
    /// outside [`LAYERS`], as a share of the wall time.
    pub unattributed: f64,
}

impl Profile {
    /// Parses the JSON body `ProfReport::to_json` writes.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(json: &str) -> Result<Profile, String> {
        let doc = Json::parse(json).map_err(|e| format!("profile JSON: {e:?}"))?;
        let wall_ns = doc
            .u64_field("run_wall_ns")
            .ok_or("profile has no run_wall_ns")?;
        let rows = doc
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("profile has no spans array")?;
        let mut spans = Vec::with_capacity(rows.len());
        for row in rows {
            let field = |key: &str| row.u64_field(key).ok_or(format!("span without {key}"));
            spans.push(SpanRow {
                path: row
                    .str_field("path")
                    .ok_or("span without path")?
                    .to_string(),
                count: field("count")?,
                total_ns: field("total_ns")?,
                self_ns: field("self_ns")?,
            });
        }
        Ok(Profile { wall_ns, spans })
    }

    /// Totals of the span called `name`, summed over all its paths.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans
            .iter()
            .filter(|s| s.name() == name)
            .fold(SpanTotals::default(), |acc, s| SpanTotals {
                count: acc.count + s.count,
                total_ns: acc.total_ns + s.total_ns,
                self_ns: acc.self_ns + s.self_ns,
            })
    }

    /// Self nanoseconds of every span in `layer`.
    #[must_use]
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| s.self_ns)
            .sum()
    }

    /// The layer shares and the unattributed share of the wall time.
    #[must_use]
    pub fn rollup(&self) -> Rollup {
        let wall = self.wall_ns as f64;
        let layers: Vec<(&'static str, f64)> = LAYERS
            .iter()
            .map(|&layer| (layer, ratio(self.layer_self_ns(layer) as f64, wall)))
            .collect();
        let outside_roots = self.wall_ns.saturating_sub(
            self.spans
                .iter()
                .filter(|s| s.is_root())
                .map(|s| s.total_ns)
                .sum(),
        );
        let other_layers: u64 = self
            .spans
            .iter()
            .filter(|s| !LAYERS.contains(&s.layer()))
            .map(|s| s.self_ns)
            .sum();
        Rollup {
            layers,
            unattributed: ratio((outside_roots + other_layers) as f64, wall),
        }
    }
}

impl Rollup {
    /// The share of `layer` (0 for a name outside [`LAYERS`]).
    #[must_use]
    pub fn share(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, s)| s)
    }
}

/// `num ÷ den`, or 0 when `den` is not positive.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
