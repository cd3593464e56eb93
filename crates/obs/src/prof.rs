//! The hierarchical span profiler.
//!
//! [`Prof`] is a cloneable handle to a shared span tree. Instrumented
//! code opens a scope timer with [`Prof::span`]; nesting is tracked by a
//! span stack, so the same `name` under different parents aggregates into
//! different tree nodes. Each node accumulates an op count, total wall
//! time, and a log₂-bucketed latency histogram; *self* time (total minus
//! children) is derived at report time.
//!
//! ## Determinism contract
//!
//! Wall-clock readings exist **only** inside this module and only leave
//! it through [`ProfReport::to_json`], which the bench harness writes to
//! a `.profile.json` sidecar — never to stdout, traces, manifests or the
//! metrics sidecar. The span *structure* (paths) and the per-span *op
//! counts* are pure functions of the simulated run and therefore
//! seed-deterministic; every nanosecond field is explicitly not.
//!
//! A disabled handle (the default) costs one branch per span and never
//! allocates or reads the clock — mirroring the disabled trace path.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
// rom-lint: allow(wall-clock-discipline) -- the profiler is the one sanctioned wall-clock reader; its numbers only ever reach the .profile.json sidecar
use std::time::Instant;

use crate::json;

/// Number of log₂ latency buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket open-ended.
const PROF_HIST_BUCKETS: usize = 32;

/// One aggregated node of the span tree.
#[derive(Debug)]
struct SpanNode {
    /// Static span name as given at the call site, e.g. `"overlay.attach"`.
    name: &'static str,
    /// Parent node index, or `None` for a root span.
    parent: Option<u32>,
    /// Child node indices in first-seen order.
    children: Vec<u32>,
    /// Completed invocations.
    count: u64,
    /// Total wall time across invocations, nanoseconds.
    total_ns: u64,
    /// Log₂-bucketed per-invocation latency histogram.
    hist: [u64; PROF_HIST_BUCKETS],
}

/// The shared profiler state behind a [`Prof`] handle.
#[derive(Debug, Default)]
struct ProfCore {
    nodes: Vec<SpanNode>,
    /// Interns `(parent index + 1, name)` → node index (0 parent = root).
    index: BTreeMap<(u32, &'static str), u32>,
    /// Indices of the currently open spans, outermost first.
    stack: Vec<u32>,
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ProfCore {
    /// Resolves (interning if new) the node for `name` under the current
    /// stack top and pushes it; returns its index.
    fn enter(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied();
        let key = (parent.map_or(0, |p| p + 1), name);
        let ix = match self.index.get(&key) {
            Some(&ix) => ix,
            None => {
                let ix = u32::try_from(self.nodes.len()).unwrap_or(u32::MAX);
                self.nodes.push(SpanNode {
                    name,
                    parent,
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                    hist: [0; PROF_HIST_BUCKETS],
                });
                if let Some(p) = parent {
                    self.nodes[p as usize].children.push(ix);
                }
                self.index.insert(key, ix);
                ix
            }
        };
        self.stack.push(ix);
        ix
    }

    /// Pops the span `ix` and folds `elapsed_ns` into its node.
    fn exit(&mut self, ix: u32, elapsed_ns: u64) {
        debug_assert_eq!(self.stack.last().copied(), Some(ix), "span stack discipline");
        self.stack.pop();
        let node = &mut self.nodes[ix as usize];
        node.count += 1;
        node.total_ns += elapsed_ns;
        let bucket = (63 - u64::leading_zeros(elapsed_ns.max(1))) as usize;
        node.hist[bucket.min(PROF_HIST_BUCKETS - 1)] += 1;
    }
}

/// A cloneable handle to a shared span-profiler core.
///
/// Clones share the same core, so the overlay tree, the engine and the
/// protocol layers can all record into one span tree. The default handle
/// is disabled: [`Prof::span`] is a single branch, no allocation, no
/// clock read.
#[derive(Debug, Clone, Default)]
pub struct Prof {
    core: Option<Arc<Mutex<ProfCore>>>,
}

impl Prof {
    /// An inert handle: every span is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Prof::default()
    }

    /// A recording handle with a fresh, empty span tree.
    #[must_use]
    pub fn enabled() -> Self {
        Prof {
            core: Some(Arc::new(Mutex::new(ProfCore::default()))),
        }
    }

    /// True if spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a scope timer named `name` (by convention
    /// `"subsystem.operation"`). The span closes — and its duration is
    /// recorded — when the returned guard drops. Nesting follows the
    /// guard scopes.
    #[inline]
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.core {
            None => SpanGuard { active: None },
            Some(core) => {
                let ix = lock_unpoisoned(core).enter(name);
                SpanGuard {
                    active: Some(ActiveSpan {
                        core: Arc::clone(core),
                        ix,
                        // rom-lint: allow(wall-clock-discipline) -- span timing; reaches only the .profile.json sidecar
                        start: Instant::now(),
                    }),
                }
            }
        }
    }

    /// A snapshot of the aggregated span tree, or `None` when disabled.
    #[must_use]
    pub fn report(&self) -> Option<ProfReport> {
        let core = self.core.as_ref()?;
        let core = lock_unpoisoned(core);
        let mut spans = Vec::with_capacity(core.nodes.len());
        for (ix, node) in core.nodes.iter().enumerate() {
            let mut path = String::new();
            build_path(&core, ix as u32, &mut path);
            let child_ns: u64 = node
                .children
                .iter()
                .map(|&c| core.nodes[c as usize].total_ns)
                .sum();
            let hist = node
                .hist
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(b, &c)| (b as u32, c))
                .collect();
            spans.push(SpanStat {
                path,
                name: node.name,
                count: node.count,
                total_ns: node.total_ns,
                self_ns: node.total_ns.saturating_sub(child_ns),
                hist,
            });
        }
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        Some(ProfReport { spans })
    }
}

fn build_path(core: &ProfCore, ix: u32, out: &mut String) {
    if let Some(parent) = core.nodes[ix as usize].parent {
        build_path(core, parent, out);
        out.push('/');
    }
    out.push_str(core.nodes[ix as usize].name);
}

#[derive(Debug)]
struct ActiveSpan {
    core: Arc<Mutex<ProfCore>>,
    ix: u32,
    // rom-lint: allow(wall-clock-discipline) -- span start stamp; reaches only the .profile.json sidecar
    start: Instant,
}

/// RAII guard returned by [`Prof::span`]; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let elapsed = span.start.elapsed();
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            lock_unpoisoned(&span.core).exit(span.ix, ns);
        }
    }
}

/// Aggregated statistics of one span-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Slash-joined ancestry, e.g. `"engine.arrival/overlay.find_eviction"`.
    pub path: String,
    /// The leaf name alone.
    pub name: &'static str,
    /// Completed invocations — seed-deterministic.
    pub count: u64,
    /// Total wall nanoseconds — **not** deterministic.
    pub total_ns: u64,
    /// Total minus direct children's totals — **not** deterministic.
    pub self_ns: u64,
    /// Non-empty log₂ buckets as `(bucket, count)`; bucket `b` holds
    /// durations in `[2^b, 2^(b+1))` ns — counts are wall-clock placed,
    /// so **not** deterministic.
    pub hist: Vec<(u32, u64)>,
}

/// A point-in-time snapshot of the whole span tree, path-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfReport {
    /// Every recorded span, sorted by `path`.
    pub spans: Vec<SpanStat>,
}

impl ProfReport {
    /// Serializes the report (plus run provenance) as the
    /// `.profile.json` sidecar body. `run_wall_ns` is the caller-measured
    /// wall time of the whole run; together with `events_processed` it
    /// lets `rom-prof diff` compare the throughput of two profiles.
    #[must_use]
    pub fn to_json(&self, name: &str, seed: u64, events_processed: u64, run_wall_ns: u64) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"kind\":\"rom-profile\",\"name\":");
        json::push_str_literal(&mut out, name);
        out.push_str(",\"seed\":");
        json::push_u64(&mut out, seed);
        out.push_str(",\"events_processed\":");
        json::push_u64(&mut out, events_processed);
        out.push_str(",\"run_wall_ns\":");
        json::push_u64(&mut out, run_wall_ns);
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"path\":");
            json::push_str_literal(&mut out, &s.path);
            out.push_str(",\"count\":");
            json::push_u64(&mut out, s.count);
            out.push_str(",\"total_ns\":");
            json::push_u64(&mut out, s.total_ns);
            out.push_str(",\"self_ns\":");
            json::push_u64(&mut out, s.self_ns);
            out.push_str(",\"hist_ns_pow2\":[");
            for (j, &(b, c)) in s.hist.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                json::push_u64(&mut out, u64::from(b));
                out.push(',');
                json::push_u64(&mut out, c);
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let prof = Prof::disabled();
        assert!(!prof.is_enabled());
        {
            let _g = prof.span("a");
            let _h = prof.span("b");
        }
        assert!(prof.report().is_none());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let prof = Prof::enabled();
        for _ in 0..3 {
            let _outer = prof.span("outer");
            for _ in 0..2 {
                let _inner = prof.span("inner");
            }
        }
        {
            // A root-level span with a name already used nested.
            let _solo = prof.span("inner");
        }
        let report = prof.report().expect("enabled");
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["inner", "outer", "outer/inner"]);
        let by_path = |p: &str| {
            report
                .spans
                .iter()
                .find(|s| s.path == p)
                .expect("span present")
        };
        assert_eq!(by_path("outer").count, 3);
        assert_eq!(by_path("outer/inner").count, 6);
        assert_eq!(by_path("inner").count, 1);
        // Self time never exceeds total, and hist counts sum to count.
        for s in &report.spans {
            assert!(s.self_ns <= s.total_ns, "{}", s.path);
            let hist_total: u64 = s.hist.iter().map(|&(_, c)| c).sum();
            assert_eq!(hist_total, s.count, "{}", s.path);
        }
    }

    #[test]
    fn clones_share_one_core() {
        let prof = Prof::enabled();
        let other = prof.clone();
        {
            let _g = prof.span("via-a");
        }
        {
            let _g = other.span("via-b");
        }
        let report = prof.report().expect("enabled");
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report, other.report().expect("enabled"));
    }

    #[test]
    fn report_json_shape() {
        let prof = Prof::enabled();
        {
            let _g = prof.span("x.y");
        }
        let js = prof
            .report()
            .expect("enabled")
            .to_json("demo", 7, 123, 456);
        assert!(js.starts_with("{\"kind\":\"rom-profile\",\"name\":\"demo\",\"seed\":7,"));
        assert!(js.contains("\"events_processed\":123"));
        assert!(js.contains("\"run_wall_ns\":456"));
        assert!(js.contains("\"path\":\"x.y\""));
        assert!(js.contains("\"count\":1"));
    }
}
