//! The benchmark's output: the one-line result the last stdout line
//! carries, and the full record with provenance written to `--out`.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            string(m.name),
            number(m.value),
            string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Where and how a record was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Commit the checkout was at, or `"unknown"` outside a git checkout.
    pub revision: String,
    /// The benchmark's command line.
    pub argv: Vec<String>,
    /// Available cores.
    pub nproc: usize,
    /// ns per iteration of `rom_bench::calibration_spin_ns`'s fixed spin.
    pub calibration_spin_ns: f64,
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
}

/// The full record: provenance, each run's raw numbers, and the result.
#[must_use]
pub fn record_json(prov: &Provenance, runs: &[String], result: &str) -> String {
    let argv: Vec<String> = prov.argv.iter().map(|a| string(a)).collect();
    format!(
        "{{\"kind\":\"rom-perfbench\",\"workload\":{},\"seed\":{},\"revision\":{},\"argv\":[{}],\
         \"nproc\":{},\"calibration_spin_ns\":{},\"runs\":[{}],\"result\":{result}}}\n",
        string(prov.workload),
        prov.seed,
        string(&prov.revision),
        argv.join(","),
        prov.nproc,
        number(prov.calibration_spin_ns),
        runs.join(",")
    )
}

/// The revision in `.git` under the working directory, without looking
/// outside it; `"unknown"` when there is none.
#[must_use]
pub fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON number; non-finite values (never expected) print as 0.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (0 for none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
