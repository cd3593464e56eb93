//! Process-memory introspection for benchmark artifacts.
//!
//! Memory is a first-class benchmark axis at the `--mega` scale: a
//! 1M-member run is useless if it does not fit in RAM. Peak RSS is a
//! wall-clock-adjacent quantity — it depends on the allocator, the
//! platform and every run sharing the process — so, like the span
//! profiler's nanosecond readings, it is quarantined to benchmark
//! records (perfbench's `peak_rss_mb`) and never enters traces, metrics
//! sidecars or manifests
//! (which must stay byte-identical for pinned seeds). The deterministic
//! counterpart, suitable anywhere, is
//! `EventQueue::bytes_high_water` in `rom-sim`.

/// Peak resident-set size of the current process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
///
/// The value is a lifetime high-water mark for the whole process, so in a
/// multi-phase bench the reading after phase N includes every earlier
/// phase; sample per-phase deltas if attribution matters.
///
/// # Examples
///
/// ```
/// // On Linux this reports a non-zero peak; elsewhere it is None.
/// if let Some(peak) = rom_obs::peak_rss_bytes() {
///     assert!(peak > 0);
/// }
/// ```
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reports_plausible_value_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let peak = peak_rss_bytes().expect("procfs present but VmHWM missing");
        // Any live Rust test process has at least a few hundred kB
        // resident and (on test hardware) far less than a terabyte.
        assert!(peak > 100 * 1024, "implausibly small peak RSS: {peak}");
        assert!(peak < 1 << 40, "implausibly large peak RSS: {peak}");
    }

    #[test]
    fn peak_rss_is_monotone() {
        if peak_rss_bytes().is_none() {
            return;
        }
        let before = peak_rss_bytes().expect("checked above");
        // Touch a real allocation; the high-water mark must not decrease.
        let sink: Vec<u64> = (0..100_000).collect();
        let after = peak_rss_bytes().expect("checked above");
        assert!(after >= before, "VmHWM decreased: {before} -> {after}");
        assert!(sink.len() == 100_000);
    }
}
