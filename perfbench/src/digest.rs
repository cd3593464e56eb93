//! Output check: a 64-bit digest of every deterministic field of a run's
//! report. Two runs of one configuration must digest alike — across
//! repeats and with the span profiler on or off.

use rom_engine::{ChurnReport, StreamingReport};
use rom_obs::fnv1a;
use rom_stats::Summary;
use std::fmt::Write as _;

/// Digest of a churn run's report.
#[must_use]
pub fn churn_digest(report: &ChurnReport) -> u64 {
    let mut text = String::with_capacity(4096);
    push_churn(&mut text, report);
    fnv1a(text.as_bytes())
}

/// Digest of a streaming run's report, its churn substrate included.
#[must_use]
pub fn streaming_digest(report: &StreamingReport) -> u64 {
    let mut text = String::with_capacity(4096);
    push_summary(&mut text, "starving", &report.starving_ratio_percent);
    let _ = write!(
        text,
        "outages={};on_time={};starved={};",
        report.outages, report.packets_repaired_on_time, report.packets_starved
    );
    push_churn(&mut text, &report.churn);
    fnv1a(text.as_bytes())
}

fn push_churn(text: &mut String, r: &ChurnReport) {
    let _ = write!(
        text,
        "algorithm={:?};target={};outcome={:?};events={};queue_hw={};queue_bytes_hw={};",
        r.algorithm,
        r.target_size,
        r.outcome,
        r.events_processed,
        r.queue_high_water,
        r.queue_bytes_high_water
    );
    let _ = write!(
        text,
        "disruption_events={};switches={};evictions={};rejections={};measure={:x};lifetime={:x};",
        r.disruption_events,
        r.switches,
        r.evictions,
        r.rejections,
        r.measure_secs.to_bits(),
        r.mean_lifetime_secs.to_bits()
    );
    push_summary(text, "population", &r.population);
    push_summary(text, "disruptions", &r.disruptions_per_lifetime);
    push_summary(text, "reconnections", &r.reconnections_per_lifetime);
    push_summary(text, "delay", &r.service_delay_ms);
    push_summary(text, "stretch", &r.stretch);
    push_summary(text, "depth", &r.depth);
    push_floats(text, "counts", r.disruption_counts.iter().copied());
    if let Some(obs) = &r.observer {
        push_floats(
            text,
            "observer_disruptions",
            obs.disruption_minutes.iter().copied(),
        );
        push_floats(
            text,
            "observer_delay",
            obs.delay_samples.iter().flat_map(|&(t, d)| [t, d]),
        );
    }
}

fn push_summary(text: &mut String, name: &str, s: &Summary) {
    let _ = write!(
        text,
        "{name}=({},{:x},{:x},{:x},{:x});",
        s.count(),
        s.mean().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
        s.population_variance().to_bits()
    );
}

fn push_floats(text: &mut String, name: &str, values: impl Iterator<Item = f64>) {
    let _ = write!(text, "{name}=[");
    for v in values {
        let _ = write!(text, "{:x},", v.to_bits());
    }
    text.push_str("];");
}
