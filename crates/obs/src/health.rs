//! Per-member protocol health timelines, derived live from trace events.
//!
//! An enabled [`Obs`](crate::Obs) folds every event it records into a
//! [`HealthAccumulator`], which maintains one [`MemberHealth`] record per
//! member id it sees. After the run the accumulator serializes the
//! records — id-ordered, sim-time only — as the deterministic
//! `.health.jsonl` sidecar.
//!
//! The records capture the paper's per-member longitudinal story
//! (Figs. 4–14): time-to-first-packet, cumulative starving time, recovery
//! latency per failure episode, parent-switch count and control-message
//! counts. Members seeded into the equilibrium population emit no join
//! event, so they enter the timeline at their first traced protocol
//! action (`joined_secs` stays unset for them).

use std::collections::BTreeMap;

use crate::json;
use crate::trace::{FieldValue, Subsystem, TraceEvent};

/// One member's protocol health timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MemberHealth {
    /// Sim time of the member's first traced appearance.
    pub first_seen_secs: f64,
    /// Sim time of the first successful join, if traced.
    pub joined_secs: Option<f64>,
    /// Sim time of the (last) departure, if traced.
    pub departed_secs: Option<f64>,
    /// Cumulative starving time, seconds: the packets that missed their
    /// deadline after an outage's repair or an access-link loss episode,
    /// at the stream rate.
    pub starving_secs: f64,
    /// Closed failure-recovery episodes (one per `repair` event).
    pub recovery_episodes: u64,
    /// Sum of per-episode recovery latencies, seconds.
    pub recovery_latency_sum_secs: f64,
    /// Largest single recovery latency, seconds.
    pub recovery_latency_max_secs: f64,
    /// Parent changes: rejoins after disruption plus completed switches.
    pub parent_switches: u64,
    /// Successful initial joins.
    pub joins: u64,
    /// Rejoins after disruption.
    pub rejoins: u64,
    /// Rejected join attempts (no capacity in view).
    pub rejections: u64,
    /// Completed ROST switches initiated by this member.
    pub switches: u64,
    /// Switch attempts that found the lock set busy.
    pub switch_busy: u64,
}

impl MemberHealth {
    /// Time from first appearance to first successful join — the
    /// time-to-first-packet proxy (delivery starts at attach).
    #[must_use]
    pub fn ttfp_secs(&self) -> Option<f64> {
        self.joined_secs.map(|j| j - self.first_seen_secs)
    }

    /// Total control messages attributed to this member.
    #[must_use]
    pub fn control_msgs(&self) -> u64 {
        self.joins + self.rejoins + self.rejections + self.switches + self.switch_busy
    }

    /// Serializes the record (with its `id`) as one JSONL object.
    fn write_json(&self, id: u64, out: &mut String) {
        out.push_str("{\"id\":");
        json::push_u64(out, id);
        out.push_str(",\"first_seen_secs\":");
        json::push_f64(out, self.first_seen_secs);
        out.push_str(",\"joined_secs\":");
        push_opt_f64(out, self.joined_secs);
        out.push_str(",\"ttfp_secs\":");
        push_opt_f64(out, self.ttfp_secs());
        out.push_str(",\"departed_secs\":");
        push_opt_f64(out, self.departed_secs);
        out.push_str(",\"starving_secs\":");
        json::push_f64(out, self.starving_secs);
        out.push_str(",\"recovery\":{\"episodes\":");
        json::push_u64(out, self.recovery_episodes);
        out.push_str(",\"latency_sum_secs\":");
        json::push_f64(out, self.recovery_latency_sum_secs);
        out.push_str(",\"latency_max_secs\":");
        json::push_f64(out, self.recovery_latency_max_secs);
        out.push_str("},\"parent_switches\":");
        json::push_u64(out, self.parent_switches);
        out.push_str(",\"control\":{\"joins\":");
        json::push_u64(out, self.joins);
        out.push_str(",\"rejoins\":");
        json::push_u64(out, self.rejoins);
        out.push_str(",\"rejections\":");
        json::push_u64(out, self.rejections);
        out.push_str(",\"switches\":");
        json::push_u64(out, self.switches);
        out.push_str(",\"switch_busy\":");
        json::push_u64(out, self.switch_busy);
        out.push_str(",\"total\":");
        json::push_u64(out, self.control_msgs());
        out.push_str("}}");
    }
}

fn push_opt_f64(out: &mut String, value: Option<f64>) {
    match value {
        Some(v) => json::push_f64(out, v),
        None => out.push_str("null"),
    }
}

/// Folds trace events into per-member [`MemberHealth`] records.
#[derive(Debug, Default)]
pub(crate) struct HealthAccumulator {
    members: BTreeMap<u64, MemberHealth>,
}

fn u64_field(event: &TraceEvent, key: &str) -> Option<u64> {
    match event.fields.get(key) {
        Some(&FieldValue::U64(v)) => Some(v),
        _ => None,
    }
}

fn f64_field(event: &TraceEvent, key: &str) -> Option<f64> {
    match event.fields.get(key) {
        Some(&FieldValue::F64(v)) => Some(v),
        _ => None,
    }
}

impl HealthAccumulator {
    fn member(&mut self, id: u64, now: f64) -> &mut MemberHealth {
        self.members.entry(id).or_insert_with(|| MemberHealth {
            first_seen_secs: now,
            ..MemberHealth::default()
        })
    }

    /// Folds one trace event into the timeline it concerns (if any).
    pub fn observe(&mut self, event: &TraceEvent) {
        let now = event.time;
        match (event.subsystem, event.kind) {
            (Subsystem::Churn, "join") => {
                if let Some(id) = u64_field(event, "id") {
                    let m = self.member(id, now);
                    if m.joined_secs.is_none() {
                        m.joined_secs = Some(now);
                    }
                    m.joins += 1;
                }
            }
            (Subsystem::Churn, "rejoin") => {
                if let Some(id) = u64_field(event, "id") {
                    let m = self.member(id, now);
                    m.rejoins += 1;
                    m.parent_switches += 1;
                }
            }
            (Subsystem::Churn, "join_rejected") => {
                if let Some(id) = u64_field(event, "id") {
                    self.member(id, now).rejections += 1;
                }
            }
            (Subsystem::Churn, "departure") => {
                if let Some(id) = u64_field(event, "id") {
                    self.member(id, now).departed_secs = Some(now);
                }
            }
            (Subsystem::Rost, "switch") => {
                if let Some(id) = u64_field(event, "id") {
                    let m = self.member(id, now);
                    m.switches += 1;
                    m.parent_switches += 1;
                }
            }
            (Subsystem::Rost, "switch_busy") => {
                if let Some(id) = u64_field(event, "id") {
                    self.member(id, now).switch_busy += 1;
                }
            }
            (Subsystem::Cer, "repair") => {
                if let Some(id) = u64_field(event, "member") {
                    let latency = f64_field(event, "latency_secs").unwrap_or(0.0);
                    let starved = f64_field(event, "starved_secs").unwrap_or(0.0);
                    let m = self.member(id, now);
                    m.recovery_episodes += 1;
                    m.recovery_latency_sum_secs += latency;
                    if latency > m.recovery_latency_max_secs {
                        m.recovery_latency_max_secs = latency;
                    }
                    m.starving_secs += starved;
                }
            }
            (Subsystem::Chaos, "link_episode_end") => {
                if let Some(id) = u64_field(event, "member") {
                    let starved = f64_field(event, "starved_secs").unwrap_or(0.0);
                    self.member(id, now).starving_secs += starved;
                }
            }
            _ => {}
        }
    }

    /// Serializes every record as JSONL, ascending by member id — the
    /// `.health.jsonl` sidecar body. Deterministic: every value derives
    /// from sim-time trace events.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.members.len() * 128);
        for (&id, health) in &self.members {
            health.write_json(id, &mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, sub: Subsystem, kind: &'static str) -> TraceEvent {
        TraceEvent::new(t, sub, kind)
    }

    #[test]
    fn join_after_rejection_yields_ttfp() {
        let mut acc = HealthAccumulator::default();
        acc.observe(&ev(1.0, Subsystem::Churn, "join_rejected").u64("id", 7));
        acc.observe(&ev(4.5, Subsystem::Churn, "join").u64("id", 7).u64("parent", 1));
        let m = &acc.members[&7];
        assert_eq!(m.rejections, 1);
        assert_eq!(m.joins, 1);
        assert_eq!(m.ttfp_secs().map(f64::to_bits), Some(3.5_f64.to_bits()));
    }

    #[test]
    fn switches_and_rejoins_count_as_parent_switches() {
        let mut acc = HealthAccumulator::default();
        acc.observe(&ev(1.0, Subsystem::Churn, "join").u64("id", 3));
        acc.observe(&ev(2.0, Subsystem::Rost, "switch").u64("id", 3));
        acc.observe(&ev(3.0, Subsystem::Rost, "switch_busy").u64("id", 3));
        acc.observe(&ev(4.0, Subsystem::Churn, "rejoin").u64("id", 3));
        let m = &acc.members[&3];
        assert_eq!(m.parent_switches, 2);
        assert_eq!(m.control_msgs(), 4);
    }

    #[test]
    fn repairs_fold_latency_and_starving() {
        let mut acc = HealthAccumulator::default();
        acc.observe(
            &ev(20.0, Subsystem::Cer, "repair")
                .u64("member", 9)
                .f64("latency_secs", 15.0)
                .f64("starved_secs", 2.5),
        );
        acc.observe(
            &ev(60.0, Subsystem::Cer, "repair")
                .u64("member", 9)
                .f64("latency_secs", 5.0)
                .f64("starved_secs", 0.5),
        );
        let m = &acc.members[&9];
        assert_eq!(m.recovery_episodes, 2);
        assert_eq!(m.recovery_latency_max_secs.to_bits(), 15.0_f64.to_bits());
        assert_eq!(m.recovery_latency_sum_secs.to_bits(), 20.0_f64.to_bits());
        assert_eq!(m.starving_secs.to_bits(), 3.0_f64.to_bits());
    }

    #[test]
    fn link_episode_starving_adds_to_repair_starving() {
        let mut acc = HealthAccumulator::default();
        acc.observe(
            &ev(20.0, Subsystem::Cer, "repair")
                .u64("member", 4)
                .f64("latency_secs", 15.0)
                .f64("starved_secs", 2.5),
        );
        acc.observe(
            &ev(80.0, Subsystem::Chaos, "link_episode_end")
                .u64("member", 4)
                .u64("frames", 600)
                .u64("lost", 40)
                .u64("repaired", 25)
                .u64("starved", 15)
                .f64("starved_secs", 1.5),
        );
        let m = &acc.members[&4];
        assert_eq!(m.starving_secs.to_bits(), 4.0_f64.to_bits());
        assert_eq!(
            m.recovery_episodes, 1,
            "a link episode is not an outage repair"
        );
    }

    #[test]
    fn jsonl_is_id_ordered_and_stable() {
        let mut acc = HealthAccumulator::default();
        acc.observe(&ev(1.0, Subsystem::Churn, "join").u64("id", 42));
        acc.observe(&ev(2.0, Subsystem::Churn, "join").u64("id", 7));
        let text = acc.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":7,"));
        assert!(lines[1].starts_with("{\"id\":42,"));
        assert_eq!(text, acc.to_jsonl());
    }
}
