//! The packet-level streaming simulation behind Figures 12–14.
//!
//! §6: "The data is propagated from the tree root at a constant rate of 10
//! packets per second... each node has a playback buffer size of 5
//! seconds... It is assumed that a member needs 5 seconds to detect a
//! failure of its parent, and another 10 seconds to rejoin the tree...
//! We only consider packet losses incurred by node failures. A node's
//! residual bandwidth is uniformly distributed in 0–9 packets/second, and
//! it only uses the residual bandwidth to help others in error recovery."
//!
//! The streaming layer rides on top of [`ChurnSim`](crate::ChurnSim):
//! departures open per-member *outages*; when a member's subtree
//! reattaches the outage closes and the missing sequence range is repaired
//! from the member's recovery group — a single source at its residual
//! rate (the baseline) or CER's stripes across the group (§4.2). Every
//! packet that misses its playback deadline contributes `1/rate` seconds
//! to the member's *starving time*; the **starving time ratio** is
//! starving time over view time.
//!
//! Between failures, delivery is deterministic (constant rate, fixed
//! path delay far below the buffer), so per-packet events are unnecessary:
//! accounting per outage is exact.

use std::collections::BTreeMap;

use rom_cer::{
    find_mlc_group, random_group, MlcOptions, PartialTree, RecoveryGroup, SeqRangeSet, StreamClock,
    StripePlan,
};
use rom_chaos::{InvariantRegistry, LinkEpisode, Signal};
use rom_net::{DelayOracle, UnderlayId};
use rom_obs::{Obs, Subsystem, TraceEvent};
use rom_overlay::{MulticastTree, NodeId, ViewSampler};
use rom_sim::{RunOutcome, SimRng, SimTime};
use rom_stats::Summary;

use crate::churn::{ChurnReport, ChurnSim};
use crate::config::{GroupSelection, RecoveryStrategy, StreamingConfig, LOSS_DETECTION_SECS};

/// Latency added per recovery-chain hop (request forwarding + NACKs).
const CHAIN_HOP_SECS: f64 = 0.2;

/// Aggregate results of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Per-member starving-time ratio in percent — the Figs. 12–14 metric.
    /// One observation per member whose view overlapped the measurement
    /// window.
    pub starving_ratio_percent: Summary,
    /// Outages processed during the measurement window.
    pub outages: u64,
    /// Packets whose repair arrived by the playback deadline.
    pub packets_repaired_on_time: u64,
    /// Packets that missed their playback deadline (starved packets).
    pub packets_starved: u64,
    /// The underlying tree-level report.
    pub churn: ChurnReport,
}

impl AsRef<ChurnReport> for StreamingReport {
    fn as_ref(&self) -> &ChurnReport {
        &self.churn
    }
}

impl StreamingReport {
    /// How the underlying event loop ended (see [`ChurnReport::outcome`]).
    #[must_use]
    pub fn outcome(&self) -> RunOutcome {
        self.churn.outcome
    }

    /// Total events the underlying simulation loop processed.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.churn.events_processed
    }

    /// Exact peak pending-event count of the underlying scheduler queue
    /// (see [`ChurnReport::queue_high_water`]).
    #[must_use]
    pub fn queue_high_water(&self) -> u64 {
        self.churn.queue_high_water
    }
}

/// When repaired packets become requestable in `serve_repairs`.
enum RepairTiming {
    /// The whole gap becomes repairable at once (an outage closing).
    Batch(SimTime),
    /// Each packet's loss is detected [`LOSS_DETECTION_SECS`] after its
    /// generation (link-level losses under an armed pathology episode).
    PerPacket,
}

/// What the streaming layer's repair hooks read and report to, besides
/// its own state: the tree, the underlay, the live membership (the
/// population recovery-group views are drawn from), the observer and the
/// armed invariants.
pub(crate) struct Ctx<'a> {
    pub(crate) tree: &'a MulticastTree,
    pub(crate) oracle: &'a DelayOracle,
    pub(crate) live: &'a [NodeId],
    pub(crate) obs: &'a mut Obs,
    pub(crate) invariants: Option<&'a mut InvariantRegistry>,
}

/// The link-level losses of an ended pathology episode, held until the
/// member is attached again to choose a recovery group for them.
#[derive(Debug)]
struct LinkLosses {
    /// Data packets that crossed the member's link during the episode.
    frames: u64,
    /// The ones the episode's loss chain dropped.
    lost: Vec<u64>,
}

/// Per-member streaming bookkeeping.
#[derive(Debug, Default)]
struct MemberStream {
    /// When the member's view started (never negative; seeded members
    /// watch from the epoch).
    view_start: f64,
    /// Residual helper bandwidth in packets/second.
    residual_pps: f64,
    /// Open outage start, if the member is currently cut off.
    outage_since: Option<SimTime>,
    /// Packets the member never obtained (can't serve them to others).
    holes: SeqRangeSet,
    /// Packets that missed this member's playback deadline.
    starved_packets: u64,
    /// Losses of an episode that ended while the member was detached.
    link_losses: Option<LinkLosses>,
}

impl MemberStream {
    /// True if this member can supply packet `seq` at time `now`: it
    /// watched the packet go by, its repair cache still holds it, and it
    /// did not miss it.
    fn holds(&self, clock: &StreamClock, cache_secs: f64, seq: u64, now: SimTime) -> bool {
        let gen = clock.generation_time(seq);
        if gen.as_secs() < self.view_start {
            return false; // joined after this packet went by
        }
        if now - gen > cache_secs {
            return false; // evicted from the repair cache
        }
        !self.holes.contains(seq)
    }
}

/// The streaming layer state, driven by hooks from the churn simulator.
#[derive(Debug)]
pub(crate) struct StreamingState {
    clock: StreamClock,
    group_size: usize,
    strategy: RecoveryStrategy,
    selection: GroupSelection,
    repair_cache_secs: f64,
    residual_pps: (f64, f64),
    window_start: SimTime,
    window_end: SimTime,
    rng: SimRng,
    /// Dedicated fork (`"chaos-link"`) feeding uniforms to the armed
    /// pathology loss chains — never touched while no episode is armed,
    /// so pathology-free runs stay bit-identical to the baseline.
    link_rng: SimRng,
    members: BTreeMap<NodeId, MemberStream>,
    /// Armed pathology episodes, keyed by the afflicted member.
    pathology: BTreeMap<NodeId, LinkEpisode>,
    /// Ratios of members that already departed.
    finished_ratios: Vec<f64>,
    outages: u64,
    repaired_on_time: u64,
    starved: u64,
}

impl StreamingState {
    pub(crate) fn new(cfg: &StreamingConfig, rng: SimRng, link_rng: SimRng) -> Self {
        let window_start = SimTime::from_secs(cfg.churn.warmup_secs);
        StreamingState {
            clock: cfg.clock(),
            group_size: cfg.recovery_group_size,
            strategy: cfg.strategy,
            selection: cfg.selection,
            repair_cache_secs: cfg.repair_cache_secs,
            residual_pps: cfg.residual_pps,
            window_start,
            window_end: window_start + cfg.churn.measure_secs,
            rng,
            link_rng,
            members: BTreeMap::new(),
            pathology: BTreeMap::new(),
            finished_ratios: Vec::new(),
            outages: 0,
            repaired_on_time: 0,
            starved: 0,
        }
    }

    /// A member entered the overlay (fresh arrival or equilibrium seed).
    pub(crate) fn on_member_joined(&mut self, id: NodeId, join: SimTime) {
        let residual = self.rng.range_f64(
            self.residual_pps.0,
            self.residual_pps.1.max(self.residual_pps.0 + 1e-9),
        );
        self.members.insert(
            id,
            MemberStream {
                view_start: join.as_secs().max(0.0),
                residual_pps: residual,
                ..MemberStream::default()
            },
        );
    }

    /// A member departed; fold its starving ratio into the results when
    /// its view overlapped the measurement window.
    pub(crate) fn on_member_departed(&mut self, id: NodeId, now: SimTime) {
        self.pathology.remove(&id);
        if let Some(mut stream) = self.members.remove(&id) {
            // Link losses still waiting for a reattachment are never repaired.
            if let Some(losses) = stream.link_losses.take() {
                let starved = losses.lost.len() as u64;
                stream.starved_packets += starved;
                if now >= self.window_start && now <= self.window_end {
                    self.starved += starved;
                }
            }
            if let Some(ratio) = self.ratio_of(&stream, now) {
                self.finished_ratios.push(ratio);
            }
        }
    }

    /// An abrupt departure cut `affected` members off the stream.
    pub(crate) fn on_failure(&mut self, affected: &[NodeId], now: SimTime, obs: &mut Obs) {
        let mut opened = 0u64;
        for &m in affected {
            if let Some(stream) = self.members.get_mut(&m) {
                if stream.outage_since.is_none() {
                    opened += 1;
                }
                stream.outage_since.get_or_insert(now);
            }
        }
        if opened > 0 {
            obs.count("streaming.outages_opened", opened);
            if obs.is_active() {
                obs.emit(
                    TraceEvent::new(now.as_secs(), Subsystem::Streaming, "outage")
                        .u64("members", opened),
                );
            }
        }
    }

    /// The subtree rooted at `orphan` is attached again: close the outage
    /// of every member in it and run recovery for the missed range, then
    /// repair the link losses a member's episode left while it was
    /// detached.
    pub(crate) fn on_restore(&mut self, cx: &mut Ctx<'_>, orphan: NodeId, now: SimTime) {
        let mut subtree = vec![orphan];
        cx.tree.descendants_into(orphan, &mut subtree);
        for member in subtree {
            let Some(stream) = self.members.get_mut(&member) else {
                continue;
            };
            let (outage, losses) = (stream.outage_since.take(), stream.link_losses.take());
            if let Some(t0) = outage {
                self.repair_outage(cx, member, t0, now);
            }
            if let Some(losses) = losses {
                self.repair_link_losses(cx, member, losses, now);
            }
        }
    }

    /// Arms a pathology episode on `member`'s access link. A newer
    /// episode simply replaces an older one (the stale end event is
    /// ignored by [`Self::on_link_episode_end`]'s guard).
    pub(crate) fn on_link_episode_start(
        &mut self,
        member: NodeId,
        episode: LinkEpisode,
        now: SimTime,
        obs: &mut Obs,
    ) {
        if !self.members.contains_key(&member) {
            return;
        }
        if obs.is_active() {
            obs.count("chaos.link_episodes", 1);
            obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Chaos, "link_episode")
                    .u64("member", member.0)
                    .str("kind", episode.profile.kind)
                    .f64("duration_secs", episode.end() - episode.start),
            );
        }
        self.pathology.insert(member, episode);
    }

    /// An armed episode ran its course: classify every data packet that
    /// crossed the member's access link through the episode's loss chain,
    /// repair the lost ones from the member's recovery group (the repair
    /// traffic still experiences the episode's capacity/spike pathology),
    /// then disarm the episode. A detached member has no recovery group
    /// to choose yet: its losses wait, with the episode armed, for
    /// [`Self::on_restore`].
    pub(crate) fn on_link_episode_end(&mut self, cx: &mut Ctx<'_>, member: NodeId, now: SimTime) {
        let losses = {
            let Some(ep) = self.pathology.get_mut(&member) else {
                return; // member departed, or a newer episode already ended
            };
            if ep.end() > now {
                return; // stale end event: a newer episode replaced this one
            }
            // Only packets the member actually streamed cross its link:
            // clamp the episode to the member's view, and stop at an open
            // outage (the outage repair accounts for everything after it).
            let Some(stream) = self.members.get(&member) else {
                self.pathology.remove(&member);
                return;
            };
            if stream.link_losses.is_some() {
                return; // this episode already ended; its losses wait
            }
            let mut start = ep.start;
            if stream.view_start > start.as_secs() {
                start = SimTime::from_secs(stream.view_start);
            }
            let mut end = if ep.end() < now { ep.end() } else { now };
            if let Some(t0) = stream.outage_since {
                if t0 < end {
                    end = t0;
                }
            }
            let s0 = self.clock.seq_at(start);
            let s1 = self.clock.seq_at(end);
            LinkLosses {
                frames: s1.saturating_sub(s0),
                lost: ep.lost_frames(&mut self.link_rng, s0..s1),
            }
        };
        if losses.frames > 0 && cx.obs.is_active() {
            cx.obs.count("chaos.link_frames", losses.frames);
            cx.obs.count("chaos.link_lost", losses.lost.len() as u64);
        }
        if !losses.lost.is_empty() && !cx.tree.is_attached(member) {
            if let Some(stream) = self.members.get_mut(&member) {
                stream.link_losses = Some(losses);
            }
            return;
        }
        self.repair_link_losses(cx, member, losses, now);
    }

    /// Repairs an ended episode's link losses through [`Self::repair`],
    /// each lost packet requestable [`LOSS_DETECTION_SECS`] after its
    /// generation, then disarms the episode.
    fn repair_link_losses(
        &mut self,
        cx: &mut Ctx<'_>,
        member: NodeId,
        losses: LinkLosses,
        now: SimTime,
    ) {
        let LinkLosses { frames, lost } = losses;
        if !lost.is_empty() {
            let _span = cx.tree.prof().span("cer.link_repair");
            let gap = lost.len() as u64;
            let timing = RepairTiming::PerPacket;
            let (_, repaired, starved) =
                self.repair(cx, member, lost.iter().copied(), gap, &timing, now);
            let obs = &mut *cx.obs;
            if obs.is_active() {
                obs.count("cer.link_repairs", 1);
                obs.count("cer.packets_repaired", repaired);
                obs.count("cer.packets_starved", starved);
                obs.emit(
                    TraceEvent::new(now.as_secs(), Subsystem::Chaos, "link_episode_end")
                        .u64("member", member.0)
                        .u64("frames", frames)
                        .u64("lost", lost.len() as u64)
                        .u64("repaired", repaired)
                        .u64("starved", starved)
                        .f64("starved_secs", starved as f64 / self.clock.rate_pps()),
                );
            }
        }
        self.pathology.remove(&member);
    }

    /// Finalizes ratios of members still alive at the end of the run.
    pub(crate) fn into_report(mut self, churn: ChurnReport) -> StreamingReport {
        let end = self.window_end;
        let mut ratios = std::mem::take(&mut self.finished_ratios);
        // BTreeMap iteration is id-ordered, so the floating-point sum (and
        // hence the report) is identical across runs of the same seed.
        for stream in self.members.values() {
            if let Some(ratio) = self.ratio_of(stream, end) {
                ratios.push(ratio);
            }
        }
        StreamingReport {
            starving_ratio_percent: ratios.into_iter().collect(),
            outages: self.outages,
            packets_repaired_on_time: self.repaired_on_time,
            packets_starved: self.starved,
            churn,
        }
    }

    /// The member's starving-time ratio (in %) over the part of its view
    /// that overlapped the measurement window; `None` when the overlap is
    /// too short to be meaningful.
    fn ratio_of(&self, stream: &MemberStream, now: SimTime) -> Option<f64> {
        let start = stream.view_start.max(self.window_start.as_secs());
        let end = now.as_secs().min(self.window_end.as_secs());
        let view = end - start;
        if view < 30.0 {
            return None;
        }
        let starving_secs = stream.starved_packets as f64 / self.clock.rate_pps();
        Some((starving_secs / view * 100.0).min(100.0))
    }

    /// Selects the member's recovery group at repair time: gather a view,
    /// rebuild the partial tree from the view's root paths, run Algorithm
    /// 1 (or the random baseline) and order the result by network
    /// distance.
    fn select_group(&mut self, cx: &Ctx<'_>, member: NodeId) -> RecoveryGroup {
        let (tree, oracle) = (cx.tree, cx.oracle);
        let _span = tree.prof().span("cer.group_select");
        let view = self.rng.sample(cx.live, ViewSampler::PAPER_VIEW_SIZE);
        // Gossip here is exact, so the fragment is the union of the view's
        // root paths, read straight off the arena.
        let partial = PartialTree::from_tree(tree, view.iter().copied().filter(|&v| v != member));
        let mut exclude = tree.ancestors(member);
        exclude.push(member);
        let options = MlcOptions { exclude };
        let chosen = match self.selection {
            GroupSelection::MinimumLossCorrelation => {
                find_mlc_group(&partial, self.group_size, &options, &mut self.rng)
            }
            GroupSelection::Random => {
                random_group(&partial, self.group_size, &options, &mut self.rng)
            }
        };
        let member_loc = tree
            .profile(member)
            .map(|p| p.location)
            .expect("repairing member exists");
        let with_distance: Vec<(NodeId, f64)> = chosen
            .into_iter()
            .filter_map(|g| {
                let loc = tree.profile(g)?.location;
                Some((
                    g,
                    oracle.delay_ms(UnderlayId(member_loc.0), UnderlayId(loc.0)),
                ))
            })
            .collect();
        RecoveryGroup::ordered_by_distance(with_distance)
    }

    /// The group members able to serve repairs right now, with their
    /// residual rates, in group (distance) order.
    fn available_helpers(
        &self,
        tree: &MulticastTree,
        group: &RecoveryGroup,
    ) -> Vec<(NodeId, f64, usize)> {
        group
            .members()
            .iter()
            .enumerate()
            .filter_map(|(hop, &g)| {
                let stream = self.members.get(&g)?;
                if !tree.is_attached(g) || stream.residual_pps <= 0.0 {
                    return None;
                }
                Some((g, stream.residual_pps, hop))
            })
            .collect()
    }

    /// Serves the given missing packets from `available` under the
    /// configured strategy, returning `(repaired, starved, new_holes)`.
    ///
    /// This is [`Self::repair`]'s serving step, for outage gaps and link
    /// losses alike. Every repair frame crosses `member`'s access link, so
    /// an armed pathology episode applies to it exactly as to data: the
    /// capacity factor scales the server's rate, active bloat spikes add
    /// latency, and the loss chain may drop the frame outright. Outside
    /// an episode the pathology terms are the exact identities
    /// (`× 1.0`, `+ 0.0`, no draw), keeping baseline runs bit-identical.
    ///
    /// Each helper's stream record and the member's episode are looked up
    /// once per call; the per-packet loop reads them directly.
    #[allow(clippy::too_many_arguments)]
    fn serve_repairs<I>(
        &mut self,
        tree: &MulticastTree,
        member: NodeId,
        available: &[(NodeId, f64, usize)],
        seqs: I,
        gap: u64,
        timing: &RepairTiming,
        now: SimTime,
        obs: &mut Obs,
    ) -> (u64, u64, Vec<u64>)
    where
        I: Iterator<Item = u64>,
    {
        let mut repaired_now = 0u64;
        let mut starved_now = 0u64;
        let mut new_holes: Vec<u64> = Vec::new();
        let ready_at = |clock: &StreamClock, seq: u64| match *timing {
            RepairTiming::Batch(t) => t,
            RepairTiming::PerPacket => clock.generation_time(seq) + LOSS_DETECTION_SECS,
        };
        let clock = &self.clock;
        let cache_secs = self.repair_cache_secs;
        // `None` for a helper that cannot serve at all.
        let streams: Vec<Option<&MemberStream>> = available
            .iter()
            .map(|&(server, _, _)| {
                if tree.is_attached(server) {
                    self.members.get(&server)
                } else {
                    None
                }
            })
            .collect();
        let holds = |helper: usize, seq: u64| {
            streams[helper].is_some_and(|s| s.holds(clock, cache_secs, seq, now))
        };
        let mut episode = self.pathology.get_mut(&member);
        let link_rng = &mut self.link_rng;
        let mut repair_frame = |t: SimTime| {
            episode
                .as_deref_mut()
                .map_or((1.0, 0.0, false), |ep| ep.repair_frame(link_rng, t))
        };
        // The strategy only picks each packet's helper: a stripe of the
        // group, or the nearest live member for everything.
        let plan = match self.strategy {
            RecoveryStrategy::Cooperative => {
                // Stripe the gap across the available members (§4.2). The
                // full-coverage plan assigns every slot even when the
                // group's residuals sum to less than a stream — each
                // member then serves its (wider) stripe at its own rate,
                // falling behind by exactly the bandwidth shortfall, and
                // the playback buffer decides how much of that lateness
                // turns into starvation.
                let fractions: Vec<f64> = available
                    .iter()
                    .map(|&(_, pps, _)| pps / clock.rate_pps())
                    .collect();
                let plan = StripePlan::plan_full_coverage(&fractions);
                if obs.is_active() {
                    // Stripe width = how many helpers the gap is striped
                    // across (Fig. 12's group-size effect, observed).
                    obs.count("cer.stripe_plans", 1);
                    obs.observe("cer.stripe_width", plan.segments().len() as f64);
                    obs.emit(
                        TraceEvent::new(now.as_secs(), Subsystem::Cer, "stripe_plan")
                            .u64("member", member.0)
                            .u64("gap", gap)
                            .u64("width", plan.segments().len() as u64)
                            .f64("coverage", plan.coverage()),
                    );
                }
                Some(plan)
            }
            // The nearest live member alone serves everything it can at
            // its residual rate; the rest of the group are fallback
            // candidates, not parallel servers.
            RecoveryStrategy::SingleSource => None,
        };
        let nearest = (!available.is_empty()).then_some(0);
        let mut served_count: Vec<u64> = vec![0; available.len()];
        for seq in seqs {
            let helper = plan.as_ref().map_or(nearest, |p| p.assigned_member(seq));
            // No helper for this packet, or its helper no longer holds it.
            let Some(idx) = helper.filter(|&idx| holds(idx, seq)) else {
                starved_now += 1;
                new_holes.push(seq);
                continue;
            };
            let (_, pps, hop) = available[idx];
            served_count[idx] += 1;
            let serve_start = ready_at(clock, seq) + hop as f64 * CHAIN_HOP_SECS;
            let (factor, extra, lost) = repair_frame(serve_start);
            let arrival = serve_start + served_count[idx] as f64 / (pps * factor) + extra;
            if lost {
                obs.count("cer.repair_dropped", 1);
                starved_now += 1;
                new_holes.push(seq);
            } else if arrival <= clock.playback_deadline(seq) {
                repaired_now += 1;
            } else {
                starved_now += 1;
            }
        }
        (repaired_now, starved_now, new_holes)
    }

    /// Closes one outage `[t0, now)` for `member` and repairs the gap
    /// through [`Self::repair`], all of it requestable
    /// [`LOSS_DETECTION_SECS`] after the outage opened.
    fn repair_outage(&mut self, cx: &mut Ctx<'_>, member: NodeId, t0: SimTime, now: SimTime) {
        let _span = cx.tree.prof().span("cer.repair");
        let s0 = self.clock.seq_at(t0);
        let s1 = self.clock.seq_at(now);
        if s1 <= s0 {
            return;
        }
        if now >= self.window_start && now <= self.window_end {
            self.outages += 1;
        }
        let timing = RepairTiming::Batch(t0 + LOSS_DETECTION_SECS);
        let (helpers, repaired, starved) = self.repair(cx, member, s0..s1, s1 - s0, &timing, now);
        let obs = &mut *cx.obs;
        if obs.is_active() {
            obs.count("cer.repairs", 1);
            obs.count("cer.packets_repaired", repaired);
            obs.count("cer.packets_starved", starved);
            obs.observe("cer.repair_latency_secs", now - t0);
            obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Cer, "repair")
                    .u64("member", member.0)
                    .u64("gap", s1 - s0)
                    .u64("helpers", helpers as u64)
                    .u64("repaired", repaired)
                    .u64("starved", starved)
                    .f64("starved_secs", starved as f64 / self.clock.rate_pps())
                    .f64("latency_secs", now - t0)
                    .str(
                        "strategy",
                        match self.strategy {
                            RecoveryStrategy::Cooperative => "cooperative",
                            RecoveryStrategy::SingleSource => "single_source",
                        },
                    ),
            );
        }
    }

    /// The one recovery path of outage gaps and link losses: selects
    /// `member`'s recovery group, reports it to the armed invariants,
    /// serves the `gap` missing packets `seqs` through
    /// [`Self::serve_repairs`], books the window totals and records the
    /// member's starved packets and holes. Returns the number of
    /// available helpers and the packets repaired and starved.
    fn repair<I: Iterator<Item = u64>>(
        &mut self,
        cx: &mut Ctx<'_>,
        member: NodeId,
        seqs: I,
        gap: u64,
        timing: &RepairTiming,
        now: SimTime,
    ) -> (usize, u64, u64) {
        let group = self.select_group(cx, member);
        if let Some(registry) = cx.invariants.as_deref_mut() {
            let chosen = Signal::RecoveryGroupChosen {
                member,
                group: group.members(),
            };
            registry.signal(cx.tree, now, &chosen, cx.obs);
        }
        let available = self.available_helpers(cx.tree, &group);
        let (repaired, starved, holes) =
            self.serve_repairs(cx.tree, member, &available, seqs, gap, timing, now, cx.obs);
        if now >= self.window_start && now <= self.window_end {
            self.starved += starved;
            self.repaired_on_time += repaired;
        }
        if let Some(stream) = self.members.get_mut(&member) {
            stream.starved_packets += starved;
            for seq in holes {
                stream.holes.insert(seq);
            }
        }
        (available.len(), repaired, starved)
    }
}

/// The packet-level streaming simulator (Figs. 12–14).
///
/// # Examples
///
/// ```
/// use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig, StreamingSim};
///
/// let mut churn = ChurnConfig::quick(AlgorithmKind::MinimumDepth, 120);
/// churn.warmup_secs = 120.0;
/// churn.measure_secs = 300.0;
/// let report = StreamingSim::new(StreamingConfig::paper(churn, 2)).run();
/// assert!(report.starving_ratio_percent.count() > 50);
/// ```
#[derive(Debug)]
pub struct StreamingSim {
    inner: ChurnSim,
}

impl StreamingSim {
    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`StreamingConfig::validate`]).
    #[must_use]
    pub fn new(cfg: StreamingConfig) -> Self {
        cfg.validate();
        StreamingSim {
            inner: ChurnSim::new_with_streaming(cfg),
        }
    }

    /// Runs to completion.
    #[must_use]
    pub fn run(self) -> StreamingReport {
        self.run_observed(Obs::disabled(), None).0
    }

    /// Runs with `obs` installed and, when given, `invariants` armed — see
    /// [`ChurnSim::run_observed`](crate::ChurnSim::run_observed). On top of
    /// the tree-level signals, the streaming layer reports every recovery
    /// group it selects.
    #[must_use]
    pub fn run_observed(
        self,
        obs: Obs,
        invariants: Option<InvariantRegistry>,
    ) -> (StreamingReport, Obs, InvariantRegistry) {
        self.inner.run_inner(obs, invariants, |churn, streaming| {
            streaming
                .expect("built with new_with_streaming")
                .into_report(churn)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlgorithmKind, ChurnConfig};

    fn quick_streaming(
        group: usize,
        strategy: RecoveryStrategy,
        seed: u64,
        size: usize,
    ) -> StreamingConfig {
        let mut churn = ChurnConfig::quick(AlgorithmKind::MinimumDepth, size);
        churn.seed = seed;
        churn.warmup_secs = 150.0;
        churn.measure_secs = 500.0;
        let mut cfg = StreamingConfig::paper(churn, group);
        cfg.strategy = strategy;
        cfg
    }

    #[test]
    fn produces_ratios_and_outages() {
        // Size well above the root's out-degree (100), so that real
        // multi-level subtrees exist and departures actually disrupt.
        let report =
            StreamingSim::new(quick_streaming(2, RecoveryStrategy::Cooperative, 1, 400)).run();
        assert!(report.starving_ratio_percent.count() > 50);
        assert!(report.outages > 0, "some members must lose their parents");
        let mean = report.starving_ratio_percent.mean();
        assert!((0.0..=100.0).contains(&mean));
    }

    #[test]
    fn larger_groups_starve_less() {
        // Fig. 12's headline: group size 3 dramatically beats size 1.
        let mut small = 0.0;
        let mut large = 0.0;
        for seed in 1..=3 {
            small +=
                StreamingSim::new(quick_streaming(1, RecoveryStrategy::Cooperative, seed, 200))
                    .run()
                    .starving_ratio_percent
                    .mean();
            large +=
                StreamingSim::new(quick_streaming(3, RecoveryStrategy::Cooperative, seed, 200))
                    .run()
                    .starving_ratio_percent
                    .mean();
        }
        assert!(
            large < small,
            "group size 3 ({large:.4}) should starve less than size 1 ({small:.4})"
        );
    }

    #[test]
    fn cooperative_beats_single_source() {
        // Fig. 14's headline, at equal group size.
        let mut single = 0.0;
        let mut coop = 0.0;
        for seed in 1..=3 {
            single += StreamingSim::new(quick_streaming(
                3,
                RecoveryStrategy::SingleSource,
                seed,
                200,
            ))
            .run()
            .starving_ratio_percent
            .mean();
            coop += StreamingSim::new(quick_streaming(3, RecoveryStrategy::Cooperative, seed, 200))
                .run()
                .starving_ratio_percent
                .mean();
        }
        assert!(
            coop < single,
            "cooperative ({coop:.4}) should beat single-source ({single:.4})"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = StreamingSim::new(quick_streaming(2, RecoveryStrategy::Cooperative, 7, 120)).run();
        let b = StreamingSim::new(quick_streaming(2, RecoveryStrategy::Cooperative, 7, 120)).run();
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.packets_starved, b.packets_starved);
        assert_eq!(
            a.starving_ratio_percent.mean(),
            b.starving_ratio_percent.mean()
        );
    }

    #[test]
    fn bigger_buffers_starve_less() {
        // Fig. 13's trend.
        let base = quick_streaming(1, RecoveryStrategy::Cooperative, 5, 200);
        let mut tight = base.clone();
        tight.buffer_secs = 5.0;
        let mut roomy = base;
        roomy.buffer_secs = 30.0;
        let tight_ratio = StreamingSim::new(tight).run().starving_ratio_percent.mean();
        let roomy_ratio = StreamingSim::new(roomy).run().starving_ratio_percent.mean();
        assert!(
            roomy_ratio <= tight_ratio,
            "30 s buffer ({roomy_ratio:.4}) should not starve more than 5 s ({tight_ratio:.4})"
        );
    }
}

#[cfg(test)]
mod behavior_tests {
    use super::*;
    use crate::config::{AlgorithmKind, ChurnConfig, GroupSelection};

    fn base(seed: u64) -> StreamingConfig {
        let mut churn = ChurnConfig::quick(AlgorithmKind::MinimumDepth, 300);
        churn.seed = seed;
        churn.warmup_secs = 150.0;
        churn.measure_secs = 500.0;
        StreamingConfig::paper(churn, 2)
    }

    /// A tiny repair cache starves more: old packets age out of the
    /// helpers' buffers before the request arrives.
    #[test]
    fn short_repair_cache_hurts() {
        let mut starved_small = 0.0;
        let mut starved_large = 0.0;
        for seed in 1..=3 {
            let mut small = base(seed);
            small.repair_cache_secs = 6.0; // barely beyond the outage start
            let mut large = base(seed);
            large.repair_cache_secs = 300.0;
            starved_small += StreamingSim::new(small).run().starving_ratio_percent.mean();
            starved_large += StreamingSim::new(large).run().starving_ratio_percent.mean();
        }
        assert!(
            starved_large <= starved_small,
            "large cache ({starved_large:.4}) must not starve more than small ({starved_small:.4})"
        );
    }

    /// Zero residual bandwidth everywhere: nobody can repair anything, so
    /// the starving time equals the raw outage exposure, substantially
    /// above the repaired case.
    #[test]
    fn no_residual_bandwidth_means_no_repairs() {
        let mut crippled = base(4);
        crippled.residual_pps = (0.0, 1e-6);
        let crippled_report = StreamingSim::new(crippled).run();
        assert_eq!(
            crippled_report.packets_repaired_on_time, 0,
            "repairs need residual bandwidth"
        );
        let healthy_report = StreamingSim::new(base(4)).run();
        assert!(
            healthy_report.starving_ratio_percent.mean()
                < crippled_report.starving_ratio_percent.mean()
        );
    }

    /// MLC and random group selection are in the same performance range
    /// at small scale — the loss-correlation benefit only separates them
    /// when deep subtrees make correlated recovery-node failures likely
    /// (see ablation A1, `ablation_group_selection.csv` of the
    /// `cer_figures` binary, for the quantitative comparison at realistic
    /// sizes).
    #[test]
    fn mlc_selection_comparable_to_random_at_small_scale() {
        let run = |selection: GroupSelection| {
            let mut total = 0.0;
            for seed in 1..=4 {
                let mut cfg = base(seed);
                cfg.selection = selection;
                total += StreamingSim::new(cfg).run().starving_ratio_percent.mean();
            }
            total / 4.0
        };
        let mlc = run(GroupSelection::MinimumLossCorrelation);
        let random = run(GroupSelection::Random);
        assert!(mlc > 0.0 && random > 0.0);
        assert!(
            mlc <= random * 2.0 && random <= mlc * 2.0,
            "MLC ({mlc:.4}) and random ({random:.4}) should be within 2× at this scale"
        );
    }
}
