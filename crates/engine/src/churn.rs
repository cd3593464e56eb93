//! The churn-driven tree simulation behind Figures 4–11.
//!
//! Members arrive in a Poisson stream, live out lognormal lifetimes, and
//! depart abruptly; the configured algorithm places every join and rejoin,
//! and (for ROST) runs periodic switching checks. The simulator measures:
//!
//! - **streaming disruptions** per member lifetime (Figs. 4–6): every
//!   abrupt departure disrupts each of its tree descendants once;
//! - **service delay** and **network stretch** (Figs. 7–9): overlay path
//!   delay from the source, and its ratio to the direct unicast delay;
//! - **protocol overhead** (Figs. 10–11): reconnections forced by the
//!   optimization machinery itself — relaxed-ordered evictions and ROST
//!   switch reparentings — as opposed to failure-induced rejoins.

use std::collections::BTreeMap;

use rom_chaos::{
    pick_attached, pick_cluster, ChaosAction, InvariantRegistry, LinkEpisode, RejoinCause,
    Scenario, Signal, Victims, CHAOS_ID_BASE,
};
use rom_net::{DelayOracle, TransitStubNetwork, UnderlayId};
use rom_overlay::algorithms::{JoinContext, JoinDecision};
use rom_obs::{Level, Obs, Subsystem, TraceEvent};
use rom_overlay::{
    paper_source, IdMap, Location, MemberProfile, MulticastTree, NodeId, ViewSampler,
};
use rom_rost::{OpId, SwitchOutcome, SwitchingProtocol};
use rom_sim::{RunOutcome, Schedule, SimRng, SimTime, Simulation};
use rom_stats::Summary;

use crate::config::{AlgorithmKind, ChurnConfig, StreamingConfig, HISTORY_SECS, RETRY_SECS};
use crate::proximity::OracleProximity;
use crate::streaming::{Ctx, StreamingState};
use crate::workload::Workload;

/// Events of the churn simulation.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// A new member arrives (and the next arrival is scheduled).
    Arrival,
    /// A member's session ends abruptly.
    Departure(NodeId),
    /// An orphan subtree root (re)tries to find a parent.
    Rejoin(NodeId),
    /// A rejected new member retries its join.
    JoinRetry(NodeId),
    /// A ROST member runs its periodic switching check.
    SwitchCheck(NodeId),
    /// Locks of a completed switch are released.
    ReleaseLocks(OpId),
    /// Periodic tree-quality sampling (delay, stretch, depth).
    Sample,
    /// The tracked typical member joins (Figs. 6 and 9).
    ObserverJoin,
    /// A scheduled fault injection fires (index into the scenario).
    ChaosInject(usize),
    /// A chaos-forced abrupt failure (always uncooperative, and drawn
    /// from the chaos RNG stream rather than the decisions stream).
    ChaosFail(NodeId),
    /// A chaos-born member arrives (flash crowds, flap replacements).
    ChaosJoin,
    /// One cycle of membership flapping. The payload is boxed: it is the
    /// widest variant by far and fires a handful of times per run, while
    /// its inline size would be carried by every one of the millions of
    /// entries in a `--mega` event queue.
    ChaosFlap(Box<FlapSpec>),
    /// An armed link-pathology episode on this member's access link runs
    /// out: classify and repair the losses, then disarm.
    ChaosLinkEnd(NodeId),
}

/// Parameters of one [`Event::ChaosFlap`] cycle, boxed out of the event
/// so the rare chaos variant does not widen every queue entry.
#[derive(Debug, Clone, PartialEq)]
struct FlapSpec {
    /// Members failed this cycle.
    members: usize,
    /// Seconds until the next cycle.
    period_secs: f64,
    /// Cycles still to run, including this one.
    cycles_left: usize,
}

/// Per-member lifetime counters booked into the report when the member
/// departs inside the measurement window.
#[derive(Debug, Clone, Copy, Default)]
struct MemberTally {
    /// Streaming disruptions experienced (Figs. 4–6).
    disruptions: u32,
    /// Optimization- or eviction-forced reconnections (Fig. 10).
    reconnections: u32,
}

/// The trace of the tracked "typical member" (Figs. 6 and 9).
#[derive(Debug, Clone, Default)]
pub struct ObserverTrace {
    /// Minutes since the observer joined, one entry per disruption it
    /// experienced (plot cumulatively for Fig. 6).
    pub disruption_minutes: Vec<f64>,
    /// `(minutes since join, service delay ms)` samples (Fig. 9).
    pub delay_samples: Vec<(f64, f64)>,
}

/// Everything a churn run measures.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// The algorithm that produced the tree.
    pub algorithm: AlgorithmKind,
    /// Configured steady-state size M.
    pub target_size: usize,
    /// Mean attached population over the measurement window.
    pub population: Summary,
    /// Disruptions experienced per member lifetime (recorded at each
    /// departure inside the window) — Fig. 4's y-axis.
    pub disruptions_per_lifetime: Summary,
    /// The raw per-member disruption counts, for Fig. 5's CDF.
    pub disruption_counts: Vec<f64>,
    /// Total disruption events observed inside the measurement window.
    pub disruption_events: u64,
    /// Length of the measurement window (seconds).
    pub measure_secs: f64,
    /// Mean member lifetime of the workload (seconds).
    pub mean_lifetime_secs: f64,
    /// Optimization-induced reconnections per member lifetime — Fig. 10.
    pub reconnections_per_lifetime: Summary,
    /// Per-member-sample service delay in ms — Fig. 7.
    pub service_delay_ms: Summary,
    /// Per-member-sample network stretch — Fig. 8.
    pub stretch: Summary,
    /// Per-member-sample tree depth.
    pub depth: Summary,
    /// Completed ROST switches over the whole run (including warmup,
    /// where the seeded tree does most of its reordering).
    pub switches: u64,
    /// Eviction (replace/usurp) operations over the whole run.
    pub evictions: u64,
    /// Joins/rejoins that found no capacity in their view and had to
    /// retry.
    pub rejections: u64,
    /// The typical-member trace, when an observer was configured.
    pub observer: Option<ObserverTrace>,
    /// How the event loop ended ([`RunOutcome::HorizonReached`] for a
    /// normal run; anything else signals a truncated experiment).
    pub outcome: RunOutcome,
    /// Total events the simulation loop processed.
    pub events_processed: u64,
    /// Exact peak number of pending events the scheduler queue held at any
    /// point in the run (the sampled `sim.queue_depth` histogram is a
    /// per-dispatch floor of this).
    pub queue_high_water: u64,
    /// Deterministic byte footprint of that peak: `queue_high_water`
    /// times the per-entry size of the scheduler queue. Unlike peak RSS
    /// (allocator- and platform-dependent, quarantined to benchmark records)
    /// this is reproducible from the seed.
    pub queue_bytes_high_water: u64,
}

/// The churn simulator. Construct with [`ChurnSim::new`], execute with
/// [`ChurnSim::run`].
///
/// # Examples
///
/// ```
/// use rom_engine::{AlgorithmKind, ChurnConfig, ChurnSim};
///
/// let mut cfg = ChurnConfig::quick(AlgorithmKind::Rost, 150);
/// cfg.warmup_secs = 120.0;
/// cfg.measure_secs = 300.0;
/// let report = ChurnSim::new(cfg).run();
/// assert!(report.population.mean() > 50.0);
/// assert!(report.service_delay_ms.mean() > 0.0);
/// ```
#[derive(Debug)]
pub struct ChurnSim {
    cfg: ChurnConfig,
    oracle: DelayOracle,
    workload: Workload,
    tree: MulticastTree,
    sampler: ViewSampler,
    rng: SimRng,
    rost: SwitchingProtocol,

    /// All current members (attached or orphaned), for view sampling.
    live: Vec<NodeId>,
    /// Each live member's position in `live`.
    live_pos: IdMap<usize>,
    /// Members that were rejected at join and are waiting to retry.
    pending: BTreeMap<NodeId, MemberProfile>,
    /// Members displaced by an eviction inside the current event, awaiting
    /// their rejoin to be scheduled once the scheduler is in reach.
    rejoin_backlog: Vec<NodeId>,

    window_start: SimTime,
    window_end: SimTime,

    /// Per-member lifetime disruption/reconnection counts, merged into a
    /// single id table (one lookup per booking instead of two — the
    /// dominant per-member state at the `--mega` scale).
    tallies: IdMap<MemberTally>,
    observer_id: Option<NodeId>,
    observer_join: SimTime,
    /// The observer's trace, timed in minutes since `observer_join` as
    /// each point is recorded.
    observer_trace: ObserverTrace,

    /// Streaming layer (Figs. 12-14); `None` for pure tree experiments.
    streaming: Option<StreamingState>,

    /// Fault-injection driver; `None` unless a scenario is configured.
    chaos: Option<ChaosState>,
    /// Armed invariant registry; `None` unless one was passed to
    /// [`ChurnSim::run_observed`].
    invariants: Option<InvariantRegistry>,

    /// Observability pipeline; disabled (and free) unless installed via
    /// [`ChurnSim::run_observed`].
    obs: Obs,

    report: ChurnReport,
}

/// Driver state for a configured fault-injection scenario.
#[derive(Debug)]
struct ChaosState {
    /// The plan whose injections were scheduled during seeding.
    scenario: Scenario,
    /// Dedicated RNG fork ("chaos"): victim picks, burst spacing and
    /// chaos-member profiles never perturb the organic workload or
    /// decisions streams.
    rng: SimRng,
    /// Next id for chaos-born members, disjoint from workload ids.
    next_id: u64,
}

impl ChurnSim {
    /// Builds a simulator: generates the underlay, seeds the equilibrium
    /// population and constructs the initial tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ChurnConfig::validate`]).
    #[must_use]
    pub fn new(cfg: ChurnConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Builds a churn simulator with the packet-level streaming layer
    /// attached (used by [`crate::StreamingSim`]).
    pub(crate) fn new_with_streaming(cfg: StreamingConfig) -> Self {
        // Identical stream to forking off the root RNG: `fork` is a pure
        // function of `(seed, label)`.
        let streaming_rng = SimRng::seed_from(cfg.churn.seed).fork("streaming");
        // Pathology loss chains draw from their own fork so an armed link
        // episode never perturbs the streaming layer's draws.
        let link_rng = SimRng::seed_from(cfg.churn.seed).fork("chaos-link");
        let state = StreamingState::new(&cfg, streaming_rng, link_rng);
        Self::build(cfg.churn, Some(state))
    }

    fn build(cfg: ChurnConfig, streaming: Option<StreamingState>) -> Self {
        cfg.validate();
        // rom-lint: allow(rng-fork-discipline) -- this IS the run's root RNG (minted once from cfg.seed); every subsystem stream below is a labeled fork of it
        let root_rng = SimRng::seed_from(cfg.seed);
        let mut topo_rng = root_rng.fork("topology");
        let net = TransitStubNetwork::generate(&cfg.topology, &mut topo_rng);
        let oracle = DelayOracle::build(&net);
        let mut workload = Workload::new(
            cfg.bandwidth,
            cfg.lifetime,
            cfg.arrival_rate(),
            HISTORY_SECS,
            &net,
            root_rng.fork("workload"),
        );
        let source = paper_source(workload.random_location());
        // Only the centralized algorithms query the order index; every
        // other run moves subtrees without re-keying it.
        let tree = if cfg.algorithm.rule().is_centralized() {
            MulticastTree::with_order_index(source)
        } else {
            MulticastTree::new(source)
        };
        let sampler = ViewSampler::paper();
        let rng = root_rng.fork("decisions");
        let chaos = cfg.chaos.clone().map(|scenario| ChaosState {
            scenario,
            rng: root_rng.fork("chaos"),
            next_id: CHAOS_ID_BASE,
        });
        let rost = SwitchingProtocol::new(cfg.rost.clone());
        let window_start = SimTime::from_secs(cfg.warmup_secs);
        let window_end = window_start + cfg.measure_secs;

        let report = ChurnReport {
            algorithm: cfg.algorithm,
            target_size: cfg.target_size,
            population: Summary::new(),
            disruptions_per_lifetime: Summary::new(),
            disruption_counts: Vec::new(),
            disruption_events: 0,
            measure_secs: cfg.measure_secs,
            mean_lifetime_secs: cfg.mean_lifetime_secs(),
            reconnections_per_lifetime: Summary::new(),
            service_delay_ms: Summary::new(),
            stretch: Summary::new(),
            depth: Summary::new(),
            switches: 0,
            evictions: 0,
            rejections: 0,
            observer: None,
            outcome: RunOutcome::HorizonReached,
            events_processed: 0,
            queue_high_water: 0,
            queue_bytes_high_water: 0,
        };

        ChurnSim {
            cfg,
            oracle,
            workload,
            tree,
            sampler,
            rng,
            rost,
            live: Vec::new(),
            live_pos: IdMap::new(),
            pending: BTreeMap::new(),
            rejoin_backlog: Vec::new(),
            window_start,
            window_end,
            tallies: IdMap::new(),
            observer_id: None,
            observer_join: SimTime::ZERO,
            observer_trace: ObserverTrace::default(),
            streaming,
            chaos,
            invariants: None,
            obs: Obs::disabled(),
            report,
        }
    }

    /// Read-only access to the current tree (for tests and tooling).
    #[must_use]
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// Runs the simulation to completion and returns the report.
    #[must_use]
    pub fn run(self) -> ChurnReport {
        self.run_observed(Obs::disabled(), None).0
    }

    /// Runs with `obs` installed and, when given, `invariants` armed, and
    /// returns the report, the finished `obs` and the registry with
    /// everything it found (empty when none was armed).
    ///
    /// An active `obs` traces every join, departure, rejoin, switch and
    /// eviction and keeps the engine's counters, gauges and histograms.
    /// An armed registry hears every protocol transition (failure scopes,
    /// rejoin scheduling, recovery starts, reattachments, recovery-group
    /// choices) and runs its tree checks after every dispatched event;
    /// violations are counted under `chaos.violations` and emitted as
    /// `Warn`-level [`Subsystem::Chaos`] trace events on `obs`. Neither
    /// changes what the run does.
    #[must_use]
    pub fn run_observed(
        self,
        obs: Obs,
        invariants: Option<InvariantRegistry>,
    ) -> (ChurnReport, Obs, InvariantRegistry) {
        self.run_inner(obs, invariants, |report, _streaming| report)
    }

    /// Like [`run`](Self::run), but calls `inspect` with the final tree
    /// and simulation end time before returning — for tooling that wants
    /// to examine the converged structure.
    pub fn run_inspect(mut self, inspect: impl FnOnce(&MulticastTree, SimTime)) -> ChurnReport {
        drop(self.simulate());
        inspect(&self.tree, self.window_end);
        self.finish()
    }

    /// The run behind [`run_observed`](Self::run_observed) and
    /// [`StreamingSim::run_observed`](crate::StreamingSim::run_observed):
    /// `report` builds the returned report from the churn report and the
    /// streaming layer.
    ///
    /// Everything after the event loop runs in one root
    /// `engine.teardown` span: the metrics fold, `report` and the drop of
    /// the queue, the tree and the maps.
    pub(crate) fn run_inner<R>(
        mut self,
        obs: Obs,
        invariants: Option<InvariantRegistry>,
        report: impl FnOnce(ChurnReport, Option<StreamingState>) -> R,
    ) -> (R, Obs, InvariantRegistry) {
        self.obs = obs;
        self.invariants = invariants;
        let sim = self.simulate();
        let _teardown = self.obs.prof().span("engine.teardown");
        drop(sim);
        if self.obs.is_active() {
            self.fold_protocol_metrics();
        }
        let streaming = self.streaming.take();
        let obs = std::mem::take(&mut self.obs);
        let invariants = self.invariants.take().unwrap_or_default();
        (report(self.finish(), streaming), obs, invariants)
    }

    /// The one event loop every run variant shares: seeds the population,
    /// runs to the measurement window's end (or the event budget), and
    /// records the kernel's outcome, event count and queue peaks in the
    /// report. Returns the drained kernel, for the caller to drop.
    fn simulate(&mut self) -> Simulation<Event> {
        let mut sim: Simulation<Event> = Simulation::new();
        if let Some(budget) = self.cfg.max_events {
            sim = sim.with_max_events(budget);
        }
        self.arm_instrumentation(&mut sim);
        self.seed(&mut sim);
        let outcome = sim.run_until(self.window_end, |now, event, sched| {
            self.handle(now, event, sched);
        });
        self.report.outcome = outcome;
        self.report.events_processed = sim.processed();
        self.report.queue_high_water = sim.queue_high_water_mark() as u64;
        self.report.queue_bytes_high_water = sim.queue_bytes_high_water();
        sim
    }

    /// Pre-run instrumentation hookup: shares the run's span profiler with
    /// the tree (so overlay/rost/cer spans land in one profile tree) and
    /// the simulation kernel (so queue peek/pop costs show up as a root
    /// `sim.queue` span), and pins the queue-depth histogram to
    /// power-of-two buckets before the first dispatch observes into it.
    fn arm_instrumentation(&mut self, sim: &mut Simulation<Event>) {
        self.tree.set_prof(self.obs.prof().clone());
        sim.set_prof(self.obs.prof().clone());
        self.obs
            .register_histogram("sim.queue_depth", &QUEUE_DEPTH_BUCKETS);
    }

    /// Folds the protocol-layer counters (ROST switching outcomes, lock
    /// grants/denials) into the metrics registry at end of run.
    fn fold_protocol_metrics(&mut self) {
        let stats = self.rost.stats();
        self.obs.count("rost.switch_attempts", stats.attempts);
        self.obs.count("rost.switch_promotions", stats.switched);
        self.obs.count("rost.switch_busy", stats.busy);
        self.obs.count("rost.switch_not_eligible", stats.not_eligible);
        let locks = self.rost.locks();
        self.obs.count("rost.lock_grants", locks.grants());
        self.obs.count("rost.lock_denials", locks.denials());
    }

    /// Seeds the equilibrium population and the initial event schedule.
    fn seed(&mut self, sim: &mut Simulation<Event>) {
        let _span = self.obs.prof().span("engine.seed");
        // The source is a member of the group: it must be discoverable in
        // partial views (it never departs, so it is never untracked).
        let root = self.tree.root();
        self.track_live(root);

        // Seed the equilibrium population and their departures. Members
        // are inserted in RANDOM order: inserting oldest-first would hand
        // every algorithm a perfectly time-ordered (and hence artificially
        // stable) initial tree. With random order each algorithm's own
        // machinery — BO/TO evictions, ROST switching, longest-first's
        // oldest-parent rule — has to establish its characteristic
        // structure, as it would in an organically grown overlay.
        let mut seed_members = {
            let _span = self.obs.prof().span("engine.seed_population");
            self.workload.equilibrium_population(self.cfg.target_size)
        };
        self.rng.shuffle(&mut seed_members);
        for member in seed_members {
            let id = member.id;
            let departure = member.departure_time();
            self.track_live(id);
            self.notify_joined(id, member.join_time);
            if !self.place_new_member(member.clone(), SimTime::ZERO) {
                self.pending.insert(id, member);
                sim.schedule(SimTime::from_secs(RETRY_SECS), Event::JoinRetry(id));
            }
            let backlog = std::mem::take(&mut self.rejoin_backlog);
            if !backlog.is_empty() {
                self.signal_invariants(
                    SimTime::ZERO,
                    &Signal::RejoinScheduled {
                        members: &backlog,
                        cause: RejoinCause::Eviction,
                    },
                );
                for orphan in backlog {
                    sim.schedule(SimTime::ZERO, Event::Rejoin(orphan));
                }
            }
            sim.schedule(
                departure.max(SimTime::from_secs(0.001)),
                Event::Departure(id),
            );
            if self.is_rost() {
                let stagger = self.rng.uniform() * self.cfg.rost.switching_interval_secs;
                sim.schedule(SimTime::from_secs(stagger), Event::SwitchCheck(id));
            }
        }

        sim.schedule(
            SimTime::from_secs(self.workload.next_interarrival()),
            Event::Arrival,
        );
        sim.schedule(self.window_start, Event::Sample);
        if self.cfg.observer.is_some() {
            sim.schedule(self.window_start, Event::ObserverJoin);
        }

        // Pin every scenario injection to its absolute instant; the chaos
        // RNG is only consulted when an injection actually fires.
        if let Some(chaos) = self.chaos.as_ref() {
            for (index, injection) in chaos.scenario.injections.iter().enumerate() {
                let at = SimTime::from_secs(injection.at_secs);
                if at <= self.window_end {
                    sim.schedule(at, Event::ChaosInject(index));
                }
            }
        }
    }

    fn is_rost(&self) -> bool {
        self.cfg.algorithm == AlgorithmKind::Rost
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= self.window_start && now <= self.window_end
    }

    fn track_live(&mut self, id: NodeId) {
        self.live_pos.insert(id, self.live.len());
        self.live.push(id);
        self.tallies.insert(id, MemberTally::default());
    }

    fn notify_joined(&mut self, id: NodeId, join: SimTime) {
        if let Some(st) = self.streaming.as_mut() {
            st.on_member_joined(id, join);
        }
    }

    fn untrack_live(&mut self, id: NodeId) {
        if let Some(pos) = self.live_pos.remove(id) {
            self.live.swap_remove(pos);
            if let Some(&moved) = self.live.get(pos) {
                self.live_pos.insert(moved, pos);
            }
        }
    }

    /// Candidate parents for a join/rejoin decision: the joiner's bounded
    /// random view for distributed algorithms, passed on as sampled. The
    /// view may hold detached members (the joiner's own subtree among
    /// them) and pending joiners not yet in the tree; the distributed
    /// algorithms skip those themselves (see [`JoinContext::candidates`]),
    /// so each view member is looked up once, by the algorithm.
    /// Centralized algorithms consult the whole attached membership
    /// directly through the tree's indices, so no candidate list is
    /// materialized for them — the former O(M) collect per join was the
    /// dominant cost of the ordered baselines.
    fn candidates_for(&mut self, joiner: NodeId) -> Vec<NodeId> {
        if self.cfg.algorithm.rule().is_centralized() {
            Vec::new()
        } else {
            // `live_pos` hands the sampler the joiner's slot so the view
            // costs O(view size), not an O(live) filter-and-copy.
            let _span = self.obs.prof().span("engine.view");
            let pos = self.live_pos.get(joiner).copied();
            self.sampler
                .sample_excluding_at(&self.live, pos, &mut self.rng)
        }
    }

    /// Places a brand-new member; returns false when no capacity was found
    /// (caller schedules a retry).
    fn place_new_member(&mut self, member: MemberProfile, now: SimTime) -> bool {
        let candidates = self.candidates_for(member.id);
        let ctx = JoinContext {
            tree: &self.tree,
            joiner: &member,
            candidates: &candidates,
            now,
        };
        let prox = OracleProximity::new(&self.oracle);
        match self.cfg.algorithm.rule().select(&ctx, &prox) {
            JoinDecision::Attach { parent } => {
                self.tree
                    .attach(member, parent)
                    .expect("algorithm selected a valid parent");
                true
            }
            JoinDecision::Replace { evict } => {
                let outcome = self
                    .tree
                    .replace(evict, member, |p| p.bandwidth)
                    .expect("algorithm selected a valid eviction");
                self.account_eviction(&outcome.displaced, &outcome.adopted, now);
                true
            }
            JoinDecision::Reject => false,
        }
    }

    /// Admits a new member: tracks it, tells the streaming layer, tries to
    /// place it, and schedules its departure.
    fn admit(
        &mut self,
        member: MemberProfile,
        departure: SimTime,
        now: SimTime,
        sched: &mut Schedule<'_, Event>,
    ) {
        let id = member.id;
        self.track_live(id);
        self.notify_joined(id, now);
        self.try_place(member, now, sched);
        sched.at(departure, Event::Departure(id));
    }

    /// Tries to place a new member. A placed member is traced and, under
    /// ROST, starts its switch timer; a rejected one is traced, counted
    /// when inside the window, and queued to retry.
    fn try_place(&mut self, member: MemberProfile, now: SimTime, sched: &mut Schedule<'_, Event>) {
        let id = member.id;
        if self.place_new_member(member.clone(), now) {
            self.trace_join(now, id, "join");
            if self.is_rost() {
                sched.after(
                    self.cfg.rost.switching_interval_secs,
                    Event::SwitchCheck(id),
                );
            }
        } else {
            self.trace_join_rejected(now, id);
            if self.in_window(now) {
                self.report.rejections += 1;
            }
            self.pending.insert(id, member);
            sched.after(RETRY_SECS, Event::JoinRetry(id));
        }
    }

    /// Attempts to reattach an orphan subtree root; returns false when no
    /// capacity was found.
    ///
    /// Only *childless* rejoiners may take another member's position: a
    /// childless usurper with larger bandwidth (or age) can absorb the
    /// evictee's children, so eviction chains displace one member at a
    /// time and terminate (the ordering key strictly decreases along the
    /// chain). Letting whole orphan subtrees usurp instead displaces other
    /// subtrees and melts the tree down in an eviction storm.
    fn rejoin_orphan(&mut self, orphan: NodeId, now: SimTime) -> bool {
        let profile = self
            .tree
            .profile(orphan)
            .expect("orphan exists in tree")
            .clone();
        let has_children = self.tree.child_count(orphan) > 0;
        let candidates = self.candidates_for(orphan);
        let ctx = JoinContext {
            tree: &self.tree,
            joiner: &profile,
            candidates: &candidates,
            now,
        };
        let prox = OracleProximity::new(&self.oracle);
        let rule = self.cfg.algorithm.rule();
        let decision = if has_children && rule.is_centralized() {
            // Subtree roots orphaned by a failure reattach without
            // evicting; the ordering repairs itself on later joins. The
            // indexed fallback reads the attached membership from the
            // tree directly (the orphan's own subtree is detached and
            // therefore never indexed).
            match rom_overlay::algorithms::min_depth_parent_indexed(&self.tree, &profile, &prox) {
                Some(parent) => JoinDecision::Attach { parent },
                None => JoinDecision::Reject,
            }
        } else {
            rule.select(&ctx, &prox)
        };
        match decision {
            JoinDecision::Attach { parent } => {
                self.tree
                    .reattach(orphan, parent)
                    .expect("algorithm selected a valid parent");
                true
            }
            JoinDecision::Replace { evict } => {
                let outcome = self
                    .tree
                    .usurp(evict, orphan, |p| p.bandwidth)
                    .expect("algorithm selected a valid eviction");
                self.account_eviction(&outcome.displaced, &outcome.adopted, now);
                true
            }
            JoinDecision::Reject => false,
        }
    }

    /// Traces a placed join/rejoin (`kind` distinguishes the two) at Debug
    /// level, with the parent the algorithm chose.
    fn trace_join(&mut self, now: SimTime, id: NodeId, kind: &'static str) {
        if self.obs.is_active() {
            let parent = self.tree.parent(id).map_or(0, |p| p.0);
            self.obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Churn, kind)
                    .level(Level::Debug)
                    .u64("id", id.0)
                    .u64("parent", parent),
            );
        }
    }

    fn trace_join_rejected(&mut self, now: SimTime, id: NodeId) {
        self.obs.count("churn.join_rejections", 1);
        if self.obs.is_active() {
            self.obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Churn, "join_rejected")
                    .level(Level::Debug)
                    .u64("id", id.0),
            );
        }
    }

    /// Books the reconnections of one eviction. The displaced members'
    /// rejoin events are scheduled by the caller.
    fn account_eviction(&mut self, displaced: &[NodeId], adopted: &[NodeId], now: SimTime) {
        self.report.evictions += 1;
        self.obs.count("churn.evictions", 1);
        if self.obs.is_active() {
            self.obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Churn, "evict")
                    .u64("displaced", displaced.len() as u64)
                    .u64("adopted", adopted.len() as u64),
            );
        }
        for &m in displaced.iter().chain(adopted) {
            self.tallies.get_or_default(m).reconnections += 1;
        }
        // The displaced must rejoin; the caller drains this backlog into
        // the event queue.
        self.rejoin_backlog.extend(displaced.iter().copied());
    }

    /// Schedules a rejoin for every member displaced during the current
    /// event.
    fn drain_rejoin_backlog(&mut self, sched: &mut Schedule<'_, Event>) {
        let backlog = std::mem::take(&mut self.rejoin_backlog);
        self.schedule_rejoins(&backlog, RejoinCause::Eviction, sched);
    }

    /// Schedules a rejoin for each displaced member, announcing the batch
    /// (with its cause) to the armed invariants first.
    fn schedule_rejoins(
        &mut self,
        displaced: &[NodeId],
        cause: RejoinCause,
        sched: &mut Schedule<'_, Event>,
    ) {
        if displaced.is_empty() {
            return;
        }
        self.signal_invariants(
            sched.now(),
            &Signal::RejoinScheduled {
                members: displaced,
                cause,
            },
        );
        for &orphan in displaced {
            sched.after(self.cfg.rejoin_delay_secs, Event::Rejoin(orphan));
        }
    }

    /// Feeds a protocol signal to the armed invariant registry (no-op
    /// when running unchecked).
    fn signal_invariants(&mut self, now: SimTime, signal: &Signal<'_>) {
        if let Some(registry) = self.invariants.as_mut() {
            registry.signal(&self.tree, now, signal, &mut self.obs);
        }
    }

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Schedule<'_, Event>) {
        if self.obs.is_active() {
            self.obs.count(event_metric_name(&event), 1);
            self.obs.observe("sim.queue_depth", sched.pending() as f64);
        }
        {
            let _span = self.obs.prof().span(event_span_name(&event));
            self.dispatch(now, event, sched);
            self.drain_rejoin_backlog(sched);
        }
        if let Some(registry) = self.invariants.as_mut() {
            registry.after_event(&self.tree, now, &mut self.obs);
        }
    }

    fn dispatch(&mut self, now: SimTime, event: Event, sched: &mut Schedule<'_, Event>) {
        match event {
            Event::Arrival => {
                let member = self.workload.arrival(now);
                let departure = member.departure_time();
                self.admit(member, departure, now, sched);
                sched.after(self.workload.next_interarrival(), Event::Arrival);
            }

            Event::JoinRetry(id) => {
                let Some(member) = self.pending.remove(&id) else {
                    return; // departed while waiting
                };
                self.try_place(member, now, sched);
            }

            Event::Departure(id) => self.depart(id, false, now, sched),

            Event::ChaosFail(id) => self.depart(id, true, now, sched),

            Event::ChaosInject(index) => self.chaos_inject(index, now, sched),

            Event::ChaosJoin => self.chaos_join(now, sched),

            Event::ChaosFlap(spec) => self.chaos_flap(&spec, sched),

            Event::ChaosLinkEnd(member) => {
                self.with_streaming(|st, cx| st.on_link_episode_end(cx, member, now));
            }

            Event::Rejoin(orphan) => {
                if !self.tree.contains(orphan) || self.tree.is_attached(orphan) {
                    return; // departed or already back
                }
                self.signal_invariants(now, &Signal::RecoveryStart { member: orphan });
                if self.rejoin_orphan(orphan, now) {
                    self.obs.count("churn.rejoins", 1);
                    self.trace_join(now, orphan, "rejoin");
                    self.signal_invariants(now, &Signal::Reattached { member: orphan });
                    self.with_streaming(|st, cx| st.on_restore(cx, orphan, now));
                } else {
                    self.obs.count("churn.rejoin_retries", 1);
                    if self.in_window(now) {
                        self.report.rejections += 1;
                    }
                    sched.after(RETRY_SECS, Event::Rejoin(orphan));
                }
            }

            Event::SwitchCheck(id) => {
                if !self.tree.contains(id) {
                    return; // member departed; timer dies with it
                }
                match self.rost.attempt(&mut self.tree, id, now) {
                    SwitchOutcome::Switched { record, op } => {
                        self.report.switches += 1;
                        if self.obs.is_active() {
                            self.obs.emit(
                                TraceEvent::new(now.as_secs(), Subsystem::Rost, "switch")
                                    .u64("id", id.0)
                                    .u64("reparented", record.reparented.len() as u64)
                                    .u64("displaced", record.displaced.len() as u64),
                            );
                        }
                        for &m in record.reparented.iter().chain(&record.displaced) {
                            self.tallies.get_or_default(m).reconnections += 1;
                        }
                        self.schedule_rejoins(&record.displaced, RejoinCause::Switch, sched);
                        sched.after(self.cfg.rost.lock_hold_secs, Event::ReleaseLocks(op));
                        sched.after(
                            self.cfg.rost.switching_interval_secs,
                            Event::SwitchCheck(id),
                        );
                    }
                    SwitchOutcome::Busy => {
                        if self.obs.is_active() {
                            self.obs.emit(
                                TraceEvent::new(now.as_secs(), Subsystem::Rost, "switch_busy")
                                    .level(Level::Debug)
                                    .u64("id", id.0),
                            );
                        }
                        sched.after(self.cfg.rost.lock_retry_secs, Event::SwitchCheck(id));
                    }
                    SwitchOutcome::NotEligible => {
                        sched.after(
                            self.cfg.rost.switching_interval_secs,
                            Event::SwitchCheck(id),
                        );
                    }
                }
            }

            Event::ReleaseLocks(op) => {
                self.rost.release(op);
            }

            Event::Sample => {
                self.sample_tree_quality(now);
                if now + self.cfg.sample_interval_secs <= self.window_end {
                    sched.after(self.cfg.sample_interval_secs, Event::Sample);
                }
            }

            Event::ObserverJoin => {
                let spec = self.cfg.observer.expect("scheduled only when configured");
                let member = self
                    .workload
                    .custom_arrival(now, spec.bandwidth, spec.lifetime_secs);
                self.observer_id = Some(member.id);
                self.observer_join = now;
                self.admit(member, member_departure_capped(spec, now), now, sched);
            }
        }
    }

    /// Runs a repair hook of the streaming layer, if there is one, with
    /// the run state the hook reads.
    fn with_streaming(&mut self, hook: impl FnOnce(&mut StreamingState, &mut Ctx<'_>)) {
        if let Some(st) = self.streaming.as_mut() {
            let mut cx = Ctx {
                tree: &self.tree,
                oracle: &self.oracle,
                live: &self.live,
                obs: &mut self.obs,
                invariants: self.invariants.as_mut(),
            };
            hook(st, &mut cx);
        }
    }

    /// A member's session ends, organically or by a chaos-`forced`
    /// failure: it leaves the live set, and a member still waiting to
    /// join just goes; otherwise it is removed from the tree and the
    /// departure is booked — the graceful hand-off or the abrupt failure
    /// with its ELN scope accounting. A forced failure is always abrupt
    /// (§3.3's uncooperative extreme) and never consults the decisions
    /// stream, so the organic run's draws stay aligned.
    fn depart(&mut self, id: NodeId, forced: bool, now: SimTime, sched: &mut Schedule<'_, Event>) {
        if id == self.tree.root() {
            return; // the source never fails
        }
        self.untrack_live(id);
        if self.pending.remove(&id).is_some() {
            // Never made it into the tree.
            self.tallies.remove(id);
            return;
        }
        let graceful = !forced
            && self.cfg.graceful_fraction > 0.0
            && self.rng.chance(self.cfg.graceful_fraction);
        let Ok(removed) = self.tree.remove(id) else {
            return; // defensive: already gone
        };
        self.obs.count("churn.departures", 1);
        if graceful {
            self.obs.count("churn.graceful_departures", 1);
        }
        if self.obs.is_active() {
            self.obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Churn, "departure")
                    .u64("id", id.0)
                    .bool("graceful", graceful)
                    .u64("orphans", removed.orphaned_children.len() as u64)
                    .u64("descendants", removed.affected_descendants.len() as u64),
            );
        }
        if let Some(st) = self.streaming.as_mut() {
            if !graceful {
                st.on_failure(&removed.affected_descendants, now, &mut self.obs);
            }
            st.on_member_departed(id, now);
        }
        if graceful {
            // §3.3: the member notified its neighbours, so its
            // children reconnect seamlessly — no disruption, no
            // detection delay.
            self.rost.locks_mut().evict_node(id);
            self.signal_invariants(
                now,
                &Signal::RejoinScheduled {
                    members: &removed.orphaned_children,
                    cause: RejoinCause::Graceful,
                },
            );
            for &orphan in &removed.orphaned_children {
                sched.now_next(Event::Rejoin(orphan));
            }
            self.book_lifetime(id, now);
            return;
        }
        // Abrupt departure: every descendant is disrupted once.
        self.signal_invariants(
            now,
            &Signal::FailureScope {
                failed: id,
                rejoining: &removed.orphaned_children,
                affected: &removed.affected_descendants,
            },
        );
        if self.in_window(now) {
            self.report.disruption_events += removed.affected_descendants.len() as u64;
        }
        for &m in &removed.affected_descendants {
            self.tallies.get_or_default(m).disruptions += 1;
            if Some(m) == self.observer_id {
                let minutes = (now - self.observer_join) / 60.0;
                self.observer_trace.disruption_minutes.push(minutes);
            }
        }
        // ELN failure-scope partition (§4.1): only the orphaned
        // children initiate recovery; the deeper descendants are
        // notified of the failure and suppress their own redundant
        // rejoin attempts.
        let _eln_span = self.obs.prof().span("cer.eln_scope");
        let suppressed = removed
            .affected_descendants
            .len()
            .saturating_sub(removed.orphaned_children.len());
        if suppressed > 0 && self.obs.is_active() {
            self.obs.count("cer.eln_suppressed", suppressed as u64);
            self.obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Cer, "eln_suppress")
                    .u64("failed", id.0)
                    .u64("rejoining", removed.orphaned_children.len() as u64)
                    .u64("suppressed", suppressed as u64),
            );
        }
        // A departed node may hold or be covered by locks.
        self.rost.locks_mut().evict_node(id);
        self.schedule_rejoins(&removed.orphaned_children, RejoinCause::Failure, sched);
        self.book_lifetime(id, now);
    }

    /// Drops a departed member's lifetime tally, booking it into the
    /// report when the member departs inside the window.
    fn book_lifetime(&mut self, id: NodeId, now: SimTime) {
        let tally = self.tallies.remove(id).unwrap_or_default();
        if self.in_window(now) {
            let d = f64::from(tally.disruptions);
            self.report.disruptions_per_lifetime.add(d);
            self.report.disruption_counts.push(d);
            self.report
                .reconnections_per_lifetime
                .add(f64::from(tally.reconnections));
        }
    }

    /// Applies one scheduled injection of the configured scenario.
    fn chaos_inject(&mut self, index: usize, now: SimTime, sched: &mut Schedule<'_, Event>) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        let Some(injection) = chaos.scenario.injections.get(index) else {
            return;
        };
        let action = injection.action.clone();
        self.obs.count("chaos.injections", 1);
        if self.obs.is_active() {
            self.obs.emit(
                TraceEvent::new(now.as_secs(), Subsystem::Chaos, "inject")
                    .str("action", action.name()),
            );
        }
        match action {
            ChaosAction::CorrelatedFailure { radius } => {
                let cluster = {
                    let chaos = self.chaos.as_mut().expect("checked above");
                    pick_cluster(&self.tree, radius, &mut chaos.rng)
                };
                for &victim in &cluster {
                    sched.now_next(Event::ChaosFail(victim));
                }
            }
            ChaosAction::FlashCrowd { joins, spread_secs } => {
                let chaos = self.chaos.as_mut().expect("checked above");
                for _ in 0..joins {
                    let delay = if spread_secs > 0.0 {
                        chaos.rng.range_f64(0.0, spread_secs)
                    } else {
                        0.0
                    };
                    sched.after(delay, Event::ChaosJoin);
                }
            }
            ChaosAction::Flap {
                members,
                period_secs,
                cycles,
            } => {
                sched.now_next(Event::ChaosFlap(Box::new(FlapSpec {
                    members,
                    period_secs,
                    cycles_left: cycles,
                })));
            }
            ChaosAction::DegradeBandwidth { fraction, factor } => {
                self.degrade_bandwidth(fraction, factor, now);
            }
            ChaosAction::Link { victims, profile } => {
                let victims = match victims {
                    Victims::Fraction(fraction) => self.pick_fraction(fraction),
                    Victims::Count(count) => self.pick_members(count),
                };
                // Each victim's episode carries its own window, so a stale
                // end event (after a newer episode replaced this one) is
                // ignored by the handler.
                let episode = LinkEpisode {
                    profile,
                    start: now,
                };
                let duration = episode.end() - episode.start;
                for &victim in &victims {
                    if let Some(st) = self.streaming.as_mut() {
                        st.on_link_episode_start(victim, episode.clone(), now, &mut self.obs);
                    }
                    sched.after(duration, Event::ChaosLinkEnd(victim));
                }
            }
        }
    }

    /// Picks roughly `fraction` of the attached membership (never the
    /// root) from the chaos RNG stream.
    fn pick_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        let eligible = self.tree.attached_count().saturating_sub(1);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let count = ((eligible as f64) * fraction).ceil() as usize;
        self.pick_members(count)
    }

    /// Picks up to `count` attached members (never the root) from the
    /// chaos RNG stream.
    fn pick_members(&mut self, count: usize) -> Vec<NodeId> {
        let Some(chaos) = self.chaos.as_mut() else {
            return Vec::new();
        };
        pick_attached(&self.tree, count, &mut chaos.rng)
    }

    /// A chaos-born member arrives: fresh id from the reserved chaos id
    /// space, profile drawn entirely from the chaos RNG stream.
    fn chaos_join(&mut self, now: SimTime, sched: &mut Schedule<'_, Event>) {
        let member = {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            let id = NodeId(chaos.next_id);
            chaos.next_id += 1;
            let bandwidth = self.cfg.bandwidth.sample(&mut chaos.rng);
            let lifetime = self.cfg.lifetime.sample(&mut chaos.rng).max(1.0);
            let stubs = self.workload.stubs();
            let location = Location(stubs[chaos.rng.index(stubs.len())].0);
            MemberProfile::new(id, bandwidth, now, lifetime, location)
        };
        let departure = member.departure_time();
        self.admit(member, departure, now, sched);
    }

    /// One flapping cycle: fail `members` random attached members now,
    /// inject the same number of replacement joins half a period later,
    /// and reschedule until the cycles run out.
    fn chaos_flap(&mut self, spec: &FlapSpec, sched: &mut Schedule<'_, Event>) {
        let FlapSpec {
            members,
            period_secs,
            cycles_left,
        } = *spec;
        if cycles_left == 0 {
            return;
        }
        let victims = self.pick_members(members);
        for &victim in &victims {
            sched.now_next(Event::ChaosFail(victim));
        }
        let half_period = (period_secs * 0.5).max(1e-3);
        for _ in 0..victims.len() {
            sched.after(half_period, Event::ChaosJoin);
        }
        if cycles_left > 1 {
            sched.after(
                period_secs.max(1e-3),
                Event::ChaosFlap(Box::new(FlapSpec {
                    members,
                    period_secs,
                    cycles_left: cycles_left - 1,
                })),
            );
        }
    }

    /// Degrades the bandwidth of roughly `fraction` of the attached
    /// membership by `factor`; children beyond the shrunken out-degree
    /// budget are shed and queued to rejoin like eviction victims.
    fn degrade_bandwidth(&mut self, fraction: f64, factor: f64, now: SimTime) {
        let victims = self.pick_fraction(fraction);
        for &victim in &victims {
            let Some(profile) = self.tree.profile(victim) else {
                continue;
            };
            let degraded = profile.bandwidth * factor;
            let Ok(shed) = self.tree.set_bandwidth(victim, degraded) else {
                continue;
            };
            self.obs.count("chaos.degraded", 1);
            if shed.is_empty() {
                continue;
            }
            // The shed children lose their upstream exactly as eviction
            // victims do: a reconnection rather than a failure disruption,
            // with the streaming layer seeing the whole detached subtree
            // cut off until it reattaches.
            let mut affected = Vec::new();
            for &child in &shed {
                affected.push(child);
                self.tree.descendants_into(child, &mut affected);
            }
            for &m in &shed {
                self.tallies.get_or_default(m).reconnections += 1;
            }
            if let Some(st) = self.streaming.as_mut() {
                st.on_failure(&affected, now, &mut self.obs);
            }
            self.rejoin_backlog.extend(shed.iter().copied());
        }
    }

    /// Samples every attached member's service delay, depth and stretch.
    ///
    /// `attached_by_depth` yields each parent before its children, so a
    /// member's overlay path delay is its parent's plus one edge, kept per
    /// arena slot. That is the root-first sum `((0 + d(src, c1)) + d(c1,
    /// c2)) + …` a full path walk computes, bit for bit, at one oracle
    /// query per member. The stretch denominators come from one delay row
    /// fixed at the source.
    fn sample_tree_quality(&mut self, now: SimTime) {
        let tree = &self.tree;
        let location = |ix| UnderlayId(tree.profile_ix(ix).location.0);
        let root = tree.index_of(tree.root()).expect("the source is a member");
        let from_source = self.oracle.delays_from(location(root));
        let mut path_delay = vec![0.0; tree.arena_len()];
        let mut population = 0u64;
        for id in tree.attached_by_depth() {
            let ix = tree.index_of(id).expect("attached members are interned");
            let Some(parent) = tree.parent_ix(ix) else {
                continue; // the source
            };
            population += 1;
            let here = location(ix);
            let delay = path_delay[parent.index()] + self.oracle.delay_ms(location(parent), here);
            path_delay[ix.index()] = delay;
            self.report.service_delay_ms.add(delay);
            if let Some(depth) = tree.depth_ix(ix) {
                self.report.depth.add(depth as f64);
            }
            let unicast = from_source.to(here);
            if unicast > 1e-9 {
                self.report.stretch.add(delay / unicast);
            }
            if Some(id) == self.observer_id {
                let minutes = (now - self.observer_join) / 60.0;
                self.observer_trace.delay_samples.push((minutes, delay));
            }
        }
        self.report.population.add(population as f64);
        self.obs.gauge("churn.population", population as f64);
    }

    fn finish(mut self) -> ChurnReport {
        if self.observer_id.is_some() {
            self.report.observer = Some(self.observer_trace);
        }
        self.report
    }
}

impl AsRef<ChurnReport> for ChurnReport {
    fn as_ref(&self) -> &ChurnReport {
        self
    }
}

impl ChurnReport {
    /// The unbiased Fig. 4 metric: disruption events per member, scaled to
    /// one mean lifetime. Unlike
    /// [`disruptions_per_lifetime`](ChurnReport::disruptions_per_lifetime)
    /// (a tally over members that *departed* inside the window, biased
    /// toward short sessions), this rate treats every member-second in the
    /// window equally:
    /// `events / (population × window) × mean lifetime`.
    #[must_use]
    pub fn disruptions_per_mean_lifetime(&self) -> f64 {
        let pop = self.population.mean();
        if pop <= 0.0 || self.measure_secs <= 0.0 {
            return 0.0;
        }
        self.disruption_events as f64 / (pop * self.measure_secs) * self.mean_lifetime_secs
    }
}

/// Power-of-two bucket bounds for the `sim.queue_depth` histogram: queue
/// pressure spans orders of magnitude across run sizes, so log buckets
/// keep both a 150-member quick run and a 10k-member sweep readable.
const QUEUE_DEPTH_BUCKETS: [f64; 20] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0, 131072.0, 262144.0, 524288.0,
];

/// Per-event-type dispatch span names (static so the profiling hot path
/// never allocates).
fn event_span_name(event: &Event) -> &'static str {
    match event {
        Event::Arrival => "engine.arrival",
        Event::Departure(_) => "engine.departure",
        Event::Rejoin(_) => "engine.rejoin",
        Event::JoinRetry(_) => "engine.join_retry",
        Event::SwitchCheck(_) => "engine.switch_check",
        Event::ReleaseLocks(_) => "engine.release_locks",
        Event::Sample => "engine.sample",
        Event::ObserverJoin => "engine.observer_join",
        Event::ChaosInject(_) => "engine.chaos_inject",
        Event::ChaosFail(_) => "engine.chaos_fail",
        Event::ChaosJoin => "engine.chaos_join",
        Event::ChaosFlap(_) => "engine.chaos_flap",
        Event::ChaosLinkEnd(_) => "engine.chaos_link_end",
    }
}

/// Per-event-type counter names (static so the metrics hot path never
/// allocates).
fn event_metric_name(event: &Event) -> &'static str {
    match event {
        Event::Arrival => "sim.events.arrival",
        Event::Departure(_) => "sim.events.departure",
        Event::Rejoin(_) => "sim.events.rejoin",
        Event::JoinRetry(_) => "sim.events.join_retry",
        Event::SwitchCheck(_) => "sim.events.switch_check",
        Event::ReleaseLocks(_) => "sim.events.release_locks",
        Event::Sample => "sim.events.sample",
        Event::ObserverJoin => "sim.events.observer_join",
        Event::ChaosInject(_) => "sim.events.chaos_inject",
        Event::ChaosFail(_) => "sim.events.chaos_fail",
        Event::ChaosJoin => "sim.events.chaos_join",
        Event::ChaosFlap(_) => "sim.events.chaos_flap",
        Event::ChaosLinkEnd(_) => "sim.events.chaos_link_end",
    }
}

/// The observer's departure time, kept strictly after `now`.
fn member_departure_capped(spec: crate::config::ObserverSpec, now: SimTime) -> SimTime {
    now + spec.lifetime_secs.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObserverSpec;

    fn quick(kind: AlgorithmKind, size: usize, seed: u64) -> ChurnConfig {
        let mut cfg = ChurnConfig::quick(kind, size);
        cfg.seed = seed;
        cfg.warmup_secs = 120.0;
        cfg.measure_secs = 400.0;
        cfg.sample_interval_secs = 60.0;
        cfg
    }

    /// A `--mega` queue holds up to a million pending events, so every
    /// byte of `Event` is a megabyte of queue. Boxing `ChaosFlap` (the
    /// one wide variant) keeps the enum at two words; this pins that so
    /// a new variant cannot silently re-widen it.
    #[test]
    fn event_stays_two_words_wide() {
        assert!(
            std::mem::size_of::<Event>() <= 16,
            "Event grew to {} bytes; box the wide variant instead",
            std::mem::size_of::<Event>()
        );
        // A queue entry is (time, seq, Event): 32 bytes, the per-entry
        // size every pinned `queue_bytes_high_water` encodes.
        let mut sim: Simulation<Event> = Simulation::new();
        sim.schedule(SimTime::ZERO, Event::Arrival);
        assert_eq!(sim.queue_bytes_high_water(), 32);
    }

    #[test]
    fn population_hovers_near_target() {
        let report = ChurnSim::new(quick(AlgorithmKind::MinimumDepth, 200, 1)).run();
        let mean = report.population.mean();
        assert!(
            (100.0..320.0).contains(&mean),
            "population {mean} should hover near 200"
        );
    }

    #[test]
    fn every_algorithm_sustains_the_population() {
        for kind in AlgorithmKind::ALL {
            let mut cfg = quick(kind, 120, 2);
            cfg.measure_secs = 200.0;
            let report = ChurnSim::new(cfg).run();
            assert!(report.population.mean() > 30.0, "{kind}: tree collapsed");
        }
    }

    #[test]
    fn all_algorithms_produce_metrics() {
        for kind in AlgorithmKind::ALL {
            let report = ChurnSim::new(quick(kind, 150, 4)).run();
            assert!(report.disruptions_per_lifetime.count() > 10, "{kind}");
            assert!(report.service_delay_ms.count() > 100, "{kind}");
            assert!(
                report.stretch.mean() >= 1.0 - 1e-6,
                "{kind}: stretch below 1"
            );
            assert!(report.depth.mean() >= 1.0, "{kind}");
        }
    }

    #[test]
    fn min_depth_and_longest_first_have_zero_overhead() {
        // §6 Fig. 10: these algorithms impose no optimization
        // reconnections at all.
        for kind in [AlgorithmKind::MinimumDepth, AlgorithmKind::LongestFirst] {
            let report = ChurnSim::new(quick(kind, 150, 5)).run();
            assert_eq!(report.switches, 0, "{kind}");
            assert_eq!(report.evictions, 0, "{kind}");
            assert_eq!(report.reconnections_per_lifetime.mean(), 0.0, "{kind}");
        }
    }

    #[test]
    fn rost_switches_and_ordered_algorithms_evict() {
        let rost = ChurnSim::new(quick(AlgorithmKind::Rost, 200, 6)).run();
        assert!(rost.switches > 0, "ROST should perform switches");
        assert_eq!(rost.evictions, 0, "ROST never evicts");

        let bo = ChurnSim::new(quick(AlgorithmKind::RelaxedBandwidthOrdered, 200, 6)).run();
        assert!(bo.evictions > 0, "relaxed BO should evict");
        assert_eq!(bo.switches, 0);
    }

    /// Only the centralized algorithms query the order index, so only
    /// their runs carry one; every run's final tree stays coherent.
    #[test]
    fn only_centralized_runs_keep_the_order_index() {
        for kind in AlgorithmKind::ALL {
            let indexed = match kind {
                AlgorithmKind::Rost | AlgorithmKind::MinimumDepth | AlgorithmKind::LongestFirst => {
                    false
                }
                AlgorithmKind::RelaxedBandwidthOrdered | AlgorithmKind::RelaxedTimeOrdered => true,
            };
            let mut cfg = quick(kind, 80, 3);
            cfg.measure_secs = 120.0;
            let mut seen = None;
            let _ = ChurnSim::new(cfg).run_inspect(|tree, _| {
                tree.check_invariants().expect("final tree is coherent");
                seen = Some(tree.has_order_index());
            });
            assert_eq!(seen, Some(indexed), "{kind}");
        }
    }

    #[test]
    fn longest_first_builds_taller_trees_than_min_depth() {
        // §2.1: longest-first "results in a tall tree".
        let lf = ChurnSim::new(quick(AlgorithmKind::LongestFirst, 250, 7)).run();
        let md = ChurnSim::new(quick(AlgorithmKind::MinimumDepth, 250, 7)).run();
        assert!(
            lf.depth.mean() > md.depth.mean(),
            "longest-first depth {} should exceed min-depth {}",
            lf.depth.mean(),
            md.depth.mean()
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = ChurnSim::new(quick(AlgorithmKind::Rost, 100, 11)).run();
        let b = ChurnSim::new(quick(AlgorithmKind::Rost, 100, 11)).run();
        assert_eq!(
            a.disruptions_per_lifetime.count(),
            b.disruptions_per_lifetime.count()
        );
        assert_eq!(
            a.disruptions_per_lifetime.mean(),
            b.disruptions_per_lifetime.mean()
        );
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.service_delay_ms.mean(), b.service_delay_ms.mean());
    }

    #[test]
    fn obs_run_matches_plain_run_and_records() {
        let plain = ChurnSim::new(quick(AlgorithmKind::Rost, 100, 11)).run();
        let (observed, obs, _) =
            ChurnSim::new(quick(AlgorithmKind::Rost, 100, 11)).run_observed(Obs::enabled(), None);

        // Observation must not perturb the simulation.
        assert_eq!(plain.switches, observed.switches);
        assert_eq!(plain.evictions, observed.evictions);
        assert_eq!(plain.service_delay_ms.mean(), observed.service_delay_ms.mean());
        assert_eq!(plain.outcome, observed.outcome);
        assert_eq!(plain.events_processed, observed.events_processed);
        assert_eq!(plain.outcome, RunOutcome::HorizonReached);
        assert!(plain.events_processed > 100);

        // The trace and metrics saw the run.
        assert!(obs.trace_events() > 0);
        assert_eq!(obs.trace_jsonl().lines().count() as u64, obs.trace_events());
        let snap = obs.snapshot();
        assert!(snap.counter("churn.departures") > 0);
        assert_eq!(snap.counter("rost.switch_promotions"), observed.switches);
        assert_eq!(plain.queue_high_water, observed.queue_high_water);
        assert!(observed.queue_high_water > 0);
        let queue = snap
            .histogram("sim.queue_depth")
            .expect("queue-depth histogram registered");
        assert_eq!(queue.bounds.first().copied(), Some(1.0));
        assert_eq!(queue.total, observed.events_processed);
        assert!(snap.gauge("churn.population").is_some());
    }

    /// The observer's first join goes through the same admission as
    /// every other join, so it is traced at the instant the observer
    /// joins: the end of the warmup.
    #[test]
    fn observer_first_join_is_traced_at_the_end_of_warmup() {
        let mut cfg = quick(AlgorithmKind::Rost, 150, 8);
        cfg.observer = Some(ObserverSpec {
            bandwidth: 2.0,
            lifetime_secs: 36_000.0,
        });
        // Events serialize as `{"t":<secs>,"sub":..`, with the time in
        // `f64` `Display` form.
        let at_warmup = format!("{{\"t\":{},\"sub\":\"churn\",", cfg.warmup_secs);
        let (_, obs, _) = ChurnSim::new(cfg).run_observed(Obs::enabled(), None);
        let joins_at_warmup = obs
            .trace_jsonl()
            .lines()
            .filter(|line| {
                line.starts_with(&at_warmup)
                    && (line.contains("\"kind\":\"join\"")
                        || line.contains("\"kind\":\"join_rejected\""))
            })
            .count();
        assert_eq!(
            joins_at_warmup, 1,
            "the observer's first join is traced once"
        );
    }

    #[test]
    fn observer_trace_recorded() {
        let mut cfg = quick(AlgorithmKind::Rost, 150, 8);
        cfg.observer = Some(ObserverSpec {
            bandwidth: 2.0,
            lifetime_secs: 36_000.0,
        });
        let report = ChurnSim::new(cfg).run();
        let trace = report.observer.expect("observer configured");
        assert!(
            !trace.delay_samples.is_empty(),
            "observer delay should be sampled"
        );
        for &(min, delay) in &trace.delay_samples {
            assert!(min >= 0.0);
            assert!(delay > 0.0);
        }
    }
}

#[cfg(test)]
mod behavior_tests {
    use super::*;
    use crate::config::ObserverSpec;
    use rom_net::TransitStubConfig;

    fn tiny(kind: AlgorithmKind, seed: u64) -> ChurnConfig {
        let mut cfg = ChurnConfig::quick(kind, 150);
        cfg.seed = seed;
        cfg.warmup_secs = 100.0;
        cfg.measure_secs = 300.0;
        cfg
    }

    /// Orphans stay detached for the configured rejoin delay: with a large
    /// delay and ongoing churn, the mean attached population visibly
    /// trails the zero-delay variant.
    #[test]
    fn rejoin_delay_keeps_orphans_detached() {
        let run = |delay: f64| {
            let mut cfg = tiny(AlgorithmKind::MinimumDepth, 3);
            cfg.target_size = 400;
            cfg.rejoin_delay_secs = delay;
            ChurnSim::new(cfg).run().population.mean()
        };
        let instant = run(0.0);
        let slow = run(60.0);
        assert!(
            slow < instant,
            "60 s rejoin delay ({slow:.1}) should depress the attached population vs 0 s ({instant:.1})"
        );
    }

    /// A capacity-starved overlay (every member a free-rider, a tiny
    /// root) rejects joins and keeps retrying instead of crashing.
    #[test]
    fn capacity_starved_overlay_records_rejections() {
        let mut cfg = tiny(AlgorithmKind::MinimumDepth, 4);
        // Bandwidths in [0.5, 0.99]: all free-riders; only the source can
        // serve, and it serves at most 100.
        cfg.bandwidth = rom_stats::BoundedPareto::new(1.2, 0.5, 0.99).unwrap();
        cfg.target_size = 300;
        let report = ChurnSim::new(cfg).run();
        assert!(
            report.rejections > 0,
            "an overlay without forwarding capacity must reject some joins"
        );
        // The root still serves its 100 slots.
        assert!(report.population.mean() <= 101.0);
        assert!(report.population.mean() > 50.0);
    }

    /// The observer is disrupted when (and only when) one of its ancestors
    /// departs: its disruption count matches the general bookkeeping.
    #[test]
    fn observer_disruptions_recorded_in_trace() {
        let mut cfg = tiny(AlgorithmKind::MinimumDepth, 5);
        cfg.target_size = 300;
        cfg.measure_secs = 900.0;
        cfg.observer = Some(ObserverSpec {
            bandwidth: 1.5,
            lifetime_secs: 36_000.0,
        });
        let report = ChurnSim::new(cfg).run();
        let trace = report.observer.expect("observer configured");
        for w in trace.disruption_minutes.windows(2) {
            assert!(w[0] <= w[1], "disruption times must be monotone");
        }
        for &m in &trace.disruption_minutes {
            assert!(
                (0.0..=15.1).contains(&m),
                "disruption at minute {m} outside horizon"
            );
        }
    }

    /// Eviction accounting: every relaxed-BO eviction charges at least the
    /// displaced member, so reconnections scale with evictions.
    #[test]
    fn eviction_overhead_scales_with_evictions() {
        let report = ChurnSim::new(tiny(AlgorithmKind::RelaxedBandwidthOrdered, 6)).run();
        assert!(report.evictions > 0);
        assert!(report.reconnections_per_lifetime.mean() > 0.0);
        // No switches without ROST.
        assert_eq!(report.switches, 0);
    }

    /// ROST switch locks are released on schedule: a long lock-hold with a
    /// short switching interval must not deadlock the tree (switches keep
    /// happening throughout the run).
    #[test]
    fn switch_locks_release_and_switching_continues() {
        let mut cfg = tiny(AlgorithmKind::Rost, 7);
        cfg.target_size = 300;
        cfg.rost.switching_interval_secs = 60.0;
        cfg.rost.lock_hold_secs = 30.0;
        cfg.rost.lock_retry_secs = 10.0;
        let report = ChurnSim::new(cfg).run();
        assert!(
            report.switches > 5,
            "switching must keep making progress under slow lock holds, got {}",
            report.switches
        );
    }

    /// The underlay honours the configured topology: delays are
    /// non-negative (zero only for members sharing the root's stub node)
    /// and stretch is never below one.
    #[test]
    fn members_live_on_stub_nodes_only() {
        let mut cfg = tiny(AlgorithmKind::MinimumDepth, 8);
        cfg.topology = TransitStubConfig::small();
        cfg.target_size = 100;
        let report = ChurnSim::new(cfg).run();
        assert!(report.service_delay_ms.min() >= 0.0);
        assert!(report.service_delay_ms.mean() > 0.0);
        assert!(report.stretch.min() >= 1.0 - 1e-9);
    }
}

#[cfg(test)]
mod graceful_tests {
    use super::*;

    fn cfg(graceful: f64, seed: u64) -> ChurnConfig {
        let mut cfg = ChurnConfig::quick(AlgorithmKind::MinimumDepth, 400);
        cfg.seed = seed;
        cfg.warmup_secs = 150.0;
        cfg.measure_secs = 500.0;
        cfg.graceful_fraction = graceful;
        cfg
    }

    #[test]
    fn all_graceful_departures_disrupt_nobody() {
        let report = ChurnSim::new(cfg(1.0, 1)).run();
        assert_eq!(report.disruption_events, 0);
        assert_eq!(report.disruptions_per_lifetime.mean(), 0.0);
        // The tree still churns and stays populated.
        assert!(report.population.mean() > 200.0);
    }

    #[test]
    fn graceful_fraction_interpolates() {
        let abrupt = ChurnSim::new(cfg(0.0, 2)).run().disruption_events;
        let half = ChurnSim::new(cfg(0.5, 2)).run().disruption_events;
        assert!(abrupt > 0);
        assert!(
            half < abrupt,
            "half-graceful ({half}) should disrupt less than all-abrupt ({abrupt})"
        );
    }

    #[test]
    fn graceful_streaming_never_starves_from_churn() {
        let mut streaming_cfg = crate::config::StreamingConfig::paper(cfg(1.0, 3), 2);
        streaming_cfg.churn.rejoin_delay_secs = 15.0;
        let report = crate::streaming::StreamingSim::new(streaming_cfg).run();
        assert_eq!(
            report.packets_starved, 0,
            "graceful hand-offs leave no gaps to starve on"
        );
    }
}

#[cfg(test)]
mod seeding_tests {
    use super::*;

    /// The t=0 equilibrium seed is effectively a flash crowd (§3.1 notes
    /// "nodes may arrive in flash crowds"): the entire target population
    /// must end up attached essentially immediately.
    #[test]
    fn flash_crowd_seeding_attaches_everyone() {
        for kind in AlgorithmKind::ALL {
            let mut cfg = ChurnConfig::quick(kind, 500);
            cfg.seed = 13;
            cfg.warmup_secs = 30.0; // barely any churn before we look
            cfg.measure_secs = 60.0;
            cfg.sample_interval_secs = 30.0;
            let report = ChurnSim::new(cfg).run();
            assert!(
                report.population.mean() > 420.0,
                "{kind}: only {:.0} of 500 seeded members attached",
                report.population.mean()
            );
            assert!(
                report.rejections < 50,
                "{kind}: {} rejections",
                report.rejections
            );
        }
    }
}
