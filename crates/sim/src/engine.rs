//! The event-driven simulation loop.
//!
//! A simulation couples an [`EventQueue`] with a user-supplied handler. The
//! handler receives each event together with a [`Schedule`] handle through
//! which it may enqueue follow-up events. The loop guarantees that time
//! never moves backwards and that same-time events fire in FIFO order.

use rom_obs::Prof;

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Handle through which an event handler schedules future events.
///
/// The handle enforces causality: events may only be scheduled at or after
/// the current instant.
#[derive(Debug)]
pub struct Schedule<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Schedule<'_, E> {
    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn after(&mut self, delay: f64, event: E) {
        assert!(
            delay >= 0.0,
            "cannot schedule into the past (delay {delay})"
        );
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire immediately after the current event (same
    /// timestamp, FIFO order).
    pub fn now_next(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Outcome of [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (see [`Simulation::with_max_events`]).
    BudgetExhausted,
}

/// A discrete-event simulation over events of type `E`.
///
/// # Examples
///
/// A tiny self-rescheduling clock that ticks three times:
///
/// ```
/// use rom_sim::{Simulation, SimTime};
///
/// #[derive(Debug)]
/// struct Tick(u32);
///
/// let mut sim = Simulation::new();
/// sim.schedule(SimTime::ZERO, Tick(0));
/// let mut ticks = Vec::new();
/// sim.run_until(SimTime::from_secs(100.0), |now, Tick(n), sched| {
///     ticks.push((now.as_secs(), n));
///     if n < 2 {
///         sched.after(1.0, Tick(n + 1));
///     }
/// });
/// assert_eq!(ticks, vec![(0.0, 0), (1.0, 1), (2.0, 2)]);
/// ```
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    max_events: Option<u64>,
    prof: Option<Prof>,
}

impl<E: std::fmt::Debug> std::fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("queue", &self.queue)
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("max_events", &self.max_events)
            .field("prof", &self.prof.is_some())
            .finish()
    }
}

impl<E> Simulation<E> {
    /// Creates a simulation positioned at the epoch with an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            max_events: None,
            prof: None,
        }
    }

    /// Sets a safety budget on the total number of processed events; the run
    /// stops with [`RunOutcome::BudgetExhausted`] when it is hit. Useful for
    /// guarding against accidental event storms in tests.
    #[must_use]
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = Some(max);
        self
    }

    /// Attaches a span profiler. Each queue interaction (peek + pop) in
    /// [`Simulation::run_until`] is then timed under a root `sim.queue`
    /// span, so `rom-prof` reports show what the event kernel itself
    /// costs relative to the handlers it dispatches. A disabled [`Prof`]
    /// adds one branch per event; no profiler adds nothing.
    pub fn set_prof(&mut self, prof: Prof) {
        self.prof = Some(prof);
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules an initial event before (or between) runs.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Runs the event loop until `horizon` (inclusive), the queue drains, or
    /// the event budget is exhausted. Events scheduled exactly at the
    /// horizon still fire.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> RunOutcome
    where
        F: FnMut(SimTime, E, &mut Schedule<'_, E>),
    {
        loop {
            // The guard times the peek + pop pair (dropped before the
            // handler runs, so handler spans do not nest under it).
            let queue_span = self.prof.as_ref().map(|p| p.span("sim.queue"));
            let Some(next_time) = self.queue.peek_time() else {
                return RunOutcome::Drained;
            };
            if next_time > horizon {
                drop(queue_span);
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            if let Some(max) = self.max_events {
                if self.processed >= max {
                    return RunOutcome::BudgetExhausted;
                }
            }
            let (time, event) = self.queue.pop().expect("peeked event exists");
            drop(queue_span);
            debug_assert!(time >= self.now, "event queue violated monotonicity");
            self.now = time;
            self.processed += 1;
            let mut sched = Schedule {
                now: self.now,
                queue: &mut self.queue,
            };
            handler(time, event, &mut sched);
        }
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Maximum number of events ever pending at once (exact; see
    /// [`EventQueue::high_water_mark`]).
    #[must_use]
    pub fn queue_high_water_mark(&self) -> usize {
        self.queue.high_water_mark()
    }

    /// Peak payload bytes held by the event queue (deterministic; see
    /// [`EventQueue::bytes_high_water`]).
    #[must_use]
    pub fn queue_bytes_high_water(&self) -> u64 {
        self.queue.bytes_high_water()
    }
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Simulation::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[test]
    fn drains_when_queue_empties() {
        let mut sim: Simulation<Ev> = Simulation::new();
        sim.schedule(SimTime::from_secs(1.0), Ev::Ping(1));
        let outcome = sim.run_until(SimTime::from_secs(10.0), |_, _, _| {});
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.processed(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(1.0));
    }

    #[test]
    fn horizon_stops_and_preserves_pending() {
        let mut sim: Simulation<Ev> = Simulation::new();
        sim.schedule(SimTime::from_secs(5.0), Ev::Ping(1));
        sim.schedule(SimTime::from_secs(50.0), Ev::Stop);
        let outcome = sim.run_until(SimTime::from_secs(10.0), |_, _, _| {});
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(10.0));
        // A later run picks the pending event up.
        let outcome = sim.run_until(SimTime::from_secs(100.0), |_, _, _| {});
        assert_eq!(outcome, RunOutcome::Drained);
    }

    #[test]
    fn events_at_horizon_fire() {
        let mut sim: Simulation<Ev> = Simulation::new();
        sim.schedule(SimTime::from_secs(10.0), Ev::Ping(7));
        let mut fired = false;
        sim.run_until(SimTime::from_secs(10.0), |_, _, _| fired = true);
        assert!(fired);
    }

    #[test]
    fn handler_can_chain_events() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule(SimTime::ZERO, 0);
        let mut seen = Vec::new();
        sim.run_until(SimTime::from_secs(100.0), |now, n, sched| {
            seen.push((now.as_secs(), n));
            if n < 3 {
                sched.after(2.0, n + 1);
            }
        });
        assert_eq!(seen, vec![(0.0, 0), (2.0, 1), (4.0, 2), (6.0, 3)]);
    }

    #[test]
    fn budget_halts_runaway_loops() {
        let mut sim: Simulation<()> = Simulation::new().with_max_events(100);
        sim.schedule(SimTime::ZERO, ());
        let outcome = sim.run_until(SimTime::FAR_FUTURE, |_, (), sched| {
            sched.after(1.0, ());
        });
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(sim.processed(), 100);
    }

    #[test]
    fn now_next_preserves_fifo() {
        let mut sim: Simulation<&str> = Simulation::new();
        sim.schedule(SimTime::from_secs(1.0), "a");
        let mut order = Vec::new();
        sim.run_until(SimTime::from_secs(2.0), |_, e, sched| {
            order.push(e);
            if e == "a" {
                sched.now_next("b");
                sched.now_next("c");
            }
        });
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule(SimTime::from_secs(5.0), ());
        sim.run_until(SimTime::from_secs(10.0), |_, (), sched| {
            sched.at(SimTime::from_secs(1.0), ());
        });
    }
}
