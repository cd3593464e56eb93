//! The benchmark's only wall-clock reads. Host time reaches nothing but
//! the benchmark's own output; the simulators never see it.

// rom-lint: allow(wall-clock-discipline) -- the benchmark measures host time; its readings only reach the benchmark's result line and record
use std::time::Instant;

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // rom-lint: allow(wall-clock-discipline) -- benchmark timing, reported only in the benchmark's output
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Seconds since a fixed start, for the measurement loop's deadline.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // rom-lint: allow(wall-clock-discipline) -- the measurement window's start; it only ends the benchmark loop
    started: Instant,
}

impl Stopwatch {
    /// A stopwatch started now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            // rom-lint: allow(wall-clock-discipline) -- the measurement window's start, used only to end the benchmark loop
            started: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn secs(self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}
