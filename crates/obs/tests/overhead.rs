//! Overhead guard: with observability disabled the instrumented
//! hot-path pattern must not allocate per event.
//!
//! The pattern under test is the one every instrumented call site uses:
//!
//! ```ignore
//! if obs.is_active() {
//!     obs.emit(TraceEvent::new(..).u64(..));
//! }
//! obs.count("name", 1);
//! ```
//!
//! This file is its own test binary so the counting allocator sees only
//! this test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations made through the global allocator, per
/// thread: the libtest harness runs its own bookkeeping threads whose
/// stray allocations must not count against the hot path under test.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialized thread-local `Cell` (no lazy allocation), read with
// `try_with` so allocation during TLS teardown stays safe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

use rom_obs::{Obs, Subsystem, TraceEvent};

/// Drives the instrumented hot-path pattern `n` times.
fn hammer(obs: &mut Obs, n: u64) {
    for i in 0..n {
        if obs.is_active() {
            obs.emit(
                TraceEvent::new(i as f64, Subsystem::Churn, "join")
                    .u64("id", i)
                    .bool("ok", true),
            );
        }
        obs.count("events", 1);
        obs.gauge("depth", i as f64);
        obs.observe("latency", (i % 7) as f64);
    }
}

#[test]
fn disabled_path_is_allocation_free() {
    let mut disabled = Obs::disabled();

    let before = allocations();
    hammer(&mut disabled, 10_000);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled observability must not allocate per event"
    );
    // And the guard really did skip event construction: nothing recorded.
    assert_eq!(disabled.trace_events(), 0);
    assert_eq!(disabled.snapshot().counter("events"), 0);
}
