//! The determinism wall for the span profiler: enabling `--profile`
//! must not perturb a single deterministic artifact, and the profile's
//! own deterministic half (span paths and op counts) must be identical
//! regardless of worker count.
//!
//! Also hosts the zero-allocation guard for the disabled span path —
//! this file is its own test binary, so the counting global allocator
//! sees only this test's traffic (mirroring `crates/obs/tests/overhead.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations made through the global allocator, per
/// thread (the libtest harness's own threads must not count against
/// the path under test).
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

use rom_bench::{instrumented_churn_cell, CellOut, Json, Sidecars, Sweep};
use rom_engine::{AlgorithmKind, ChurnConfig};
use rom_obs::Prof;

/// A small-but-real churn configuration with real switching activity.
fn quick_churn(seed: u64) -> ChurnConfig {
    let mut cfg = ChurnConfig::quick(AlgorithmKind::Rost, 150).with_seed(seed);
    cfg.warmup_secs = 150.0;
    cfg.measure_secs = 400.0;
    cfg
}

const TRACE_ONLY: Sidecars = Sidecars {
    trace: Some("unused-designator"),
    profile: None,
};
const TRACE_AND_PROFILE: Sidecars = Sidecars {
    trace: Some("unused-designator"),
    profile: Some("unused-designator"),
};
const PROFILE_ONLY: Sidecars = Sidecars {
    trace: None,
    profile: Some("unused-designator"),
};

/// Profiling on vs off: the report and every deterministic trace
/// artifact must be byte-identical, for each of three seeds.
#[test]
fn profiling_does_not_perturb_deterministic_artifacts() {
    for seed in 1..=3u64 {
        let (plain_report, plain_trace, plain_profile) =
            instrumented_churn_cell("prof_det", quick_churn(seed), seed, TRACE_ONLY);
        let (prof_report, prof_trace, profile) =
            instrumented_churn_cell("prof_det", quick_churn(seed), seed, TRACE_AND_PROFILE);

        assert!(plain_profile.is_none(), "seed {seed}: unrequested profile");
        let profile = profile.expect("profile requested");
        assert!(profile.contains("\"kind\":\"rom-profile\""));

        assert_eq!(
            format!("{plain_report:?}"),
            format!("{prof_report:?}"),
            "seed {seed}: report (stdout source) diverged under profiling"
        );
        let plain_trace = plain_trace.expect("trace requested");
        let prof_trace = prof_trace.expect("trace requested");
        assert_eq!(
            plain_trace.jsonl, prof_trace.jsonl,
            "seed {seed}: trace bytes diverged under profiling"
        );
        assert_eq!(
            plain_trace.manifest.to_json(),
            prof_trace.manifest.to_json(),
            "seed {seed}: manifest diverged under profiling"
        );
        assert_eq!(
            plain_trace.metrics_json, prof_trace.metrics_json,
            "seed {seed}: metrics diverged under profiling"
        );
        assert_eq!(
            plain_trace.health, prof_trace.health,
            "seed {seed}: health timeline diverged under profiling"
        );
    }
}

/// The deterministic half of a parsed profile: `(path, count)` per span,
/// path-sorted (wall-time fields are explicitly excluded).
fn op_counts(profile: &str) -> Vec<(String, u64)> {
    let doc = Json::parse(profile).expect("profile parses");
    doc.get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .map(|s| {
            (
                s.str_field("path").expect("span path").to_string(),
                s.u64_field("count").expect("span count"),
            )
        })
        .collect()
}

/// Runs a 3-seed profiled sweep and returns each seed's op counts.
fn profiled_sweep(jobs: usize) -> Vec<Vec<(String, u64)>> {
    let out = Sweep::with_jobs(jobs).run(1, 3, |cell| {
        let (report, trace, profile) =
            instrumented_churn_cell("prof_jobs", quick_churn(cell.seed), cell.seed, PROFILE_ONLY);
        assert!(trace.is_none());
        CellOut {
            report,
            warnings: Vec::new(),
            trace: None,
            profile,
        }
    });
    out.profiles
        .iter()
        .map(|(_, profile)| op_counts(profile))
        .collect()
}

/// Span paths and op counts are a pure function of the simulated run:
/// identical per seed whether the sweep ran serially or on 4 workers.
#[test]
fn span_op_counts_are_seed_deterministic_across_jobs() {
    let serial = profiled_sweep(1);
    let parallel = profiled_sweep(4);
    assert_eq!(serial.len(), 3, "one profile per seed");
    assert_eq!(serial, parallel, "op counts diverged with jobs=4");

    // The instrumentation actually covers the ROST hot paths: engine
    // dispatch and the switch/restamp + lock-assembly pairs record ops.
    let paths: Vec<&str> = serial[0].iter().map(|(p, _)| p.as_str()).collect();
    for needle in [
        "engine.arrival",
        "engine.departure",
        "overlay.switch/overlay.switch_restamp",
        "rost.attempt/rost.lock_assembly",
    ] {
        assert!(
            paths.iter().any(|p| p.ends_with(needle) || *p == needle),
            "no span path matches {needle}: {paths:?}"
        );
    }
    // Seeds genuinely differ (the sweep isn't collapsing cells).
    assert_ne!(serial[0], serial[1], "seeds 1 and 2 produced equal counts");
}

/// The eviction scan and the min-depth fallback (ordered-algorithm paths
/// ROST never takes) are instrumented too.
#[test]
fn eviction_scan_is_instrumented_under_ordered_algorithms() {
    let mut cfg = ChurnConfig::quick(AlgorithmKind::RelaxedBandwidthOrdered, 150).with_seed(1);
    cfg.warmup_secs = 150.0;
    cfg.measure_secs = 400.0;
    let (_report, _trace, profile) = instrumented_churn_cell("prof_bo", cfg, 1, PROFILE_ONLY);
    let counts = op_counts(&profile.expect("profile requested"));
    for span in ["overlay.find_eviction", "overlay.min_depth_fallback"] {
        assert!(
            counts.iter().any(|(p, n)| p.ends_with(span) && *n > 0),
            "no {span} span recorded: {counts:?}"
        );
    }
}

/// A disabled profiler handle must not allocate per span — the hot
/// paths run with it permanently in place.
#[test]
fn disabled_span_path_is_allocation_free() {
    let prof = Prof::disabled();
    // Warm up whatever lazy state exists.
    for _ in 0..8 {
        let _g = prof.span("warmup");
    }
    let before = allocations();
    for _ in 0..10_000 {
        let _g = prof.span("hot");
        let _h = prof.span("nested");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled span path allocated {} times over 20k spans",
        after - before
    );
}
