//! Scale-regression wall for the indexed tree hot paths and the event
//! queue at million-pending depth.
//!
//! Before the per-depth eviction indices and the incremental switch
//! restamp, the ROST switch cost O(subtree) and the centralized eviction
//! search cost O(M) per probe — at 100 000 members a single switch took
//! milliseconds. This wall builds churned trees at 1k and 100k members and
//! asserts the per-op costs stay within a fixed multiple of the 1k cost,
//! i.e. the operations scale (poly)logarithmically, not linearly.
//!
//! Two layers of machine normalization keep the wall portable:
//!
//! - the headline bound is a *ratio* (100k cost over 1k cost, measured
//!   back to back in one process), which cancels CPU speed exactly;
//! - the absolute backstops are denominated in `calibration_spin_ns`
//!   units — the same fixed integer spin every perfbench record carries —
//!   so they track single-core speed to first order instead of assuming
//!   one machine's nanoseconds.
//!
//! Timing in unoptimized builds measures the compiler, not the algorithm,
//! so the scale test is ignored under `debug_assertions` and CI runs it in
//! a dedicated release job (`mega-smoke`). The builder-equivalence test
//! runs everywhere.

// The fixed single-core integer spin every perfbench record carries as
// `calibration_spin_ns`; the absolute backstops below are denominated in
// these machine-relative units.
use rom_bench::calibration_spin_ns;
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId};
use rom_sim::{EventQueue, SimRng, SimTime};
use rom_stats::BoundedPareto;
use std::hint::black_box;
use std::time::Instant;

/// The paper-bandwidth member population of the scale wall, drawn from
/// the §5 bandwidth distribution with a fixed seed discipline.
fn profile_for(id: u64, bw: f64) -> MemberProfile {
    // Clamp below at one slot: with the capped source, a run of
    // free-riders could otherwise exhaust the capacity pool mid-build.
    MemberProfile::new(
        NodeId(id),
        bw.max(1.0),
        SimTime::from_secs(id as f64),
        1e9,
        Location(id as u32),
    )
}

/// Frontier-cursor builder — an amortized-O(1)-per-attach construction
/// for the 100k-member trees, of the kind `build` makes (plain or
/// indexed). Attach order coincides with breadth-first (depth, id) order
/// (depths are assigned non-decreasing in id) and a filled node never
/// regains capacity during the build, so the shallowest free parent only
/// ever moves forward through the attach order.
fn build_cursor(n: u64, seed: u64, build: fn(MemberProfile) -> MulticastTree) -> MulticastTree {
    let mut rng = SimRng::seed_from(seed);
    let bw = BoundedPareto::paper_bandwidth();
    let source = MemberProfile::new(NodeId::SOURCE, 8.0, SimTime::ZERO, 1e9, Location(0));
    let mut tree = build(source);
    let mut order: Vec<NodeId> = vec![NodeId::SOURCE];
    let mut cursor = 0usize;
    for id in 1..=n {
        let profile = profile_for(id, bw.sample(&mut rng));
        while !tree.has_free_slot(order[cursor]) {
            cursor += 1;
        }
        tree.attach(profile, order[cursor]).expect("valid parent");
        order.push(NodeId(id));
    }
    tree
}

/// The pre-PR-8 builder: a full breadth-first scan for the first free
/// parent on every attach. O(M) per attach — kept here only as the
/// reference the cursor builder is checked against.
fn build_scan(n: u64, seed: u64) -> MulticastTree {
    let mut rng = SimRng::seed_from(seed);
    let bw = BoundedPareto::paper_bandwidth();
    let source = MemberProfile::new(NodeId::SOURCE, 8.0, SimTime::ZERO, 1e9, Location(0));
    let mut tree = MulticastTree::new(source);
    for id in 1..=n {
        let profile = profile_for(id, bw.sample(&mut rng));
        let parent = tree
            .attached_by_depth()
            .find(|&p| tree.has_free_slot(p))
            .expect("capacity available");
        tree.attach(profile, parent).expect("valid parent");
    }
    tree
}

/// The cursor builder must produce the identical tree, not merely a valid
/// one: the scale wall's bounds are only comparable across changes if the
/// timed tree shape is unchanged. Checked at a size where the O(M²)
/// reference is still affordable.
#[test]
fn cursor_builder_matches_scan_builder() {
    let n = 1_500;
    let fast = build_cursor(n, n, MulticastTree::new);
    let slow = build_scan(n, n);
    for id in (0..=n).map(NodeId) {
        assert_eq!(fast.parent(id), slow.parent(id), "parent of {id:?}");
        assert_eq!(fast.depth(id), slow.depth(id), "depth of {id:?}");
    }
}

/// True when promoting `n` over its parent is legal: attached (detached
/// members of a displaced orphan subtree keep their internal parent
/// pointers, so a parent check alone is not enough), below depth 1, and
/// able to serve at least the demoted parent.
fn switchable(tree: &MulticastTree, n: NodeId) -> bool {
    tree.depth(n).is_some()
        && tree.parent(n).is_some_and(|p| p != tree.root())
        && tree.capacity(n) >= 1
}

/// True when a promote/demote round trip at `n` displaces nobody in either
/// direction (both capacities cover both fan-outs), so the pair restores
/// the tree's shape and can be repeated indefinitely by the timing loop.
fn cleanly_switchable(tree: &MulticastTree, n: NodeId) -> bool {
    if !switchable(tree, n) {
        return false;
    }
    let p = tree.parent(n).expect("switchable implies a parent");
    let fan = tree.child_count(n).max(tree.child_count(p));
    tree.capacity(n) >= fan && tree.capacity(p) >= fan
}

/// Applies attach/detach and switch churn so the measured indices carry
/// post-mutation state (re-keyed B-tree sets, recycled arena slots) rather
/// than a pristine monotone build.
fn churn(tree: &mut MulticastTree) {
    let parent = tree
        .attached_by_depth()
        .find(|&p| tree.has_free_slot(p))
        .expect("capacity available");
    for k in 0..1_000 {
        let id = NodeId(1_000_000 + k);
        let joiner = MemberProfile::new(id, 2.0, SimTime::ZERO, 1e9, Location(1));
        tree.attach(joiner, parent).expect("free slot");
        black_box(tree.remove(id).expect("known member"));
    }
    let candidates: Vec<NodeId> = tree
        .attached_by_depth()
        .filter(|&n| switchable(tree, n))
        .take(64)
        .collect();
    for cand in candidates {
        if !switchable(tree, cand) {
            continue;
        }
        let rec = tree
            .swap_with_parent(cand, |p| p.bandwidth)
            .expect("legal switch");
        // Best-effort restore; churn does not require the exact shape back.
        let _ = tree.swap_with_parent(rec.demoted, |p| p.bandwidth);
    }
    tree.check_invariants().expect("churned tree is coherent");
}

/// Best of 5 timed batches of `iters` calls, in ns per call.
fn measure<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// ns per single switch (half a promote/demote round trip).
fn switch_ns(tree: &mut MulticastTree) -> f64 {
    let cand = tree
        .attached_by_depth()
        .find(|&n| cleanly_switchable(tree, n))
        .expect("switchable node");
    measure(5_000, || {
        let rec = tree
            .swap_with_parent(cand, |p| p.bandwidth)
            .expect("legal switch");
        black_box(
            tree.swap_with_parent(rec.demoted, |p| p.bandwidth)
                .expect("legal switch back"),
        );
    }) / 2.0
}

/// ns per full eviction search: both ordered baselines' per-depth weakest
/// probes across every layer — exactly the work `find_eviction` does for a
/// joiner nobody loses to.
fn eviction_ns(tree: &MulticastTree) -> f64 {
    let now = SimTime::from_secs(1e6);
    measure(5_000, || {
        let mut acc = 0u64;
        for depth in 1..=tree.max_depth() {
            if let Some((bw, id)) = tree.weakest_by_bandwidth(depth) {
                acc ^= id.0 ^ bw.to_bits();
            }
            if let Some((age, id)) = tree.weakest_by_age(depth, now) {
                acc ^= id.0 ^ age.to_bits();
            }
        }
        black_box(acc);
    })
}


/// The scale wall proper. Bounds are loose by design — roughly 10× the
/// ratios observed on the reference machine (~1× switch, ~2× eviction) —
/// so scheduler noise cannot trip them, while the pre-index behavior
/// (switch ~6 000× the 1k cost, eviction ~100×) fails by orders of
/// magnitude. The switch is timed on the plain tree every distributed
/// run uses, the eviction search on the indexed tree the centralized
/// runs use.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing wall; run in release (CI mega-smoke job)"
)]
fn hundred_k_ops_stay_within_a_fixed_multiple_of_1k() {
    let spin = calibration_spin_ns();
    let [switch_small, switch_big] = [1_000, 100_000].map(|n| {
        let mut tree = build_cursor(n, n, MulticastTree::new);
        churn(&mut tree);
        switch_ns(&mut tree)
    });
    let [evict_small, evict_big] = [1_000, 100_000].map(|n| {
        let mut tree = build_cursor(n, n, MulticastTree::with_order_index);
        churn(&mut tree);
        eviction_ns(&tree)
    });
    println!(
        "mega_smoke: spin {spin:.2} ns/iter | switch 1k {switch_small:.0} ns \
         -> 100k {switch_big:.0} ns | eviction 1k {evict_small:.0} ns \
         -> 100k {evict_big:.0} ns"
    );

    let switch_ratio = switch_big / switch_small;
    assert!(
        switch_ratio <= 10.0,
        "switch cost grew {switch_ratio:.1}x from 1k to 100k members \
         ({switch_small:.0} ns -> {switch_big:.0} ns); the incremental \
         restamp should keep it near-flat"
    );
    let evict_ratio = evict_big / evict_small;
    assert!(
        evict_ratio <= 10.0,
        "eviction search grew {evict_ratio:.1}x from 1k to 100k members \
         ({evict_small:.0} ns -> {evict_big:.0} ns); the per-depth indices \
         should keep it O(depth log layer)"
    );

    // Absolute backstops in spin units, in case both sizes regress
    // together (a ratio cannot see that). The old full-subtree restamp
    // put a 100k switch near 2 000 000 spin units.
    assert!(
        switch_big <= 20_000.0 * spin,
        "100k switch took {switch_big:.0} ns (> 20k spin units at \
         {spin:.2} ns/spin)"
    );
    assert!(
        evict_big <= 200_000.0 * spin,
        "100k eviction search took {evict_big:.0} ns (> 200k spin units at \
         {spin:.2} ns/spin)"
    );
}

/// Bounded-cost wall for the event queue at `--mega` depth: one million
/// pending events, where a heap push or pop sifts through up to 20 levels.
/// Three phases — bulk fill, a hold-model steady state (pop one, schedule
/// its successor: the canonical DES access pattern), and a full drain —
/// each bounded in calibration-spin units so the wall tracks machine
/// speed. The bound leaves room for those O(log n) sifts and their cache
/// misses, and still fails a queue that degrades to O(n) per op. A
/// deterministic footprint bound rides along:
/// `bytes_high_water` is exact, and the process peak RSS gets a loose
/// sanity ceiling (other tests in this binary share the process, so the
/// RSS bound only catches catastrophic blowup).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing wall; run in release (CI mega-smoke job)"
)]
fn million_pending_queue_ops_stay_bounded() {
    const N: u64 = 1_000_000;
    let spin = calibration_spin_ns();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(N as usize);

    // Deterministic mostly-monotone schedule: exponential-ish holds drawn
    // from a xorshift stream, exactly the shape a churn run produces.
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64 * 10.0
    };

    let start = Instant::now();
    let mut now = SimTime::ZERO;
    for i in 0..N {
        now += step();
        q.push(now, i);
    }
    let fill_ns = start.elapsed().as_nanos() as f64 / N as f64;

    let start = Instant::now();
    for i in 0..N {
        let (t, _) = q.pop().expect("queue holds a million events");
        q.push(t + step(), i);
    }
    let hold_ns = start.elapsed().as_nanos() as f64 / N as f64;

    let start = Instant::now();
    let mut last = SimTime::ZERO;
    while let Some((t, _)) = q.pop() {
        assert!(t >= last, "drain went backwards: {t:?} < {last:?}");
        last = t;
    }
    let drain_ns = start.elapsed().as_nanos() as f64 / N as f64;

    println!(
        "mega_smoke: spin {spin:.2} ns/iter | 1M queue fill {fill_ns:.0} ns/op \
         | hold {hold_ns:.0} ns/op | drain {drain_ns:.0} ns/op | peak \
         {} bytes",
        q.bytes_high_water()
    );

    // ~10-230 spin units/op observed on the reference machine (fill
    // cheapest, hold dearest); 2000 is the same ~10x headroom discipline
    // as the tree walls above.
    for (phase, ns) in [("fill", fill_ns), ("hold", hold_ns), ("drain", drain_ns)] {
        assert!(
            ns <= 2_000.0 * spin,
            "1M-pending queue {phase} took {ns:.0} ns/op (> 2000 spin units \
             at {spin:.2} ns/spin)"
        );
    }

    // Exact deterministic footprint: the peak level is the N entries of
    // the bulk fill (the hold phase pops before it pushes), each a
    // (time, seq, payload) triple — 24 bytes for a u64 payload.
    let expected = N as usize * 24;
    assert!(
        q.bytes_high_water() <= expected as u64,
        "queue peak footprint {} bytes exceeds the audited {} (entry \
         layout grew?)",
        q.bytes_high_water(),
        expected
    );
    if let Some(rss) = rom_obs::peak_rss_bytes() {
        assert!(
            rss <= 4 << 30,
            "process peak RSS {rss} bytes (> 4 GiB) during the 1M queue wall"
        );
    }
}
