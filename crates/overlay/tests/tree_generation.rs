//! Tier-1 regression for the arena's generational debug checking.
//!
//! The slab arena's LIFO free list recycles slots, so a `NodeIndex` held
//! across a `remove` can silently alias a *different* member — the exact
//! hazard rom-lint's R5 `stale-arena-index` hunts statically. This suite
//! pins the dynamic half of that defense: under `debug_assertions`, a
//! resurrected index panics at first use with a diagnostic naming both
//! generations, while the same operation sequence through the public
//! id-based APIs stays silent and correct. Release builds compile the
//! check out entirely (the release half of this file documents the
//! aliasing behaviour the checks exist to catch).

use rom_overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId, NodeIndex};
use rom_sim::SimTime;

fn profile(id: u64, bw: f64) -> MemberProfile {
    MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
}

/// Builds source → 1 → 2, interns node 2's index, removes node 2, then
/// attaches node 3 so the LIFO free list hands node 2's slot to node 3.
/// Returns the tree and the now-stale index.
fn tree_with_resurrected_slot() -> (MulticastTree, NodeIndex) {
    let mut tree = MulticastTree::new(paper_source(Location(0)));
    tree.attach(profile(1, 4.0), NodeId(0)).unwrap();
    tree.attach(profile(2, 2.0), NodeId(1)).unwrap();
    let stale = tree.index_of(NodeId(2)).unwrap();
    tree.remove(NodeId(2)).unwrap();
    tree.attach(profile(3, 2.0), NodeId(1)).unwrap();
    let reused = tree.index_of(NodeId(3)).unwrap();
    assert_eq!(
        reused.index(),
        stale.index(),
        "precondition: the free list must recycle node 2's slot for node 3"
    );
    (tree, stale)
}

#[cfg(debug_assertions)]
#[test]
fn resurrected_index_panics_naming_both_generations() {
    let (tree, stale) = tree_with_resurrected_slot();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tree.profile_ix(stale).id
    }))
    .expect_err("debug build must reject a NodeIndex resurrected through the free list");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    // The diagnostic names the slot's current generation and the stamp
    // the index was minted under, and points at the fix.
    assert!(msg.contains("stale NodeIndex"), "diagnostic: {msg}");
    assert!(msg.contains("generation 1"), "slot generation named: {msg}");
    assert!(
        msg.contains("minted at generation 0"),
        "index generation named: {msg}"
    );
    assert!(msg.contains("re-intern"), "fix suggested: {msg}");
}

#[cfg(not(debug_assertions))]
#[test]
fn resurrected_index_aliases_silently_in_release() {
    // Release builds carry no generation stamps: the stale index reads
    // whichever member currently occupies the slot. This is the quiet
    // corruption the debug check (and lint rule R5) exists to catch —
    // asserted here so a future "optimization" that accidentally ships
    // the check into release shows up as a test failure.
    let (tree, stale) = tree_with_resurrected_slot();
    assert_eq!(tree.profile_ix(stale).id, NodeId(3));
}

#[test]
fn same_sequence_via_public_apis_is_silent_and_correct() {
    // Identical churn, but every access re-interns through the id map —
    // no panic in any build profile, and the tree is fully consistent.
    let (tree, _stale) = tree_with_resurrected_slot();
    assert!(!tree.contains(NodeId(2)), "removed member is gone");
    let ix3 = tree.index_of(NodeId(3)).unwrap();
    assert_eq!(tree.profile_ix(ix3).id, NodeId(3));
    assert_eq!(tree.id_of(ix3), NodeId(3));
    assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
    tree.check_invariants().unwrap();
}
