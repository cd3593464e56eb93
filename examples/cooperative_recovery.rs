//! Cooperative error recovery in action: a hand-built multicast tree, a
//! failure, and a packet-by-packet walk through CER — minimum-loss-
//! correlation group selection (Algorithm 1) and residual-bandwidth
//! striping.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example cooperative_recovery
//! ```

use rom::cer::{
    find_mlc_group, group_correlation, PartialTree, SeqRangeSet, StreamClock, StripePlan,
};
use rom::overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId};
use rom::sim::{SimRng, SimTime};

fn member(id: u64, bw: f64) -> MemberProfile {
    MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e9, Location(id as u32))
}

fn main() {
    // A three-branch tree under the source, eight members per branch.
    //
    //        source
    //       /   |   \
    //      1    2    3
    //     ...  ...  ...
    let mut tree = MulticastTree::new(paper_source(Location(0)));
    let mut next = 10u64;
    for branch in [1u64, 2, 3] {
        tree.attach(member(branch, 4.0), NodeId::SOURCE).unwrap();
        for _ in 0..3 {
            tree.attach(member(next, 2.0), NodeId(branch)).unwrap();
            let child = next;
            next += 1;
            tree.attach(member(next, 0.5), NodeId(child)).unwrap();
            next += 1;
        }
    }
    println!(
        "tree built: {} members, depth {}",
        tree.len(),
        tree.max_depth()
    );

    // The member at the bottom of branch 1 assembles its partial view of
    // the tree from the root paths the other members gossip (§4.1,
    // Fig. 3)...
    let me = NodeId(11);
    let known: Vec<NodeId> = tree
        .member_ids()
        .filter(|&m| m != me && m != NodeId::SOURCE)
        .collect();
    let partial = PartialTree::from_tree(&tree, known.iter().copied());
    println!(
        "partial tree reconstructed from the root paths of {} known members",
        known.len()
    );

    // ...and runs Algorithm 1 to pick a minimum-loss-correlation recovery
    // group, excluding itself and its own ancestors.
    let mut rng = SimRng::seed_from(7).fork("mlc-demo");
    let mut exclude = tree.ancestors(me);
    exclude.push(me);
    let group_members = find_mlc_group(&partial, 3, &exclude, &mut rng);
    println!(
        "MLC recovery group: {group_members:?} (pairwise loss correlation {})",
        group_correlation(&tree, &group_members)
    );

    // Its upstream branch head (node 1) fails abruptly.
    let removed = tree.remove(NodeId(1)).unwrap();
    println!(
        "\nnode n1 departs abruptly: {} descendants disrupted",
        removed.affected_descendants.len()
    );

    let clock = StreamClock::paper();
    let failure_time = SimTime::from_secs(120.0);

    // Fifteen seconds of outage at 10 packets/second: 150 packets to
    // repair, striped across the group's residual bandwidths.
    let s0 = clock.seq_at(failure_time);
    let s1 = clock.seq_at(failure_time + 15.0);
    let residuals = [0.45, 0.30, 0.55]; // fractions of the stream rate
    let plan = StripePlan::plan_full_coverage(&residuals);
    println!(
        "\nrepairing packets {s0}..{s1} across {} members (aggregate {:.0}% of stream rate):",
        group_members.len(),
        plan.coverage() * 100.0
    );
    for seg in plan.segments() {
        println!(
            "  member #{} repairs (n mod 100) in [{}, {}) at ε = {:.2}",
            seg.member_index, seg.lo, seg.hi, residuals[seg.member_index]
        );
    }

    // Count on-time arrivals against playback deadlines.
    let mut received = SeqRangeSet::new();
    let t_repair = failure_time + 1.0;
    let mut served = vec![0u64; residuals.len()];
    let mut on_time = 0u64;
    for seq in s0..s1 {
        if let Some(idx) = plan.assigned_member(seq) {
            served[idx] += 1;
            let arrival = t_repair + served[idx] as f64 / (residuals[idx] * clock.rate_pps());
            if arrival <= clock.playback_deadline(seq) {
                on_time += 1;
                received.insert(seq);
            }
        }
    }
    println!(
        "\n{on_time}/{} packets repaired within their playback deadlines \
         ({} contiguous ranges in the buffer)",
        s1 - s0,
        received.ranges().len()
    );
}
