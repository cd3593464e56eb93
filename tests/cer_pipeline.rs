//! Cross-crate integration of the CER pipeline: full tree → the known
//! members' root paths → partial tree → Algorithm 1 → repair planning.

use rom::cer::{find_mlc_group, group_correlation, random_group, PartialTree, StripePlan};
use rom::overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId};
use rom::sim::{SimRng, SimTime};
use rom::stats::BoundedPareto;

/// Grows a paper-workload tree of `n` members by min-depth placement.
fn grown_tree(n: u64, seed: u64) -> MulticastTree {
    let mut rng = SimRng::seed_from(seed);
    let bw = BoundedPareto::paper_bandwidth();
    let mut tree = MulticastTree::new(paper_source(Location(0)));
    for id in 1..=n {
        let profile = MemberProfile::new(
            NodeId(id),
            bw.sample(&mut rng),
            SimTime::from_secs(id as f64),
            1e9,
            Location(id as u32),
        );
        let parent = tree
            .attached_by_depth()
            .find(|&p| tree.has_free_slot(p))
            .expect("paper workload always has capacity in a growing tree");
        tree.attach(profile, parent).unwrap();
    }
    tree.check_invariants().unwrap();
    tree
}

/// The partial tree rebuilt from a view's root paths has the ground-truth
/// tree's shape: every subtree root Algorithm 1 draws from the fragment's
/// root is a distinct child of the source, so while K does not exceed the
/// number of the source's children the view reaches, each group has zero
/// ground-truth correlation and lies on the view's root paths. The
/// fragment depends on the view as a set, not on its order.
#[test]
fn partial_tree_correlations_match_ground_truth() {
    let tree = grown_tree(300, 1);
    let mut rng = SimRng::seed_from(2);
    let members: Vec<NodeId> = tree
        .attached_by_depth()
        .filter(|&m| m != tree.root())
        .collect();
    let view = rng.sample(&members, 80);
    let partial = PartialTree::from_tree(&tree, view.iter().copied());
    let mut reversed = view.clone();
    reversed.reverse();
    let shuffled = PartialTree::from_tree(&tree, reversed);
    // The ground truth: the nodes on the view's root paths, and the
    // source's children among them.
    let mut on_paths: Vec<NodeId> = view
        .iter()
        .flat_map(|&m| tree.overlay_path(m).expect("attached"))
        .collect();
    on_paths.sort();
    on_paths.dedup();
    let fan_out = on_paths
        .iter()
        .filter(|&&n| tree.parent(n) == Some(tree.root()))
        .count();
    assert!(fan_out >= 6, "the view reaches {fan_out} source children");
    for k in 1..=6 {
        for round in 0..20 {
            let mut rng = SimRng::seed_from(round);
            let group = find_mlc_group(&partial, k, &[], &mut rng);
            assert_eq!(group.len(), k);
            assert_eq!(group_correlation(&tree, &group), 0, "K = {k}: {group:?}");
            for g in &group {
                assert!(
                    on_paths.binary_search(g).is_ok(),
                    "{g} is off the view's paths"
                );
            }
            let mut again = SimRng::seed_from(round);
            assert_eq!(find_mlc_group(&shuffled, k, &[], &mut again), group);
        }
    }
}

/// Algorithm 1 consistently produces groups with (weakly) lower pairwise
/// correlation than random selection, measured on the ground-truth tree.
#[test]
fn mlc_groups_beat_random_on_ground_truth_correlation() {
    let tree = grown_tree(400, 3);
    let mut rng = SimRng::seed_from(4);
    let members: Vec<NodeId> = tree
        .attached_by_depth()
        .filter(|&m| m != tree.root())
        .collect();

    let mut mlc_total = 0usize;
    let mut random_total = 0usize;
    for round in 0..60 {
        let requester = members[round * 5 % members.len()];
        let view = rng.sample(&members, 80);
        let partial =
            PartialTree::from_tree(&tree, view.iter().copied().filter(|&m| m != requester));
        let mut exclude = tree.ancestors(requester);
        exclude.push(requester);
        let mlc = find_mlc_group(&partial, 3, &exclude, &mut rng);
        let rnd = random_group(&partial, 3, &exclude, &mut rng);
        mlc_total += group_correlation(&tree, &mlc);
        random_total += group_correlation(&tree, &rnd);
    }
    assert!(
        mlc_total < random_total,
        "MLC total correlation {mlc_total} should beat random {random_total}"
    );
}

/// Recovery groups never contain the requester or its own ancestors —
/// they fail together with it, which is the whole point of MLC.
#[test]
fn groups_exclude_fate_sharing_members() {
    let tree = grown_tree(200, 5);
    let mut rng = SimRng::seed_from(6);
    let members: Vec<NodeId> = tree
        .attached_by_depth()
        .filter(|&m| m != tree.root())
        .collect();
    for &requester in members.iter().take(40) {
        let partial =
            PartialTree::from_tree(&tree, members.iter().copied().filter(|&m| m != requester));
        let mut exclude = tree.ancestors(requester);
        exclude.push(requester);
        let group = find_mlc_group(&partial, 4, &exclude, &mut rng);
        for g in &group {
            assert!(!exclude.contains(g), "{g} fate-shares with {requester}");
            assert_ne!(*g, tree.root());
        }
    }
}

/// End-to-end repair arithmetic: striping a 15-second outage across a
/// group covering the full stream rate repairs almost everything within
/// the §6 playback budget. A small late tail is inherent to the paper's
/// `(n mod 100)` rule: a 150-packet gap spans 1.5 modulo periods, so the
/// members owning the repeated slots serve proportionally more than their
/// residual share.
#[test]
fn full_rate_group_repairs_outage_within_deadlines() {
    use rom::cer::StreamClock;
    let clock = StreamClock::paper();
    let t0 = 500.0;
    let s0 = clock.seq_at(SimTime::from_secs(t0));
    let s1 = clock.seq_at(SimTime::from_secs(t0 + 15.0));
    let residuals = [0.5, 0.4, 0.3]; // Σ = 1.2 ≥ 1: full-rate recovery
    let plan = StripePlan::plan(&residuals);
    assert_eq!(plan.coverage(), 1.0);

    let t_repair = SimTime::from_secs(t0 + 1.0);
    let mut served = [0u64; 3];
    let mut late = 0;
    for seq in s0..s1 {
        let idx = plan.assigned_member(seq).expect("full coverage");
        served[idx] += 1;
        let arrival = t_repair + served[idx] as f64 / (residuals[idx] * clock.rate_pps());
        if arrival > clock.playback_deadline(seq) {
            late += 1;
        }
    }
    let total = s1 - s0;
    assert!(
        late * 5 < total,
        "a full-rate group should miss few deadlines: {late}/{total} late"
    );
}
