//! Reproducibility: a single `u64` seed pins down every experiment
//! bit-for-bit, across both simulators and all algorithms.

use rom::engine::{AlgorithmKind, ChurnConfig, ChurnSim, StreamingConfig, StreamingSim};

fn quick(algorithm: AlgorithmKind, seed: u64) -> ChurnConfig {
    let mut cfg = ChurnConfig::quick(algorithm, 250);
    cfg.seed = seed;
    cfg.warmup_secs = 150.0;
    cfg.measure_secs = 400.0;
    cfg
}

#[test]
fn churn_reports_are_bitwise_reproducible() {
    for algorithm in AlgorithmKind::ALL {
        let a = ChurnSim::new(quick(algorithm, 7)).run();
        let b = ChurnSim::new(quick(algorithm, 7)).run();
        assert_eq!(a.disruption_events, b.disruption_events, "{algorithm}");
        assert_eq!(
            a.disruptions_per_lifetime.mean().to_bits(),
            b.disruptions_per_lifetime.mean().to_bits(),
            "{algorithm}"
        );
        assert_eq!(
            a.service_delay_ms.mean().to_bits(),
            b.service_delay_ms.mean().to_bits(),
            "{algorithm}"
        );
        assert_eq!(a.switches, b.switches, "{algorithm}");
        assert_eq!(a.evictions, b.evictions, "{algorithm}");
        assert_eq!(a.disruption_counts, b.disruption_counts, "{algorithm}");
    }
}

#[test]
fn different_seeds_explore_different_histories() {
    let a = ChurnSim::new(quick(AlgorithmKind::Rost, 1)).run();
    let b = ChurnSim::new(quick(AlgorithmKind::Rost, 2)).run();
    // Identical totals across all of these under different seeds would
    // mean the seed is being ignored somewhere.
    let same = (a.disruption_events == b.disruption_events) as u8
        + (a.switches == b.switches) as u8
        + (a.disruptions_per_lifetime.count() == b.disruptions_per_lifetime.count()) as u8;
    assert!(same < 3, "seeds 1 and 2 produced identical histories");
}

#[test]
fn streaming_reports_are_bitwise_reproducible() {
    let make = || {
        let mut churn = ChurnConfig::quick(AlgorithmKind::MinimumDepth, 300);
        churn.seed = 5;
        churn.warmup_secs = 150.0;
        churn.measure_secs = 400.0;
        StreamingConfig::paper(churn, 2)
    };
    let a = StreamingSim::new(make()).run();
    let b = StreamingSim::new(make()).run();
    assert_eq!(a.outages, b.outages);
    assert_eq!(a.packets_starved, b.packets_starved);
    assert_eq!(a.packets_repaired_on_time, b.packets_repaired_on_time);
    assert_eq!(
        a.starving_ratio_percent.mean().to_bits(),
        b.starving_ratio_percent.mean().to_bits()
    );
    // The whole distribution, not just the mean: every moment the summary
    // exposes must be bit-identical, and so must the underlying tree run.
    for (x, y) in [
        (a.starving_ratio_percent.min(), b.starving_ratio_percent.min()),
        (a.starving_ratio_percent.max(), b.starving_ratio_percent.max()),
        (
            a.starving_ratio_percent.std_dev(),
            b.starving_ratio_percent.std_dev(),
        ),
        (
            a.churn.service_delay_ms.mean(),
            b.churn.service_delay_ms.mean(),
        ),
    ] {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.churn.disruption_events, b.churn.disruption_events);
}

#[test]
fn cer_recovery_is_bitwise_reproducible() {
    use rom::cer::{find_mlc_group, order_by_distance, PartialTree, StripePlan};
    use rom::overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId};
    use rom::sim::{SimRng, SimTime};

    // One full CER recovery pass — partial-tree reconstruction, MLC group
    // selection, distance ordering and stripe planning — must come out
    // identical for the same seed.
    let run = || {
        // A comb: even nodes hang off NodeId(1), odd ones chain one level
        // deeper under their even predecessor, giving MLC real
        // correlations to avoid.
        let member = |id: u64, bw: f64| {
            MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e9, Location(id as u32))
        };
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        tree.attach(member(1, 40.0), NodeId(0)).unwrap();
        for n in 2u64..40 {
            let parent = if n % 2 == 0 { NodeId(1) } else { NodeId(n - 1) };
            tree.attach(member(n, 1.0), parent).unwrap();
        }
        let partial = PartialTree::from_tree(&tree, (2u64..40).map(NodeId));
        let mut rng = SimRng::seed_from(42);
        let chosen = find_mlc_group(&partial, 3, &[NodeId(0), NodeId(1)], &mut rng);
        // Deterministic synthetic distances stand in for the delay oracle.
        let with_distance: Vec<(NodeId, f64)> = chosen
            .iter()
            .map(|&n| (n, (n.0 % 7) as f64 * 3.5 + 1.0))
            .collect();
        let group = order_by_distance(with_distance);
        let plan = StripePlan::plan_full_coverage(&[0.25, 0.4, 0.2]);
        (chosen, group, plan)
    };

    let (chosen_a, group_a, plan_a) = run();
    let (chosen_b, group_b, plan_b) = run();
    assert_eq!(chosen_a, chosen_b, "MLC selection must be seed-determined");
    assert_eq!(group_a, group_b);
    assert_eq!(plan_a.segments().len(), plan_b.segments().len());
    for (sa, sb) in plan_a.segments().iter().zip(plan_b.segments()) {
        assert_eq!(sa.member_index, sb.member_index);
        assert_eq!((sa.lo, sa.hi), (sb.lo, sb.hi));
        assert_eq!(sa.rate_fraction.to_bits(), sb.rate_fraction.to_bits());
    }
    assert_eq!(plan_a.coverage().to_bits(), plan_b.coverage().to_bits());
}
