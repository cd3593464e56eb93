//! Micro-benchmarks of CER's group machinery: Algorithm 1 against the
//! random baseline, partial-tree reconstruction (from gossiped records,
//! and from the arena as the streaming engine builds it), and loss
//! correlation.

use criterion::{criterion_group, criterion_main, Criterion};
use rom_cer::{
    find_mlc_group, loss_correlation, random_group, AncestorRecord, MlcOptions, PartialTree,
    StripePlan,
};
use rom_overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId};
use rom_sim::{SimRng, SimTime};
use std::hint::black_box;

/// A 1000-member tree, a 100-member view of it, and the view's gossiped
/// ancestor records — the working set a member builds its MLC group from
/// (§4.1).
fn setup() -> (MulticastTree, Vec<NodeId>, Vec<AncestorRecord>) {
    let mut tree = MulticastTree::new(paper_source(Location(0)));
    let mut rng = SimRng::seed_from(1);
    for id in 1..=1_000u64 {
        let profile = MemberProfile::new(NodeId(id), 2.0, SimTime::ZERO, 1e9, Location(id as u32));
        let parent = tree
            .attached_by_depth()
            .find(|&p| tree.has_free_slot(p))
            .unwrap();
        tree.attach(profile, parent).unwrap();
    }
    let members: Vec<NodeId> = tree.attached_by_depth().collect();
    let view = rng.sample(&members, 100);
    let records: Vec<AncestorRecord> = view
        .iter()
        .filter_map(|&m| AncestorRecord::from_tree(&tree, m))
        .collect();
    (tree, view, records)
}

fn bench_mlc(c: &mut Criterion) {
    let (tree, view, records) = setup();
    let mut rng = SimRng::seed_from(2);
    let options = MlcOptions::default();

    c.bench_function("partial_tree_from_100_records", |b| {
        b.iter(|| black_box(PartialTree::from_records(black_box(&records))));
    });
    // The same fragment as the streaming engine builds it: one walk up
    // the arena's parent links per view member.
    c.bench_function("partial_tree_from_tree_100_members", |b| {
        b.iter(|| {
            black_box(PartialTree::from_tree(
                black_box(&tree),
                black_box(&view).iter().copied(),
            ))
        });
    });

    let partial = PartialTree::from_records(&records);
    c.bench_function("mlc_group_k3", |b| {
        b.iter(|| black_box(find_mlc_group(&partial, 3, &options, &mut rng)));
    });
    c.bench_function("random_group_k3", |b| {
        b.iter(|| black_box(random_group(&partial, 3, &options, &mut rng)));
    });

    let members: Vec<NodeId> = tree.attached_by_depth().collect();
    c.bench_function("loss_correlation_pair", |b| {
        let a = members[members.len() / 2];
        let z = members[members.len() - 1];
        b.iter(|| black_box(loss_correlation(&tree, a, z)));
    });

    c.bench_function("stripe_plan_4_members", |b| {
        b.iter(|| black_box(StripePlan::plan_full_coverage(&[0.25, 0.4, 0.15, 0.3])));
    });
}

/// Keeps `cargo bench --workspace` affordable on one core: the simulation
/// benches dominate and 10–20 samples resolve them fine.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3))
        .sample_size(10)
}
criterion_group! {
    name = benches;
    config = short_config();
    targets = bench_mlc
}
criterion_main!(benches);
