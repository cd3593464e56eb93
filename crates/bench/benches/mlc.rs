//! Micro-benchmarks of CER's group machinery on the tree the streaming
//! engine repairs over: the final tree of a 14 000-member min-depth churn
//! run, grown by the engine itself. Each repair draws a 100-member view
//! without the requester, rebuilds the fragment from the view's root
//! paths (`from_tree`) and runs Algorithm 1 on it; the three steps
//! together are what the engine's `cer.group_select` span times.

use criterion::{criterion_group, criterion_main, Criterion};
use rom_cer::{find_mlc_group, random_group, PartialTree, StripePlan};
use rom_engine::{AlgorithmKind, ChurnConfig, ChurnSim, StreamingConfig};
use rom_overlay::{MulticastTree, NodeId, PAPER_VIEW_SIZE};
use rom_sim::SimRng;
use std::hint::black_box;

/// One repair's inputs: the requester, its view without it, and the
/// members it must not pick (itself and its ancestors).
struct Repair {
    requester: NodeId,
    view: Vec<NodeId>,
    exclude: Vec<NodeId>,
}

/// The final tree of `StreamingConfig::paper`'s churn substrate at
/// 14 000 members (min-depth, seed 1, 15 s rejoin delay), and its live
/// members, attached or not, the source included as in the engine.
fn engine_tree() -> (MulticastTree, Vec<NodeId>) {
    let churn = ChurnConfig::paper(AlgorithmKind::MinimumDepth, 14_000).with_seed(1);
    let cfg = StreamingConfig::paper(churn, 3).churn;
    let mut tree = None;
    let _ = ChurnSim::new(cfg).run_inspect(|t, _| tree = Some(t.clone()));
    let tree = tree.expect("run_inspect hands over the final tree");
    let live = tree.member_ids().collect();
    (tree, live)
}

/// `n` repairs by attached members, their views drawn as `select_group`
/// draws them.
fn repairs(tree: &MulticastTree, live: &[NodeId], n: usize, rng: &mut SimRng) -> Vec<Repair> {
    let attached: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|&m| m != tree.root() && tree.is_attached(m))
        .collect();
    (0..n)
        .map(|_| {
            let requester = attached[rng.index(attached.len())];
            let view = rng.sample(live, PAPER_VIEW_SIZE);
            let mut exclude = tree.ancestors(requester);
            exclude.push(requester);
            Repair {
                requester,
                view: view.into_iter().filter(|&v| v != requester).collect(),
                exclude,
            }
        })
        .collect()
}

fn bench_cer(c: &mut Criterion) {
    let (tree, live) = engine_tree();
    let mut rng = SimRng::seed_from(2);
    // Thousands of repairs, taken in turn, so the arena slots a walk
    // reads are about as cold as between the engine's repairs.
    let repairs = repairs(&tree, &live, 4_096, &mut rng);
    let fragments: Vec<PartialTree> = repairs
        .iter()
        .take(256)
        .map(|r| PartialTree::from_tree(&tree, r.view.iter().copied()))
        .collect();

    let mut group = c.benchmark_group("cer_14k");
    let mut next = 0;
    group.bench_function("from_tree_view_100", |b| {
        b.iter(|| {
            next = (next + 1) % repairs.len();
            let view = &repairs[next].view;
            black_box(PartialTree::from_tree(&tree, view.iter().copied()))
        });
    });
    group.bench_function("mlc_group_k3", |b| {
        b.iter(|| {
            next = (next + 1) % fragments.len();
            let exclude = &repairs[next].exclude;
            black_box(find_mlc_group(&fragments[next], 3, exclude, &mut rng))
        });
    });
    group.bench_function("random_group_k3", |b| {
        b.iter(|| {
            next = (next + 1) % fragments.len();
            let exclude = &repairs[next].exclude;
            black_box(random_group(&fragments[next], 3, exclude, &mut rng))
        });
    });
    // The whole selection as `select_group` makes it: view draw,
    // exclusions, fragment and Algorithm 1 at K = 3.
    group.bench_function("group_select_k3", |b| {
        b.iter(|| {
            next = (next + 1) % repairs.len();
            let member = repairs[next].requester;
            let view = rng.sample(&live, PAPER_VIEW_SIZE);
            let partial =
                PartialTree::from_tree(&tree, view.iter().copied().filter(|&v| v != member));
            let mut exclude = tree.ancestors(member);
            exclude.push(member);
            black_box(find_mlc_group(&partial, 3, &exclude, &mut rng))
        });
    });
    group.finish();

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
    targets = bench_cer
}
criterion_main!(benches);
