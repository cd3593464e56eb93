//! Micro-benchmarks of CER's group machinery on the trees the streaming
//! engine repairs over, each grown by the engine itself: the final tree
//! of `stream-cer-1k`'s churn substrate (ROST at 1 000 members, `quick`)
//! and of a 14 000-member min-depth paper-scale run. Each repair draws a
//! 100-member view without the requester, rebuilds the engine's one
//! fragment in place from the view's root paths (`rebuild`) and runs
//! Algorithm 1 on it; the three steps together are what the engine's
//! `cer.group_select` span times.

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

/// The final tree of `StreamingConfig::paper(churn, 3)`'s churn
/// substrate (15 s rejoin delay) and its live members, attached or not,
/// the source included as in the engine.
fn engine_tree(churn: ChurnConfig) -> (MulticastTree, Vec<NodeId>) {
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

/// Times the fragment build, both selections and one whole selection on
/// `churn`'s final tree, as group `name`.
fn bench_substrate(c: &mut Criterion, name: &str, churn: ChurnConfig) {
    let (tree, live) = engine_tree(churn);
    let mut rng = SimRng::seed_from(2);
    // Thousands of repairs, taken in turn, so the arena slots a walk
    // reads are about as cold as between the engine's repairs.
    let repairs = repairs(&tree, &live, 4_096, &mut rng);
    let fragments: Vec<PartialTree> = repairs
        .iter()
        .take(256)
        .map(|r| PartialTree::from_tree(&tree, r.view.iter().copied()))
        .collect();
    // The one fragment the engine rebuilds in place at every selection.
    let mut fragment = PartialTree::default();

    let mut group = c.benchmark_group(name);
    let mut next = 0;
    group.bench_function("from_tree_view_100", |b| {
        b.iter(|| {
            next = (next + 1) % repairs.len();
            fragment.rebuild(&tree, repairs[next].view.iter().copied());
            black_box(&fragment);
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
    // exclusions, fragment rebuilt in place and Algorithm 1 at K = 3.
    group.bench_function("group_select_k3", |b| {
        b.iter(|| {
            next = (next + 1) % repairs.len();
            let member = repairs[next].requester;
            let view = rng.sample(&live, PAPER_VIEW_SIZE);
            fragment.rebuild(&tree, view.iter().copied().filter(|&v| v != member));
            let mut exclude = tree.ancestors(member);
            exclude.push(member);
            black_box(find_mlc_group(&fragment, 3, &exclude, &mut rng))
        });
    });
    group.finish();
}

fn bench_cer(c: &mut Criterion) {
    // `stream-cer-1k`'s substrate: 902 live members, ~160-node fragments.
    let cer_1k = ChurnConfig::quick(AlgorithmKind::Rost, 1_000).with_seed(1);
    bench_substrate(c, "cer_1k", cer_1k);
    // 11 751 members, ~500-node fragments.
    let cer_14k = ChurnConfig::paper(AlgorithmKind::MinimumDepth, 14_000).with_seed(1);
    bench_substrate(c, "cer_14k", cer_14k);

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
