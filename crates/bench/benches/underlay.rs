//! Micro-benchmarks of the underlay substrate: topology generation,
//! oracle precomputation at paper scale and delay queries, including the
//! centralized min-depth fallback's nearest-parent scan over one
//! free-slot layer, and the two steps of every distributed join at 100k
//! members: drawing the 100-member view and scanning it for the
//! minimum-depth parent.

use criterion::{criterion_group, criterion_main, Criterion};
use rom_engine::{AlgorithmKind, ChurnConfig, OracleProximity, Workload};
use rom_net::{DelayOracle, TransitStubConfig, TransitStubNetwork, UnderlayId};
use rom_overlay::algorithms::{min_depth_parent, JoinContext};
use rom_overlay::{
    paper_source, sample_excluding_at, Location, MemberProfile, MulticastTree, NodeId, Proximity,
};
use rom_sim::{SimRng, SimTime};
use std::hint::black_box;

fn bench_underlay(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(1);
    let cfg = TransitStubConfig::sized_for(4_000);
    let net = TransitStubNetwork::generate(&cfg, &mut rng);
    let oracle = DelayOracle::build(&net);
    let stubs: Vec<UnderlayId> = net.stub_nodes().collect();

    c.bench_function("generate_topology_4000_members", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(2);
            black_box(TransitStubNetwork::generate(&cfg, &mut rng))
        });
    });

    // The 15 600-node underlay both churn workloads of the benchmark
    // build (`churn-rost-100k`'s, at seed 42), so a build reads directly
    // against perfbench's `net.oracle_s`.
    let paper = TransitStubNetwork::generate(
        &ChurnConfig::mega(AlgorithmKind::Rost, 100_000).topology,
        &mut SimRng::seed_from(42).fork("topology"),
    );
    let mut group = c.benchmark_group("oracle");
    group.sample_size(20);
    group.bench_function("build", |b| {
        b.iter(|| black_box(DelayOracle::build(&paper)));
    });
    group.finish();

    c.bench_function("oracle_delay_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 101) % stubs.len();
            let j = (i * 7 + 13) % stubs.len();
            black_box(oracle.delay_ms(stubs[i], stubs[j]))
        });
    });

    bench_nearest_free(c);
    bench_join_path(c);
}

/// Proximity with only `delay_ms`, so `nearest_free` is the trait's
/// per-pair default: the reference the oracle's row kernel replaces.
struct PerPair<'a>(&'a DelayOracle);

impl Proximity for PerPair<'_> {
    fn delay_ms(&self, a: Location, b: Location) -> f64 {
        self.0.delay_ms(UnderlayId(a.0), UnderlayId(b.0))
    }
}

/// The relaxed ordered baselines' fallback kernel: the nearest of one
/// free-slot layer of 1 600 members on random stub nodes of the paper
/// topology, which is what `churn-bo-20k` scans per call (about 1 660
/// entries on average). Each iteration makes 64 calls from random
/// origins, as successive rejoins do, so divide by 64 to compare with
/// the `overlay.min_depth_fallback` span's ns/op in that workload's
/// profile: the criterion stand-in times one iteration per sample, and a
/// single call would only measure a cold delay row.
fn bench_nearest_free(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(3);
    let net = TransitStubNetwork::generate(&TransitStubConfig::sized_for(40_000), &mut rng);
    let oracle = DelayOracle::build(&net);
    let stubs: Vec<Location> = net.stub_nodes().map(|n| Location(n.0)).collect();
    let member = |id, bw, loc| MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, loc);
    let mut tree = MulticastTree::with_order_index(member(0, 1_600.0, stubs[0]));
    for id in 1..=1_600 {
        let loc = stubs[rng.index(stubs.len())];
        tree.attach(member(id, 2.0, loc), NodeId(0))
            .expect("the source has room");
    }
    let layer = tree.free_layer(1);
    assert_eq!(layer.len(), 1_600);
    let origins: Vec<Location> = (0..64).map(|_| stubs[rng.index(stubs.len())]).collect();

    let kernel = OracleProximity::new(&oracle);
    let reference = PerPair(&oracle);
    let mut group = c.benchmark_group("nearest_free_1600_x64");
    group.bench_function("oracle_row", |b| {
        b.iter(|| {
            for &origin in &origins {
                black_box(kernel.nearest_free(origin, layer));
            }
        });
    });
    group.bench_function("per_pair_default", |b| {
        b.iter(|| {
            for &origin in &origins {
                black_box(reference.nearest_free(origin, layer));
            }
        });
    });
    group.finish();
}

/// The join path of `churn-rost-100k` and the 100k `fig_mega` cell,
/// one call per timed sample, so each line reads directly against the
/// `engine.view` and `overlay.min_depth_scan` spans' ns/op in that
/// cell's profile. The tree is built the way the engine seeds it: 100k
/// members of the paper's bandwidth distribution on random stub nodes
/// of the 100k-member topology, joined in turn at the minimum-depth
/// parent of a 100-member view, with network delay from the delay
/// oracle breaking depth ties.
fn bench_join_path(c: &mut Criterion) {
    const MEMBERS: usize = 100_000;
    let cfg = ChurnConfig::mega(AlgorithmKind::Rost, MEMBERS);
    let mut rng = SimRng::seed_from(4);
    let net = TransitStubNetwork::generate(&cfg.topology, &mut rng);
    let oracle = DelayOracle::build(&net);
    let prox = OracleProximity::new(&oracle);
    let mut workload = Workload::new(
        cfg.bandwidth,
        cfg.lifetime,
        cfg.arrival_rate(),
        cfg.measure_secs,
        &net,
        rng.fork("workload"),
    );
    let mut tree = MulticastTree::new(paper_source(workload.random_location()));
    let mut live = vec![tree.root()];
    for _ in 0..MEMBERS {
        let member = workload.arrival(SimTime::ZERO);
        let view = sample_excluding_at(&live, None, &mut rng);
        let ctx = JoinContext {
            tree: &tree,
            joiner: &member,
            candidates: &view,
            now: SimTime::ZERO,
        };
        if let Some(parent) = min_depth_parent(&ctx, &prox) {
            live.push(member.id);
            tree.attach(member, parent)
                .expect("the scan picks a member with a free slot");
        }
    }
    assert!(tree.attached_count() > MEMBERS * 9 / 10);

    // A call takes microseconds, so thousands of one-call samples fit
    // the measurement budget and their mean is stable.
    let mut group = c.benchmark_group("join_path");
    group.sample_size(2_000);
    let mut pos = 0;
    group.bench_function("view_sample_100_of_100k", |b| {
        b.iter(|| {
            pos = (pos + 7_919) % live.len();
            black_box(sample_excluding_at(&live, Some(pos), &mut rng))
        });
    });
    // Pre-drawn views, each scanned about once over the run, so its
    // members' id pages and arena slots are as cold as between the
    // engine's joins.
    let views: Vec<Vec<NodeId>> = (0..4_096)
        .map(|_| sample_excluding_at(&live, None, &mut rng))
        .collect();
    let joiners: Vec<MemberProfile> = (0..4_096)
        .map(|_| workload.arrival(SimTime::ZERO))
        .collect();
    let mut next = 0;
    group.bench_function("min_depth_scan_100_of_100k", |b| {
        b.iter(|| {
            next = (next + 1) % views.len();
            let ctx = JoinContext {
                tree: &tree,
                joiner: &joiners[next],
                candidates: &views[next],
                now: SimTime::ZERO,
            };
            black_box(min_depth_parent(&ctx, &prox))
        });
    });
    group.finish();
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
    targets = bench_underlay
}
criterion_main!(benches);
