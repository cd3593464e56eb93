//! Micro-benchmarks of the sweep engine itself: the same 4-seed churn
//! replicate run serially (`jobs = 1`) and fanned over 2 and 4 workers.
//! The parallel numbers bound the speedup every figure binary inherits
//! from `--jobs`; the per-cell work is identical, so the ratio between
//! the rows is scheduler overhead plus available parallelism.

use criterion::{criterion_group, criterion_main, Criterion};
use rom_bench::{CellOut, Sweep};
use rom_engine::{AlgorithmKind, ChurnConfig, ChurnSim};
use std::hint::black_box;

/// One 4-seed replicate of a small-but-real churn run.
fn replicate(jobs: usize) -> usize {
    let out = Sweep::with_jobs(jobs).run(1, 4, |cell| {
        let mut cfg = ChurnConfig::quick(AlgorithmKind::Rost, 150).with_seed(cell.seed);
        cfg.warmup_secs = 150.0;
        cfg.measure_secs = 400.0;
        CellOut::plain(ChurnSim::new(cfg).run())
    });
    out.reports[0].len()
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    for jobs in [1usize, 2, 4] {
        group.bench_function(&format!("churn_4seeds_jobs{jobs}"), |b| {
            b.iter(|| black_box(replicate(jobs)));
        });
    }
    group.finish();
}

/// Keeps `cargo bench --workspace` affordable: each simulation cell runs
/// hundreds of milliseconds, so a handful of samples resolves the ratio.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3))
        .sample_size(10)
}
criterion_group! {
    name = benches;
    config = short_config();
    targets = bench_sweep
}
criterion_main!(benches);
