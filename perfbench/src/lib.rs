//! # rom-perfbench: the repository's benchmark
//!
//! Runs one workload of `BENCHMARK.json` single-threaded through the
//! simulators' public entry points, checks each run's output, and prints
//! one JSON result line. With `--trace 0` it reports the end-to-end
//! metrics of untraced runs; with `--trace 1` it reruns the workload once
//! with the `rom-obs` span profiler on and reports the per-layer roll-up,
//! the underlay set-up split and the outside overlay probe.

pub mod clock;
pub mod digest;
pub mod probe;
pub mod record;
pub mod rollup;
pub mod run;
pub mod workload;
