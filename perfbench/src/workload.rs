//! The benchmark's workloads: each turns a seed into one simulator
//! configuration, and knows the report digest its default seed produces.

use rom_engine::{AlgorithmKind, ChurnConfig, StreamingConfig};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ROST churn at 100k members (`ChurnConfig::mega`): the overlay
    /// arena's moved-subtree cost and the engine join path.
    ChurnRost100k,
    /// Relaxed bandwidth-ordered churn at 20k members
    /// (`ChurnConfig::quick`): the eviction and free-slot indices, no
    /// ROST switching.
    ChurnBo20k,
    /// Packet-level CER streaming at 1k members with K = 3 (Fig. 12's 1k
    /// point at reduced scale): MLC group selection and striped repair.
    /// Small, because a streaming run's cost is heavy-tailed in its seed
    /// and a steady median needs many seeds per measurement.
    StreamCer1k,
}

/// A workload's generated simulator input.
#[derive(Debug, Clone)]
pub enum Config {
    /// Input of `ChurnSim::new`.
    Churn(ChurnConfig),
    /// Input of `StreamingSim::new`.
    Streaming(StreamingConfig),
}

impl Config {
    /// The churn substrate (the whole config for a churn workload).
    #[must_use]
    pub fn churn(&self) -> &ChurnConfig {
        match self {
            Config::Churn(cfg) => cfg,
            Config::Streaming(cfg) => &cfg.churn,
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ChurnRost100k,
        Workload::ChurnBo20k,
        Workload::StreamCer1k,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnRost100k => "churn-rost-100k",
            Workload::ChurnBo20k => "churn-bo-20k",
            Workload::StreamCer1k => "stream-cer-1k",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the workload's recorded digest was taken at.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ChurnRost100k => 42,
            Workload::ChurnBo20k | Workload::StreamCer1k => 1,
        }
    }

    /// The report digest (see [`crate::digest`]) of the default seed. A
    /// run at the default seed whose digest differs is a failed run.
    #[must_use]
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::ChurnRost100k => 0x8e87_a2c9_0b2f_ad51,
            Workload::ChurnBo20k => 0xa643_1eff_da1f_043a,
            Workload::StreamCer1k => 0x2d0c_7ae9_24ad_3486,
        }
    }

    /// The recorded digest when `seed` is the default seed.
    #[must_use]
    pub fn expected_digest(self, seed: u64) -> Option<u64> {
        (seed == self.default_seed()).then(|| self.recorded_digest())
    }

    /// The seed of a run's `cell`-th distinct input. Cell 0 is the run's
    /// own seed; later cells spread the run over more inputs, so that
    /// its medians do not hang on one seed's tree.
    #[must_use]
    pub fn cell_seed(self, seed: u64, cell: u64) -> u64 {
        seed.wrapping_add(cell.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The simulator input for `seed`.
    #[must_use]
    pub fn config(self, seed: u64) -> Config {
        match self {
            Workload::ChurnRost100k => {
                Config::Churn(ChurnConfig::mega(AlgorithmKind::Rost, 100_000).with_seed(seed))
            }
            Workload::ChurnBo20k => Config::Churn(
                ChurnConfig::quick(AlgorithmKind::RelaxedBandwidthOrdered, 20_000).with_seed(seed),
            ),
            Workload::StreamCer1k => Config::Streaming(StreamingConfig::paper(
                ChurnConfig::quick(AlgorithmKind::Rost, 1_000).with_seed(seed),
                3,
            )),
        }
    }
}
