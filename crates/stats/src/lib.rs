//! # rom-stats: statistical substrate for the evaluation
//!
//! Everything numerical the paper's workload model and result reporting
//! need, implemented from scratch:
//!
//! - [`BoundedPareto`] — member outbound bandwidths (§5: shape 1.2, bounds
//!   `[0.5, 100]`; ≈55% free-riders),
//! - [`LogNormal`] — member lifetimes (§5: location 5.5, shape 2.0; mean
//!   ≈ 1809 s, the Little's-law input),
//! - [`Summary`] — one-pass mean/variance/min/max with 95% confidence
//!   intervals (Fig. 14),
//! - [`Ecdf`] — empirical CDFs (Fig. 5).
//!
//! The per-member traces of Figs. 6 and 9 need no type of their own: the
//! churn engine records each point in minutes since the member joined.
//!
//! # Examples
//!
//! ```
//! use rom_stats::{BoundedPareto, LogNormal, Summary};
//! use rom_sim::SimRng;
//!
//! let bw = BoundedPareto::paper_bandwidth();
//! let life = LogNormal::paper_lifetime();
//! let mut rng = SimRng::seed_from(2);
//!
//! let degrees: Summary = (0..1000)
//!     .map(|_| bw.sample(&mut rng).floor())
//!     .collect();
//! assert!(degrees.mean() > 0.5); // plenty of forwarding capacity on average
//! assert!(life.mean() > 1800.0);
//! ```

mod cdf;
mod lognormal;
mod math;
mod pareto;
mod summary;

pub use cdf::Ecdf;
pub use lognormal::LogNormal;
pub use math::{erf, standard_normal_cdf};
pub use pareto::{BoundedPareto, InvalidDistributionError};
pub use summary::Summary;
