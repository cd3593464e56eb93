//! # rom-net: the underlay network substrate
//!
//! The DSN 2006 evaluation runs its overlay on a 15 600-node GT-ITM
//! transit-stub topology. This crate rebuilds that substrate from scratch:
//!
//! - [`Graph`] / [`UnderlayId`] — a weighted undirected graph whose edge
//!   weights are link delays in milliseconds,
//! - [`dijkstra`] — single-source shortest-path routing,
//! - [`TransitStubNetwork`] — the GT-ITM-style generator (transit domains,
//!   per-transit-node stub domains, the paper's §5 delay ranges),
//! - [`DelayOracle`] — exact member-to-member delay queries that exploit
//!   the strict hierarchy instead of materialising an all-pairs table,
//!   and [`DelayRow`], the same queries from one fixed origin.
//!
//! # Examples
//!
//! ```
//! use rom_net::{DelayOracle, TransitStubConfig, TransitStubNetwork};
//! use rom_sim::SimRng;
//!
//! let mut rng = SimRng::seed_from(42);
//! let net = TransitStubNetwork::generate(&TransitStubConfig::small(), &mut rng);
//! let oracle = DelayOracle::build(&net);
//!
//! let stubs: Vec<_> = net.stub_nodes().collect();
//! let d = oracle.delay_ms(stubs[0], stubs[10]);
//! assert!(d > 0.0);
//! assert_eq!(oracle.delay_ms(stubs[0], stubs[0]), 0.0);
//! ```

mod dijkstra;
mod graph;
mod oracle;
mod transit_stub;

pub use dijkstra::{dijkstra, ShortestPaths};
pub use graph::{Graph, Link, UnderlayId};
pub use oracle::{DelayOracle, DelayRow};
pub use transit_stub::{NodeKind, StubDomain, TransitStubConfig, TransitStubNetwork};
