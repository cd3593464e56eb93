//! # rom-rost: the Reliability-Oriented Switching Tree algorithm
//!
//! The proactive half of the DSN 2006 paper's contribution (§3). ROST
//! keeps the overlay tree partially ordered by the **bandwidth-time
//! product** (BTP = outbound bandwidth × age):
//!
//! - members join through the minimum-depth rule
//!   (`rom_overlay::algorithms::MinimumDepth`: shallowest known parent
//!   with a free slot, nearest on ties) and start at the leaves; this
//!   crate adds no join rule of its own,
//! - every *switching interval* each member compares its BTP with its
//!   parent's; when it exceeds it *and* its bandwidth is no smaller, the
//!   two **switch positions** under a family-wide lock,
//! - claimed bandwidths and ages are made verifiable by the **referee
//!   mechanism**, so cheaters cannot climb the tree.
//!
//! The result combines the short tree of bandwidth ordering with the
//! stable upper layers of time ordering, at an overhead of ≈ 2d + 1 parent
//! changes per (rare) switch.
//!
//! Crate contents:
//!
//! - [`Btp`] — the ordering metric,
//! - [`RostConfig`] — protocol parameters (§5 defaults),
//! - [`SwitchingProtocol`] / [`SwitchOutcome`] — the switching state
//!   machine over a `rom_overlay::MulticastTree`,
//! - [`LockTable`] / [`OpId`] — the all-or-nothing family locks,
//! - [`RefereeRegistry`] / [`Verification`] — the anti-cheating mechanism,
//!   with §3.4's redundancy ([`AGE_REFEREES`], [`BANDWIDTH_REFEREES`]) and
//!   heartbeat ([`HEARTBEAT_SECS`]).

mod audit;
mod btp;
mod config;
mod locks;
mod referee;
mod switching;

pub use audit::{attempt_audited, AuditRefusal, AuditedOutcome, ResourceClaim};
pub use btp::Btp;
pub use config::RostConfig;
pub use locks::{LockTable, OpId};
pub use referee::{
    RefereeError, RefereeRegistry, Verification, VerificationStats, AGE_REFEREES,
    BANDWIDTH_REFEREES, HEARTBEAT_SECS,
};
pub use switching::{SwitchOutcome, SwitchStats, SwitchingProtocol};
