//! # rom-cer: the Cooperative Error Recovery protocol
//!
//! The reactive half of the DSN 2006 paper's contribution (§4). When an
//! upstream member fails, the affected members need the lost stream data
//! during the tens of seconds that failure detection and rejoining take.
//! A single recovery parent rarely has the residual bandwidth for a full
//! stream; CER therefore:
//!
//! - reconstructs a **partial tree** from gossiped ancestor lists
//!   ([`PartialTree`], Fig. 3),
//! - selects a **minimum-loss-correlation group** of recovery nodes in
//!   (near-)disjoint subtrees ([`find_mlc_group`], Algorithm 1),
//! - repairs isolated losses along the distance-ordered **request chain**
//!   ([`RecoveryGroup::repair_chain`]) and full outages by **striping**
//!   sequence numbers across the group's residual bandwidths
//!   ([`StripePlan`], the `(n mod 100)` rule),
//! - uses **Explicit Loss Notification** ([`GapDetector`],
//!   [`LossNotification`]) so descendants of a failed node neither rejoin
//!   spuriously nor start duplicate recoveries,
//! - accounts packet timeliness against **playback deadlines**
//!   ([`StreamClock`], [`SeqRangeSet`]).

mod buffer;
mod correlation;
mod eln;
mod mlc;
mod partial_tree;
mod recovery;

pub use buffer::{SeqRangeSet, StreamClock};
pub use correlation::{group_correlation, loss_correlation};
pub use eln::{ElnScope, GapDetector, LossNotification};
pub use mlc::{find_mlc_group, partial_group_correlation, random_group, MlcOptions};
pub use partial_tree::{AncestorRecord, PartialTree};
pub use recovery::{RecoveryGroup, RepairService, StripePlan, StripeSegment, STRIPE_MODULO};
