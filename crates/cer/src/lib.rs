//! # rom-cer: the Cooperative Error Recovery protocol
//!
//! The reactive half of the DSN 2006 paper's contribution (§4). When an
//! upstream member fails, the affected members need the lost stream data
//! during the tens of seconds that failure detection and rejoining take.
//! A single recovery parent rarely has the residual bandwidth for a full
//! stream; CER therefore:
//!
//! - reconstructs a **partial tree** from the root paths of the members
//!   it knows ([`PartialTree::rebuild`], Fig. 3),
//! - selects a **minimum-loss-correlation group** of recovery nodes in
//!   (near-)disjoint subtrees ([`find_mlc_group`], Algorithm 1; the
//!   objective is [`group_correlation`]),
//! - orders the group by network distance ([`order_by_distance`]) and
//!   repairs outages by **striping** sequence numbers across the group's
//!   residual bandwidths ([`StripePlan`], the `(n mod 100)` rule),
//! - accounts packet timeliness against **playback deadlines**
//!   ([`StreamClock`], [`SeqRangeSet`]).
//!
//! The churn engine (`rom-engine`) drives these pieces. It also models
//! the two §4 steps that need no state of their own here: Explicit Loss
//! Notification is the partition of a failure into orphaned children
//! (who rejoin) and deeper descendants (who only recover), read off
//! `rom_overlay::MulticastTree::remove`; the request chain costs each
//! repair a fixed delay per hop down the distance-ordered group.

mod buffer;
mod correlation;
mod mlc;
mod partial_tree;
mod recovery;

pub use buffer::{SeqRangeSet, StreamClock};
pub use correlation::group_correlation;
pub use mlc::{find_mlc_group, random_group};
pub use partial_tree::PartialTree;
pub use recovery::{order_by_distance, StripePlan, StripeSegment, STRIPE_MODULO};
