//! # rom-overlay: the overlay multicast substrate
//!
//! The common machinery beneath every tree-construction algorithm in the
//! DSN 2006 reproduction:
//!
//! - [`NodeId`] / [`Location`] / [`MemberProfile`] — members and their
//!   bandwidth/time properties (including the BTP, §3.2),
//! - [`MulticastTree`] — the degree-constrained delivery tree with the
//!   restructuring primitives the algorithms need (attach, abrupt removal
//!   with orphaned subtrees, eviction-style replacement, and ROST's
//!   parent-child switch); [`MulticastTree::with_order_index`] builds one
//!   that also answers the centralized baselines' order queries,
//! - [`IdMap`] — the id-keyed table behind the tree's id→slot map and the
//!   engine's per-member state, paged by id and iterated in id order,
//! - [`sample_excluding_at`] — bounded partial membership views of
//!   [`PAPER_VIEW_SIZE`] members (gossip in steady state),
//! - [`Proximity`] — the underlay-distance hook (wired to `rom-net` by the
//!   engine),
//! - [`algorithms`] — the four baseline construction algorithms the paper
//!   compares ROST against.
//!
//! # Examples
//!
//! Build a small tree with the minimum-depth rule and watch a departure
//! orphan a subtree:
//!
//! ```
//! use rom_overlay::algorithms::{JoinContext, JoinDecision, MinimumDepth, TreeAlgorithm};
//! use rom_overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId, ZeroProximity};
//! use rom_sim::SimTime;
//!
//! let mut tree = MulticastTree::new(paper_source(Location(0)));
//! for i in 1..=3u64 {
//!     let joiner = MemberProfile::new(NodeId(i), 2.0, SimTime::ZERO, 600.0, Location(i as u32));
//!     let candidates: Vec<NodeId> = tree.attached_by_depth().collect();
//!     let ctx = JoinContext { tree: &tree, joiner: &joiner, candidates: &candidates, now: SimTime::ZERO };
//!     match MinimumDepth.select(&ctx, &ZeroProximity) {
//!         JoinDecision::Attach { parent } => tree.attach(joiner, parent)?,
//!         _ => unreachable!("the source always has room here"),
//!     }
//! }
//! assert_eq!(tree.attached_count(), 4);
//!
//! let removed = tree.remove(NodeId(1))?;
//! assert!(tree.orphan_roots().count() == removed.orphaned_children.len());
//! # Ok::<(), rom_overlay::TreeError>(())
//! ```

pub mod algorithms;
mod error;
mod id;
mod id_map;
mod member;
mod order_index;
mod proximity;
mod tree;
mod view;

pub use error::{InvariantViolation, TreeError};
pub use id::{Location, NodeId};
pub use id_map::IdMap;
pub use member::MemberProfile;
pub use order_index::FreeEntry;
pub use proximity::{nearest_by, IndexProximity, Proximity, ZeroProximity};
pub use tree::{paper_source, MulticastTree, NodeIndex, RemovedMember, ReplaceOutcome, SwitchRecord};
pub use view::{sample_excluding_at, PAPER_VIEW_SIZE};
