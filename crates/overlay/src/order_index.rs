//! The ordered indices only the centralized algorithms query.
//!
//! The relaxed bandwidth- and time-ordered baselines (§5 algorithms 3–4)
//! "assume a central administrator": each placement probes the weakest
//! attached member of every depth layer, and their minimum-depth fallback
//! jumps straight to the shallowest layer with spare capacity.
//! [`OrderIndex`] answers the probes from per-depth ordered sets, and the
//! fallback from per-depth unordered `Vec`s of [`FreeEntry`]s that it
//! scans as one slice, breaking ties by id itself. No distributed
//! algorithm reads the index, so only a tree built with
//! [`MulticastTree::with_order_index`](crate::MulticastTree::with_order_index)
//! keeps one; a plain tree moves a subtree without any B-tree work.

use std::collections::BTreeSet;

use rom_sim::SimTime;

use crate::id::{Location, NodeId};
use crate::member::MemberProfile;
use crate::tree::NodeIndex;

/// Encodes a non-negative bandwidth as an order-preserving `u64` key:
/// for non-negative finite doubles the raw bit pattern already sorts
/// numerically, and adding `0.0` first collapses `-0.0` onto `0.0` so
/// bitwise key equality coincides with `==` (the comparison the layer
/// scan this index replaces used).
fn bw_order_key(bw: f64) -> u64 {
    (bw + 0.0).to_bits()
}

/// Encodes a join time as a `u64` that sorts *descending* in time (and
/// therefore ascending in age at any fixed `now`): the standard
/// sign-aware total-order bit trick, complemented. `SimTime` may be
/// negative, so both halves of the mapping are exercised.
fn join_order_key(t: SimTime) -> u64 {
    let bits = t.as_secs().to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    !ascending
}

/// Recovers the exact join time a [`join_order_key`] was computed from,
/// so age probes can reproduce `MemberProfile::age` bit for bit without
/// a slot lookup.
fn join_order_key_decode(key: u64) -> f64 {
    let ascending = !key;
    if ascending >> 63 == 1 {
        f64::from_bits(ascending & !(1 << 63))
    } else {
        f64::from_bits(!ascending)
    }
}

/// One depth layer's ordered eviction indices: the attached occupants
/// keyed by the two order criteria the relaxed ordered algorithms evict
/// under. Both sets iterate weakest-first with ties to the smallest id,
/// so the eviction search probes the first entry instead of scanning the
/// layer.
#[derive(Debug, Clone, Default)]
struct EvictLayer {
    /// `(bw_order_key(bandwidth), id)` — ascending bandwidth, then id.
    by_bandwidth: BTreeSet<(u64, NodeId)>,
    /// `(join_order_key(join_time), id)` — descending join time (i.e.
    /// ascending age at any `now`), then id. Time-invariant: age order
    /// at every `now` is exactly reverse join-time order, so the index
    /// never needs restamping as the clock advances.
    by_join: BTreeSet<(u64, NodeId)>,
}

/// An attached member with at least one free forwarding slot, as its
/// depth's free-slot layer lists it: 16 bytes in a release build, so the
/// minimum-depth fallback reads a layer as one contiguous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeEntry {
    /// The member.
    pub id: NodeId,
    /// Its underlay attachment point, copied out of its slot. A member's
    /// location never changes, so the copy cannot go stale.
    pub location: Location,
    /// Its arena slot, which keys the layer's position table.
    ix: NodeIndex,
}

/// `free_pos` entry of an arena slot listed in no free-slot layer.
const UNLISTED: u32 = u32::MAX;

/// Per-depth eviction and free-slot indices over a tree's attached
/// members. The tree updates it from the same hooks that maintain its
/// per-depth counts, so every attached member has exactly one entry per
/// eviction set, at its own depth, and a free-slot entry exactly when it
/// has spare capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct OrderIndex {
    /// Per-depth ordered eviction indices, so `find_eviction` probes the
    /// weakest entry per layer instead of scanning every member.
    evict: Vec<EvictLayer>,
    /// Per-depth attached members with at least one free forwarding slot
    /// (same length as `evict`), unordered. Lets the centralized
    /// minimum-depth fallback jump straight to the shallowest layer with
    /// spare capacity and scan it as one slice.
    free: Vec<Vec<FreeEntry>>,
    /// Per arena slot: the position of its entry in its depth's `free`
    /// layer, or [`UNLISTED`]. Makes listing a push and unlisting a
    /// swap-remove.
    free_pos: Vec<u32>,
}

impl OrderIndex {
    /// Adds an attached member at `depth`; `has_free` says whether it has
    /// a spare forwarding slot.
    pub(crate) fn insert(
        &mut self,
        profile: &MemberProfile,
        ix: NodeIndex,
        depth: usize,
        has_free: bool,
    ) {
        if self.evict.len() <= depth {
            self.evict.resize_with(depth + 1, EvictLayer::default);
            self.free.resize_with(depth + 1, Vec::new);
        }
        let id = profile.id;
        let evict = &mut self.evict[depth];
        let fresh = evict
            .by_bandwidth
            .insert((bw_order_key(profile.bandwidth), id));
        debug_assert!(fresh, "duplicate eviction-index entry for {id}");
        evict
            .by_join
            .insert((join_order_key(profile.join_time), id));
        if has_free {
            self.list_free(profile, ix, depth);
        }
    }

    /// Drops an attached member's entries at `depth`, under the keys of
    /// its current profile.
    pub(crate) fn remove(&mut self, profile: &MemberProfile, ix: NodeIndex, depth: usize) {
        let id = profile.id;
        let evict = &mut self.evict[depth];
        let present = evict
            .by_bandwidth
            .remove(&(bw_order_key(profile.bandwidth), id));
        debug_assert!(present, "missing eviction-index entry for {id}");
        evict
            .by_join
            .remove(&(join_order_key(profile.join_time), id));
        self.unlist_free(ix, depth);
    }

    /// Sets whether an attached member at `depth` is listed as having a
    /// spare forwarding slot.
    pub(crate) fn set_free(
        &mut self,
        profile: &MemberProfile,
        ix: NodeIndex,
        depth: usize,
        has_free: bool,
    ) {
        let listed = self
            .free_pos
            .get(ix.index())
            .is_some_and(|&p| p != UNLISTED);
        if has_free && !listed {
            self.list_free(profile, ix, depth);
        } else if !has_free && listed {
            self.unlist_free(ix, depth);
        }
    }

    /// Appends an unlisted member to its depth's free-slot layer.
    fn list_free(&mut self, profile: &MemberProfile, ix: NodeIndex, depth: usize) {
        let slot = ix.index();
        if self.free_pos.len() <= slot {
            self.free_pos.resize(slot + 1, UNLISTED);
        }
        debug_assert_eq!(self.free_pos[slot], UNLISTED, "{} listed twice", profile.id);
        let layer = &mut self.free[depth];
        self.free_pos[slot] = u32::try_from(layer.len()).expect("free layer fits u32 positions");
        layer.push(FreeEntry {
            id: profile.id,
            location: profile.location,
            ix,
        });
    }

    /// Takes `ix`'s entry, if listed, out of the free-slot layer at
    /// `depth`, moving the layer's last entry into the gap.
    fn unlist_free(&mut self, ix: NodeIndex, depth: usize) {
        let Some(pos) = self.free_pos.get_mut(ix.index()) else {
            return;
        };
        if *pos == UNLISTED {
            return;
        }
        let at = std::mem::replace(pos, UNLISTED);
        let layer = &mut self.free[depth];
        let gone = layer.swap_remove(at as usize);
        debug_assert!(gone.ix == ix, "free layer {depth} position table is stale");
        if let Some(moved) = layer.get(at as usize) {
            self.free_pos[moved.ix.index()] = at;
        }
    }

    /// Re-keys an attached member's bandwidth entry; its join-time entry
    /// is untouched.
    pub(crate) fn rekey_bandwidth(&mut self, id: NodeId, depth: usize, old: f64, new: f64) {
        let by_bandwidth = &mut self.evict[depth].by_bandwidth;
        by_bandwidth.remove(&(bw_order_key(old), id));
        by_bandwidth.insert((bw_order_key(new), id));
    }

    /// See [`MulticastTree::weakest_by_bandwidth`](crate::MulticastTree::weakest_by_bandwidth).
    pub(crate) fn weakest_by_bandwidth(&self, depth: usize) -> Option<(f64, NodeId)> {
        let layer = self.evict.get(depth)?;
        layer
            .by_bandwidth
            .iter()
            .next()
            .map(|&(key, id)| (f64::from_bits(key), id))
    }

    /// See [`MulticastTree::weakest_by_age`](crate::MulticastTree::weakest_by_age).
    pub(crate) fn weakest_by_age(&self, depth: usize, now: SimTime) -> Option<(f64, NodeId)> {
        let layer = self.evict.get(depth)?;
        let age_of = |key: u64| (now.as_secs() - join_order_key_decode(key)).max(0.0);
        let mut entries = layer.by_join.iter();
        let &(first_key, first_id) = entries.next()?;
        let age = age_of(first_key);
        let mut best = first_id;
        for &(key, id) in entries {
            if age_of(key) != age {
                break;
            }
            if id < best {
                best = id;
            }
        }
        Some((age, best))
    }

    /// See [`MulticastTree::shallowest_free_depth`](crate::MulticastTree::shallowest_free_depth).
    pub(crate) fn shallowest_free_depth(&self) -> Option<usize> {
        self.free.iter().position(|layer| !layer.is_empty())
    }

    /// See [`MulticastTree::free_layer`](crate::MulticastTree::free_layer).
    pub(crate) fn free_layer(&self, depth: usize) -> &[FreeEntry] {
        self.free.get(depth).map_or(&[], Vec::as_slice)
    }

    /// Checks one attached member's entries: present in both eviction
    /// sets at `depth` under its documented keys, and listed in the
    /// free-slot layer at `depth` exactly when `has_free`, at the position
    /// its back-pointer names, with its id and location.
    pub(crate) fn check_member(
        &self,
        profile: &MemberProfile,
        ix: NodeIndex,
        depth: usize,
        has_free: bool,
    ) -> Result<(), String> {
        let id = profile.id;
        let (Some(evict), Some(free)) = (self.evict.get(depth), self.free.get(depth)) else {
            return Err(format!("no index layer at depth {depth} for {id}"));
        };
        if !evict
            .by_bandwidth
            .contains(&(bw_order_key(profile.bandwidth), id))
        {
            return Err(format!("{id} missing from bandwidth index at {depth}"));
        }
        if !evict
            .by_join
            .contains(&(join_order_key(profile.join_time), id))
        {
            return Err(format!("{id} missing from join-time index at {depth}"));
        }
        // `Some(None)`: a back-pointer past the end of the layer.
        let listed = self
            .free_pos
            .get(ix.index())
            .filter(|&&pos| pos != UNLISTED)
            .map(|&pos| free.get(pos as usize));
        match (has_free, listed) {
            (false, None) => Ok(()),
            (true, Some(Some(e))) if e.ix == ix && e.id == id && e.location == profile.location => {
                Ok(())
            }
            _ => Err(format!(
                "{id} (spare capacity: {has_free}) has free-slot entry {listed:?} at {depth}"
            )),
        }
    }

    /// Checks the entry totals against the tree's `attached` members, of
    /// which `with_free` have spare capacity; together with
    /// [`check_member`](Self::check_member) on each of them this rules
    /// out stale extras.
    pub(crate) fn check_totals(&self, attached: usize, with_free: usize) -> Result<(), String> {
        let bw_total: usize = self.evict.iter().map(|l| l.by_bandwidth.len()).sum();
        let join_total: usize = self.evict.iter().map(|l| l.by_join.len()).sum();
        if bw_total != attached || join_total != attached {
            return Err(format!(
                "eviction index holds {bw_total}/{join_total} entries but {attached} \
                 attached members exist"
            ));
        }
        let free_total: usize = self.free.iter().map(Vec::len).sum();
        let listed = self.free_pos.iter().filter(|&&p| p != UNLISTED).count();
        if free_total != with_free || listed != with_free {
            return Err(format!(
                "free-slot layers hold {free_total} entries and {listed} slots are listed, \
                 but {with_free} attached members have spare capacity"
            ));
        }
        Ok(())
    }
}
