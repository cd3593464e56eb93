//! Outside overlay probe: the public tree operations timed on a clone of
//! a converged churn tree, for comparison with the same operations' span
//! cost inside the engine.

use crate::clock::timed;
use crate::rollup::ratio;
use rom_overlay::{MulticastTree, NodeId};
use rom_sim::{SimRng, SimTime};

/// Calls and summed wall time of one probed operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// Successful calls timed.
    pub ops: u64,
    /// Their summed wall time, seconds.
    pub secs: f64,
}

impl OpCost {
    fn add(&mut self, secs: f64) {
        self.ops += 1;
        self.secs += secs;
    }

    /// Mean nanoseconds per call (0 when nothing was timed).
    #[must_use]
    pub fn ns_per_op(self) -> f64 {
        ratio(self.secs * 1e9, self.ops as f64)
    }
}

/// Per-operation costs measured by [`probe`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeCosts {
    /// `MulticastTree::swap_with_parent` (engine span `overlay.switch`).
    pub swap: OpCost,
    /// `MulticastTree::remove` (engine span `overlay.remove`).
    pub remove: OpCost,
    /// `MulticastTree::reattach` of the removed member's orphans (engine
    /// span `overlay.reattach`).
    pub reattach: OpCost,
}

/// Times `samples` switches and `samples` removals (each followed by the
/// reattachment of its orphans) on two clones of `tree`, over members
/// drawn from `seed`. `now` is the simulation time the tree was taken at,
/// which the switch's bandwidth-time-product priority needs.
#[must_use]
pub fn probe(tree: &MulticastTree, now: SimTime, seed: u64, samples: usize) -> ProbeCosts {
    let root = tree.root();
    let members: Vec<NodeId> = tree
        .member_ids()
        .filter(|&id| id != root && tree.is_attached(id))
        .collect();
    // rom-lint: allow(rng-fork-discipline) -- the probe's own root stream, minted from the workload seed and forked once so it never shares draws with the simulator
    let mut rng = SimRng::seed_from(seed).fork("probe");
    let picks = rng.sample(&members, samples.min(members.len()));
    let mut costs = ProbeCosts::default();

    let mut switched = tree.clone();
    for &id in &picks {
        let movable = switched
            .parent(id)
            .is_some_and(|p| p != root && switched.is_attached(id));
        if movable {
            let (result, secs) = timed(|| switched.swap_with_parent(id, |p| p.btp(now)));
            if result.is_ok() {
                costs.swap.add(secs);
            }
        }
    }

    let mut pruned = tree.clone();
    for &id in &picks {
        let Some(parent) = pruned.parent(id) else {
            continue;
        };
        let (removed, secs) = timed(|| pruned.remove(id));
        let Ok(removed) = removed else {
            continue;
        };
        costs.remove.add(secs);
        for orphan in removed.orphaned_children {
            if let Some(target) = free_ancestor(&pruned, parent) {
                let (result, secs) = timed(|| pruned.reattach(orphan, target));
                if result.is_ok() {
                    costs.reattach.add(secs);
                }
            }
        }
    }
    costs
}

/// The nearest member at or above `from` with a free child slot.
fn free_ancestor(tree: &MulticastTree, from: NodeId) -> Option<NodeId> {
    let mut at = Some(from);
    while let Some(id) = at {
        if tree.is_attached(id) && tree.has_free_slot(id) {
            return Some(id);
        }
        at = tree.parent(id);
    }
    None
}
