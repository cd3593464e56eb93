//! The id table: [`IdMap`], a map keyed by [`NodeId`] and stored in
//! pages of consecutive ids.

use std::fmt;

use crate::id::NodeId;

/// log₂ of [`PAGE_LEN`].
const PAGE_BITS: u32 = 10;

/// Consecutive ids per page.
const PAGE_LEN: usize = 1 << PAGE_BITS;

/// One page: the slots for ids `number · PAGE_LEN ..= number · PAGE_LEN +
/// PAGE_LEN - 1`.
#[derive(Clone)]
struct Page<V> {
    /// The ids' shared high bits (`id >> PAGE_BITS`).
    number: u64,
    /// Occupied slots; the page leaves the directory when this reaches 0.
    live: usize,
    slots: Box<[Option<V>]>,
}

impl<V> Page<V> {
    fn new(number: u64) -> Self {
        Page {
            number,
            live: 0,
            slots: std::iter::repeat_with(|| None).take(PAGE_LEN).collect(),
        }
    }
}

/// Splits an id into its page number and its slot within the page.
fn split(id: NodeId) -> (u64, usize) {
    (id.0 >> PAGE_BITS, (id.0 as usize) & (PAGE_LEN - 1))
}

/// An id-ordered map from [`NodeId`] to `V`, paged by id.
///
/// Ids are minted sequentially within each id space (workload members
/// from 1, chaos-born members from `CHAOS_ID_BASE` = 2⁴⁰), so the live
/// ids of a run cluster into a few dense runs. The map stores each run of
/// 1 024 consecutive ids as one page, a flat slot array indexed by the
/// id's low bits, and finds the page through a short directory of page
/// numbers kept in ascending order. Because the page numbers are
/// distinct, page n can sit no further into the directory than n minus
/// the first page's number; the lookup probes that position first, so a
/// directory without gaps below the page (the workload's id run, with
/// or without a chaos page above it) answers in one probe plus one
/// array access, where an ordered map of the same ids descends one node
/// per level. A gap costs a binary search over the range the first and
/// last page numbers leave open. Iteration walks the pages in directory
/// order and each page's slots in index order, so it yields ids in
/// ascending order, the order a `BTreeMap` would give.
///
/// Every id takes the same path: a sparse id costs one page of its own,
/// and a page is freed when its last entry leaves.
///
/// # Examples
///
/// ```
/// use rom_overlay::{IdMap, NodeId};
///
/// let mut m = IdMap::new();
/// m.insert(NodeId(1 << 40), "chaos");
/// m.insert(NodeId(7), "workload");
/// assert_eq!(m.get(NodeId(7)), Some(&"workload"));
/// let ids: Vec<NodeId> = m.keys().collect();
/// assert_eq!(ids, vec![NodeId(7), NodeId(1 << 40)]);
/// assert_eq!(m.remove(NodeId(7)), Some("workload"));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone)]
pub struct IdMap<V> {
    /// Pages with at least one entry, in ascending page-number order.
    pages: Vec<Page<V>>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for IdMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> IdMap<V> {
    /// An empty map; it allocates nothing until the first insert.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The directory position of page `number`, if it is live, else the
    /// position it would be inserted at.
    ///
    /// Page numbers are distinct and ascending, so page `number` sits at
    /// most `number − first` entries after the first page and at most
    /// `last − number` entries before the last. The search probes the
    /// upper bound first, which is the page itself whenever the pages
    /// from the first up to it are gap-free; otherwise it binary-searches
    /// the range the two bounds leave open.
    fn find_page(&self, number: u64) -> Result<usize, usize> {
        let Some(first) = self.pages.first() else {
            return Err(0);
        };
        let top = self.pages.len() - 1;
        // A number below the first page wraps to a huge offset, so it
        // probes the last page and searches from `lo` = 0.
        let hi = usize::try_from(number.wrapping_sub(first.number)).map_or(top, |d| d.min(top));
        if self.pages[hi].number == number {
            return Ok(hi);
        }
        let last = self.pages[top].number;
        if number > last {
            return Err(self.pages.len());
        }
        // `pages[hi]` lies above `number`, and every page before `lo`
        // below it.
        let lo = usize::try_from(last - number).map_or(0, |d| top.saturating_sub(d));
        self.pages[lo..hi]
            .binary_search_by_key(&number, |p| p.number)
            .map(|at| lo + at)
            .map_err(|at| lo + at)
    }

    /// The directory position of page `number`, creating the page first
    /// if it is not live.
    fn page_or_insert(&mut self, number: u64) -> usize {
        self.find_page(number).unwrap_or_else(|at| {
            self.pages.insert(at, Page::new(number));
            at
        })
    }

    /// The value stored for `id`.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&V> {
        let (number, slot) = split(id);
        let at = self.find_page(number).ok()?;
        self.pages[at].slots[slot].as_ref()
    }

    /// Mutable access to the value stored for `id`.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut V> {
        let (number, slot) = split(id);
        let at = self.find_page(number).ok()?;
        self.pages[at].slots[slot].as_mut()
    }

    /// True if `id` has an entry.
    #[must_use]
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        let (number, slot) = split(id);
        let at = self.page_or_insert(number);
        let page = &mut self.pages[at];
        let old = page.slots[slot].replace(value);
        if old.is_none() {
            page.live += 1;
            self.len += 1;
        }
        old
    }

    /// The value stored for `id`, inserting `V::default()` first when
    /// there is none.
    pub fn get_or_default(&mut self, id: NodeId) -> &mut V
    where
        V: Default,
    {
        let (number, slot) = split(id);
        let at = self.page_or_insert(number);
        let page = &mut self.pages[at];
        if page.slots[slot].is_none() {
            page.live += 1;
            self.len += 1;
        }
        page.slots[slot].get_or_insert_with(V::default)
    }

    /// Removes `id`'s entry and returns its value. Frees the page when
    /// this was its last entry.
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let (number, slot) = split(id);
        let at = self.find_page(number).ok()?;
        let page = &mut self.pages[at];
        let old = page.slots[slot].take()?;
        page.live -= 1;
        self.len -= 1;
        if page.live == 0 {
            self.pages.remove(at);
        }
        Some(old)
    }

    /// Entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> + '_ {
        self.pages.iter().flat_map(|page| {
            let base = page.number << PAGE_BITS;
            page.slots
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| Some((NodeId(base | i as u64), v.as_ref()?)))
        })
    }

    /// Ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
        GetMut(u64, u32),
    }

    /// Ids at the start of each of the first six pages, straddling the
    /// first page boundary, and from 2⁴⁰ up (the chaos id space). Each
    /// cluster is narrow enough that removes and probes often hit live
    /// ids, so pages empty out mid-directory and leave gaps below the
    /// chaos page, the case where the first probe misses.
    fn id() -> impl Strategy<Value = u64> {
        let page = PAGE_LEN as u64;
        prop_oneof![
            (0..6u64, 0..8u64).prop_map(move |(number, slot)| number * page + slot),
            (page - 24)..(page + 24),
            (1u64 << 40)..((1u64 << 40) + 48),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (id(), any::<u32>()).prop_map(|(id, v)| Op::Insert(id, v)),
            2 => id().prop_map(Op::Remove),
            1 => id().prop_map(Op::Get),
            1 => (id(), any::<u32>()).prop_map(|(id, v)| Op::GetMut(id, v)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The paged map answers every operation exactly as a `BTreeMap`
        /// does, and iterates in the same (ascending id) order.
        #[test]
        fn matches_btreemap(ops in prop::collection::vec(op(), 1..300)) {
            let mut paged = IdMap::new();
            let mut model = BTreeMap::new();
            for op in ops {
                let probe = match op {
                    Op::Insert(id, v) => {
                        prop_assert_eq!(paged.insert(NodeId(id), v), model.insert(id, v));
                        id
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(paged.remove(NodeId(id)), model.remove(&id));
                        id
                    }
                    Op::Get(id) => id,
                    Op::GetMut(id, v) => {
                        let got = paged.get_mut(NodeId(id)).map(|x| std::mem::replace(x, v));
                        let want = model.get_mut(&id).map(|x| std::mem::replace(x, v));
                        prop_assert_eq!(got, want);
                        id
                    }
                };
                let number = probe >> PAGE_BITS;
                prop_assert_eq!(
                    paged.find_page(number),
                    paged.pages.binary_search_by_key(&number, |p| p.number)
                );
                prop_assert_eq!(paged.get(NodeId(probe)), model.get(&probe));
                prop_assert_eq!(paged.contains_key(NodeId(probe)), model.contains_key(&probe));
                prop_assert_eq!(paged.len(), model.len());
                let order: Vec<(u64, u32)> = paged.iter().map(|(id, &v)| (id.0, v)).collect();
                let want: Vec<(u64, u32)> = model.iter().map(|(&id, &v)| (id, v)).collect();
                prop_assert_eq!(order, want);
                prop_assert!(paged.pages.iter().all(|p| p.live > 0), "an empty page was kept");
            }
        }
    }

    #[test]
    fn page_is_released_when_its_last_id_leaves() {
        let mut m = IdMap::new();
        let first = NodeId(3 * PAGE_LEN as u64);
        let last = NodeId(4 * PAGE_LEN as u64 - 1);
        m.insert(NodeId(5), 'a');
        m.insert(first, 'b');
        m.insert(last, 'c');
        assert_eq!(m.pages.len(), 2);
        assert_eq!(m.remove(first), Some('b'));
        assert_eq!(m.pages.len(), 2, "the page still holds `last`");
        assert_eq!(m.remove(last), Some('c'));
        assert_eq!(m.pages.len(), 1);
        assert_eq!(m.remove(last), None);
        assert_eq!(m.remove(NodeId(5)), Some('a'));
        assert!(m.pages.is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_default_counts_only_new_entries() {
        let mut m = IdMap::new();
        *m.get_or_default(NodeId(9)) += 1;
        *m.get_or_default(NodeId(9)) += 1;
        assert_eq!(m.get(NodeId(9)), Some(&2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.insert(NodeId(9), 7), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn extreme_ids_share_the_paged_path() {
        let mut m = IdMap::new();
        m.insert(NodeId(u64::MAX), 1);
        m.insert(NodeId(0), 0);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(NodeId(0), &0), (NodeId(u64::MAX), &1)]
        );
        assert_eq!(
            format!("{m:?}"),
            "{NodeId(0): 0, NodeId(18446744073709551615): 1}"
        );
    }
}
