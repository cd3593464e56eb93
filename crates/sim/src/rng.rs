//! Deterministic random-number streams for reproducible simulations.
//!
//! Every experiment in this workspace is driven by a single `u64` seed.
//! [`SimRng`] is a self-contained xoshiro256++ generator seeded from that
//! value and can [`fork`] child streams (one per subsystem, e.g. topology
//! vs. churn) so that changing how one subsystem consumes randomness does
//! not perturb the others.
//!
//! The generator is implemented in-tree (no external crates) so that the
//! byte-for-byte output stream is pinned by this workspace alone: a
//! dependency bump can never silently change every experiment's history.
//!
//! [`fork`]: SimRng::fork

/// SplitMix64 step, used to seed the main generator and to derive
/// statistically independent child seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable, forkable random-number generator for simulations.
///
/// Internally this is xoshiro256++ (Blackman & Vigna), a small, fast
/// generator with a 2^256 − 1 period — far beyond anything a simulation
/// here can exhaust — whose reference implementation is public domain.
///
/// # Examples
///
/// ```
/// use rom_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(), b.uniform()); // same seed, same stream
///
/// let mut topo = a.fork("topology");
/// let x = topo.range_f64(15.0, 25.0);
/// assert!((15.0..25.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a root seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        // Expand the 64-bit seed into the full 256-bit state with
        // SplitMix64, as the xoshiro authors recommend. The expansion
        // can never produce the all-zero state.
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state, seed }
    }

    /// The seed this stream was created from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Forking is a pure function of `(seed, label)`: the child does not
    /// share state with, nor consume randomness from, the parent.
    #[must_use]
    pub fn fork(&self, label: &str) -> SimRng {
        let mut state = self.seed;
        for byte in label.bytes() {
            state ^= u64::from(byte);
            splitmix64(&mut state);
        }
        let child_seed = splitmix64(&mut state);
        SimRng::seed_from(child_seed)
    }

    /// The next raw 64-bit output of the generator (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the standard dyadic-rational mapping onto [0, 1).
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// A uniform sample in `[0, 1)` guaranteed to be strictly positive,
    /// suitable for `ln`-based transforms.
    pub fn uniform_positive(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let x = lo + self.uniform() * (hi - lo);
        // Rounding can land exactly on `hi`; fold that back inside.
        if x < hi {
            x
        } else {
            lo.max(f64_prev(hi))
        }
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty collection");
        // Lemire's widening-multiply method with rejection: unbiased for
        // every n, and almost always a single 64-bit draw.
        let n = n as u64;
        let mut x = self.next_u64();
        let mut m = (u128::from(x)) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (u128::from(x)) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// An exponentially distributed sample with the given `rate` (events per
    /// second); this is the inter-arrival time of a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        -self.uniform_positive().ln() / rate
    }

    /// A fair coin flip with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Chooses a uniformly random element of `items`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Draws `k` distinct elements from `items` by partial shuffle; returns
    /// fewer when `items.len() < k`.
    pub fn sample<T: Clone>(&mut self, items: &[T], k: usize) -> Vec<T> {
        self.sample_indices(items.len(), k)
            .into_iter()
            .map(|i| items[i].clone())
            .collect()
    }

    /// The index form of [`sample`](Self::sample): `k` distinct positions
    /// drawn uniformly without replacement from `0..len`, in draw order.
    ///
    /// Both code paths run the same partial Fisher–Yates and therefore
    /// draw an identical RNG stream and return identical indices. The
    /// sparse path stores only the slots a swap has displaced, in an
    /// open-addressed table of at least 2k entries, so each draw costs
    /// one expected-O(1) probe whatever `len` is; that is what keeps
    /// per-join view sampling flat as the membership grows to 10^6. The
    /// dense path materializes `0..len` and swaps in place; its
    /// sequential init beats the table's clearing and hashing until
    /// `len` is tens of times `k`, so it serves `k · 64 ≥ len`.
    pub fn sample_indices(&mut self, len: usize, k: usize) -> Vec<usize> {
        let take = k.min(len);
        let mut picked = Vec::with_capacity(take);
        if take * 64 < len {
            // Sparse permutation: slot p holds p unless the displacement
            // table says otherwise. Slot i is dead after iteration i (no
            // later j reaches back to it), so entries are never deleted:
            // the table holds at most one entry per draw.
            let mut displaced = Displaced::with_room_for(take);
            for i in 0..take {
                let j = i + self.index(len - i);
                let (at_i, value_i) = *displaced.slot(i);
                let swapped_out = if at_i == i { value_i } else { i };
                if j == i {
                    picked.push(swapped_out);
                    continue;
                }
                let slot = displaced.slot(j);
                picked.push(if slot.0 == j { slot.1 } else { j });
                *slot = (j, swapped_out);
            }
        } else {
            let mut idx: Vec<usize> = (0..len).collect();
            for i in 0..take {
                let j = i + self.index(len - i);
                idx.swap(i, j);
            }
            picked.extend_from_slice(&idx[..take]);
        }
        picked
    }
}

/// The sparse sampler's displacement table: `(position, value)` pairs
/// under open addressing with linear probing, in a power-of-two array
/// kept at most half full.
struct Displaced {
    /// `EMPTY` in the position field marks a free slot.
    slots: Vec<(usize, usize)>,
    /// `64 − log₂(slots.len())`: Fibonacci hashing keeps a product's top
    /// bits, which spreads the sampler's sequential positions too.
    shift: u32,
}

/// A position no sample can hold: positions are below `len`.
const EMPTY: usize = usize::MAX;

impl Displaced {
    /// A table that stays at most half full through `draws` inserts.
    fn with_room_for(draws: usize) -> Self {
        let len = (2 * draws).next_power_of_two().max(2);
        Displaced {
            slots: vec![(EMPTY, 0); len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The slot of `pos`: its entry, or the free slot (position `EMPTY`)
    /// where it would go.
    fn slot(&mut self, pos: usize) -> &mut (usize, usize) {
        let mask = self.slots.len() - 1;
        let mut at = ((pos as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        while self.slots[at].0 != pos && self.slots[at].0 != EMPTY {
            at = (at + 1) & mask;
        }
        &mut self.slots[at]
    }
}

/// The largest `f64` strictly below `x` (for finite positive `x`).
fn f64_prev(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16)
            .filter(|_| a.uniform().to_bits() == b.uniform().to_bits())
            .count();
        assert!(same < 16);
    }

    #[test]
    fn matches_xoshiro_reference_vectors() {
        // First outputs of xoshiro256++ for the state produced by seeding
        // SplitMix64 with 0 — cross-checked against the authors' reference
        // C implementation. Pins the stream against accidental edits.
        let mut rng = SimRng::seed_from(0);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let want = [
            0x53175d61490b23dfu64,
            0x61da6f3dc380d507,
            0x5c0fdf91ec9a7bfc,
            0x02eebf8c3bbe5e1a,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = SimRng::seed_from(99);
        let mut c1 = parent.fork("child");
        let mut parent2 = SimRng::seed_from(99);
        let _ = parent2.uniform(); // consume from the parent stream
        let mut c2 = parent2.fork("child");
        assert_eq!(c1.uniform().to_bits(), c2.uniform().to_bits());
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let parent = SimRng::seed_from(99);
        let mut a = parent.fork("a");
        let mut b = parent.fork("b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.range_f64(15.0, 25.0);
            assert!((15.0..25.0).contains(&x));
            let i = rng.index(10);
            assert!(i < 10);
        }
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(21);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.index(7)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / f64::from(n);
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} should be near 2.0");
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let mut rng = SimRng::seed_from(11);
        let items: Vec<u32> = (0..50).collect();
        let picked = rng.sample(&items, 10);
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "samples must be distinct");
        let too_many = rng.sample(&items, 100);
        assert_eq!(too_many.len(), 50);
    }

    /// Draws `k` of `len` through `sample_indices` and through the dense
    /// partial Fisher–Yates it must reproduce bitwise: same RNG draws,
    /// same picks, in the same order, and both generators left in the
    /// same state.
    fn assert_matches_dense_reference(seed: u64, len: usize, k: usize) {
        let mut fast = SimRng::seed_from(seed);
        let picked = fast.sample_indices(len, k);

        let mut reference = SimRng::seed_from(seed);
        let mut idx: Vec<usize> = (0..len).collect();
        let take = k.min(len);
        for i in 0..take {
            let j = i + reference.index(len - i);
            idx.swap(i, j);
        }
        assert_eq!(picked, idx[..take], "seed={seed} len={len} k={k}");
        assert_eq!(fast.next_u64(), reference.next_u64());
    }

    #[test]
    fn sparse_sample_matches_dense_reference() {
        // Sweep across the take*64 < len threshold so both code paths
        // are exercised against the reference, including the boundaries
        // len = 64·k + 1 where the sparse path barely engages, takes past
        // 128 (a table of 512 slots and more), and a draw of thousands
        // from 2²⁰, the scale of a chaos victim pick.
        for (len, k) in [
            (1usize, 1usize),
            (9, 1),
            (64, 7),
            (129, 2),
            (1000, 3),
            (5000, 100),
            (6_401, 100),
            (20000, 100),
            (19_201, 300),
            (200_000, 1_000),
            (1 << 20, 5_000),
        ] {
            assert_matches_dense_reference(23, len, k);
        }
        // A displaced value is read back only after two collisions: a
        // draw lands inside the sample's prefix, and a later draw lands
        // where that slot's value was moved. Takes of thousands at the
        // sparse boundary make that likely within a few seeds.
        for seed in 0..32 {
            assert_matches_dense_reference(seed, 320_001, 5_000);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(13);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SimRng::seed_from(17);
        let empty: &[u8] = &[];
        assert!(rng.choose(empty).is_none());
        assert!(rng.choose(&[42]).is_some());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
