//! Empirical cumulative distribution functions.
//!
//! Figure 5 of the paper plots the CDF of per-node disruption counts for an
//! 8000-node network on a logarithmic x-axis. [`Ecdf`] provides the exact
//! empirical CDF, quantiles, and the paper-style evaluation grid.

/// An empirical CDF built from a finite sample.
///
/// # Examples
///
/// ```
/// use rom_stats::Ecdf;
///
/// let cdf = Ecdf::from_samples([1.0, 2.0, 2.0, 8.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. NaN samples are ignored.
    #[must_use]
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the ECDF holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`; 0 when empty.
    #[must_use]
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The smallest sample `v` such that at least `p` of the mass is `<= v`.
    ///
    /// # Panics
    ///
    /// Panics if the ECDF is empty or `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            return self.sorted[0];
        }
        let rank = ((p * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }

    /// The power-of-two grid used by the paper's Fig. 5 x-axis
    /// (1, 2, 4, …, `max`).
    #[must_use]
    pub fn power_of_two_grid(max: f64) -> Vec<f64> {
        let mut grid = Vec::new();
        let mut x = 1.0;
        while x <= max {
            grid.push(x);
            x *= 2.0;
        }
        grid
    }

    /// The underlying sorted samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl FromIterator<f64> for Ecdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Ecdf::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_basic() {
        let cdf = Ecdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.25);
        assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
        assert_eq!(cdf.fraction_at_or_below(4.0), 1.0);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let cdf = Ecdf::from_samples([5.0, 5.0, 5.0]);
        assert_eq!(cdf.fraction_at_or_below(4.9), 0.0);
        assert_eq!(cdf.fraction_at_or_below(5.0), 1.0);
    }

    #[test]
    fn nan_filtered() {
        let cdf = Ecdf::from_samples([1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn quantiles() {
        let cdf = Ecdf::from_samples([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.quantile(0.25), 10.0);
        assert_eq!(cdf.quantile(0.5), 20.0);
        assert_eq!(cdf.quantile(0.75), 30.0);
        assert_eq!(cdf.quantile(1.0), 40.0);
        assert_eq!(cdf.quantile(0.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let cdf = Ecdf::from_samples(std::iter::empty());
        let _ = cdf.quantile(0.5);
    }

    #[test]
    fn power_grid_shape() {
        assert_eq!(
            Ecdf::power_of_two_grid(128.0),
            vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        );
        assert!(Ecdf::power_of_two_grid(0.5).is_empty());
    }

    #[test]
    fn cdf_is_monotone_on_random_data() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 37) % 97) as f64).collect();
        let cdf: Ecdf = samples.into_iter().collect();
        let mut prev = 0.0;
        for x in 0..100 {
            let f = cdf.fraction_at_or_below(f64::from(x));
            assert!(f >= prev);
            prev = f;
        }
        assert_eq!(prev, 1.0);
    }
}
