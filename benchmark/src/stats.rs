//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here can be compared
//! with one computed by a harness that uses that function.

/// Five-number summary plus the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// The value the timing is reported as (see [`typical`]).
    pub fn typical(&self) -> f64 {
        self.q1.max(self.min)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th of `n` exclusive quantile cut points of sorted `data`.
fn cut(data: &[f64], i: usize, n: usize) -> f64 {
    let ld = data.len();
    if ld == 1 {
        return data[0];
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// Summarizes `samples`.
///
/// # Panics
/// Panics on an empty slice: a timing with no samples is a harness bug.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let v = sorted(samples);
    Summary {
        n: v.len(),
        min: v[0],
        q1: cut(&v, 1, 4),
        median: cut(&v, 2, 4),
        q3: cut(&v, 3, 4),
        max: v[v.len() - 1],
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The value a timing is reported as: the first quartile of its samples
/// (never below the fastest one).
///
/// Not the median, for a measured reason: on the shared two-thread host
/// this benchmark is developed on, iteration times are bimodal — an
/// uncontended mode and one ~40% slower while a neighbour occupies the
/// sibling hardware thread — and the neighbour's duty cycle changes from
/// run to run. The median flips between the modes (spread across runs
/// 10.6% in one session); the first quartile stays in the uncontended mode
/// as long as a quarter of the iterations are (4.3% in the same session).
/// A regression moves the whole distribution and so moves this equally.
/// The median and the other quartiles are printed next to it.
pub fn typical(samples: &[f64]) -> f64 {
    summarize(samples).typical()
}

/// The samples a timing is summarized from: the ones not marked `dirty`
/// (taken while the hypervisor stole CPU time from this machine), unless
/// that leaves fewer than three or less than a quarter of them — then all.
pub fn steady(samples: &[f64], dirty: &[bool]) -> Vec<f64> {
    let clean: Vec<f64> = samples
        .iter()
        .zip(dirty)
        .filter(|(_, d)| !**d)
        .map(|(v, _)| *v)
        .collect();
    if clean.len() >= 3 && clean.len() * 4 >= samples.len() {
        clean
    } else {
        samples.to_vec()
    }
}

/// Geometric mean; how per-program ratios and rates are combined.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no values to average");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn typical_is_the_first_quartile_clamped_to_the_fastest_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(typical(&v), 2.75);
        // Python extrapolates the first quartile of two samples to 0.75.
        assert_eq!(typical(&[2.0, 1.0]), 1.0);
        assert_eq!(typical(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn steady_drops_dirty_samples_only_when_enough_clean_ones_remain() {
        let v = [1.0, 9.0, 1.1, 1.2, 8.0];
        assert_eq!(
            steady(&v, &[false, true, false, false, true]),
            vec![1.0, 1.1, 1.2]
        );
        // Two clean samples are too few to stand for the run.
        assert_eq!(steady(&v, &[false, true, true, false, true]), v.to_vec());
        // Three clean of sixteen are less than a quarter.
        let many = [1.0; 16];
        let mut flags = [true; 16];
        flags[..3].fill(false);
        assert_eq!(steady(&many, &flags).len(), 16);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }
}
