//! Median, quartiles and tail percentile of small sample sets.

/// Quartiles of a sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so that the spread printed here is the spread the
/// driver computes. One value is its own quartiles; none gives zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let cut = |i: usize| -> f64 {
        match n {
            0 => 0.0,
            1 => data[0],
            _ => {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            }
        }
    };
    Summary {
        n,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Mean of the middle three fifths: the lowest and the highest fifth of the
/// samples (rounded down) are dropped. Slice throughput on a shared machine
/// is flat-topped or two-humped, where a median jumps between humps from run
/// to run, with a few wild slices (one worker descheduled, the other running
/// uncontended at four times the speed), which a plain mean follows. On ten
/// runs of each workload this spread least of the estimators tried.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let cut = data.len() / 5;
    mean(&data[cut..data.len() - cut])
}

/// Median and 99th percentile (nearest rank) of latency samples. The p99 is
/// `None` unless at least ten samples lie beyond it: a tail read off fewer is
/// one outlier's value, not a percentile.
pub fn latency_percentiles(samples: &mut [u32]) -> (f64, Option<f64>) {
    if samples.is_empty() {
        return (0.0, None);
    }
    samples.sort_unstable();
    let n = samples.len();
    let p50 = f64::from(samples[(n - 1) / 2]);
    let rank = (n * 99).div_ceil(100);
    let p99 = (n - rank >= 10).then(|| f64::from(samples[rank - 1]));
    (p50, p99)
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!((summarize(&ten).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sample_sets_do_not_panic() {
        assert_eq!(summarize(&[]).median, 0.0);
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
        assert_eq!(latency_percentiles(&mut []), (0.0, None));
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_at_each_end() {
        // One wild slice in five does not move the value.
        assert_eq!(trimmed_mean(&[4.0, 16.0, 5.0, 3.0, 0.1]), 4.0);
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(trimmed_mean(&fifteen), 8.0);
        let mut skewed = fifteen.clone();
        skewed[14] = 1e6;
        skewed[13] = 1e6;
        assert_eq!(trimmed_mean(&skewed), 8.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut few: Vec<u32> = (1..=999).collect();
        assert_eq!(latency_percentiles(&mut few), (500.0, None));
        let mut enough: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(latency_percentiles(&mut enough), (500.0, Some(990.0)));
    }
}
