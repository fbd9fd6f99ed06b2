//! Timing summaries: a median plus the highest tail percentile that still
//! has at least ten samples beyond it, always with the sample count.

/// Tail levels tried from the top, in per-mille; the first whose
/// nearest-rank value leaves at least [`MIN_BEYOND`] samples above it is
/// reported.
const TAIL_LEVELS_PERMILLE: [usize; 4] = [999, 990, 950, 900];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A median and, when there are enough samples, a tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// `(percentile, value)` of the highest level in [`TAIL_LEVELS_PERMILLE`]
    /// with at least [`MIN_BEYOND`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `samples` (need not be sorted).
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    let tail = TAIL_LEVELS_PERMILLE.iter().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (n - 1 - rank >= MIN_BEYOND).then_some((p as f64 / 10.0, s[rank]))
    });
    Summary { n, median, tail }
}

/// Zero-based nearest-rank index of the `permille` level among `n`
/// sorted samples: the smallest index whose cumulative share reaches it.
fn nearest_rank(permille: usize, n: usize) -> usize {
    let rank = (permille * n).div_ceil(1000);
    rank.clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median(samples: &[f64]) -> f64 {
        summarize(samples).median
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn no_tail_below_eleven_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.n, 10);
        assert_eq!(sum.tail, None);
    }

    #[test]
    fn tail_is_the_highest_level_with_ten_samples_beyond() {
        // 100 samples: p90 is sample 90 with exactly 10 above it; p95
        // would leave only 5.
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.n, 100);
        assert_eq!(sum.median, 50.5);
        assert_eq!(sum.tail, Some((90.0, 90.0)));

        // 1000 samples reach p99 (sample 990, ten above it).
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&s).tail, Some((99.0, 990.0)));

        // 20 samples: p90 is sample 18 with two above it — too few; no
        // level qualifies.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&s).tail, None);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 1..600usize {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if let Some((_, v)) = summarize(&s).tail {
                let beyond = s.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond {v}");
            }
        }
    }
}
