//! Log2-bucketed latency histograms with exact merge/delta semantics.
//!
//! [`LatencyHistogram`] is an HDR-style histogram: values below
//! [`SUB_BUCKETS`] are counted exactly, and every power-of-two range
//! above that is split into [`SUB_BUCKETS`] linear sub-buckets, bounding
//! the relative quantization error at `1 / SUB_BUCKETS` (≈ 3.1 %) while
//! covering the full `u64` range in a fixed number of buckets. Bucket
//! assignment is a pure function of the value, so two histograms built
//! from the same samples are identical regardless of recording order —
//! and every summary (count, sum, quantiles, max) is derived from the
//! buckets and the exact sum alone. That is what lets
//! [`LatencyHistogram::merge`] and [`LatencyHistogram::delta_since`] be
//! *exact* inverses (the properties the memory system's per-channel
//! fusion and warmup-window subtraction rely on, enforced by this
//! crate's property tests and by `MemStats`' exhaustive drift guard).

/// Linear sub-buckets per power-of-two range (and the width of the exact
/// low range). Must be a power of two.
pub const SUB_BUCKETS: u64 = 32;

/// log2 of [`SUB_BUCKETS`].
const SUB_SHIFT: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count covering all of `u64`: the exact low range plus
/// one sub-bucket run per octave from `SUB_SHIFT` to 63.
pub const BUCKETS: usize = (64 - SUB_SHIFT as usize + 1) * SUB_BUCKETS as usize;

/// The bucket index of `v` (a pure function of the value).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let top = 63 - v.leading_zeros(); // floor(log2 v) ≥ SUB_SHIFT
        let octave = (top - SUB_SHIFT + 1) as usize;
        let offset = ((v >> (top - SUB_SHIFT)) - SUB_BUCKETS) as usize;
        octave * SUB_BUCKETS as usize + offset
    }
}

/// The largest value mapped to bucket `index` (its inclusive upper
/// edge) — the value quantile extraction reports for a sample landing
/// in it, making every quantile an overestimate by at most the bucket
/// width (`1 / SUB_BUCKETS` relative).
#[inline]
fn bucket_upper_bound(index: usize) -> u64 {
    let sub = SUB_BUCKETS as usize;
    if index < sub {
        index as u64
    } else {
        let octave = (index / sub) as u32;
        let offset = (index % sub) as u64;
        // The bucket spans ((SUB_BUCKETS + offset) << w) ..=
        // (((SUB_BUCKETS + offset + 1) << w) - 1) with w = octave - 1;
        // the top bucket's edge wraps to exactly u64::MAX.
        ((SUB_BUCKETS + offset + 1) << (octave - 1)).wrapping_sub(1)
    }
}

/// An HDR-style log2-bucketed histogram of `u64` latencies.
///
/// Storage is allocated lazily on the first record, so a zeroed
/// histogram (e.g. inside a freshly built statistics block) costs three
/// words. Equality is *semantic*: an empty histogram equals one whose
/// buckets are allocated but all zero.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// Bucket counts, either empty (nothing recorded) or `BUCKETS` long.
    counts: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact sum of all recorded values (for the exact mean).
    sum: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v * n;
    }

    /// Empties the histogram in place, keeping the bucket allocation so
    /// a reused accumulator (e.g. a fused per-channel scratch) records
    /// again without reallocating.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper edge of the highest non-empty bucket — the maximum recorded
    /// value rounded up to its bucket edge (0 when empty). Quantized so
    /// that merge/delta stay exact inverses.
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_upper_bound)
    }

    /// Exact mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the inclusive upper edge of
    /// the bucket containing the `ceil(q·count)`-th smallest sample.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        self.max()
    }

    /// Median (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Adds every bucket of `other` into `self` — the fusion a
    /// channel-sharded memory system applies per channel. Exact:
    /// `merge(a, b)` equals recording the multiset union of both
    /// histograms' samples.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (s, &o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *s += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Bucket-wise difference `self − earlier` (for excluding warmup
    /// windows). Exact inverse of [`LatencyHistogram::merge`]:
    /// `merge(a, b).delta_since(a) == b` bucket for bucket.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not a prefix of `self`
    /// (any bucket would underflow).
    #[must_use]
    pub fn delta_since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        if earlier.count == 0 {
            return self.clone();
        }
        debug_assert!(self.count >= earlier.count, "delta_since underflow");
        let mut counts = self.counts.clone();
        for (s, &e) in counts.iter_mut().zip(earlier.counts.iter()) {
            debug_assert!(*s >= e, "delta_since bucket underflow");
            *s -= e;
        }
        LatencyHistogram {
            counts,
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }

    /// Folds many histograms into one with [`LatencyHistogram::merge`] —
    /// the fleet-level fusion: per-instance read-latency distributions
    /// combine exactly (no re-simulation, no approximation), so a fused
    /// p99 over a thousand instances is the true p99 of the union of
    /// every instance's samples.
    pub fn fused<'a>(parts: impl IntoIterator<Item = &'a LatencyHistogram>) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for h in parts {
            out.merge(h);
        }
        out
    }
}

impl PartialEq for LatencyHistogram {
    /// Semantic equality: an unallocated histogram equals an allocated
    /// all-zero one, so zeroed statistics blocks compare equal however
    /// they were produced (fresh, merged-empty, or delta-to-self).
    fn eq(&self, other: &Self) -> bool {
        if self.count != other.count || self.sum != other.sum {
            return false;
        }
        match (self.counts.is_empty(), other.counts.is_empty()) {
            (true, true) => true,
            (true, false) => other.counts.iter().all(|&c| c == 0),
            (false, true) => self.counts.iter().all(|&c| c == 0),
            (false, false) => self.counts == other.counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
            assert_eq!(h.max(), v, "low range tracks exactly");
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.sum(), (0..SUB_BUCKETS).sum::<u64>());
        assert_eq!(h.p50(), SUB_BUCKETS / 2 - 1);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(127), 95);
        assert_eq!(bucket_index(128), 96);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bucket's upper edge maps back into itself.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        let q = h.quantile(0.5);
        assert!(q >= 1_000_000);
        assert!((q as f64) < 1_000_000.0 * (1.0 + 1.0 / SUB_BUCKETS as f64));
    }

    #[test]
    fn empty_histogram_is_zero_everywhere() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn semantic_equality_ignores_allocation() {
        let empty = LatencyHistogram::new();
        let mut touched = LatencyHistogram::new();
        touched.record(5);
        let zeroed = touched.delta_since(&touched);
        assert_eq!(zeroed.count(), 0);
        assert_eq!(empty, zeroed);
        assert_eq!(zeroed, empty);
    }

    #[test]
    fn merge_then_delta_roundtrips() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [1u64, 7, 33, 999, 12_345] {
            a.record(v);
        }
        for v in [2u64, 64, 100_000] {
            b.record(v * 3);
        }
        let mut fused = a.clone();
        fused.merge(&b);
        assert_eq!(fused.count(), a.count() + b.count());
        assert_eq!(fused.delta_since(&a), b);
        assert_eq!(fused.delta_since(&b), a);
    }
}
