//! Property tests for [`clr_obs::LatencyHistogram`]: the exact-algebra
//! guarantees (merge = multiset union, delta = exact inverse), the
//! quantile contract (monotone, bounded quantization error) the memory
//! system's per-channel fusion and warmup subtraction rely on, and
//! agreement of the ragged storage with a dense reference model.

use clr_obs::hist::{LatencyHistogram, BUCKETS, SUB_BUCKETS};
use proptest::prelude::*;

/// The dense reference: every bucket stored from the first record or
/// non-empty merge on, zeroed in place by `clear`. Its derived `Debug`
/// is the text the ragged histogram's hand-written one must print (same
/// struct name, same fields in the same order).
mod dense {
    use super::{BUCKETS, SUB_BUCKETS};

    #[derive(Debug, Clone, Default)]
    pub struct LatencyHistogram {
        counts: Vec<u64>,
        count: u64,
        sum: u64,
    }

    /// Bucket of `v`: exact below `SUB_BUCKETS`; above, `v >> w` lands
    /// in `[SUB_BUCKETS, 2 * SUB_BUCKETS)` and octave `w + 1` holds it.
    fn bucket(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let w = 64 - v.leading_zeros() - 1 - SUB_BUCKETS.trailing_zeros();
        ((w as u64 + 1) * SUB_BUCKETS + (v >> w) - SUB_BUCKETS) as usize
    }

    /// The largest value in bucket `i`: one below the smallest value of
    /// the next bucket, found by bisection (`bucket` is monotone).
    fn upper(i: usize) -> u64 {
        if i + 1 == BUCKETS {
            return u64::MAX;
        }
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if bucket(mid) > i {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo - 1
    }

    impl LatencyHistogram {
        pub fn record_n(&mut self, v: u64, n: u64) {
            if n == 0 {
                return;
            }
            if self.counts.is_empty() {
                self.counts = vec![0; BUCKETS];
            }
            self.counts[bucket(v)] += n;
            self.count += n;
            self.sum += v * n;
        }

        pub fn clear(&mut self) {
            self.counts.iter_mut().for_each(|c| *c = 0);
            self.count = 0;
            self.sum = 0;
        }

        pub fn merge(&mut self, other: &Self) {
            if other.count == 0 {
                return;
            }
            if self.counts.is_empty() {
                self.counts = vec![0; BUCKETS];
            }
            for (s, &o) in self.counts.iter_mut().zip(&other.counts) {
                *s += o;
            }
            self.count += other.count;
            self.sum += other.sum;
        }

        pub fn delta_since(&self, earlier: &Self) -> Self {
            if earlier.count == 0 {
                return self.clone();
            }
            let mut out = self.clone();
            for (s, &e) in out.counts.iter_mut().zip(&earlier.counts) {
                *s -= e;
            }
            out.count -= earlier.count;
            out.sum -= earlier.sum;
            out
        }

        pub fn count(&self) -> u64 {
            self.count
        }

        pub fn sum(&self) -> u64 {
            self.sum
        }

        pub fn max(&self) -> u64 {
            self.counts.iter().rposition(|&c| c > 0).map_or(0, upper)
        }

        pub fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return upper(i);
                }
            }
            unreachable!("the buckets hold all {} samples", self.count)
        }

        /// Semantic equality: no storage equals all-zero storage.
        pub fn same(&self, other: &Self) -> bool {
            let zero = |h: &Self| h.counts.iter().all(|&c| c == 0);
            self.count == other.count
                && self.sum == other.sum
                && match (self.counts.is_empty(), other.counts.is_empty()) {
                    (true, true) => true,
                    (true, false) => zero(other),
                    (false, true) => zero(self),
                    (false, false) => self.counts == other.counts,
                }
        }
    }
}

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Mixed-magnitude sample strategy: small exact-range values, mid-range
/// values around bucket boundaries, and large values.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        28u64..40, // straddles the exact/log2 boundary
        (0u32..40).prop_map(|s| (1u64 << (s % 40)).wrapping_add(s as u64)),
        0u64..1_000_000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, b) is exactly record(a ∪ b): building one histogram from
    /// the concatenated samples equals merging two built separately.
    #[test]
    fn merge_equals_record_of_union(
        xs in proptest::collection::vec(sample(), 0..80),
        ys in proptest::collection::vec(sample(), 0..80),
    ) {
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let mut both = xs.clone();
        both.extend_from_slice(&ys);
        prop_assert_eq!(merged, hist_of(&both));
    }

    /// merge then delta round-trips exactly: (a ⊎ b) − a == b and
    /// (a ⊎ b) − b == a.
    #[test]
    fn delta_inverts_merge(
        xs in proptest::collection::vec(sample(), 0..80),
        ys in proptest::collection::vec(sample(), 0..80),
    ) {
        let a = hist_of(&xs);
        let b = hist_of(&ys);
        let mut fused = a.clone();
        fused.merge(&b);
        prop_assert_eq!(fused.delta_since(&a), b.clone());
        prop_assert_eq!(fused.delta_since(&b), a.clone());
        // Degenerate deltas: to-self is empty, since-empty is identity.
        prop_assert_eq!(a.delta_since(&a), LatencyHistogram::new());
        prop_assert_eq!(a.delta_since(&LatencyHistogram::new()), a);
    }

    /// Quantiles are monotone in q and bracketed by [min-bucket, max].
    #[test]
    fn quantiles_are_monotone(
        xs in proptest::collection::vec(sample(), 1..120),
    ) {
        let h = hist_of(&xs);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", vals);
        }
        prop_assert_eq!(h.quantile(1.0), h.max());
        // Every quantile overestimates its sample by < 1/SUB_BUCKETS.
        let true_max = *xs.iter().max().unwrap();
        prop_assert!(h.max() >= true_max);
        let bound = true_max as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0;
        prop_assert!((h.max() as f64) <= bound, "max {} vs true {}", h.max(), true_max);
    }

    /// Values in the exact low range are reported exactly; count/sum are
    /// always exact.
    #[test]
    fn exact_range_and_exact_moments(
        xs in proptest::collection::vec(0u64..SUB_BUCKETS, 1..64),
    ) {
        let h = hist_of(&xs);
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.sum(), xs.iter().sum::<u64>());
        prop_assert_eq!(h.max(), *xs.iter().max().unwrap());
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let median = sorted[(xs.len() - 1) / 2];
        prop_assert_eq!(h.p50(), median);
    }

    /// Bucket-boundary edge cases: a value and its successor either
    /// share a bucket or land in adjacent ones, and recording both
    /// preserves order in the quantile walk.
    #[test]
    fn bucket_boundaries_preserve_order(shift in 0u32..63) {
        let edge = 1u64 << shift;
        for v in [edge - 1, edge, edge + 1] {
            let h = hist_of(&[v]);
            prop_assert!(h.max() >= v);
            prop_assert!(h.p50() >= v);
        }
        let h = hist_of(&[edge - 1, edge + 1]);
        prop_assert!(h.quantile(0.0) <= h.quantile(1.0));
        prop_assert_eq!(h.count(), 2);
    }
}

/// One step of [`ragged_storage_matches_the_dense_model`] on three slots.
#[derive(Debug, Clone)]
enum Op {
    Record {
        slot: usize,
        v: u64,
        n: u64,
    },
    Merge {
        dst: usize,
        src: usize,
    },
    /// `dst = (b ⊎ a) − a`. When `a` was cleared after a higher sample,
    /// its storage reaches past the sum's.
    Delta {
        dst: usize,
        a: usize,
        b: usize,
    },
    DeltaToSelf {
        slot: usize,
    },
    Clear {
        slot: usize,
    },
    Fresh {
        slot: usize,
    },
    Fuse {
        dst: usize,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let record =
        || (0usize..3, sample(), 0u64..4).prop_map(|(slot, v, n)| Op::Record { slot, v, n });
    prop_oneof![
        record(),
        record(),
        record(),
        (0usize..3, 0usize..3).prop_map(|(dst, src)| Op::Merge { dst, src }),
        (0usize..3, 0usize..3, 0usize..3).prop_map(|(dst, a, b)| Op::Delta { dst, a, b }),
        (0usize..3).prop_map(|slot| Op::DeltaToSelf { slot }),
        (0usize..3).prop_map(|slot| Op::Clear { slot }),
        (0usize..3).prop_map(|slot| Op::Fresh { slot }),
        (0usize..3).prop_map(|dst| Op::Fuse { dst }),
    ]
}

/// Applies `op` to both the ragged slots and the dense model's.
fn apply(op: &Op, live: &mut [LatencyHistogram; 3], model: &mut [dense::LatencyHistogram; 3]) {
    // Keep sums far from u64 overflow: a step summing past 2^62 is
    // skipped (repeated self-merges double a slot's sum).
    let fits = |parts: &[usize]| {
        parts
            .iter()
            .map(|&i| u128::from(live[i].sum()))
            .sum::<u128>()
            < 1 << 62
    };
    match *op {
        Op::Record { slot, v, n } => {
            if fits(&[slot]) {
                live[slot].record_n(v, n);
                model[slot].record_n(v, n);
            }
        }
        Op::Merge { dst, src } => {
            if fits(&[dst, src]) {
                let (theirs, modelled) = (live[src].clone(), model[src].clone());
                live[dst].merge(&theirs);
                model[dst].merge(&modelled);
            }
        }
        Op::Delta { dst, a, b } => {
            if fits(&[a, b]) {
                let mut whole = live[b].clone();
                whole.merge(&live[a]);
                live[dst] = whole.delta_since(&live[a]);
                let mut whole = model[b].clone();
                whole.merge(&model[a]);
                model[dst] = whole.delta_since(&model[a]);
            }
        }
        Op::DeltaToSelf { slot } => {
            live[slot] = live[slot].delta_since(&live[slot]);
            model[slot] = model[slot].delta_since(&model[slot]);
        }
        Op::Clear { slot } => {
            live[slot].clear();
            model[slot].clear();
        }
        Op::Fresh { slot } => {
            live[slot] = LatencyHistogram::new();
            model[slot] = dense::LatencyHistogram::default();
        }
        Op::Fuse { dst } => {
            if fits(&[0, 1, 2]) {
                live[dst] = LatencyHistogram::fused(live.iter());
                let mut fused = dense::LatencyHistogram::default();
                model.iter().for_each(|h| fused.merge(h));
                model[dst] = fused;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ragged storage is invisible: after every step of a random
    /// sequence of records, merges, deltas, clears and fusions, each slot
    /// agrees with the dense reference on count, sum, max and quantiles,
    /// `==` between slots matches the model's semantic equality in both
    /// directions, and `{:?}` / `{:#?}` print the model's text byte for
    /// byte.
    #[test]
    fn ragged_storage_matches_the_dense_model(ops in proptest::collection::vec(op(), 1..40)) {
        let mut live: [LatencyHistogram; 3] = Default::default();
        let mut model: [dense::LatencyHistogram; 3] = Default::default();
        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut live, &mut model);
            for (i, (h, m)) in live.iter().zip(&model).enumerate() {
                let at = format!("slot {i} after step {step} ({op:?})");
                prop_assert_eq!(h.count(), m.count(), "{}", at);
                prop_assert_eq!(h.sum(), m.sum(), "{}", at);
                prop_assert_eq!(h.max(), m.max(), "{}", at);
                for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                    prop_assert_eq!(h.quantile(q), m.quantile(q), "{} at q {}", at, q);
                }
                prop_assert!(format!("{h:?}") == format!("{m:?}"), "{}: Debug text differs", at);
                prop_assert!(format!("{h:#?}") == format!("{m:#?}"), "{}: {{:#?}} text differs", at);
                for (j, (other, other_model)) in live.iter().zip(&model).enumerate() {
                    let same = m.same(other_model);
                    prop_assert_eq!(h == other, same, "{} == slot {}", at, j);
                    prop_assert_eq!(other == h, same, "slot {} == {}", j, at);
                }
            }
        }
    }
}
