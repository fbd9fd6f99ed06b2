//! Property tests for [`clr_obs::BlameSet`] and
//! [`clr_obs::BlameLedger`]: the exact-algebra guarantees (merge =
//! per-cause multiset union, delta = exact inverse, fused = n-way
//! fold) the per-channel fusion, warmup subtraction, and fleet report
//! rely on, plus the ledger's telescoping-sum exactness contract —
//! every settled request's budget sums to exactly its latency, however
//! lazily it is settled.

use clr_obs::{BlameLedger, BlameSet, WaitCause};
use proptest::prelude::*;

/// An arbitrary wait cause, uniform over the taxonomy.
fn cause() -> impl Strategy<Value = WaitCause> {
    (0usize..WaitCause::COUNT).prop_map(|i| WaitCause::ALL[i])
}

/// A charge: (cause, cycles) with mixed magnitudes.
fn charge() -> impl Strategy<Value = (WaitCause, u64)> {
    (cause(), prop_oneof![0u64..64, 0u64..100_000])
}

fn set_of(charges: &[(WaitCause, u64)]) -> BlameSet {
    let mut s = BlameSet::default();
    for &(c, n) in charges {
        s.record_cause(c, n);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, b) is exactly record(a ∪ b), per cause: building one
    /// set from the concatenated charges equals merging two built
    /// separately.
    #[test]
    fn merge_equals_record_of_union(
        xs in proptest::collection::vec(charge(), 0..60),
        ys in proptest::collection::vec(charge(), 0..60),
    ) {
        let mut merged = set_of(&xs);
        merged.merge(&set_of(&ys));
        let mut both = xs.clone();
        both.extend_from_slice(&ys);
        prop_assert_eq!(&merged, &set_of(&both));
        // Totals are additive.
        prop_assert_eq!(
            merged.total_cycles(),
            set_of(&xs).total_cycles() + set_of(&ys).total_cycles()
        );
    }

    /// merge then delta round-trips exactly: (a ⊎ b) − a == b — the
    /// contract the warmup subtraction depends on.
    #[test]
    fn delta_inverts_merge(
        xs in proptest::collection::vec(charge(), 0..60),
        ys in proptest::collection::vec(charge(), 0..60),
    ) {
        let a = set_of(&xs);
        let b = set_of(&ys);
        let mut fused = a.clone();
        fused.merge(&b);
        prop_assert_eq!(fused.delta_since(&a), b.clone());
        prop_assert_eq!(fused.delta_since(&b), a.clone());
        // Degenerate deltas: to-self is empty, since-empty is identity.
        prop_assert!(a.delta_since(&a).is_empty());
        prop_assert_eq!(a.delta_since(&BlameSet::default()), a);
    }

    /// fused(sets) equals a left fold of pairwise merges — the
    /// per-channel and fleet fusion paths agree.
    #[test]
    fn fused_equals_fold_of_merges(
        sets in proptest::collection::vec(
            proptest::collection::vec(charge(), 0..30), 0..6),
    ) {
        let built: Vec<BlameSet> = sets.iter().map(|c| set_of(c)).collect();
        let fused = BlameSet::fused(built.iter());
        let mut folded = BlameSet::default();
        for s in &built {
            folded.merge(s);
        }
        prop_assert_eq!(fused, folded);
    }

    /// Permille fractions sum to ≤ 1000 (rounding down only), and
    /// dominant() is a heaviest-first permutation of the nonzero
    /// causes whose cycles reconcile with the total.
    #[test]
    fn fractions_and_dominance_reconcile(
        xs in proptest::collection::vec(charge(), 1..80),
    ) {
        let s = set_of(&xs);
        let total = s.total_cycles();
        let fractions = s.fractions_permille();
        prop_assert!(fractions.iter().sum::<u64>() <= 1000);

        let dom = s.dominant();
        prop_assert!(dom.windows(2).all(|w| w[0].1 >= w[1].1), "not sorted");
        prop_assert!(dom.iter().all(|&(c, n)| n > 0 && s.of(c).sum() == n));
        prop_assert_eq!(dom.iter().map(|&(_, n)| n).sum::<u64>(), total);
    }

    /// The ledger's telescoping contract: however a request's wait is
    /// segmented, the settled budget sums to exactly `done − arrival`,
    /// each cycle charged once. Backpressure is pre-charged on
    /// construction; the final settle charges the service tail.
    #[test]
    fn ledger_budget_telescopes_to_latency(
        arrival in 0u64..1_000,
        gaps in proptest::collection::vec((1u64..500, cause()), 1..20),
    ) {
        let enqueue = arrival + gaps[0].0;
        let mut ledger = BlameLedger::new(arrival, enqueue);
        let mut now = enqueue;
        for &(gap, c) in &gaps[1..] {
            now += gap;
            ledger.settle(now, c);
        }
        let done = now + 7;
        ledger.settle(done, WaitCause::Service);

        let mut set = BlameSet::default();
        set.record(&ledger);
        prop_assert_eq!(ledger.total(), done - arrival);
        prop_assert_eq!(set.total_cycles(), done - arrival);
        prop_assert_eq!(set.of(WaitCause::Backpressure).sum() >= enqueue - arrival, true);
        // Exactly one sample lands per cause-histogram per settle set:
        // the total count is bounded by the number of settles + 1.
        let samples: u64 = WaitCause::ALL.iter().map(|&c| set.of(c).count()).sum();
        prop_assert!(samples <= gaps.len() as u64 + 1);
    }

    /// Lazy settling is exact: over any sequence of boundaries and the
    /// causes sampled at them, settling only where the sampled cause
    /// changes leaves the same ledger at completion as settling at every
    /// boundary — what lets the controller skip boundaries that keep a
    /// request's cause. Causes come from three, so runs of boundaries
    /// that keep the cause are common.
    #[test]
    fn settling_only_on_cause_changes_equals_settling_every_boundary(
        arrival in 0u64..1_000,
        backlog in 0u64..200,
        boundaries in proptest::collection::vec((0u64..300, 0usize..3), 0..40),
        service in 0u64..50,
    ) {
        let few = [WaitCause::WriteDrain, WaitCause::Bus, WaitCause::Aging];
        let enqueue = arrival + backlog;
        let mut eager = BlameLedger::new(arrival, enqueue);
        let mut lazy = eager;
        let mut now = enqueue;
        for &(gap, i) in &boundaries {
            let c = few[i];
            now += gap;
            eager.settle(now, c);
            if lazy.cause != c {
                lazy.settle(now, c);
            }
        }
        let done = now + service;
        eager.settle(done, WaitCause::Service);
        lazy.settle(done, WaitCause::Service);
        prop_assert_eq!(lazy.cycles, eager.cycles);
        prop_assert_eq!(lazy.total(), done - arrival);
    }

    /// Zero-length settles charge nothing: settling twice at the same
    /// cycle, or at the charge origin, leaves the budget unchanged.
    #[test]
    fn zero_length_settles_are_free(now in 1u64..10_000, c in cause()) {
        let mut ledger = BlameLedger::new(now, now);
        let before = ledger.total();
        ledger.settle(now, c);
        ledger.settle(now, c);
        prop_assert_eq!(ledger.total(), before);
    }
}
