//! Property tests for [`clr_obs::series`]: the exact window algebra
//! (merge = component-wise fusion), the windowed quantile contract, and
//! the ring-buffer eviction invariant (the newest windows stay live, the
//! rest are counted) the per-channel→system fusion and the SLO engine
//! rely on.

use clr_obs::blame::{BlameSet, WaitCause};
use clr_obs::hist::LatencyHistogram;
use clr_obs::series::{SeriesCounters, SeriesGauges, TimeSeries, WindowSummary};
use proptest::prelude::*;

fn counters(v: &[u16]) -> SeriesCounters {
    SeriesCounters {
        acts: v[0] as u64,
        reads: v[1] as u64,
        writes: v[2] as u64,
        mode_transitions: v[3] as u64,
        migration_jobs: v[4] as u64,
        frames_moved: v[5] as u64,
        stall_cycles: v[6] as u64,
        migration_slot_cycles: v[7] as u64,
    }
}

fn gauges(v: &[u16]) -> SeriesGauges {
    SeriesGauges {
        queue_depth: v[0] as u64,
        in_flight_migrations: v[1] as u64,
        hp_permille: v[2] as u64,
        budget_permille: v[3] as u64,
    }
}

/// One window's raw payload: counter fields, gauge fields, latency
/// samples.
type Payload = (Vec<u16>, Vec<u16>, Vec<u64>);

fn payload() -> impl Strategy<Value = Payload> {
    (
        proptest::collection::vec(any::<u16>(), 8..=8),
        proptest::collection::vec(any::<u16>(), 4..=4),
        proptest::collection::vec(0u64..100_000, 0..40),
    )
}

/// Builds the `i`-th window of an aligned series from a payload.
fn window(i: u64, p: &Payload) -> WindowSummary {
    let mut read_latency = LatencyHistogram::new();
    let mut read_blame = BlameSet::default();
    for &s in &p.2 {
        read_latency.record(s);
        // Spread the same samples across causes so the blame algebra is
        // exercised by every window property below.
        read_blame.record_cause(WaitCause::ALL[(s % 10) as usize], s);
    }
    WindowSummary {
        index: i,
        start_cycle: i * 100,
        end_cycle: (i + 1) * 100,
        sources: 1,
        counters: counters(&p.0),
        gauges: gauges(&p.1),
        read_latency,
        read_blame,
    }
}

fn series_of(payloads: &[Payload], capacity: usize) -> TimeSeries {
    let mut ts = TimeSeries::new(capacity);
    for (i, p) in payloads.iter().enumerate() {
        ts.push(window(i as u64, p));
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Windowed quantiles are monotone (p50 <= p95 <= p99) and bounded
    /// by the recorded samples on every window of a random series.
    #[test]
    fn windowed_quantiles_are_monotone(
        payloads in proptest::collection::vec(payload(), 1..12),
    ) {
        let ts = series_of(&payloads, 64);
        for w in ts.windows() {
            prop_assert!(w.read_p50() <= w.read_p95());
            prop_assert!(w.read_p95() <= w.read_p99());
            if w.read_latency.count() == 0 {
                prop_assert_eq!(w.read_p99(), 0);
            }
        }
    }

    /// The ring keeps the newest `capacity` windows in push order and
    /// counts every window it evicts.
    #[test]
    fn eviction_keeps_totals_consistent(
        payloads in proptest::collection::vec(payload(), 0..24),
        capacity in 1usize..6,
    ) {
        let ts = series_of(&payloads, capacity);
        prop_assert_eq!(ts.len(), payloads.len().min(capacity));
        prop_assert_eq!(
            ts.evicted_windows() as usize,
            payloads.len().saturating_sub(capacity)
        );
        let first_live = payloads.len().saturating_sub(capacity) as u64;
        for (i, w) in ts.windows().enumerate() {
            prop_assert_eq!(w.index, first_live + i as u64);
        }
    }

    /// Series fusion is exact: merging channel series window-by-window
    /// equals having recorded the per-window component sums directly —
    /// the eviction count and every live window agree.
    #[test]
    fn series_merge_is_componentwise_exact(
        pairs in proptest::collection::vec((payload(), payload()), 1..16),
        capacity in 1usize..8,
    ) {
        let a: Vec<Payload> = pairs.iter().map(|(x, _)| x.clone()).collect();
        let b: Vec<Payload> = pairs.iter().map(|(_, y)| y.clone()).collect();
        let sa = series_of(&a, capacity);
        let sb = series_of(&b, capacity);
        let fused = TimeSeries::fused([&sa, &sb]);

        prop_assert_eq!(fused.evicted_windows(), sa.evicted_windows());
        prop_assert_eq!(fused.len(), sa.len());
        for ((w, wa), wb) in fused.windows().zip(sa.windows()).zip(sb.windows()) {
            prop_assert_eq!(w.sources, 2);
            let mut expected = wa.clone();
            expected.merge(wb);
            prop_assert_eq!(w, &expected);
        }
    }
}
