//! The wait-cause attribution contract, on the 2-channel cross-channel
//! policy scenario, so the budgets carry nonzero migration-block and
//! conflict signals:
//!
//! 1. **Inertness** — enabling blame changes no simulated outcome at any
//!    walk: per-cycle, skip-ahead, and the threaded channel walk.
//! 2. **Exactness** — the per-cause budgets sum *exactly* to the latency
//!    histograms they decompose, fused and per channel.
//! 3. **Walk-invariance** — the budgets themselves are bit-identical
//!    across the walks: causes are charged at state-change boundaries,
//!    which every walk visits at the same cycles.
//!
//! This is the blame-only row of the matrix in `matrix/mod.rs`.

mod matrix;

use matrix::*;

#[test]
fn blame_changes_no_simulated_outcome_at_any_walk_level() {
    let s = cross_channel();
    assert_inert(&s, BLAME, &s.walks());
}

#[test]
fn budgets_sum_exactly_to_latency_at_any_walk_level() {
    let s = cross_channel();
    for walk in s.walks() {
        check_blame(run(&s, walk, BLAME));
    }
}

#[test]
fn budgets_are_bit_identical_across_walks() {
    assert_walk_invariant(&cross_channel(), BLAME);
}
