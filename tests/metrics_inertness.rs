//! The continuous-telemetry contract, on the 2-channel cross-channel
//! policy scenario (background migrations, demand-proportional budgets,
//! channel skew), so the series carry nonzero migration and budget
//! signals:
//!
//! 1. **Inertness** — enabling metrics changes no simulated outcome at
//!    any walk: per-cycle, skip-ahead, and the threaded channel walk.
//! 2. **Exactness** — the series are bit-identical across the walks:
//!    window boundaries are exact-cycle events the skip-ahead jump cap is
//!    clamped to, so every walk closes every window at the same cycle.
//!
//! This is the metrics-only row of the matrix in `matrix/mod.rs`.

mod matrix;

use matrix::*;

#[test]
fn metrics_change_no_simulated_outcome_at_any_walk_level() {
    let s = cross_channel();
    assert_inert(&s, METRICS, &s.walks());
}

#[test]
fn series_are_bit_identical_across_walks() {
    assert_walk_invariant(&cross_channel(), METRICS);
}

#[test]
fn windows_tile_the_run_at_exact_boundaries() {
    let s = cross_channel();
    for walk in s.walks() {
        check_windows(&s, run(&s, walk, METRICS));
    }
}

#[test]
fn slo_spec_evaluates_the_scenario_series() {
    let s = cross_channel();
    check_slo(&s, run(&s, Walk::SkipAhead, METRICS));
}
