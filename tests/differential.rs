//! Every observer at once — trace, metrics and blame — on every run
//! scenario, under every walk: each run reproduces the per-cycle,
//! observer-free reference, each observer's output is identical across
//! walks, and every observer's property checks hold on every scenario
//! (category coverage, window tiling and epoch anchoring, SLO
//! evaluation, exact per-channel budgets).
//!
//! This is the all-observer column of the matrix in `matrix/mod.rs`; the
//! observer-free column is `skip_ahead_differential.rs`, and each
//! observer alone is `trace_inertness.rs`, `metrics_inertness.rs` and
//! `blame_inertness.rs`.

mod matrix;

use clr_dram::memsim::frames::DestinationPicker;
use matrix::*;

#[test]
fn run_static_clr_25_1ch() {
    run_matrix(&static_clr_25(1), ALL);
}

#[test]
fn run_static_clr_25_2ch() {
    run_matrix(&static_clr_25(2), ALL);
}

#[test]
fn run_stall_policy_1ch() {
    run_matrix(&stall_policy(1), ALL);
}

#[test]
fn run_stall_policy_demand_split_2ch() {
    run_matrix(&stall_policy(2), ALL);
}

#[test]
fn run_skewed_background_same_bank() {
    run_matrix(&skewed_background(DestinationPicker::SameBank), ALL);
}

#[test]
fn run_skewed_background_cross_bank() {
    run_matrix(&skewed_background(DestinationPicker::CrossBank), ALL);
}

#[test]
fn run_skewed_background_cross_channel() {
    run_matrix(&cross_channel(), ALL);
}

#[test]
fn run_light_intensity() {
    run_matrix(&light(), ALL);
}

#[test]
fn run_contention_4c2ch() {
    run_matrix(&contention(), ALL);
}
