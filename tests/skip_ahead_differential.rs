//! The skip-ahead contract, enforced end to end: an event-driven walk of
//! the simulator must be **bit-identical** to the per-cycle reference —
//! same command logs, completions and statistics — at every level of the
//! stack:
//!
//! 1. a `MemorySystem` driven directly (`tick_until` vs `tick`) on 1 and
//!    2 channels, across refresh, write drains, queue backpressure,
//!    mid-run mode transitions with relocation stalls, and background
//!    migration, with every reference command log protocol-audited;
//! 2. the full system loop (`RunConfig::skip_ahead`), where the CPU
//!    cluster co-jumps with the controller, including a light load that
//!    jumps most of its cycles;
//! 3. policy runs, where epoch boundaries must fire at exact cycles,
//!    including four cores contending for two channels.
//!
//! The threaded walk (`threads` > 1, one worker per channel shard) is
//! held to the same contract. This is the observer-free column of the
//! matrix in `matrix/mod.rs`.

mod matrix;

use clr_dram::memsim::frames::DestinationPicker;
use matrix::*;

#[test]
fn controller_baseline_ddr4_is_bit_identical() {
    drive_matrix(&baseline_ddr4(), 1, SKIP);
}

#[test]
fn controller_clr_mixed_modes_is_bit_identical() {
    drive_matrix(&clr_25(), 1, SKIP);
}

#[test]
fn controller_mode_transitions_and_stalls_are_bit_identical() {
    drive_matrix(&stall_batch(), 1, SKIP);
}

/// Pure and rate-limited background: the skip-ahead walk must replay the
/// migration command stream (job starts in idle slots, couple points,
/// rate-window boundaries) bit-identically.
#[test]
fn controller_background_migration_is_bit_identical() {
    drive_matrix(&background(), 1, SKIP);
    drive_matrix(&rate_limited_background(), 1, SKIP);
}

#[test]
fn controller_cross_bank_migration_is_bit_identical() {
    drive_matrix(&cross_bank(), 1, SKIP);
}

#[test]
fn two_channel_system_is_bit_identical() {
    for row in [baseline_ddr4(), clr_25(), stall_batch()] {
        drive_matrix(&row, 2, SKIP);
    }
}

#[test]
fn two_channel_background_migration_is_bit_identical() {
    drive_matrix(&background(), 2, SKIP);
    drive_matrix(&rate_limited_background(), 2, SKIP);
}

#[test]
fn two_channel_cross_bank_migration_is_bit_identical() {
    drive_matrix(&cross_bank(), 2, SKIP);
}

/// Worker count must be invisible in the command logs, the merged
/// completion stream and the fused statistics, on every drive row.
#[test]
fn two_channel_threaded_drive_is_bit_identical() {
    for row in drive_rows() {
        drive_matrix(&row, 2, THREADED_DRIVE);
    }
}

#[test]
fn full_system_run_is_bit_identical() {
    assert_inert(&static_clr_25(1), NONE, SKIP);
}

#[test]
fn two_channel_full_system_run_is_bit_identical() {
    assert_inert(&static_clr_25(2), NONE, SKIP);
}

#[test]
fn two_channel_threaded_full_system_run_is_bit_identical() {
    assert_inert(&static_clr_25(2), NONE, &[Walk::Threaded(2)]);
}

/// A light load: skip-ahead jumps most of its cycles.
#[test]
fn light_intensity_run_is_bit_identical() {
    assert_inert(&light(), NONE, SKIP);
}

#[test]
fn policy_run_with_epoch_boundaries_is_bit_identical() {
    assert_inert(&stall_policy(1), NONE, SKIP);
}

#[test]
fn two_channel_policy_run_with_epoch_boundaries_is_bit_identical() {
    let s = stall_policy(2);
    assert_inert(&s, NONE, &s.walks());
}

/// Cross-bank exercises the overlapped two-bank jobs under the epoch
/// loop; cross-channel additionally runs the frame rebalancer at every
/// epoch boundary, where a racy threaded walk would be most visible.
#[test]
fn placement_modes_policy_runs_are_bit_identical() {
    for placement in [
        DestinationPicker::SameBank,
        DestinationPicker::CrossBank,
        DestinationPicker::CrossChannel,
    ] {
        let s = skewed_background(placement);
        assert_inert(&s, NONE, &s.walks());
    }
}

/// Four cores contend for two channels under hysteresis epochs and paced
/// background relocation, on every walk.
#[test]
fn four_core_contention_run_is_bit_identical() {
    let s = contention();
    assert_inert(&s, NONE, &s.walks());
}
