//! Integration of the mode-management runtime with the memory controller:
//! the timing set the controller *applies* (visible in its command log)
//! must provably follow the shared `ModeTable` as a policy mutates it
//! mid-run.

use clr_dram::arch::addr::PhysAddr;
use clr_dram::arch::geometry::DramGeometry;
use clr_dram::arch::mode::{ModeTable, RowMode};
use clr_dram::memsim::command::Command;
use clr_dram::memsim::config::MemConfig;
use clr_dram::memsim::controller::MemoryController;
use clr_dram::memsim::request::{MemRequest, RequestKind};
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::policy::reloc::RelocationEngine;
use clr_dram::policy::runtime::PolicyRuntime;
use clr_dram::policy::telemetry::{EpochTelemetry, RowId};

/// Drives random-ish traffic over several policy epochs, mirrors every
/// applied transition with its apply cycle, and asserts that every ACT in
/// the command log carries exactly the mode the mirror table held at that
/// cycle — i.e. the controller's applied timing set follows the shared
/// `ModeTable`, including transitions that land mid-run.
#[test]
fn applied_timings_follow_the_mode_table_through_policy_epochs() {
    let mut cfg = MemConfig::tiny_clr(0.0);
    cfg.refresh_enabled = false;
    let geometry = cfg.geometry.clone();
    let mut mc = MemoryController::new(cfg);
    mc.enable_command_log();
    mc.enable_row_telemetry();

    let mut runtime = PolicyRuntime::new(
        PolicySpec::TopKHotness.build(),
        PolicyConstraints::with_budget(0.25),
        RelocationEngine::default(),
    );

    // Mirror of the controller's table, plus the log of when we changed it.
    type ChangeBatch = Vec<(usize, u32, RowMode)>;
    let mut mirror = ModeTable::new(&geometry);
    let mut change_log: Vec<(u64, ChangeBatch)> = Vec::new();

    let row_stride = geometry.capacity_bytes() / geometry.rows as u64;
    let mut done = Vec::new();
    let mut counts = Vec::new();
    let mut id = 0u64;
    const EPOCHS: u64 = 6;
    const EPOCH_CYCLES: u64 = 3_000;
    for epoch in 0..EPOCHS {
        // Traffic with a per-epoch hot row so top-k keeps moving the set.
        let hot_row = (epoch * 7) % geometry.rows as u64;
        while mc.cycle() < (epoch + 1) * EPOCH_CYCLES {
            if id % 3 != 2 {
                let addr = hot_row * row_stride + (id % 16) * 0x40;
                let _ = mc.try_enqueue(MemRequest::new(
                    id,
                    PhysAddr(addr),
                    RequestKind::Read,
                    mc.cycle(),
                ));
            } else {
                let addr = (id * 0x2_0040) % geometry.capacity_bytes();
                let _ = mc.try_enqueue(MemRequest::new(
                    id,
                    PhysAddr(addr),
                    RequestKind::Write,
                    mc.cycle(),
                ));
            }
            id += 1;
            for _ in 0..12 {
                mc.tick(&mut done);
            }
        }

        // One policy epoch against the controller's live table.
        let mut telemetry = EpochTelemetry::new(epoch, EPOCH_CYCLES);
        mc.drain_row_telemetry_into(&mut counts);
        for &((bank, row), n) in &counts {
            telemetry.record(RowId::new(bank, row), n);
        }
        let outcome = runtime.on_epoch(&telemetry, mc.mode_table());
        if !outcome.applied.is_empty() {
            let changes: ChangeBatch = outcome
                .applied
                .iter()
                .map(|t| (t.row.bank as usize, t.row.row, t.to))
                .collect();
            mc.apply_row_modes(&changes, outcome.cost.dram_cycles);
            change_log.push((mc.cycle(), changes));
        }
    }
    // Drain to idle.
    for _ in 0..200_000 {
        mc.tick(&mut done);
        if mc.is_idle() {
            break;
        }
    }
    assert!(mc.is_idle(), "traffic must drain");
    assert!(
        mc.stats().mode_transitions > 0,
        "the policy must have reconfigured rows mid-run"
    );

    // Replay: every ACT's mode equals the mirror state at its cycle.
    let log = mc.command_log().expect("logging enabled");
    let mut pending = change_log.into_iter().peekable();
    let mut acts = 0u64;
    for cmd in log {
        while pending.peek().is_some_and(|(cycle, _)| *cycle <= cmd.cycle) {
            let (_, changes) = pending.next().expect("peeked");
            for (bank, row, mode) in changes {
                mirror.set(bank, row, mode);
            }
        }
        if cmd.command == Command::Act {
            acts += 1;
            assert_eq!(
                cmd.mode,
                mirror.mode_of(cmd.flat_bank, cmd.row),
                "ACT at cycle {} to bank {} row {} used a timing set that \
                 disagrees with the mode table",
                cmd.cycle,
                cmd.flat_bank,
                cmd.row
            );
        }
    }
    assert!(acts > 50, "expected substantial ACT traffic, got {acts}");
    // And the mirror must agree with the controller's final table.
    assert_eq!(&mirror, mc.mode_table());
}

/// The paper's contiguous-prefix configuration is still what a fresh
/// controller applies before any policy runs.
#[test]
fn initial_layout_matches_configured_fraction() {
    let mc = MemoryController::new(MemConfig::tiny_clr(0.5));
    let g = DramGeometry::tiny();
    let hp = (g.rows as f64 * 0.5).round() as u32;
    for bank in 0..mc.mode_table().banks() as usize {
        for row in 0..g.rows {
            let expect = if row < hp {
                RowMode::HighPerformance
            } else {
                RowMode::MaxCapacity
            };
            assert_eq!(mc.mode_of_row(bank, row), expect);
        }
    }
}
