//! The skip-ahead contract, enforced end to end: an event-driven walk of
//! the simulator must be **bit-identical** to the per-cycle reference —
//! same command log (opcode, cycle, bank, row, mode), same completion
//! cycles, same statistics — at every level of the stack:
//!
//! 1. the controller driven directly (`tick_until` vs `tick`), across
//!    refresh, write drains, queue backpressure, and mid-run mode
//!    transitions with relocation stalls;
//! 2. the full system loop (`RunConfig::skip_ahead`), where the CPU
//!    cluster co-jumps with the controller;
//! 3. a policy run, where epoch boundaries must fire at exact cycles.
//!
//! The same contract covers the *threaded* walk (`threads` > 1, one
//! worker per channel shard): thread count is a host-speed knob only, so
//! every level is additionally differenced threaded-vs-serial.

use clr_core::addr::PhysAddr;
use clr_core::mode::RowMode;
use clr_dram::memsim::command::{Command, IssuedCommand};
use clr_dram::memsim::config::MemConfig;
use clr_dram::memsim::controller::MemoryController;
use clr_dram::memsim::request::{Completion, MemRequest, RequestKind};
use clr_dram::memsim::system::MemorySystem;
use clr_dram::memsim::MemStats;
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig};
use clr_dram::sim::system::{run_workloads, RunConfig};
use clr_dram::trace::phase::PhaseShiftSpec;
use clr_dram::trace::workload::Workload;

/// A deterministic request schedule: bursty, mixed reads/writes across
/// banks and rows, with gaps long enough to open dead windows and bursts
/// dense enough to exercise backpressure retries.
fn schedule() -> Vec<(u64, MemRequest)> {
    let mut s = Vec::new();
    let mut x = 0x9E37_79B9u64;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut cycle = 0u64;
    for id in 0..160u64 {
        // Alternate dense bursts and dead gaps.
        cycle += if id % 16 == 0 { 1_500 } else { rng() % 7 };
        let kind = if rng() % 3 == 0 {
            RequestKind::Write
        } else {
            RequestKind::Read
        };
        let addr = (rng() % 0x40_000) & !0x3F;
        s.push((cycle, MemRequest::new(id, PhysAddr(addr), kind, cycle)));
    }
    s
}

/// Drives a controller over `schedule`, advancing either per-cycle or via
/// `tick_until`, applying the same mode-transition batch mid-run (as a
/// stall-mode apply, or as background migration when the configuration
/// says so), and returns every observable output.
fn drive(
    mut cfg: MemConfig,
    skip: bool,
    transitions_at: Option<u64>,
) -> (Vec<IssuedCommand>, Vec<Completion>, MemStats) {
    cfg.refresh_enabled = true;
    let background = cfg.relocation.is_background();
    let mut mc = MemoryController::new(cfg);
    mc.enable_command_log();
    let mut done = Vec::new();
    let advance_to = |mc: &mut MemoryController, done: &mut Vec<Completion>, to: u64| {
        if skip {
            mc.tick_until(to, done);
        } else {
            while mc.cycle() < to {
                mc.tick(done);
            }
        }
    };
    let mut dispatched = false;
    for (at, req) in schedule() {
        advance_to(&mut mc, &mut done, at);
        if let Some(t) = transitions_at {
            if mc.cycle() >= t && !dispatched {
                dispatched = true;
                let changes: Vec<(usize, u32, RowMode)> = (0..mc.mode_table().banks() as usize)
                    .map(|b| (b, 3u32, RowMode::HighPerformance))
                    .collect();
                if background {
                    mc.begin_row_migrations(&changes);
                } else {
                    mc.apply_row_modes(&changes, 120);
                }
            }
        }
        // Backpressure: retry one cycle later, exactly like the system
        // loop's request injection.
        let mut req = req;
        while let Err(back) = mc.try_enqueue(req) {
            req = back;
            let retry_at = mc.cycle() + 1;
            advance_to(&mut mc, &mut done, retry_at);
        }
    }
    advance_to(&mut mc, &mut done, 120_000);
    assert_eq!(mc.cycle(), 120_000);
    (mc.command_log().unwrap().to_vec(), done, mc.stats().clone())
}

fn assert_identical(cfg: MemConfig, transitions_at: Option<u64>) {
    let (log_a, done_a, stats_a) = drive(cfg.clone(), false, transitions_at);
    let (log_b, done_b, stats_b) = drive(cfg, true, transitions_at);
    assert_eq!(log_a.len(), log_b.len(), "command counts diverge");
    for (i, (a, b)) in log_a.iter().zip(&log_b).enumerate() {
        assert_eq!(a, b, "command {i} diverges");
    }
    assert_eq!(done_a, done_b, "completions diverge");
    assert_eq!(stats_a, stats_b, "statistics diverge");
    // The run must have actually exercised the machinery.
    assert!(stats_a.reads > 0 && stats_a.writes > 0);
    assert!(stats_a.refs() > 0, "refresh must have fired");
    assert!(!done_a.is_empty());
    assert!(log_a.iter().any(|c| c.command == Command::Pre));
}

#[test]
fn controller_baseline_ddr4_is_bit_identical() {
    assert_identical(MemConfig::paper_tiny(), None);
}

#[test]
fn controller_clr_mixed_modes_is_bit_identical() {
    assert_identical(MemConfig::tiny_clr(0.25), None);
}

#[test]
fn controller_mode_transitions_and_stalls_are_bit_identical() {
    let cfg = MemConfig::tiny_clr(0.0);
    assert_identical(cfg.clone(), Some(8_000));
    // The transition batch must actually have stalled the controller.
    let (_, _, stats) = drive(cfg, true, Some(8_000));
    assert!(stats.mode_transitions > 0);
    // Refresh (which preempts queue service but not the stall window) may
    // overlap the 120-cycle batch, so only part of it is counted as pure
    // relocation stall — but some of it must be.
    assert!(stats.relocation_stall_cycles > 0);
}

#[test]
fn controller_background_migration_is_bit_identical() {
    use clr_dram::memsim::migrate::{MigrationRate, RelocationConfig, RelocationMode};
    // Pure background and rate-limited background: the skip-ahead walk
    // must replay the migration command stream (job starts in idle
    // slots, couple points, rate-window boundaries) bit-identically.
    for reloc in [
        RelocationConfig::background(),
        RelocationConfig {
            mode: RelocationMode::Background,
            rate: Some(MigrationRate {
                window_cycles: 1_024,
                max_starts: 1,
            }),
        },
    ] {
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.relocation = reloc;
        let (log_a, done_a, stats_a) = drive(cfg.clone(), false, Some(8_000));
        let (log_b, done_b, stats_b) = drive(cfg, true, Some(8_000));
        assert_eq!(log_a.len(), log_b.len(), "command counts diverge");
        for (i, (a, b)) in log_a.iter().zip(&log_b).enumerate() {
            assert_eq!(a, b, "command {i} diverges");
        }
        assert_eq!(done_a, done_b, "completions diverge");
        assert_eq!(stats_a, stats_b, "statistics diverge");
        // The run must actually have migrated in the background.
        assert!(stats_a.migration_jobs_completed > 0, "jobs must complete");
        assert!(stats_a.migration_reads > 0 && stats_a.migration_writes > 0);
        assert_eq!(stats_a.relocation_stall_cycles, 0, "no stall in background");
        assert!(log_a.iter().any(|c| c.migration));
    }
}

#[test]
fn controller_cross_bank_migration_is_bit_identical() {
    use clr_dram::memsim::frames::DestinationPicker;
    use clr_dram::memsim::migrate::RelocationConfig;
    let mut cfg = MemConfig::tiny_clr(0.0);
    cfg.relocation = RelocationConfig::background();
    cfg.placement = DestinationPicker::CrossBank;
    let (log_a, done_a, stats_a) = drive(cfg.clone(), false, Some(8_000));
    let (log_b, done_b, stats_b) = drive(cfg, true, Some(8_000));
    assert_eq!(log_a.len(), log_b.len(), "command counts diverge");
    for (i, (a, b)) in log_a.iter().zip(&log_b).enumerate() {
        assert_eq!(a, b, "command {i} diverges");
    }
    assert_eq!(done_a, done_b, "completions diverge");
    assert_eq!(stats_a, stats_b, "statistics diverge");
    // The overlapped two-bank jobs must actually have run.
    assert!(stats_a.migration_jobs_completed > 0);
    assert!(
        stats_a.migration_cross_bank_jobs > 0,
        "destinations must have landed cross-bank"
    );
    assert_eq!(stats_a.relocation_stall_cycles, 0);
}

/// Drives a 2-channel `MemorySystem` over the schedule, per-cycle or via
/// `tick_until`, optionally dispatching a mid-run background-migration
/// batch on every channel, and returns every observable output: one
/// command log per channel, the merged completion stream, and the fused
/// statistics.
fn drive_sharded(
    mut cfg: MemConfig,
    skip: bool,
    threads: usize,
    transitions_at: Option<u64>,
) -> (Vec<Vec<IssuedCommand>>, Vec<Completion>, MemStats) {
    cfg.refresh_enabled = true;
    cfg.geometry.channels = 2;
    let background = cfg.relocation.is_background();
    let mut sys = MemorySystem::new(cfg);
    sys.set_threads(threads);
    // Fan every window out to the workers, not just cutover-sized ones,
    // so the threaded drive exercises the scoped-thread path throughout.
    sys.set_parallel_cutover(1);
    sys.enable_command_log();
    let mut done = Vec::new();
    let advance_to = |sys: &mut MemorySystem, done: &mut Vec<Completion>, to: u64| {
        if skip {
            sys.tick_until(to, done);
        } else {
            while sys.cycle() < to {
                sys.tick(done);
            }
        }
    };
    let mut dispatched = false;
    for (at, req) in schedule() {
        advance_to(&mut sys, &mut done, at);
        if let Some(t) = transitions_at {
            if sys.cycle() >= t && !dispatched {
                dispatched = true;
                for ch in 0..sys.channels() {
                    let mc = sys.channel_mut(ch);
                    let changes: Vec<(usize, u32, RowMode)> = (0..mc.mode_table().banks() as usize)
                        .map(|b| (b, 3u32, RowMode::HighPerformance))
                        .collect();
                    if background {
                        mc.begin_row_migrations(&changes);
                    } else {
                        mc.apply_row_modes(&changes, 120);
                    }
                }
            }
        }
        let mut req = req;
        while let Err(back) = sys.try_enqueue(req) {
            req = back;
            let retry_at = sys.cycle() + 1;
            advance_to(&mut sys, &mut done, retry_at);
        }
    }
    advance_to(&mut sys, &mut done, 120_000);
    assert_eq!(sys.cycle(), 120_000);
    let logs = (0..sys.channels())
        .map(|c| sys.command_log(c).unwrap().to_vec())
        .collect();
    (logs, done, sys.fused_stats())
}

#[test]
fn two_channel_system_is_bit_identical() {
    for (cfg, transitions_at) in [
        (MemConfig::paper_tiny(), None),
        (MemConfig::tiny_clr(0.25), None),
        (MemConfig::tiny_clr(0.0), Some(8_000)),
    ] {
        let (logs_a, done_a, stats_a) = drive_sharded(cfg.clone(), false, 1, transitions_at);
        let (logs_b, done_b, stats_b) = drive_sharded(cfg, true, 1, transitions_at);
        assert_eq!(logs_a.len(), 2);
        for (ch, (a, b)) in logs_a.iter().zip(&logs_b).enumerate() {
            assert_eq!(a.len(), b.len(), "channel {ch} command counts diverge");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x, y, "channel {ch} command {i} diverges");
            }
        }
        assert_eq!(done_a, done_b, "completions diverge");
        assert_eq!(stats_a, stats_b, "statistics diverge");
        // Both channels must have actually served traffic.
        for log in &logs_a {
            assert!(log.iter().any(|c| c.command == Command::Rd));
        }
        assert!(stats_a.refs() > 0, "refresh must have fired");
    }
}

#[test]
fn two_channel_background_migration_is_bit_identical() {
    use clr_dram::memsim::migrate::RelocationConfig;
    let mut cfg = MemConfig::tiny_clr(0.0);
    cfg.relocation = RelocationConfig::background();
    let (logs_a, done_a, stats_a) = drive_sharded(cfg.clone(), false, 1, Some(8_000));
    let (logs_b, done_b, stats_b) = drive_sharded(cfg, true, 1, Some(8_000));
    assert_eq!(logs_a, logs_b, "command logs diverge");
    assert_eq!(done_a, done_b, "completions diverge");
    assert_eq!(stats_a, stats_b, "statistics diverge");
    assert!(stats_a.migration_jobs_completed > 0, "jobs must complete");
    assert_eq!(stats_a.relocation_stall_cycles, 0, "no stall in background");
    // Migration ran on both channels (each got its own batch).
    for (ch, log) in logs_a.iter().enumerate() {
        assert!(
            log.iter().any(|c| c.migration),
            "channel {ch} never migrated"
        );
    }
}

#[test]
fn two_channel_cross_bank_migration_is_bit_identical() {
    use clr_dram::memsim::frames::DestinationPicker;
    use clr_dram::memsim::migrate::RelocationConfig;
    let mut cfg = MemConfig::tiny_clr(0.0);
    cfg.relocation = RelocationConfig::background();
    cfg.placement = DestinationPicker::CrossBank;
    let (logs_a, done_a, stats_a) = drive_sharded(cfg.clone(), false, 1, Some(8_000));
    let (logs_b, done_b, stats_b) = drive_sharded(cfg, true, 1, Some(8_000));
    assert_eq!(logs_a, logs_b, "command logs diverge");
    assert_eq!(done_a, done_b, "completions diverge");
    assert_eq!(stats_a, stats_b, "statistics diverge");
    assert!(stats_a.migration_cross_bank_jobs > 0);
    assert_eq!(stats_a.relocation_stall_cycles, 0);
}

/// The threaded walk (one worker per channel shard) against both the
/// per-cycle reference and the serial skip-ahead walk, at the
/// controller-drive level, across the configurations where the channels'
/// interleaving is least trivial: plain CLR traffic, background
/// migration, and cross-bank placement. Worker count must be invisible
/// in the command logs, the merged completion stream, and the fused
/// statistics.
#[test]
fn two_channel_threaded_drive_is_bit_identical() {
    use clr_dram::memsim::frames::DestinationPicker;
    use clr_dram::memsim::migrate::RelocationConfig;
    let cross_bank = {
        let mut c = MemConfig::tiny_clr(0.0);
        c.relocation = RelocationConfig::background();
        c.placement = DestinationPicker::CrossBank;
        c
    };
    let background = {
        let mut c = MemConfig::tiny_clr(0.0);
        c.relocation = RelocationConfig::background();
        c
    };
    for (cfg, transitions_at) in [
        (MemConfig::tiny_clr(0.25), None),
        (background, Some(8_000)),
        (cross_bank, Some(8_000)),
    ] {
        let reference = drive_sharded(cfg.clone(), false, 1, transitions_at);
        let serial = drive_sharded(cfg.clone(), true, 1, transitions_at);
        assert_eq!(reference, serial, "serial skip walk diverges");
        for threads in [2, 4] {
            let threaded = drive_sharded(cfg.clone(), true, threads, transitions_at);
            assert_eq!(
                serial, threaded,
                "threaded walk (threads={threads}) diverges"
            );
        }
    }
}

#[test]
fn full_system_run_is_bit_identical() {
    let w = Workload::PhaseShift(PhaseShiftSpec {
        footprint_mib: 2,
        accesses_per_phase: 1_500,
        ..PhaseShiftSpec::paper_default()
    });
    let mut cfg = RunConfig::paper(MemConfig::paper_clr(0.25), 12_000, 1_500, 77);
    cfg.skip_ahead = false;
    let per_cycle = run_workloads(&[w], &cfg);
    cfg.skip_ahead = true;
    let skipped = run_workloads(&[w], &cfg);
    assert_eq!(per_cycle.ipc, skipped.ipc);
    assert_eq!(per_cycle.cpu_cycles, skipped.cpu_cycles);
    assert_eq!(per_cycle.dram_cycles, skipped.dram_cycles);
    assert_eq!(per_cycle.mem, skipped.mem);
}

#[test]
fn two_channel_full_system_run_is_bit_identical() {
    let w = Workload::PhaseShift(PhaseShiftSpec {
        footprint_mib: 2,
        accesses_per_phase: 1_500,
        ..PhaseShiftSpec::paper_default()
    });
    let mut mem = MemConfig::paper_clr(0.25);
    mem.geometry.channels = 2;
    let mut cfg = RunConfig::paper(mem, 12_000, 1_500, 77);
    cfg.skip_ahead = false;
    let per_cycle = run_workloads(&[w], &cfg);
    cfg.skip_ahead = true;
    let skipped = run_workloads(&[w], &cfg);
    assert_eq!(per_cycle.ipc, skipped.ipc);
    assert_eq!(per_cycle.cpu_cycles, skipped.cpu_cycles);
    assert_eq!(per_cycle.dram_cycles, skipped.dram_cycles);
    assert_eq!(per_cycle.mem, skipped.mem);
    assert_eq!(per_cycle.mem_per_channel, skipped.mem_per_channel);
    // Both channels must have served reads, or the sharded co-jump was
    // never exercised.
    assert_eq!(per_cycle.mem_per_channel.len(), 2);
    assert!(per_cycle.mem_per_channel.iter().all(|s| s.reads > 0));
}

/// `RunConfig::threads` end to end: the full system loop with two
/// workers must reproduce the per-cycle reference and the serial
/// skip-ahead run exactly (IPC, both clock domains, fused and
/// per-channel statistics).
#[test]
fn two_channel_threaded_full_system_run_is_bit_identical() {
    let w = Workload::PhaseShift(PhaseShiftSpec {
        footprint_mib: 2,
        accesses_per_phase: 1_500,
        ..PhaseShiftSpec::paper_default()
    });
    let mut mem = MemConfig::paper_clr(0.25);
    mem.geometry.channels = 2;
    let run = |skip_ahead: bool, threads: usize| {
        let mut cfg = RunConfig::paper(mem.clone(), 12_000, 1_500, 77);
        cfg.skip_ahead = skip_ahead;
        cfg.threads = threads;
        // Differential lane: the pooled walk must run even on 1-core
        // hosts, where the production clamp would degrade it to serial.
        cfg.clamp_threads = false;
        run_workloads(&[w], &cfg)
    };
    let per_cycle = run(false, 1);
    let serial = run(true, 1);
    let threaded = run(true, 2);
    for (name, r) in [("serial", &serial), ("threaded", &threaded)] {
        assert_eq!(per_cycle.ipc, r.ipc, "{name} IPC diverges");
        assert_eq!(per_cycle.cpu_cycles, r.cpu_cycles, "{name}");
        assert_eq!(per_cycle.dram_cycles, r.dram_cycles, "{name}");
        assert_eq!(per_cycle.mem, r.mem, "{name} statistics diverge");
        assert_eq!(per_cycle.mem_per_channel, r.mem_per_channel, "{name}");
    }
}

#[test]
fn two_channel_policy_run_with_epoch_boundaries_is_bit_identical() {
    use clr_dram::policy::budget::BudgetSplit;
    use clr_dram::sim::experiment::policies::{policy_cluster, policy_mem_config};
    let run = |skip: bool| {
        let mut mem = policy_mem_config(0.0);
        mem.geometry.channels = 2;
        let base = RunConfig {
            mem,
            cluster: policy_cluster(),
            budget_insts: 15_000,
            warmup_insts: 1_000,
            seed: 5,
            skip_ahead: skip,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        };
        let cfg = PolicyRunConfig::new(
            base,
            PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
            PolicyConstraints::with_budget(0.25),
            2_500,
        )
        .with_budget_split(BudgetSplit::demand_proportional());
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 800,
            ..PhaseShiftSpec::paper_default()
        };
        run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg)
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.run.ipc, b.run.ipc);
    assert_eq!(a.run.cpu_cycles, b.run.cpu_cycles);
    assert_eq!(a.run.dram_cycles, b.run.dram_cycles);
    assert_eq!(a.run.mem, b.run.mem);
    assert_eq!(a.run.mem_per_channel, b.run.mem_per_channel);
    assert_eq!(a.policy_stats_per_channel, b.policy_stats_per_channel);
    assert_eq!(a.final_channel_budgets, b.final_channel_budgets);
    assert_eq!(a.final_hp_fraction, b.final_hp_fraction);
    // The run must actually have moved both channels' tables — epoch
    // boundaries fire at the same cycle on every channel, and the
    // demand-proportional partitioner saw real telemetry.
    assert!(a.policy_stats.epochs > 0);
    assert!(a
        .policy_stats_per_channel
        .iter()
        .all(|s| s.transitions_applied > 0));
}

/// Every placement mode must be bit-identical at the policy-epoch level:
/// cross-bank exercises the overlapped two-bank jobs under the epoch
/// loop, cross-channel additionally runs the frame rebalancer (placement
/// pumps, staged evacuate/fill jobs, remap installs) at every epoch
/// boundary. Each mode also runs the skip-ahead walk with two workers —
/// background migration and cross-channel rebalancing under the epoch
/// loop are where a racy channel walk would be most visible, and the
/// threaded run must match the per-cycle reference bit for bit.
#[test]
fn placement_modes_policy_runs_are_bit_identical() {
    use clr_dram::memsim::frames::DestinationPicker;
    use clr_dram::memsim::migrate::RelocationConfig;
    use clr_dram::policy::budget::BudgetSplit;
    use clr_dram::sim::experiment::policies::{policy_cluster, policy_mem_config};
    let run = |placement: DestinationPicker, skip: bool, threads: usize| {
        let mut mem = policy_mem_config(0.0);
        mem.geometry.channels = 2;
        mem.relocation = RelocationConfig::background();
        mem.placement = placement;
        let base = RunConfig {
            mem,
            cluster: policy_cluster(),
            budget_insts: 15_000,
            warmup_insts: 1_000,
            seed: 5,
            skip_ahead: skip,
            trace: None,
            metrics: None,
            threads,
            // Differential lane: exercise the pooled walk even on
            // 1-core hosts.
            clamp_threads: false,
            blame: false,
        };
        let cfg = PolicyRunConfig::new(
            base,
            PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
            PolicyConstraints::with_budget(0.25),
            2_500,
        )
        .with_budget_split(BudgetSplit::demand_proportional());
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 800,
            ..PhaseShiftSpec::paper_default()
        }
        .with_channel_skew(2, 0);
        run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg)
    };
    for placement in [
        DestinationPicker::SameBank,
        DestinationPicker::CrossBank,
        DestinationPicker::CrossChannel,
    ] {
        let a = run(placement, false, 1);
        for (name, b) in [
            ("skip", run(placement, true, 1)),
            ("skip+threads=2", run(placement, true, 2)),
        ] {
            assert_eq!(a.run.ipc, b.run.ipc, "{placement:?} {name} IPC diverges");
            assert_eq!(a.run.cpu_cycles, b.run.cpu_cycles, "{placement:?} {name}");
            assert_eq!(a.run.dram_cycles, b.run.dram_cycles, "{placement:?} {name}");
            assert_eq!(
                a.run.mem, b.run.mem,
                "{placement:?} {name} statistics diverge"
            );
            assert_eq!(
                a.run.mem_per_channel, b.run.mem_per_channel,
                "{placement:?} {name}"
            );
            assert_eq!(a.rows_remapped, b.rows_remapped, "{placement:?} {name}");
        }
        assert_eq!(a.run.mem.relocation_stall_cycles, 0);
        match placement {
            DestinationPicker::SameBank => {
                assert_eq!(a.run.mem.migration_cross_bank_jobs, 0);
                assert_eq!(a.rows_remapped, 0);
            }
            DestinationPicker::CrossBank => {
                assert!(a.run.mem.migration_cross_bank_jobs > 0);
                assert_eq!(a.rows_remapped, 0);
            }
            DestinationPicker::CrossChannel => {
                assert!(
                    a.rows_remapped > 0,
                    "the rebalancer must have moved frames on the skewed hot set"
                );
                assert!(a.run.mem.migration_fills > 0);
            }
        }
    }
}

#[test]
fn policy_run_with_epoch_boundaries_is_bit_identical() {
    use clr_dram::sim::experiment::policies::{policy_cluster, policy_mem_config};
    let run = |skip: bool| {
        let base = RunConfig {
            mem: policy_mem_config(0.0),
            cluster: policy_cluster(),
            budget_insts: 15_000,
            warmup_insts: 1_000,
            seed: 5,
            skip_ahead: skip,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        };
        // The threshold policy proposes on raw access counts, so the run
        // is guaranteed to move the table (hysteresis may rightly decline
        // promotions this small under the honest relocation price).
        let cfg = PolicyRunConfig::new(
            base,
            PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
            PolicyConstraints::with_budget(0.25),
            2_500,
        );
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 800,
            ..PhaseShiftSpec::paper_default()
        };
        run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg)
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.run.ipc, b.run.ipc);
    assert_eq!(a.run.cpu_cycles, b.run.cpu_cycles);
    assert_eq!(a.run.dram_cycles, b.run.dram_cycles);
    assert_eq!(a.run.mem, b.run.mem);
    assert_eq!(a.policy_stats.epochs, b.policy_stats.epochs);
    assert_eq!(
        a.policy_stats.transitions_applied,
        b.policy_stats.transitions_applied
    );
    assert_eq!(a.final_hp_fraction, b.final_hp_fraction);
    // The run must actually have moved the table and stalled on it, or
    // the boundary-exactness claim is vacuous.
    assert!(a.policy_stats.epochs > 0);
    assert!(a.run.mem.mode_transitions > 0);
    assert!(a.run.mem.relocation_stall_cycles > 0);
}
