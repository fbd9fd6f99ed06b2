//! Property test: a completed background migration leaves the
//! [`ModeTable`] and the (command-log-visible) row contents consistent
//! under arbitrary interleaving with demand traffic.
//!
//! The simulator is data-less, so "row contents" are audited through the
//! command stream: each coupling must read its displaced half-row out of
//! the *source* row before the mode flips, write exactly the same number
//! of bursts into its *destination* frame afterwards, and no demand
//! command may touch the row whose content is in flux — the source until
//! the couple point, the destination until the job completes. On top of
//! the per-job discipline, the whole log (demand + migration + refresh)
//! must pass the independent DDR4/CLR protocol checker, and every
//! dispatched job must stay pending or counted once at its end.
//!
//! [`ModeTable`]: clr_dram::arch::mode::ModeTable

use std::collections::BTreeMap;

use clr_dram::arch::addr::PhysAddr;
use clr_dram::arch::mode::RowMode;
use clr_dram::memsim::checker::check;
use clr_dram::memsim::command::{Command, IssuedCommand};
use clr_dram::memsim::config::MemConfig;
use clr_dram::memsim::controller::MemoryController;
use clr_dram::memsim::cycletimings::CycleTimings;
use clr_dram::memsim::frames::DestinationPicker;
use clr_dram::memsim::migrate::{JobKind, RelocationConfig};
use clr_dram::memsim::request::{MemRequest, RequestKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-bank audit that replays the command log against the migration
/// phase discipline for one coupling job.
#[derive(Debug, Default, Clone)]
struct JobAudit {
    started: bool,
    coupled: bool,
    completed: bool,
    reads: u64,
    writes: u64,
    saw_source_act_old_mode: bool,
    saw_dest_act: bool,
}

/// A case driven to quiescence, with what its audits need.
struct Driven {
    mc: MemoryController,
    /// The promoted (bank, row) pairs, distinct, in dispatch order.
    requested: Vec<(usize, u32)>,
    /// Bursts in a half-row: what each coupling reads and writes.
    bursts: u64,
    banks: usize,
    banks_per_group: usize,
    timings: CycleTimings,
}

/// Drives one case: a tiny CLR controller with refresh on, background
/// relocation and `placement` takes `couplings` distinct promotions in
/// random batches at random times while `demand` random reads and
/// writes arrive, all drawn from `StdRng::seed_from_u64(rng_seed)`.
/// Every tick checks that each dispatched job is pending or counted
/// once; once every job has ended, 5,000 more ticks let the queues
/// drain so the log ends quiescent.
fn drive(placement: DestinationPicker, rng_seed: u64, demand: usize, couplings: usize) -> Driven {
    let mut cfg = MemConfig::tiny_clr(0.0);
    cfg.refresh_enabled = true;
    cfg.relocation = RelocationConfig::background();
    cfg.placement = placement;
    let geometry = cfg.geometry.clone();
    let bursts = geometry.row_bytes() / 2 / geometry.burst_bytes();
    let banks =
        (geometry.channels * geometry.ranks * geometry.bank_groups * geometry.banks_per_group)
            as usize;
    let timings = CycleTimings::new(
        &cfg.timings,
        &cfg.clr.hp_params(&cfg.timings),
        &cfg.interface,
    );
    let mut mc = MemoryController::new(cfg);
    mc.enable_command_log();
    // Records cross-bank couplings only: a same-bank case logs nothing.
    mc.enable_couple_placement_log();

    let mut rng = StdRng::seed_from_u64(rng_seed);
    // Distinct promotion targets (each row migrates at most once, so the
    // expected final table is simply "every requested row is HP").
    let mut requested: Vec<(usize, u32)> = Vec::new();
    for k in 0..couplings {
        let bank = k % banks.min(3);
        let row = (2 * k / banks.min(3)) as u32; // distinct per bank
        requested.push((bank, row));
    }

    // Drive random demand while dispatching the couplings in random
    // batches at random times.
    let mut done = Vec::new();
    let mut sent = 0usize;
    let mut next_batch = 0usize;
    let mut cycles = 0u64;
    while sent < demand || next_batch < requested.len() || mc.pending_migrations() > 0 {
        if next_batch < requested.len() && rng.gen_bool(0.02) {
            let take = (1 + rng.gen_range(0..3usize)).min(requested.len() - next_batch);
            let changes: Vec<(usize, u32, RowMode)> = requested[next_batch..next_batch + take]
                .iter()
                .map(|&(b, r)| (b, r, RowMode::HighPerformance))
                .collect();
            mc.begin_row_migrations(&changes);
            next_batch += take;
        }
        if sent < demand && rng.gen_bool(0.4) {
            let addr = rng.gen_range(0..geometry.capacity_bytes()) & !63;
            let kind = if rng.gen_bool(0.3) {
                RequestKind::Write
            } else {
                RequestKind::Read
            };
            if mc
                .try_enqueue(MemRequest::new(
                    sent as u64,
                    PhysAddr(addr),
                    kind,
                    mc.cycle(),
                ))
                .is_ok()
            {
                sent += 1;
            }
        }
        mc.tick(&mut done);
        done.clear();
        assert_jobs_accounted(&mc);
        cycles += 1;
        assert!(cycles < 10_000_000, "case did not drain");
    }
    for _ in 0..5_000 {
        mc.tick(&mut done);
    }
    Driven {
        mc,
        requested,
        bursts,
        banks,
        banks_per_group: geometry.banks_per_group as usize,
        timings,
    }
}

/// The whole interleaved stream (demand + migration + refresh) is
/// protocol-clean under the independent checker.
fn assert_protocol_clean(d: &Driven, log: &[IssuedCommand]) {
    let banks_per_group = d.banks_per_group;
    let violations = check(log, &d.timings, d.banks, |b| b / banks_per_group);
    assert!(
        violations.is_empty(),
        "protocol violations: {:?} (showing up to 5 of {})",
        &violations[..violations.len().min(5)],
        violations.len()
    );
}

fn run_case(seed: u64, demand: usize, couplings: usize) {
    let d = drive(DestinationPicker::SameBank, seed, demand, couplings);
    let (mc, requested, bursts) = (&d.mc, &d.requested, d.bursts);

    // 1. Every requested coupling landed in the mode table.
    assert_eq!(mc.pending_migrations(), 0);
    for &(bank, row) in requested {
        assert_eq!(
            mc.mode_of_row(bank, row),
            RowMode::HighPerformance,
            "bank {bank} row {row} did not couple"
        );
    }
    assert_eq!(mc.stats().migration_jobs_completed, requested.len() as u64);
    assert_eq!(mc.migration_jobs_dispatched(), requested.len() as u64);
    assert_eq!(mc.stats().migration_reads, bursts * requested.len() as u64);
    assert_eq!(mc.stats().migration_writes, bursts * requested.len() as u64);
    assert_eq!(mc.stats().relocation_stall_cycles, 0);

    // 2. The command log obeys the per-job phase discipline.
    let log: Vec<IssuedCommand> = mc.command_log().unwrap().to_vec();
    let mut audits: BTreeMap<(usize, u32), JobAudit> = requested
        .iter()
        .map(|&(b, r)| ((b, r), JobAudit::default()))
        .collect();
    // The migrating (blocked) row per bank as the log replays: source
    // until the couple PRE, destination until the completing PRE.
    let mut source_of: BTreeMap<usize, u32> = BTreeMap::new();
    let mut dest_of: BTreeMap<usize, u32> = BTreeMap::new();
    for c in &log {
        let b = c.flat_bank;
        if c.migration {
            match c.command {
                Command::Act => {
                    if let Some(&src) = source_of.get(&b) {
                        // Mid-job ACT: either a (refresh-interrupted)
                        // re-ACT of the source or the first ACT.
                        if c.row == src {
                            let a = audits.get_mut(&(b, src)).expect("tracked job");
                            assert_eq!(c.mode, RowMode::MaxCapacity, "read-out in old mode");
                            a.saw_source_act_old_mode = true;
                        }
                    } else if let Some(&_dst) = dest_of.get(&b) {
                        let src = dest_src(&audits, b, &dest_of);
                        let a = audits.get_mut(&(b, src)).expect("tracked job");
                        a.saw_dest_act = true;
                        assert_eq!(
                            c.mode,
                            RowMode::MaxCapacity,
                            "the destination frame is an ordinary MC row"
                        );
                    } else if audits.contains_key(&(b, c.row)) {
                        // Job start.
                        let a = audits.get_mut(&(b, c.row)).expect("tracked job");
                        assert!(!a.started, "row migrates exactly once");
                        a.started = true;
                        a.saw_source_act_old_mode = true;
                        assert_eq!(c.mode, RowMode::MaxCapacity);
                        source_of.insert(b, c.row);
                    }
                }
                Command::Rd => {
                    if let Some(&src) = source_of.get(&b) {
                        audits.get_mut(&(b, src)).expect("tracked job").reads += 1;
                    }
                }
                Command::Wr => {
                    let src = dest_src(&audits, b, &dest_of);
                    audits.get_mut(&(b, src)).expect("tracked job").writes += 1;
                }
                Command::Pre => {
                    if let Some(&src) = source_of.get(&b) {
                        let a = audits.get_mut(&(b, src)).expect("tracked job");
                        if a.reads == bursts {
                            // The couple point: source readable again,
                            // destination now in flux. (The destination
                            // is identified by the write-back ACT.)
                            a.coupled = true;
                            source_of.remove(&b);
                            dest_of.insert(b, u32::MAX);
                        }
                    } else if dest_of.contains_key(&b) {
                        let src = dest_src(&audits, b, &dest_of);
                        let a = audits.get_mut(&(b, src)).expect("tracked job");
                        if a.writes == bursts {
                            a.completed = true;
                            dest_of.remove(&b);
                        }
                    }
                }
                Command::Ref => {}
            }
            if c.command == Command::Act && dest_of.contains_key(&b) {
                // Record the write-back destination once observed.
                dest_of.insert(b, c.row);
            }
        } else {
            // Demand (or refresh) traffic: must not touch the row whose
            // content is in flux. Reads of the source row during
            // read-out are explicitly allowed (the data still sits
            // intact in the row buffer); writes are not. Refresh-driven
            // PREs (row 0 placeholder) are exempt — they close the whole
            // bank and the job re-activates.
            if let Some(&src) = source_of.get(&b) {
                match c.command {
                    Command::Wr => {
                        assert_ne!(c.row, src, "demand write to a row mid-read-out (bank {b})")
                    }
                    Command::Act => { /* demand may open other rows between phases */ }
                    _ => {}
                }
            }
            if let Some(&dst) = dest_of.get(&b) {
                if dst != u32::MAX && matches!(c.command, Command::Act | Command::Rd | Command::Wr)
                {
                    assert_ne!(
                        c.row, dst,
                        "demand touched the destination frame mid-write-back (bank {b})"
                    );
                }
            }
        }
    }
    for (&(b, r), a) in &audits {
        assert!(a.started, "job (bank {b}, row {r}) never started");
        assert!(a.coupled, "job (bank {b}, row {r}) never coupled");
        assert!(a.completed, "job (bank {b}, row {r}) never completed");
        assert!(a.saw_source_act_old_mode);
        assert!(
            a.saw_dest_act,
            "write-back ACT missing for (bank {b}, row {r})"
        );
        assert_eq!(a.reads, bursts, "read-out burst count (bank {b}, row {r})");
        assert_eq!(
            a.writes, bursts,
            "write-back burst count (bank {b}, row {r})"
        );
    }

    // 3. The whole interleaved stream is protocol-clean under the
    // independent checker.
    assert_protocol_clean(&d, &log);
}

/// Every dispatched job is pending or counted once, at its terminal
/// step, by the statistic of its kind.
fn assert_jobs_accounted(mc: &MemoryController) {
    let s = mc.stats();
    let ended = s.migration_jobs_completed + s.migration_evacuations + s.migration_fills;
    assert_eq!(
        mc.migration_jobs_dispatched(),
        ended + mc.pending_migrations() as u64,
        "dispatched jobs vs ended + pending at cycle {}",
        mc.cycle()
    );
}

/// The source row of the single in-flight job on `bank` during its
/// write-back phase (jobs are per-bank serial, so it is the unique
/// started-but-not-completed audit).
fn dest_src(
    audits: &BTreeMap<(usize, u32), JobAudit>,
    bank: usize,
    _dest_of: &BTreeMap<usize, u32>,
) -> u32 {
    audits
        .iter()
        .find(|(&(b, _), a)| b == bank && a.started && !a.completed)
        .map(|(&(_, r), _)| r)
        .expect("exactly one in-flight job per bank")
}

/// The cross-bank variant of the consistency audit: couplings whose
/// destination frame lives in another bank, with the two sides running
/// concurrently. The audit reconstructs each job's source/destination
/// pair from the engine's placement events and replays the log tracking
/// which row's content is in flux per bank: demand must never write the
/// source mid-read-out (reads stay servable) nor touch the destination
/// while the write-back side owns it, burst counts must balance, the
/// mode table must agree with the requested couplings, and the whole
/// interleaved stream must pass the protocol checker.
fn run_case_cross_bank(seed: u64, demand: usize, couplings: usize) {
    let mut d = drive(
        DestinationPicker::CrossBank,
        seed ^ 0xC0DE,
        demand,
        couplings,
    );
    let (mc, requested, bursts) = (&mut d.mc, &d.requested, d.bursts);

    // 1. Every requested coupling landed, cross-bank, and the burst
    // accounting balances.
    assert_eq!(mc.pending_migrations(), 0);
    for &(bank, row) in requested {
        assert_eq!(
            mc.mode_of_row(bank, row),
            RowMode::HighPerformance,
            "bank {bank} row {row} did not couple"
        );
    }
    let n = requested.len() as u64;
    assert_eq!(mc.stats().migration_jobs_completed, n);
    assert_eq!(mc.migration_jobs_dispatched(), n);
    assert_eq!(
        mc.stats().migration_cross_bank_jobs,
        n,
        "every coupling must have placed cross-bank"
    );
    assert_eq!(mc.stats().migration_reads, bursts * n);
    assert_eq!(mc.stats().migration_writes, bursts * n);
    assert_eq!(mc.stats().relocation_stall_cycles, 0);

    // 2. Reconstruct each job's (source bank, row) → (dest bank, row)
    // from the placement events, then replay the log.
    let mut events = Vec::new();
    mc.drain_placement_events_into(&mut events);
    assert_eq!(events.len(), requested.len());
    let mut dest_for: BTreeMap<(usize, u32), (usize, u32)> = BTreeMap::new();
    for ev in &events {
        assert_eq!(ev.kind, JobKind::Couple);
        assert_ne!(ev.bank, ev.dest_bank, "destination must be another bank");
        dest_for.insert((ev.bank as usize, ev.row), (ev.dest_bank as usize, ev.dest));
    }
    assert_eq!(dest_for.len(), requested.len());

    let log: Vec<IssuedCommand> = mc.command_log().unwrap().to_vec();
    let sources: BTreeMap<(usize, u32), (usize, u32)> = dest_for.clone();
    let dests: BTreeMap<(usize, u32), (usize, u32)> =
        dest_for.iter().map(|(&s, &d)| (d, s)).collect();
    // Per-bank in-flux markers: source row until the couple PRE (reads
    // servable), destination row until the completing PRE.
    let mut src_active: BTreeMap<usize, u32> = BTreeMap::new();
    let mut dest_active: BTreeMap<usize, u32> = BTreeMap::new();
    let (mut rd_seen, mut wr_seen) = (0u64, 0u64);
    let mut overlap_seen = false;
    for c in &log {
        let b = c.flat_bank;
        if c.migration {
            match c.command {
                Command::Act => {
                    if sources.contains_key(&(b, c.row)) {
                        assert_eq!(c.mode, RowMode::MaxCapacity, "read-out in the old mode");
                        src_active.insert(b, c.row);
                    } else if dests.contains_key(&(b, c.row)) {
                        assert_eq!(c.mode, RowMode::MaxCapacity, "dest frame is an MC row");
                        dest_active.insert(b, c.row);
                    }
                    // (Other migration ACTs would be demand-row closes —
                    // those are PREs, so every migration ACT matches.)
                }
                Command::Rd => {
                    assert!(src_active.contains_key(&b), "stray migration RD");
                    rd_seen += 1;
                }
                Command::Wr => {
                    assert!(dest_active.contains_key(&b), "stray migration WR");
                    wr_seen += 1;
                    // Writes may only carry data already read: the
                    // running totals can never let writes outpace reads.
                    assert!(wr_seen <= rd_seen, "write burst outran the read-out");
                }
                Command::Pre => {
                    // A PRE on a bank whose side has drained ends that
                    // side; otherwise it closed a demand row ahead of a
                    // (re-)ACT and the marker stays.
                    if let Some(&src) = src_active.get(&b) {
                        let (db, _) = sources[&(b, src)];
                        if dest_active.contains_key(&db) {
                            overlap_seen = true;
                        }
                        src_active.remove(&b);
                    } else if dest_active.contains_key(&b) {
                        dest_active.remove(&b);
                    }
                }
                Command::Ref => {}
            }
        } else {
            // Demand/refresh traffic: never write a source mid-read-out,
            // never touch a destination while the write-back owns it.
            if let Some(&src) = src_active.get(&b) {
                if c.command == Command::Wr {
                    assert_ne!(c.row, src, "demand write to a row mid-read-out (bank {b})");
                }
            }
            if let Some(&dst) = dest_active.get(&b) {
                if matches!(c.command, Command::Act | Command::Rd | Command::Wr) {
                    assert_ne!(
                        c.row, dst,
                        "demand touched a destination frame in flux (bank {b})"
                    );
                }
            }
        }
    }
    assert_eq!(rd_seen, bursts * n);
    assert_eq!(wr_seen, bursts * n);
    assert!(
        overlap_seen,
        "no job ever had its destination open while the source precharged — the two-bank \
         overlap never happened"
    );

    // 3. The whole interleaved stream is protocol-clean.
    assert_protocol_clean(&d, &log);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary demand interleavings leave the mode table and the
    /// command-log-visible row contents consistent.
    #[test]
    fn completed_migrations_are_consistent(seed in 0u64..10_000) {
        run_case(seed, 120, 5);
    }

    /// The same property for overlapped cross-bank jobs.
    #[test]
    fn completed_cross_bank_migrations_are_consistent(seed in 0u64..10_000) {
        run_case_cross_bank(seed, 120, 5);
    }
}

#[test]
fn migration_consistency_heavy_interleaving() {
    run_case(424_242, 400, 9);
}

#[test]
fn cross_bank_migration_consistency_heavy_interleaving() {
    run_case_cross_bank(424_242, 400, 9);
}
