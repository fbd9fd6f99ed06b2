//! The harness behind the simulator's two internal contracts, one matrix
//! of walk × observer set × configuration:
//!
//! 1. **Walk invariance** — every accelerated walk (skip-ahead, and the
//!    threaded channel walk on multi-channel systems) is bit-identical
//!    to the per-cycle reference: same command logs, completions,
//!    statistics, IPC, energy, and policy decisions.
//! 2. **Observer inertness** — trace, metrics, and blame change no
//!    simulated outcome, and each observer's own output (trace events,
//!    metric and policy series, blame budgets) is identical under every
//!    walk.
//!
//! The matrix works at two levels. The *drive* level feeds one request
//! schedule straight into a `MemorySystem` (1 or 2 channels) under each
//! memory configuration and audits every channel's command log with the
//! independent protocol checker. The *run* level runs whole systems —
//! CPU cluster, LLC, memory, policy epochs — under each walk and
//! observer set.
//!
//! The test files split the matrix along the observer axis, one
//! `#[test]` per row so the harness runs rows in parallel:
//! - `skip_ahead_differential.rs`: no observers — every drive row and
//!   every run scenario under each accelerated walk;
//! - `trace_inertness.rs`, `metrics_inertness.rs`, `blame_inertness.rs`:
//!   one observer alone on the cross-channel scenario, with that
//!   observer's own property checks;
//! - `differential.rs`: every observer at once on every run scenario.
//!
//! Runs are memoized per test binary, so rows that share a run (most
//! often the per-cycle reference) simulate it once.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use clr_core::addr::PhysAddr;
use clr_core::mode::RowMode;
use clr_dram::memsim::checker::check;
use clr_dram::memsim::command::{Command, IssuedCommand};
use clr_dram::memsim::config::{ClrModeConfig, MemConfig};
use clr_dram::memsim::cycletimings::CycleTimings;
use clr_dram::memsim::frames::DestinationPicker;
use clr_dram::memsim::migrate::{MigrationRate, RelocationConfig, RelocationMode};
use clr_dram::memsim::request::{Completion, MemRequest, RequestKind};
use clr_dram::memsim::system::MemorySystem;
use clr_dram::memsim::MemStats;
use clr_dram::obs::{
    CategorySet, MetricsConfig, SloSpec, TimeSeries, TraceCategory, TraceConfig, WaitCause,
    WindowMetric, WindowSummary, WindowedObjective,
};
use clr_dram::policy::budget::BudgetSplit;
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::policy::runtime::RuntimeStats;
use clr_dram::sim::experiment::policies::{
    contention_workloads, policy_cluster, policy_mem_config,
};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use clr_dram::sim::system::{run_workloads, RunConfig, RunResult};
use clr_dram::sim::Scale;
use clr_dram::trace::phase::PhaseShiftSpec;
use clr_dram::trace::synthetic::{SyntheticKind, SyntheticSpec};
use clr_dram::trace::workload::Workload;

/// How a run advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Walk {
    /// The reference: every cycle of both clock domains is stepped.
    PerCycle,
    /// Event-driven: provably dead windows are jumped.
    SkipAhead,
    /// Skip-ahead with the channel walk on this many pooled workers
    /// (multi-channel systems only).
    Threaded(usize),
}

impl Walk {
    fn skips(self) -> bool {
        self != Walk::PerCycle
    }
}

/// The serial accelerated walk alone.
pub const SKIP: &[Walk] = &[Walk::SkipAhead];

/// The first index where two sequences differ, if any.
fn first_divergence<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
}

// --- Drive level ---

const DRIVE_END: u64 = 120_000;
/// When the mid-run mode-transition batch is dispatched.
const BATCH_AT: u64 = 8_000;

/// The threaded drive walks: every window fans out to the workers.
pub const THREADED_DRIVE: &[Walk] = &[Walk::Threaded(2), Walk::Threaded(4)];

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
        let kind = [RequestKind::Read, RequestKind::Write][(rng() % 3 == 0) as usize];
        let addr = (rng() % 0x40_000) & !0x3F;
        s.push((cycle, MemRequest::new(id, PhysAddr(addr), kind, cycle)));
    }
    s
}

/// Everything a drive observes: one command log per channel, the merged
/// completion stream, and the fused statistics.
struct Drive {
    logs: Vec<Vec<IssuedCommand>>,
    done: Vec<Completion>,
    stats: MemStats,
}

/// A memory configuration, optionally with a mid-run batch that turns
/// row 3 of every bank high-performance on every channel (a stall-mode
/// apply, or background migration when the configuration says so).
pub struct DriveRow {
    mem: MemConfig,
    batch_at: Option<u64>,
    exercised: fn(&Drive),
}

fn drive(mut cfg: MemConfig, channels: u32, walk: Walk, batch_at: Option<u64>) -> Drive {
    cfg.refresh_enabled = true;
    cfg.geometry.channels = channels;
    let background = cfg.relocation.is_background();
    let mut sys = MemorySystem::new(cfg);
    if let Walk::Threaded(n) = walk {
        sys.set_threads(n);
        // Fan every window out to the workers, not just cutover-sized ones.
        sys.set_parallel_cutover(1);
    }
    sys.enable_command_log();
    let mut done = Vec::new();
    let advance_to = |sys: &mut MemorySystem, done: &mut Vec<Completion>, to: u64| {
        if walk.skips() {
            sys.tick_until(to, done);
        } else {
            while sys.cycle() < to {
                sys.tick(done);
            }
        }
    };
    let mut batch_at = batch_at;
    for (at, req) in schedule() {
        advance_to(&mut sys, &mut done, at);
        if batch_at.is_some_and(|t| sys.cycle() >= t) {
            batch_at = None;
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
        // Backpressure: retry one cycle later, exactly like the system
        // loop's request injection.
        let mut req = req;
        while let Err(back) = sys.try_enqueue(req) {
            req = back;
            let retry_at = sys.cycle() + 1;
            advance_to(&mut sys, &mut done, retry_at);
        }
    }
    advance_to(&mut sys, &mut done, DRIVE_END);
    assert_eq!(sys.cycle(), DRIVE_END);
    Drive {
        logs: (0..sys.channels())
            .map(|c| sys.command_log(c).unwrap().to_vec())
            .collect(),
        done,
        stats: sys.fused_stats(),
    }
}

fn assert_same_drive(a: &Drive, b: &Drive, what: &str) {
    for (ch, (x, y)) in a.logs.iter().zip(&b.logs).enumerate() {
        if let Some(i) = first_divergence(x, y) {
            panic!(
                "{what}: channel {ch} command {i} diverges: {:?} vs {:?}",
                x.get(i),
                y.get(i)
            );
        }
    }
    assert_eq!(a.done, b.done, "{what}: completions diverge");
    assert_eq!(a.stats, b.stats, "{what}: statistics diverge");
}

/// Audits every channel's command log with the independent protocol
/// checker, against the constraint set the controller itself builds.
fn audit(mem: &MemConfig, d: &Drive, what: &str) {
    let ct = match mem.clr {
        ClrModeConfig::BaselineDdr4 => CycleTimings::baseline(&mem.timings, &mem.interface),
        ClrModeConfig::Clr { .. } => CycleTimings::new(
            &mem.timings,
            &mem.clr.hp_params(&mem.timings),
            &mem.interface,
        ),
    };
    let g = &mem.geometry;
    let banks = (g.ranks * g.bank_groups * g.banks_per_group) as usize;
    let per_group = g.banks_per_group as usize;
    for (ch, log) in d.logs.iter().enumerate() {
        let v = check(log, &ct, banks, |b| b / per_group);
        assert!(
            v.is_empty(),
            "{what}: channel {ch} has {} protocol violations, first {:?}",
            v.len(),
            &v[..v.len().min(3)]
        );
    }
}

/// Drives `row` on `channels` channels per-cycle and under each of
/// `walks`: every walk must reproduce the reference exactly, the
/// reference's command logs must pass the protocol audit, and the drive
/// must have exercised the machinery on every channel.
pub fn drive_matrix(row: &DriveRow, channels: u32, walks: &[Walk]) {
    let reference = drive(row.mem.clone(), channels, Walk::PerCycle, row.batch_at);
    for &walk in walks {
        let other = drive(row.mem.clone(), channels, walk, row.batch_at);
        assert_same_drive(&reference, &other, &format!("{channels}ch {walk:?}"));
    }
    audit(&row.mem, &reference, &format!("{channels}ch"));
    let s = &reference.stats;
    assert!(s.reads > 0 && s.writes > 0 && !reference.done.is_empty());
    assert!(s.refs() > 0, "refresh must have fired");
    let issued = |log: &[IssuedCommand], cmd| log.iter().any(|c| c.command == cmd);
    let served = reference
        .logs
        .iter()
        .all(|l| issued(l, Command::Rd) && issued(l, Command::Pre));
    assert!(served, "{channels}ch: a channel never read or precharged");
    (row.exercised)(&reference);
}

/// A row without the transition batch.
fn steady(mem: MemConfig) -> DriveRow {
    DriveRow {
        mem,
        batch_at: None,
        exercised: |_| {},
    }
}

/// A row whose drive dispatches the transition batch at [`BATCH_AT`].
fn batched(mem: MemConfig, exercised: fn(&Drive)) -> DriveRow {
    DriveRow {
        mem,
        batch_at: Some(BATCH_AT),
        exercised,
    }
}

fn relocating(relocation: RelocationConfig, placement: DestinationPicker) -> MemConfig {
    MemConfig {
        relocation,
        placement,
        ..MemConfig::tiny_clr(0.0)
    }
}

fn stalled(d: &Drive) {
    assert!(d.stats.mode_transitions > 0);
    // Refresh (which preempts queue service but not the stall window)
    // may overlap the 120-cycle batch, so only part of it is counted as
    // pure relocation stall — but some of it must be.
    assert!(d.stats.relocation_stall_cycles > 0);
}

fn migrated(d: &Drive) {
    let s = &d.stats;
    assert!(s.migration_jobs_completed > 0, "jobs must complete");
    assert!(s.migration_reads > 0 && s.migration_writes > 0);
    assert_eq!(s.relocation_stall_cycles, 0, "no stall in background");
    let every_channel = d.logs.iter().all(|log| log.iter().any(|c| c.migration));
    assert!(every_channel, "every channel must migrate");
}

pub fn baseline_ddr4() -> DriveRow {
    steady(MemConfig::paper_tiny())
}

pub fn clr_25() -> DriveRow {
    steady(MemConfig::tiny_clr(0.25))
}

pub fn stall_batch() -> DriveRow {
    batched(MemConfig::tiny_clr(0.0), stalled)
}

pub fn background() -> DriveRow {
    let mem = relocating(RelocationConfig::background(), DestinationPicker::SameBank);
    batched(mem, migrated)
}

pub fn rate_limited_background() -> DriveRow {
    let rate = MigrationRate {
        window_cycles: 1_024,
        max_starts: 1,
    };
    let reloc = RelocationConfig {
        mode: RelocationMode::Background,
        rate: Some(rate),
    };
    batched(relocating(reloc, DestinationPicker::SameBank), migrated)
}

pub fn cross_bank() -> DriveRow {
    let mem = relocating(RelocationConfig::background(), DestinationPicker::CrossBank);
    batched(mem, |d| {
        migrated(d);
        assert!(
            d.stats.migration_cross_bank_jobs > 0,
            "destinations must land cross-bank"
        );
    })
}

/// Every drive row.
pub fn drive_rows() -> [DriveRow; 6] {
    [
        baseline_ddr4(),
        clr_25(),
        stall_batch(),
        background(),
        rate_limited_background(),
        cross_bank(),
    ]
}

// --- Run level ---

/// Metrics window length in DRAM cycles, off the epoch grid.
const INTERVAL: u64 = 2_000;
/// Policy epoch length in DRAM cycles.
const EPOCH: u64 = 2_500;

/// Which observers a run installs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observers {
    trace: bool,
    metrics: bool,
    blame: bool,
}

const fn observers(trace: bool, metrics: bool, blame: bool) -> Observers {
    Observers {
        trace,
        metrics,
        blame,
    }
}

pub const NONE: Observers = observers(false, false, false);
pub const ALL: Observers = observers(true, true, true);
pub const TRACE: Observers = observers(true, false, false);
pub const METRICS: Observers = observers(false, true, false);
pub const BLAME: Observers = observers(false, false, true);

/// What a run's cores execute.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Load {
    /// One core on a drifting hot set: 2 MiB in a static run, 1 MiB
    /// under a policy.
    Phase,
    /// [`Load::Phase`] with the hot set concentrated on channel 0, so
    /// placement has work.
    SkewedPhase,
    /// Four cores on the policy sweep's smoke contention mix.
    Contention,
    /// One core on the low-intensity `random_12` synthetic: the DRAM
    /// idles between isolated misses, so skip-ahead jumps most cycles.
    Light,
}

/// A policy run's shape. The util-threshold policy proposes on raw
/// access counts, so its runs are guaranteed to move the table.
#[derive(Debug, Clone, Copy)]
struct Policy {
    spec: PolicySpec,
    relocation: RelocationConfig,
    placement: DestinationPicker,
    split: BudgetSplit,
}

pub struct RunScenario {
    channels: u32,
    load: Load,
    /// `None`: a static run.
    policy: Option<Policy>,
    /// The scenario-specific "was actually exercised" checks, on the
    /// observer-free skip-ahead run.
    exercised: fn(&PolicyRunResult),
}

impl RunScenario {
    fn background(&self) -> bool {
        self.policy.is_some_and(|p| p.relocation.is_background())
    }

    /// Every walk the scenario crosses, reference first: the threaded
    /// walk needs more than one channel.
    pub fn walks(&self) -> Vec<Walk> {
        let mut walks = vec![Walk::PerCycle, Walk::SkipAhead];
        if self.channels > 1 {
            walks.push(Walk::Threaded(2));
        }
        walks
    }
}

pub fn config(s: &RunScenario, walk: Walk, obs: Observers) -> RunConfig {
    let mut cfg = match s.policy {
        None if s.load == Load::Light => {
            RunConfig::paper(MemConfig::paper_clr(0.5), 15_000, 1_000, 5)
        }
        None => RunConfig::paper(MemConfig::paper_clr(0.25), 12_000, 1_500, 77),
        Some(p) => {
            let mut mem = policy_mem_config(0.0);
            mem.relocation = p.relocation;
            mem.placement = p.placement;
            let mut cfg = RunConfig::paper(mem, 15_000, 1_000, 5);
            cfg.cluster = policy_cluster();
            cfg
        }
    };
    cfg.mem.geometry.channels = s.channels;
    cfg.skip_ahead = walk.skips();
    if let Walk::Threaded(n) = walk {
        cfg.threads = n;
        // Exercise the pooled walk even on hosts with fewer cores.
        cfg.clamp_threads = false;
    }
    cfg.trace = obs.trace.then(|| TraceConfig {
        categories: CategorySet::all(),
        capacity: 1 << 20,
    });
    cfg.metrics = obs.metrics.then(|| MetricsConfig::every(INTERVAL));
    cfg.blame = obs.blame;
    cfg
}

fn workloads(s: &RunScenario) -> Vec<Workload> {
    let phase = |footprint_mib, accesses_per_phase| PhaseShiftSpec {
        footprint_mib,
        accesses_per_phase,
        ..PhaseShiftSpec::paper_default()
    };
    match s.load {
        Load::Phase if s.policy.is_none() => vec![Workload::PhaseShift(phase(2, 1_500))],
        Load::Phase => vec![Workload::PhaseShift(phase(1, 800))],
        Load::SkewedPhase => vec![Workload::PhaseShift(phase(1, 800).with_channel_skew(2, 0))],
        Load::Contention => contention_workloads(Scale::Smoke, 4),
        Load::Light => vec![Workload::Synthetic(SyntheticSpec {
            kind: SyntheticKind::Random,
            index: 12,
            bubbles: 159,
            footprint_mib: 64,
        })],
    }
}

pub fn run_config(s: &RunScenario, cfg: RunConfig) -> PolicyRunResult {
    let workloads = workloads(s);
    let Some(p) = s.policy else {
        return PolicyRunResult {
            run: run_workloads(&workloads, &cfg),
            policy: String::new(),
            policy_stats: RuntimeStats::default(),
            policy_stats_per_channel: Vec::new(),
            final_hp_fraction: 0.0,
            final_channel_budgets: Vec::new(),
            rows_remapped: 0,
            host_policy_s: 0.0,
            policy_series: None,
        };
    };
    let cfg = PolicyRunConfig::new(cfg, p.spec, PolicyConstraints::with_budget(0.25), EPOCH)
        .with_budget_split(p.split);
    run_policy_workloads(&workloads, &cfg)
}

/// `s` simulated under `walk` with `obs` installed. Runs are memoized per
/// test binary; a row asking for a run another row is still computing
/// waits for it.
pub fn run(s: &RunScenario, walk: Walk, obs: Observers) -> &'static PolicyRunResult {
    type Slot = &'static OnceLock<PolicyRunResult>;
    static RUNS: Mutex<BTreeMap<String, Slot>> = Mutex::new(BTreeMap::new());
    let key = format!(
        "{}ch {:?} {:?} {walk:?} {obs:?}",
        s.channels, s.load, s.policy
    );
    let slot: Slot = *RUNS
        .lock()
        .unwrap()
        .entry(key)
        .or_insert_with(|| Box::leak(Box::default()));
    slot.get_or_init(|| run_config(s, config(s, walk, obs)))
}

fn without_blame(m: &MemStats) -> MemStats {
    let mut m = m.clone();
    m.read_blame.clear();
    m.write_blame.clear();
    m
}

/// The one outcome comparator: everything a run simulates, with the
/// blame budgets stripped and the observer outputs, walk bookkeeping
/// and host timings left out.
fn assert_same_simulation(a: &PolicyRunResult, b: &PolicyRunResult, what: &str) {
    let (x, y) = (&a.run, &b.run);
    assert_eq!(
        (&x.ipc, x.cpu_cycles, x.dram_cycles, x.duration_ns),
        (&y.ipc, y.cpu_cycles, y.dram_cycles, y.duration_ns),
        "{what}: IPC or clocks diverge"
    );
    let stats = |r: &RunResult| {
        let all = std::iter::once(&r.mem).chain(&r.mem_per_channel);
        all.map(without_blame).collect::<Vec<_>>()
    };
    // Entry 0 is the fused statistics, then one per channel.
    if let Some(i) = first_divergence(&stats(x), &stats(y)) {
        panic!("{what}: statistics {i} diverge");
    }
    assert_eq!(
        (&x.energy, &x.energy_per_channel),
        (&y.energy, &y.energy_per_channel),
        "{what}: energy diverges"
    );
    let policy = |r: &PolicyRunResult| {
        let budgets = (r.final_hp_fraction, r.final_channel_budgets.clone());
        (
            r.policy_stats,
            r.policy_stats_per_channel.clone(),
            budgets,
            r.rows_remapped,
        )
    };
    assert_eq!(policy(a), policy(b), "{what}: policy outcome diverges");
}

/// Each observer's own output must not depend on the walk.
fn assert_same_observations(a: &PolicyRunResult, b: &PolicyRunResult, what: &str) {
    let (x, y) = (&a.run, &b.run);
    assert_eq!(x.trace.is_some(), y.trace.is_some());
    if let (Some(p), Some(q)) = (&x.trace, &y.trace) {
        assert_eq!(p.dropped, q.dropped, "{what}");
        if let Some(i) = first_divergence(&p.events, &q.events) {
            panic!(
                "{what}: trace event {i} diverges: {:?} vs {:?}",
                p.events.get(i),
                q.events.get(i)
            );
        }
    }
    let series = |r: &RunResult| {
        r.metrics
            .as_ref()
            .map(|m| (m.interval_cycles, m.per_channel.clone()))
    };
    assert!(series(x) == series(y), "{what}: metrics series diverge");
    assert!(
        a.policy_series == b.policy_series,
        "{what}: policy series diverge"
    );
    let budgets = |r: &RunResult| {
        let all = std::iter::once(&r.mem).chain(&r.mem_per_channel);
        all.map(|m| (m.read_blame.clone(), m.write_blame.clone()))
            .collect::<Vec<_>>()
    };
    assert!(budgets(x) == budgets(y), "{what}: blame budgets diverge");
}

/// Each of `walks` with `obs` installed reproduces the per-cycle,
/// observer-free reference run of `s`: the same simulation, each
/// installed observer's output present and no other, and a skip profile
/// that only the walk and metrics may move.
pub fn assert_inert(s: &RunScenario, obs: Observers, walks: &[Walk]) {
    let reference = run(s, Walk::PerCycle, NONE);
    // Skip-ahead jumps stop at every metrics window boundary, so the skip
    // profile depends on the walk and on metrics; trace, blame and the
    // worker count must leave it alone.
    let twin = run(s, Walk::SkipAhead, if obs.metrics { obs } else { NONE });
    for &walk in walks {
        let r = run(s, walk, obs);
        let what = format!("{walk:?} {obs:?}");
        assert_same_simulation(reference, r, &what);
        assert_eq!(r.run.trace.is_some(), obs.trace, "{what}");
        assert_eq!(r.run.metrics.is_some(), obs.metrics, "{what}");
        assert_eq!(r.policy_series.is_some(), obs.metrics && s.policy.is_some());
        assert_eq!(!r.run.mem.read_blame.is_empty(), obs.blame, "{what}");
        assert!(obs.blame || r.run.mem.write_blame.is_empty());
        let p = &r.run.skip_profile;
        if !walk.skips() {
            assert_eq!(p.jumps.count(), 0);
            continue;
        }
        // The walk saw real jumps with attributed sources.
        assert!(p.jumps.count() > 0, "the walk must have jumped");
        assert!(p.skipped_cycles > 0 && p.ticked_cycles > 0);
        assert_eq!(p.triggers.iter().sum::<u64>(), p.jumps.count());
        assert!(p.jump_coverage() > 0.0 && p.jump_coverage() < 1.0);
        assert!(twin.run.skip_profile == *p, "{what}: skip profile diverges");
    }
    // The walk contract makes the twin's simulation the reference's, and
    // the twin also carries a skip profile.
    (s.exercised)(twin);
}

/// Each installed observer's own output is identical under every walk
/// `s` crosses.
pub fn assert_walk_invariant(s: &RunScenario, obs: Observers) {
    let walks = s.walks();
    let first = run(s, walks[0], obs);
    for &walk in &walks[1..] {
        assert_same_observations(first, run(s, walk, obs), &format!("{walk:?} {obs:?}"));
    }
}

/// One full row: `s` with `obs` installed under every walk — inert,
/// walk-invariant, and each installed observer's property checks.
pub fn run_matrix(s: &RunScenario, obs: Observers) {
    assert_inert(s, obs, &s.walks());
    assert_walk_invariant(s, obs);
    let r = run(s, Walk::PerCycle, obs);
    if obs.blame {
        check_blame(r);
    }
    if obs.metrics {
        check_windows(s, r);
        check_slo(s, r);
    }
    if obs.trace {
        check_trace(s, obs, r);
    }
}

/// Every waited cycle is charged to exactly one cause, fused and per
/// channel.
pub fn check_blame(r: &PolicyRunResult) {
    // Entry 0 is the fused budget, then one per channel.
    for (i, m) in std::iter::once(&r.run.mem)
        .chain(&r.run.mem_per_channel)
        .enumerate()
    {
        let exact = m.read_blame.total_cycles() == m.read_latency_hist.sum()
            && m.write_blame.total_cycles() == m.write_latency_hist.sum();
        assert!(exact, "budget {i} leaks cycles");
    }
    let m = &r.run.mem;
    // One settle per completed read: one Service sample per read.
    assert_eq!(
        m.read_blame.of(WaitCause::Service).count(),
        m.read_latency_hist.count()
    );
    assert!(m.read_blame.of(WaitCause::Service).sum() > 0);
    assert!(
        m.read_blame
            .dominant()
            .iter()
            .any(|(c, _)| *c != WaitCause::Service),
        "the scenario must blame real waits"
    );
    // Exactness still holds when a frozen queue charges the wrong
    // cause, so each queue-wide cause must show up where the run
    // produced it.
    let read = |c| m.read_blame.of(c).sum() > 0;
    if m.refresh_busy_cycles > 0 {
        assert!(
            read(WaitCause::Refresh),
            "refresh ran, no read waited on it"
        );
    }
    assert_eq!(
        read(WaitCause::RelocationStall),
        m.relocation_stall_cycles > 0,
        "reads wait on relocation stalls exactly when the run stalls"
    );
    if m.migration_reads > 0 {
        assert!(
            read(WaitCause::MigrationBlock),
            "migration ran, no read waited on it"
        );
    }
    if m.writes > 0 {
        assert!(
            read(WaitCause::WriteDrain),
            "writes ran, no read waited on a drain"
        );
        assert!(
            m.write_blame.of(WaitCause::WriteDrain).sum() > 0,
            "writes ran, none waited for a drain episode"
        );
    }
}

/// The metrics windows tile the run at exact boundaries and reconcile
/// with the run's statistics; the policy series anchors one window per
/// epoch boundary.
pub fn check_windows(s: &RunScenario, r: &PolicyRunResult) {
    let m = r.run.metrics.as_ref().unwrap();
    assert_eq!(m.interval_cycles, INTERVAL);
    assert_eq!(m.per_channel.len(), s.channels as usize);
    for series in &m.per_channel {
        assert!(series.len() >= 2, "run must span several windows");
        let windows: Vec<_> = series.windows().collect();
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            // Every window but the final partial one is exactly one
            // interval long, and consecutive windows tile with no gaps.
            if i + 1 < windows.len() {
                assert_eq!(w.cycles(), INTERVAL, "window {i} off-boundary");
                assert_eq!(w.end_cycle, windows[i + 1].start_cycle);
            } else {
                assert!(w.cycles() <= INTERVAL);
            }
        }
        // The whole run fits the ring, so the live windows are all of it.
        assert_eq!(series.evicted_windows(), 0);
    }
    // Metrics cover warmup too, so the fused window sums bound the
    // measurement window's statistics from above.
    let system = m.system();
    let total = |series: &TimeSeries, f: fn(&WindowSummary) -> u64| -> u64 {
        series.windows().map(f).sum()
    };
    assert!(total(&system, |w| w.counters.reads) >= r.run.mem.reads);
    assert!(total(&system, |w| w.counters.migration_jobs) >= r.run.mem.migration_jobs_completed);
    assert!(total(&system, |w| w.read_latency.count()) > 0);

    if let Some(ps) = &r.policy_series {
        // The epoch windows account for every applied transition.
        assert_eq!(ps.evicted_windows(), 0);
        assert_eq!(
            total(ps, |w| w.counters.mode_transitions),
            r.policy_stats.transitions_applied
        );
        for w in ps.windows() {
            assert_eq!(w.end_cycle % EPOCH, 0, "epoch off-boundary");
        }
    }
}

/// A hard zero-stall objective passes exactly when no window stalled,
/// which only stall relocation does; a zero-latency bound cannot hold
/// and names its worst window.
pub fn check_slo(s: &RunScenario, r: &PolicyRunResult) {
    let system = r.run.metrics.as_ref().unwrap().system();
    let mut spec = SloSpec::named("zero-stall");
    spec.windowed
        .push(WindowedObjective::hard(WindowMetric::StallCycles, 0));
    let report = spec.evaluate(&system);
    assert_eq!(
        report.pass(),
        system.windows().all(|w| w.counters.stall_cycles == 0)
    );
    assert_eq!(
        report.pass(),
        s.policy.is_none() || s.background(),
        "only stall relocation stalls"
    );
    assert_eq!(report.windows, system.len() as u64);
    assert_eq!(
        report,
        spec.evaluate(&system),
        "evaluation is deterministic"
    );
    let mut tight = SloSpec::named("impossible");
    tight
        .windowed
        .push(WindowedObjective::hard(WindowMetric::ReadP99, 0));
    let bad = tight.evaluate(&system);
    assert!(!bad.pass(), "a zero-latency bound cannot hold");
    assert!(bad.objectives[0].violations > 0 && bad.objectives[0].worst_value > 0);
}

/// The log is sorted, complete, and has events in exactly the
/// categories the scenario and the installed observers can produce.
pub fn check_trace(s: &RunScenario, obs: Observers, r: &PolicyRunResult) {
    let log = r.run.trace.as_ref().unwrap();
    // Events arrive sorted, as the viewers expect.
    assert!(log
        .events
        .windows(2)
        .all(|w| (w[0].ts, w[0].pid) <= (w[1].ts, w[1].pid)));
    assert_eq!(log.dropped, 0);
    let expected = categories(|cat| match cat {
        TraceCategory::Commands => true,
        TraceCategory::Migration => s.background() && r.policy_stats.transitions_applied > 0,
        TraceCategory::Policy => s.policy.is_some(),
        TraceCategory::Placement => s
            .policy
            .is_some_and(|p| p.placement == DestinationPicker::CrossChannel),
        // Counter tracks need the series; tail-request spans carry the
        // blame budget, and a light load has no read slow enough to span.
        TraceCategory::Metrics => obs.metrics,
        TraceCategory::Requests => obs.blame && s.load != Load::Light,
    });
    let lit = categories(|cat| log.count(cat) > 0);
    assert_eq!(lit, expected, "categories with events: {obs:?}");
}

pub fn categories(pick: impl Fn(TraceCategory) -> bool) -> Vec<TraceCategory> {
    TraceCategory::ALL
        .into_iter()
        .filter(|&c| pick(c))
        .collect()
}

// --- Run scenarios ---

const UTIL_THRESHOLD: PolicySpec = PolicySpec::UtilizationThreshold { hot: 4, cold: 1 };

/// A static run with 25 % of rows high-performance.
pub fn static_clr_25(channels: u32) -> RunScenario {
    let exercised: fn(&PolicyRunResult) = match channels {
        1 => |r| assert!(r.run.mem.reads > 0),
        // Both channels served reads, or the sharded co-jump never ran.
        _ => |r| {
            assert_eq!(r.run.mem_per_channel.len(), 2);
            assert!(r.run.mem_per_channel.iter().all(|s| s.reads > 0));
        },
    };
    RunScenario {
        channels,
        load: Load::Phase,
        policy: None,
        exercised,
    }
}

/// The util-threshold policy under stall relocation; on 2 channels the
/// budget splits by demand.
pub fn stall_policy(channels: u32) -> RunScenario {
    let split = match channels {
        1 => BudgetSplit::EvenSplit,
        _ => BudgetSplit::demand_proportional(),
    };
    let policy = Policy {
        spec: UTIL_THRESHOLD,
        relocation: RelocationConfig::default(),
        placement: DestinationPicker::SameBank,
        split,
    };
    RunScenario {
        channels,
        load: Load::Phase,
        policy: Some(policy),
        // The policy moved the table on every channel and stalled on it.
        exercised: |r| {
            assert!(r.policy_stats.epochs > 0);
            assert!(r
                .policy_stats_per_channel
                .iter()
                .all(|s| s.transitions_applied > 0));
            assert!(r.run.mem.mode_transitions > 0);
            assert!(r.run.mem.relocation_stall_cycles > 0);
        },
    }
}

/// The 2-channel policy run with its hot set skewed onto channel 0,
/// background relocation and demand-proportional budgets, under
/// `placement`.
pub fn skewed_background(placement: DestinationPicker) -> RunScenario {
    // Background relocation never stalls.
    let exercised: fn(&PolicyRunResult) = match placement {
        DestinationPicker::SameBank => |r| {
            assert_eq!(r.run.mem.relocation_stall_cycles, 0);
            assert!(
                r.run.mem.migration_reads > 0,
                "rows must migrate in the background"
            );
            assert_eq!(r.run.mem.migration_cross_bank_jobs, 0);
            assert_eq!(r.rows_remapped, 0);
        },
        DestinationPicker::CrossBank => |r| {
            assert_eq!(r.run.mem.relocation_stall_cycles, 0);
            assert!(r.run.mem.migration_cross_bank_jobs > 0);
            assert_eq!(r.rows_remapped, 0);
        },
        DestinationPicker::CrossChannel => |r| {
            assert_eq!(r.run.mem.relocation_stall_cycles, 0);
            let moved = r.rows_remapped > 0 && r.run.mem.migration_fills > 0;
            assert!(
                moved,
                "the rebalancer must move frames on the skewed hot set"
            );
            assert!(
                r.run.mem.migration_jobs_completed > 0,
                "the scenario must migrate in background"
            );
        },
    };
    let policy = Policy {
        spec: UTIL_THRESHOLD,
        relocation: RelocationConfig::background(),
        placement,
        split: BudgetSplit::demand_proportional(),
    };
    RunScenario {
        channels: 2,
        load: Load::SkewedPhase,
        policy: Some(policy),
        exercised,
    }
}

/// The scenario that lights every observer output at once: background
/// migrations, policy epochs, and the frame rebalancer's placement.
pub fn cross_channel() -> RunScenario {
    skewed_background(DestinationPicker::CrossChannel)
}

/// The policy sweep's 4-core × 2-channel contention cell: hysteresis,
/// demand-proportional budgets, paced background relocation. Hysteresis
/// may leave the table alone at this length, so only epochs and forward
/// progress are required.
pub fn contention() -> RunScenario {
    let policy = Policy {
        spec: PolicySpec::Hysteresis,
        relocation: RelocationConfig::background_paced(),
        placement: DestinationPicker::SameBank,
        split: BudgetSplit::demand_proportional(),
    };
    RunScenario {
        channels: 2,
        load: Load::Contention,
        policy: Some(policy),
        exercised: |r| {
            assert_eq!(r.run.mem.relocation_stall_cycles, 0);
            assert!(r.run.ipc.len() == 4 && r.run.ipc.iter().all(|&ipc| ipc > 0.0));
            assert_eq!(r.policy_stats_per_channel.len(), 2);
            assert!(r.policy_stats_per_channel.iter().all(|s| s.epochs > 0));
        },
    }
}

/// A static run of the low-intensity synthetic with 50 % of rows
/// high-performance: the dead windows skip-ahead exists for.
pub fn light() -> RunScenario {
    RunScenario {
        channels: 1,
        load: Load::Light,
        policy: None,
        exercised: |r| {
            let p = &r.run.skip_profile;
            assert!(
                p.skipped_cycles > p.ticked_cycles,
                "skip-ahead must jump most cycles"
            );
        },
    }
}
