//! The memory controller: request queues, FR-FCFS-Cap scheduling, write
//! draining, timeout row policy, and heterogeneous refresh — with an
//! event-driven skip-ahead fast path.
//!
//! # The event model
//!
//! [`MemoryController::tick`] advances one DRAM cycle and is the
//! reference semantics. Most simulated cycles are *dead*: every queued
//! command is blocked on a timing constraint, refresh is not yet due, no
//! read is completing, and no background row close can fire. During a
//! dead window the controller's externally visible state evolves in a
//! closed form (only the cycle counter and the per-cycle busy/idle
//! accounting move), so it can be jumped over.
//!
//! Each command source states its issue rule once, in one function that
//! answers: what would this source issue at `now`, or else from which
//! cycle could it issue? The sources are a pending refresh
//! (`refresh_next`: the PRE of an open bank, then the REF), the queue
//! the drain policy selects (`queue_next`, one FR-FCFS-Cap pass), the
//! timeout row policy (`timeout_close`) and background migration
//! (`migration_next`: the eager pass and the idle-slot pass, with every
//! gate; see [`crate::migrate`]). A tick issues what an answer names; a
//! source that issues nothing hands back its cycle instead.
//!
//! * [`MemoryController::next_event_cycle`] is the earliest cycle at
//!   which *anything* can happen: the minimum of those cycles, the next
//!   in-flight read completion, the next refresh due time and the
//!   relocation-stall expiry. Everything the answers read is constant
//!   across a dead window, so the bound is exact, not heuristic.
//! * The bound is memoized, and the memo never lies in the past. A tick
//!   that issued a command (a row close included) clears it; every other
//!   tick stores the bound its sources priced, so the walk never pays
//!   for a bound twice. An enqueue merges its own candidate or clears the
//!   memo, and mode applications and migration dispatches clear it. Only
//!   a query on a cleared memo evaluates the sources from scratch.
//! * [`MemoryController::tick_until`] advances to a target cycle by
//!   alternating O(1) dead-window jumps with ordinary [`tick`]s at event
//!   cycles.
//!
//! The invariant — enforced by the differential test in the workspace
//! `tests/` directory — is that a `tick_until` run is *bit-identical* to
//! a per-cycle run: same command log, same completion cycles, same
//! statistics.
//!
//! # Bank sets
//!
//! A tick visits only the banks that can act. The controller keeps
//! [`BankSet`]s, each changed only where its condition changes: the
//! banks with an open row (where a row opens or closes), the banks with
//! migration work and the banks a migration holds (where a job is
//! queued, started or finished, inside [`crate::migrate`]), and each
//! queue's banks with queued demand (in its [`LaneCache`]). The
//! busy/idle accounting, the timeout close, refresh's PRE-out and the
//! migration passes in their round-robin order walk these sets, and
//! per-bank counts answer whether
//! demand waits on a bank's open or migrating row. The FR-FCFS-Cap pass
//! ([`scheduler::pick_cached`]) prices the banks with queued demand once
//! and returns the decision together with the exact queue bound.
//!
//! [`tick`]: MemoryController::tick

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use clr_core::addr::PhysAddr;
use clr_core::mode::{ModeTable, RowMode};
use clr_core::refresh::RefreshPlan;
use clr_obs::{
    BlameLedger, EventSource, SkipProfile, TraceCategory, TraceConfig, TraceSink, WaitCause,
};

use crate::bankstate::{BankSet, BankState};
use crate::command::{Command, IssuedCommand};
use crate::config::{ClrModeConfig, MemConfig, SchedulerConfig};
use crate::cycletimings::CycleTimings;
use crate::engine::{Target, TimingEngine, Touched};
use crate::frames::FrameDirectory;
use crate::migrate::{
    JobKind, MigrationEngine, MigrationStep, NextMigrationCommand, PlacementEvent,
};
use crate::refresh::RefreshScheduler;
use crate::request::{Completion, MemRequest, RequestKind};
use crate::scheduler::{self, Decision, LaneCache, QueueEntry, RowWatch};
use crate::stats::MemStats;

/// The DDR4 / CLR-DRAM memory controller.
///
/// Drive it with [`MemoryController::tick`] once per DRAM clock cycle; at
/// most one command issues on the command bus per tick. Completed reads
/// are pushed into the caller's completion buffer.
#[derive(Debug)]
pub struct MemoryController {
    config: MemConfig,
    engine: TimingEngine,
    banks: Vec<BankState>,
    /// The banks with an open row, changed only where a row opens or
    /// closes: the per-tick accounting, the timeout close and refresh's
    /// PRE-out walk this set instead of every bank.
    open_banks: BankSet,
    /// Each flat bank's command target (channel 0, max-capacity mode),
    /// so per-tick targeting pays no division.
    bank_targets: Vec<Target>,
    read_q: Vec<QueueEntry>,
    write_q: Vec<QueueEntry>,
    refresh: RefreshScheduler,
    pending_refresh: Option<RowMode>,
    draining_writes: bool,
    hit_streak: Vec<u32>,
    inflight: BinaryHeap<Reverse<(u64, u64)>>,
    stats: MemStats,
    cycle: u64,
    /// The shared per-row operating-mode table: the single source of truth
    /// for which timing set, refresh stream, and capacity accounting every
    /// row gets. Mutated only through [`MemoryController::apply_row_modes`].
    modes: ModeTable,
    /// Column accesses per `(flat_bank, row)` since the last telemetry
    /// drain (a `BTreeMap` so export order is deterministic). Populated
    /// only when `telemetry_enabled` is set.
    row_counts: BTreeMap<(u32, u32), u64>,
    /// Whether per-row telemetry is being collected (off by default).
    telemetry_enabled: bool,
    /// Queue service is suspended until this cycle while relocation
    /// (mode-migration data movement) occupies the channel.
    maintenance_until: u64,
    /// The timeout row policy's idle time before a close, in cycles.
    timeout_cycles: u64,
    addr_mask: u64,
    /// log2 of the burst size: an address shifted right by it is its line
    /// index, the unit read forwarding matches on.
    line_shift: u32,
    command_log: Option<Vec<IssuedCommand>>,
    /// Incrementally maintained per-bank scheduler lanes for the read
    /// queue: rebuilt per bank only when its queue composition or bank
    /// state changed since the last scheduling pass.
    read_lanes: LaneCache,
    /// The write queue's lane cache (see `read_lanes`).
    write_lanes: LaneCache,
    /// Background row-migration engine: per-bank relocation job queues
    /// whose commands are issued into idle bank slots (see
    /// [`crate::migrate`]).
    migration: MigrationEngine,
    /// The capacity directory's per-bank free-frame sets: rows whose
    /// contents were evacuated elsewhere, preferred by the destination
    /// pickers (see [`crate::frames`]).
    frames: FrameDirectory,
    /// Rotating bank cursor for cross-bank destination picks, so
    /// consecutive couplings spread their write-back load instead of
    /// piling onto one partner bank.
    dest_cursor: usize,
    /// The memoized next-event bound, never before the current cycle. A
    /// tick that issues clears it, every other tick stores the bound its
    /// sources priced, and dead-window jumps and repeated queries reuse
    /// it (see the module docs).
    next_event_cache: Option<u64>,
    /// Structured event-trace sink (off by default; see
    /// [`MemoryController::enable_tracing`]). Purely observational:
    /// recording never changes a simulated outcome.
    trace: Option<Box<TraceSink>>,
    /// Flows emitted so far: the next tail-request flow's id. Request
    /// ids name LLC MSHR slots and repeat, so flows carry this
    /// per-controller sequence number instead (unique per channel pid).
    flows_emitted: u64,
    /// Skip-ahead profiling: dead-window jump lengths, which event
    /// source bounded each jump, and ticked-vs-skipped cycle totals.
    /// Lives outside [`MemStats`] because jump shapes legitimately
    /// differ between per-cycle and skip-ahead walks of the same
    /// simulation.
    skip_profile: SkipProfile,
    /// The event source that produced the memoized `next_event_cache`
    /// bound (meaningful only while the memo is `Some`): attributes each
    /// dead-window jump to the event that ended it.
    next_event_source: EventSource,
    /// Whether per-request wait-cause attribution is on (see
    /// [`MemoryController::enable_blame`]). Off by default so the
    /// scheduling hot paths pay one bool test.
    blame_enabled: bool,
    /// The queue-wide cause the read queue was frozen on at the last
    /// blame boundary (`None`: its entries carry their own causes; see
    /// [`MemoryController::reblame_queues`]).
    read_frozen: Option<WaitCause>,
    /// The write queue's queue-wide cause (see `read_frozen`).
    write_frozen: Option<WaitCause>,
    /// Set where a cause input outside the timing registers moved since
    /// the last blame boundary (a migration role took or released a bank
    /// or row, jobs were dispatched, modes were applied): the next
    /// boundary re-derives every entry.
    blame_stale: bool,
    /// Blame boundary steps run so far: tests check the lazy step
    /// against the eager walk after each one.
    #[cfg(test)]
    blame_boundaries: u64,
}

/// The cycle from which each command source could next issue, as a tick
/// that issued nothing priced it (`u64::MAX`: not before a state
/// change). `None` marks a source the tick did not price; the next-event
/// bound evaluates it itself, as on a from-scratch query.
#[derive(Debug, Default, Clone, Copy)]
struct SourceCycles {
    refresh: Option<u64>,
    queue: Option<u64>,
    timeout: Option<u64>,
    migration: Option<u64>,
}

impl MemoryController {
    /// Builds a controller (and its DRAM device model) from a
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid, has more banks per channel
    /// than a [`BankSet`] holds, or the CLR fraction/refresh window is
    /// out of range.
    pub fn new(config: MemConfig) -> Self {
        config.geometry.validate().expect("invalid geometry");
        let g = &config.geometry;
        let banks_total = (g.channels * g.ranks * g.bank_groups * g.banks_per_group) as usize;
        BankSet::assert_fits(banks_total);
        let bg_total = (g.channels * g.ranks * g.bank_groups) as usize;
        let ranks_total = (g.channels * g.ranks) as usize;
        let banks_per_group = g.banks_per_group as usize;
        let bgs_per_rank = g.bank_groups as usize;

        let hp_params = config.clr.hp_params(&config.timings);
        let cycle_timings = match config.clr {
            ClrModeConfig::BaselineDdr4 => {
                CycleTimings::baseline(&config.timings, &config.interface)
            }
            ClrModeConfig::Clr { .. } => {
                CycleTimings::new(&config.timings, &hp_params, &config.interface)
            }
        };
        let engine = TimingEngine::new(
            cycle_timings,
            banks_total,
            bg_total,
            ranks_total,
            g.channels as usize,
            |b| {
                let bg = b / banks_per_group;
                let rank = bg / bgs_per_rank;
                (bg, rank)
            },
        );

        let (fraction_hp, refw) = match config.clr {
            ClrModeConfig::BaselineDdr4 => (0.0, 64.0),
            ClrModeConfig::Clr {
                fraction_hp,
                hp_refw_ms,
                ..
            } => (fraction_hp, hp_refw_ms),
        };
        let refresh = if config.refresh_enabled {
            let plan = RefreshPlan::new(&config.timings, fraction_hp, refw);
            RefreshScheduler::new(&plan, config.interface.t_ck_ns)
        } else {
            RefreshScheduler::disabled()
        };

        let timeout_cycles = config
            .interface
            .ns_to_cycles(config.scheduler.row_timeout_ns);
        let mut modes = ModeTable::new(g);
        // Initial layout: the paper's contiguous low-row prefix. A policy
        // runtime may rewrite this at any epoch via `apply_row_modes`.
        modes.set_fraction_high_performance(fraction_hp);
        let addr_mask = g.capacity_bytes() - 1;
        let burst = g.burst_bytes();
        assert!(burst.is_power_of_two(), "burst of {burst} bytes");

        MemoryController {
            engine,
            banks: vec![BankState::new(); banks_total],
            open_banks: BankSet::default(),
            bank_targets: (0..banks_total)
                .map(|bank| {
                    let bank_group = bank / banks_per_group;
                    Target {
                        bank,
                        bank_group,
                        rank: bank_group / bgs_per_rank,
                        channel: 0,
                        mode: RowMode::MaxCapacity,
                    }
                })
                .collect(),
            read_q: Vec::with_capacity(SchedulerConfig::READ_QUEUE),
            write_q: Vec::with_capacity(SchedulerConfig::WRITE_QUEUE),
            refresh,
            pending_refresh: None,
            draining_writes: false,
            hit_streak: vec![0; banks_total],
            inflight: BinaryHeap::new(),
            stats: MemStats::new(),
            cycle: 0,
            modes,
            row_counts: BTreeMap::new(),
            telemetry_enabled: false,
            maintenance_until: 0,
            timeout_cycles,
            addr_mask,
            line_shift: burst.trailing_zeros(),
            command_log: None,
            read_lanes: LaneCache::new(banks_total),
            write_lanes: LaneCache::new(banks_total),
            migration: MigrationEngine::new(
                config.relocation,
                banks_total,
                g.row_bytes() / 2,
                g.burst_bytes(),
            ),
            frames: FrameDirectory::new(banks_total),
            dest_cursor: 0,
            next_event_cache: None,
            trace: None,
            flows_emitted: 0,
            skip_profile: SkipProfile::default(),
            next_event_source: EventSource::Completion,
            blame_enabled: false,
            read_frozen: None,
            write_frozen: None,
            blame_stale: false,
            #[cfg(test)]
            blame_boundaries: 0,
            config,
        }
    }

    /// Starts recording every issued command (for the protocol auditor in
    /// [`crate::checker`] and for debugging). Call before driving traffic.
    pub fn enable_command_log(&mut self) {
        self.command_log = Some(Vec::new());
    }

    /// The recorded command log, if enabled.
    pub fn command_log(&self) -> Option<&[IssuedCommand]> {
        self.command_log.as_deref()
    }

    /// Installs a structured event-trace sink recording `cfg.categories`
    /// under process id `pid` (the channel index in a sharded system).
    /// Tracing is observational only: with or without a sink, every
    /// simulated outcome is bit-identical (the workspace tracing
    /// differential test enforces this).
    pub fn enable_tracing(&mut self, cfg: &TraceConfig, pid: u32) {
        self.trace = Some(Box::new(TraceSink::new(cfg, pid)));
    }

    /// The installed trace sink, if any — the memory system drains these
    /// into a merged [`clr_obs::TraceLog`].
    pub fn trace_sink_mut(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_deref_mut()
    }

    /// Skip-ahead profiling counters: dead-window jump-length histogram,
    /// per-source trigger counts, and ticked/skipped cycle totals.
    pub fn skip_profile(&self) -> &SkipProfile {
        &self.skip_profile
    }

    /// Starts per-request wait-cause attribution: every demand
    /// read/write's enqueue→completion latency is decomposed into an
    /// exact per-[`WaitCause`] cycle budget, aggregated into
    /// [`MemStats::read_blame`]/[`MemStats::write_blame`]. Purely
    /// observational — with or without it, every simulated outcome is
    /// bit-identical (the workspace `blame_inertness` differential
    /// enforces this). Call before driving traffic, like
    /// [`MemoryController::enable_tracing`].
    ///
    /// The charging is lazy: each queued request carries one frozen
    /// cause and a resume cycle. Causes are sampled only at the
    /// boundaries every walk executes identically (enqueues,
    /// state-changing ticks, mode applications, migration dispatches) —
    /// dead cycles and dead-window jumps charge nothing at the time they
    /// elapse, so per-cycle, skip-ahead, and threaded walks charge
    /// identical budgets. A boundary re-derives only what it can change.
    /// A queue whose requests all wait on one queue-wide cause (a
    /// pending refresh, a relocation stall, or the drain policy serving
    /// the other queue) is frozen whole and walked once when that cause
    /// flips. In the served queue, a request is re-derived only when an
    /// issued command moved a timing register its next command reads
    /// (see [`Touched`]), when its own timing wait runs out, or after a
    /// migration step or mode application. A ledger is written only
    /// when its cause changes.
    pub fn enable_blame(&mut self) {
        self.blame_enabled = true;
    }

    /// The wait cause of a served-queue `entry` right now — the
    /// per-entry part of the taxonomy, priority top to bottom — with the
    /// keys that say when it can next change:
    /// `(cause, blame_command, blame_ready_at)` (see [`QueueEntry`]). An
    /// associated function over disjoint field borrows so
    /// [`MemoryController::reblame_queues`] can hold the queues mutably
    /// while deriving causes.
    fn entry_cause(
        banks: &[BankState],
        engine: &TimingEngine,
        migration: &MigrationEngine,
        entry: &QueueEntry,
        now: u64,
    ) -> (WaitCause, u8, u64) {
        let bank = entry.target.bank;
        // A held bank blocks everything, and a migrating row what the
        // scheduler excludes. Only a migration step moves these.
        if migration.is_mid_phase(bank)
            || scheduler::entry_excluded(
                migration.blocked_rows(),
                migration.read_ok_rows(),
                bank,
                entry.decoded.row,
                entry.request.kind,
            )
        {
            return (WaitCause::MigrationBlock, 0, u64::MAX);
        }
        let (cmd, target) = Self::demand_command(banks, entry);
        let bit = Touched::bit(cmd);
        let full = engine.earliest(cmd, target);
        if full <= now {
            // The command is issuable; the request lost FR-FCFS-Cap
            // arbitration (or the single command-bus slot) to another.
            return (WaitCause::Aging, bit, u64::MAX);
        }
        let cause = if engine.bank_gate(cmd, bank) >= full {
            // The bank's own timing window dominates the wait.
            match cmd {
                Command::Pre => WaitCause::RowConflict,
                Command::Act if entry.needed_pre => WaitCause::RowConflict,
                _ => WaitCause::BankBusy,
            }
        } else {
            // Rank/bank-group/channel serialization dominates: tRRD,
            // tFAW, tCCD, bus turnarounds.
            WaitCause::Bus
        };
        (cause, bit, full)
    }

    /// A demand entry's next service command and its target: the column
    /// command on a row hit, the PRE of the open row (in the mode it was
    /// opened in) on a conflict, the ACT on a closed bank.
    fn demand_command(banks: &[BankState], entry: &QueueEntry) -> (Command, Target) {
        let bank = &banks[entry.target.bank];
        match bank.open_row {
            Some(open) if open == entry.decoded.row => {
                (scheduler::column_command(entry), entry.target)
            }
            Some(_) => (
                Command::Pre,
                Target {
                    mode: bank.open_mode,
                    ..entry.target
                },
            ),
            None => (Command::Act, entry.target),
        }
    }

    /// A state change outside a tick (a mode application or a migration
    /// dispatch): the next-event bound is re-derived, and as a blame
    /// boundary it re-derives every queued entry's cause.
    fn note_state_change(&mut self) {
        self.next_event_cache = None;
        self.blame_stale = true;
        self.reblame_queues();
    }

    /// The queue-wide causes `(reads, writes)` at this boundary: a
    /// pending refresh or a relocation stall preempts both queues, and
    /// otherwise the queue the drain policy is not serving waits on
    /// `WriteDrain`. `None` leaves a queue's entries to their own
    /// causes.
    fn queue_wide_causes(&self) -> (Option<WaitCause>, Option<WaitCause>) {
        let preempted = if self.pending_refresh.is_some() {
            Some(WaitCause::Refresh)
        } else if self.cycle < self.maintenance_until {
            Some(WaitCause::RelocationStall)
        } else {
            None
        };
        let use_writes = self.queue_selection(self.read_q.len(), self.write_q.len());
        let drain = |deselected: bool| deselected.then_some(WaitCause::WriteDrain);
        (
            preempted.or(drain(use_writes)),
            preempted.or(drain(!use_writes)),
        )
    }

    /// The blame boundary step. Called only where every walk of the same
    /// simulation executes identically — successful enqueues,
    /// state-changing ticks, mode applications, and migration
    /// dispatches — so the sampled causes (and hence the final budgets)
    /// are bit-identical across per-cycle, skip-ahead, and threaded
    /// walks. It touches only entries whose cause can have changed:
    ///
    /// * A queue waiting on a queue-wide cause (see
    ///   `queue_wide_causes`) is frozen whole: while the cause holds, a
    ///   boundary touches no entry and a new entry joins on it; the
    ///   queue is walked once when the cause flips.
    /// * In a served queue, an entry is re-derived only when an issue
    ///   touched its bank or the class of its next command (see
    ///   [`Touched`]), when its timing wait ran out (the flip to
    ///   `Aging`), or when `blame_stale` says a migration step or a mode
    ///   application moved an input outside the timing registers.
    ///
    /// An entry's ledger is settled only when its cause changes, which
    /// is exact because charges telescope.
    fn reblame_queues(&mut self) {
        if !self.blame_enabled || (self.read_q.is_empty() && self.write_q.is_empty()) {
            return;
        }
        #[cfg(test)]
        {
            self.blame_boundaries += 1;
        }
        let now = self.cycle;
        let (read_wide, write_wide) = self.queue_wide_causes();
        let touched = self.engine.take_touched();
        let stale = std::mem::take(&mut self.blame_stale);
        let MemoryController {
            ref mut read_q,
            ref mut write_q,
            ref mut read_frozen,
            ref mut write_frozen,
            ref banks,
            ref engine,
            ref migration,
            ..
        } = *self;
        for (q, frozen, wide) in [
            (read_q, read_frozen, read_wide),
            (write_q, write_frozen, write_wide),
        ] {
            let was = std::mem::replace(frozen, wide);
            match wide {
                Some(cause) if was == wide => {
                    // Frozen on the same cause: only an entry joining at
                    // this boundary (the one still on its enqueue cause,
                    // pushed last) takes it.
                    if let Some(e) = q.last_mut() {
                        if e.blame.cause == WaitCause::Backpressure {
                            e.blame.settle(now, cause);
                        }
                    }
                }
                Some(cause) => {
                    for e in q.iter_mut().filter(|e| e.blame.cause != cause) {
                        e.blame.settle(now, cause);
                    }
                }
                None => {
                    let all = stale || was.is_some();
                    for e in q.iter_mut() {
                        if !(all
                            || now >= e.blame_ready_at
                            || touched.covers(e.target.bank, e.blame_command))
                        {
                            continue;
                        }
                        let (cause, command, ready_at) =
                            Self::entry_cause(banks, engine, migration, e, now);
                        e.blame_command = command;
                        e.blame_ready_at = ready_at;
                        if cause != e.blame.cause {
                            e.blame.settle(now, cause);
                        }
                    }
                }
            }
        }
    }

    /// The eager reference walk [`MemoryController::reblame_queues`]
    /// must agree with: every queued entry's cause derived from scratch
    /// at a boundary at cycle `now` (the current cycle, or the one a
    /// tick just finished), `(reads, writes)` in queue order.
    #[cfg(test)]
    fn eager_causes(&self, now: u64) -> (Vec<WaitCause>, Vec<WaitCause>) {
        let preempted = if self.pending_refresh.is_some() {
            Some(WaitCause::Refresh)
        } else if now < self.maintenance_until {
            Some(WaitCause::RelocationStall)
        } else {
            None
        };
        let use_writes = self.queue_selection(self.read_q.len(), self.write_q.len());
        let cause_of = |entry: &QueueEntry, deselected: bool| {
            if let Some(cause) = preempted {
                cause
            } else if deselected {
                WaitCause::WriteDrain
            } else {
                Self::entry_cause(&self.banks, &self.engine, &self.migration, entry, now).0
            }
        };
        (
            self.read_q
                .iter()
                .map(|e| cause_of(e, use_writes))
                .collect(),
            self.write_q
                .iter()
                .map(|e| cause_of(e, !use_writes))
                .collect(),
        )
    }

    /// Checks the next-event memo the way a test must: when set, it does
    /// not lie in the past and equals a from-scratch evaluation at the
    /// current cycle (which leaves the jump attribution untouched).
    #[cfg(test)]
    fn assert_memo_exact(&mut self, context: &str) {
        let Some(memo) = self.next_event_cache else {
            return;
        };
        assert!(
            memo >= self.cycle,
            "{context}: memo {memo} lies before cycle {}",
            self.cycle
        );
        let source = self.next_event_source;
        let fresh = self.compute_next_event(SourceCycles::default());
        self.next_event_source = source;
        assert_eq!(
            memo, fresh,
            "{context}: memo vs from scratch @ {}",
            self.cycle
        );
    }

    fn log_command(
        &mut self,
        cycle: u64,
        command: Command,
        flat_bank: usize,
        row: u32,
        mode: RowMode,
    ) {
        self.log_command_tagged(cycle, command, flat_bank, row, mode, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn log_command_tagged(
        &mut self,
        cycle: u64,
        command: Command,
        flat_bank: usize,
        row: u32,
        mode: RowMode,
        migration: bool,
    ) {
        if let Some(log) = self.command_log.as_mut() {
            log.push(IssuedCommand {
                cycle,
                command,
                flat_bank,
                row,
                mode,
                migration,
            });
        }
        if let Some(sink) = self.trace.as_deref_mut() {
            if sink.wants(TraceCategory::Commands) {
                sink.instant(
                    TraceCategory::Commands,
                    command.mnemonic(),
                    cycle,
                    vec![
                        ("bank", flat_bank as u64),
                        ("row", row as u64),
                        ("migration", migration as u64),
                    ],
                );
            }
        }
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Current DRAM cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Operating mode of `row` in `flat_bank`, looked up in the shared
    /// [`ModeTable`].
    ///
    /// # Panics
    ///
    /// Panics if `flat_bank` or `row` is out of range.
    pub fn mode_of_row(&self, flat_bank: usize, row: u32) -> RowMode {
        self.modes.mode_of(flat_bank, row)
    }

    /// The shared per-row mode table.
    pub fn mode_table(&self) -> &ModeTable {
        &self.modes
    }

    /// Applies validated row-mode transitions (from a policy runtime),
    /// charging `stall_cycles` of relocation work during which queue
    /// service is suspended, and retuning the heterogeneous refresh
    /// streams to the new mode population. Returns the number of rows
    /// whose mode actually changed.
    ///
    /// Mode changes take effect at each row's *next activation* (§3.3:
    /// the ISO control signals are applied per-ACT), so a currently open
    /// row finishes its row cycle in the mode it was sensed in.
    ///
    /// # Panics
    ///
    /// Panics if any `(flat_bank, row)` is out of range.
    pub fn apply_row_modes(&mut self, changes: &[(usize, u32, RowMode)], stall_cycles: u64) -> u64 {
        let mut changed = 0;
        for &(bank, row, mode) in changes {
            if self.modes.set(bank, row, mode) != mode {
                changed += 1;
            }
        }
        if changed > 0 {
            self.stats.mode_transitions += changed;
            self.maintenance_until = self.maintenance_until.max(self.cycle) + stall_cycles;
            self.retune_refresh();
            // The stall window opening is a blame boundary: queued
            // requests charge RelocationStall from here, not from the
            // next state-changing tick.
            self.note_state_change();
        }
        changed
    }

    /// Applies a transition batch as *background migration* instead of a
    /// stall: demotions (decoupling is free at the device level) flip
    /// immediately, while each promotion is dispatched as a per-row
    /// [`MigrationJob`](crate::migrate::MigrationJob) whose read-out /
    /// couple / write-back phases issue as real commands into idle bank
    /// slots. A promoted row's mode flips at its job's couple point, not
    /// here; completions are reported through
    /// [`MemoryController::drain_completed_migrations_into`].
    ///
    /// Returns the number of jobs dispatched. Rows already migrating (as
    /// a source *or* as another job's destination frame), rows with no
    /// available destination frame, and no-op transitions are skipped.
    ///
    /// # Panics
    ///
    /// Panics if any `(flat_bank, row)` is out of range.
    pub fn begin_row_migrations(&mut self, changes: &[(usize, u32, RowMode)]) -> u64 {
        self.begin_migrations_inner(changes, None)
    }

    /// [`MemoryController::begin_row_migrations`], additionally appending
    /// each dispatched coupling's `(bank, row)` to `dispatched`. A caller
    /// tracking in-progress transitions must use exactly this set — a
    /// proposal can be silently skipped (row already migrating, row in
    /// use as a destination frame, no free destination frame), and a
    /// skipped row never produces a completion callback.
    pub fn begin_row_migrations_tracked(
        &mut self,
        changes: &[(usize, u32, RowMode)],
        dispatched: &mut Vec<(u32, u32)>,
    ) -> u64 {
        self.begin_migrations_inner(changes, Some(dispatched))
    }

    fn begin_migrations_inner(
        &mut self,
        changes: &[(usize, u32, RowMode)],
        mut dispatched: Option<&mut Vec<(u32, u32)>>,
    ) -> u64 {
        let mut flips = 0u64;
        let mut jobs = 0u64;
        for &(bank, row, mode) in changes {
            if self.migration.is_row_pending(bank, row) {
                continue;
            }
            let cur = self.modes.mode_of(bank, row);
            if cur == mode {
                continue;
            }
            match mode {
                RowMode::MaxCapacity => {
                    self.modes.set(bank, row, mode);
                    flips += 1;
                }
                RowMode::HighPerformance => {
                    if let Some((dest_bank, dest)) = self.pick_migration_dest(bank, row) {
                        if self
                            .migration
                            .dispatch_couple(bank, row, dest_bank, dest, cur, mode, self.cycle)
                        {
                            if self.frames.take_exact(dest_bank, dest) {
                                self.stats.frames_reused += 1;
                            }
                            jobs += 1;
                            if let Some(out) = dispatched.as_deref_mut() {
                                out.push((bank as u32, row));
                            }
                        }
                    }
                }
            }
        }
        if flips > 0 {
            self.stats.mode_transitions += flips;
            self.retune_refresh();
        }
        if flips > 0 || jobs > 0 {
            self.note_state_change();
        }
        jobs
    }

    /// Picks the destination frame for a coupling's displaced half-row
    /// under the configured [`DestinationPicker`]. Same-bank placement is
    /// the legacy scan: a free frame of the same bank, scanned
    /// deterministically from half a bank away (so destinations land far
    /// from the contiguous fast-row prefix). Cross-bank placement prefers
    /// a frame in another bank, rotating over the banks from opposite the
    /// source and advanced by a cursor so consecutive couplings spread
    /// their write-back load (see `find_frame`); it falls back to the
    /// same-bank scan on single-bank geometries. `None` when no frame
    /// exists anywhere — the coupling is then impossible and skipped,
    /// exactly as an OS with no free frame would decline it. A known-free
    /// directory frame leaves the directory when the coupling dispatches.
    fn pick_migration_dest(&mut self, bank: usize, row: u32) -> Option<(usize, u32)> {
        let (banks, start_row) = (self.banks.len(), row + self.config.geometry.rows / 2);
        if self.config.placement.is_cross_bank() && banks > 1 {
            let first = bank + banks / 2 + self.dest_cursor;
            if let Some(hit) = self.find_frame(first, Some(bank), start_row) {
                self.dest_cursor = (self.dest_cursor + 1) % banks;
                return Some(hit);
            }
        }
        self.scan_free_frame(bank, start_row, Some(row))
            .map(|r| (bank, r))
    }

    /// Migration jobs dispatched but not yet complete.
    pub fn pending_migrations(&self) -> usize {
        self.migration.pending_jobs()
    }

    /// Migration jobs dispatched so far, of every kind. At every cycle
    /// it equals the sum of [`MemStats`]'s `migration_jobs_completed`,
    /// `migration_evacuations` and `migration_fills` and
    /// [`MemoryController::pending_migrations`].
    pub fn migration_jobs_dispatched(&self) -> u64 {
        self.migration.jobs_dispatched()
    }

    /// Drains completed `(bank, row, mode)` migrations since the last
    /// drain into `out` (clearing `out` first) — the completion callback
    /// feed for a policy runtime tracking in-progress transitions.
    pub fn drain_completed_migrations_into(&mut self, out: &mut Vec<(u32, u32, RowMode)>) {
        self.migration.drain_completed_into(out);
    }

    /// Drains completed frame-placement actions (staged cross-channel
    /// read-outs, fills, cross-bank couplings) into `out`
    /// (clearing `out` first) — the feed a [`MemorySystem`] pump uses to
    /// install remap entries and advance staged cross-channel moves.
    ///
    /// [`MemorySystem`]: crate::system::MemorySystem
    pub fn drain_placement_events_into(&mut self, out: &mut Vec<PlacementEvent>) {
        self.migration.drain_placements_into(out);
    }

    /// Additionally records completed cross-bank couplings as placement
    /// events (off by default — the system pump ignores them, so
    /// unconditional recording would accumulate without bound on runs
    /// that never drain; audits and debugging switch it on before
    /// driving traffic, like [`MemoryController::enable_command_log`]).
    pub fn enable_couple_placement_log(&mut self) {
        self.migration.enable_couple_placement_log();
    }

    /// Dispatches the read-out half of a cross-channel frame move: the
    /// full max-capacity row `(bank, row)` is streamed out and staged
    /// for a fill on another channel. The row stays reserved after the
    /// job completes, until [`MemoryController::note_frame_freed`]
    /// confirms the landing. Returns `false` if the row is not
    /// max-capacity or already has a pending role.
    pub fn begin_evacuation_out(&mut self, bank: usize, row: u32) -> bool {
        if self.modes.mode_of(bank, row) != RowMode::MaxCapacity {
            return false;
        }
        let ok = self.migration.dispatch_evacuate_out(bank, row, self.cycle);
        if ok {
            self.note_state_change();
        }
        ok
    }

    /// Dispatches the write-back half of a cross-channel frame move into
    /// the frame `(bank, row)`, which must have been reserved through
    /// [`MemoryController::reserve_import_frame`] when the move was
    /// scheduled. Returns `false` if no such reservation exists.
    pub fn begin_fill(&mut self, bank: usize, row: u32) -> bool {
        let ok = self.migration.dispatch_fill(bank, row, self.cycle);
        if ok {
            // The move is committed from here: a known-free frame is
            // consumed only now, so an aborted reservation loses
            // nothing.
            if self.frames.take_exact(bank, row) {
                self.stats.frames_reused += 1;
            }
            self.note_state_change();
        }
        ok
    }

    /// Releases a frame reservation without freeing the frame (an
    /// aborted scheduled move).
    pub fn release_frame(&mut self, bank: usize, row: u32) -> bool {
        self.migration.release(bank, row)
    }

    /// Confirms that the contents of `(bank, row)` landed elsewhere (a
    /// cross-channel move's fill completed): the row's reservation is
    /// released and it enters the capacity directory as a known-free
    /// frame.
    pub fn note_frame_freed(&mut self, bank: usize, row: u32) {
        self.migration.release(bank, row);
        self.frames.free(bank, row);
        self.stats.frames_freed += 1;
    }

    /// The capacity directory's free-frame view for this channel.
    pub fn frame_directory(&self) -> &FrameDirectory {
        &self.frames
    }

    /// Whether `(bank, row)` has a pending migration role or frame
    /// reservation.
    pub fn is_row_migrating(&self, bank: usize, row: u32) -> bool {
        self.migration.is_row_pending(bank, row)
    }

    /// Finds and reserves a destination frame for an incoming
    /// cross-channel move: a known-free directory frame if one exists,
    /// else a deterministic scan over max-capacity rows without pending
    /// roles, rotated by `hint` so successive imports spread over banks.
    /// The frame is only *reserved* here — a known-free frame leaves the
    /// directory when the fill actually dispatches, so aborted moves
    /// lose nothing.
    pub fn reserve_import_frame(&mut self, hint: usize) -> Option<(usize, u32)> {
        let (bank, row) = self.find_frame(hint, None, self.config.geometry.rows / 2)?;
        self.migration.reserve(bank, row);
        Some((bank, row))
    }

    /// Whether `(bank, row)` can take moved data: a max-capacity row with
    /// no pending migration role.
    fn is_free_frame(&self, bank: usize, row: u32) -> bool {
        self.modes.mode_of(bank, row) == RowMode::MaxCapacity
            && !self.migration.is_row_pending(bank, row)
    }

    /// The shared frame search over the banks from `first` on (wrapping),
    /// `skip` excepted: each bank's known-free directory frames first,
    /// then its scan from `start_row`.
    fn find_frame(
        &self,
        first: usize,
        skip: Option<usize>,
        start_row: u32,
    ) -> Option<(usize, u32)> {
        let banks = self.banks.len();
        (0..banks)
            .map(|k| (first + k) % banks)
            .filter(|&b| Some(b) != skip)
            .find_map(|b| {
                let known = self.frames.peek_in_bank(b, |r| self.is_free_frame(b, r));
                known
                    .or_else(|| self.scan_free_frame(b, start_row, None))
                    .map(|r| (b, r))
            })
    }

    /// The first free frame of `bank` other than `except`, walking every
    /// row from `start_row` (wrapping) — the deterministic fallback when
    /// the directory has no known-free frame.
    fn scan_free_frame(&self, bank: usize, start_row: u32, except: Option<u32>) -> Option<u32> {
        let rows = self.config.geometry.rows;
        (0..rows)
            .map(|k| (start_row + k) % rows)
            .find(|&r| Some(r) != except && self.is_free_frame(bank, r))
    }

    /// Starts counting per-row column accesses for telemetry export.
    /// Off by default so non-policy runs pay nothing on the column-command
    /// hot path (mirrors [`MemoryController::enable_command_log`]).
    pub fn enable_row_telemetry(&mut self) {
        self.telemetry_enabled = true;
    }

    /// Drains the per-row access telemetry accumulated since the last
    /// drain into `out` (clearing it first, so an epoch loop reuses one
    /// allocation), as `((flat_bank, row), column_accesses)` sorted by
    /// `(bank, row)`. Empty unless
    /// [`MemoryController::enable_row_telemetry`] was called.
    pub fn drain_row_telemetry_into(&mut self, out: &mut Vec<((u32, u32), u64)>) {
        out.clear();
        out.extend(std::mem::take(&mut self.row_counts));
    }

    /// Rebuilds the refresh scheduler for the current mode population,
    /// rebased at the current cycle.
    fn retune_refresh(&mut self) {
        if !self.config.refresh_enabled {
            return;
        }
        let refw = match self.config.clr {
            ClrModeConfig::BaselineDdr4 => 64.0,
            ClrModeConfig::Clr { hp_refw_ms, .. } => hp_refw_ms,
        };
        let plan = RefreshPlan::new(
            &self.config.timings,
            self.modes.fraction_high_performance(),
            refw,
        );
        // Carry surviving streams' due times: a retune must not push
        // refresh into the future (policy epochs can be much shorter
        // than tREFI, so resetting would starve refresh entirely).
        self.refresh = self
            .refresh
            .retuned(&plan, self.config.interface.t_ck_ns, self.cycle);
    }

    /// Number of queued reads (diagnostics).
    pub fn pending_reads(&self) -> usize {
        self.read_q.len()
    }

    /// Number of queued writes (diagnostics).
    pub fn pending_writes(&self) -> usize {
        self.write_q.len()
    }

    /// Whether all queues and in-flight buffers are empty.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.inflight.is_empty()
    }

    /// Attempts to enqueue a request, returning it back on queue-full
    /// (callers retry next cycle — that is the backpressure model).
    ///
    /// Reads matching a queued write's line are served by forwarding.
    pub fn try_enqueue(&mut self, request: MemRequest) -> Result<(), MemRequest> {
        let masked = PhysAddr(request.addr.0 & self.addr_mask);
        match request.kind {
            RequestKind::Read => {
                let line = masked.0 >> self.line_shift;
                if self
                    .write_q
                    .iter()
                    .any(|e| e.request.addr.0 >> self.line_shift == line)
                {
                    self.stats.forwarded_reads += 1;
                    self.inflight.push(Reverse((self.cycle + 1, request.id)));
                    self.merge_event_bound(self.cycle + 1, EventSource::Completion);
                    return Ok(());
                }
                if self.read_q.len() >= SchedulerConfig::READ_QUEUE {
                    self.stats.queue_rejections += 1;
                    return Err(request); // no state changed; bound holds
                }
                let entry = self.make_entry(MemRequest {
                    addr: masked,
                    ..request
                });
                self.note_enqueue_event(&entry, false);
                self.read_q.push(entry);
                self.read_lanes.on_push(
                    &self.read_q,
                    &self.banks,
                    self.migration.blocked_rows(),
                    self.migration.read_ok_rows(),
                );
                // An enqueue is a blame boundary: it can flip the drain
                // policy's queue selection for *every* queued request,
                // not just freeze the new entry's first cause.
                self.reblame_queues();
                Ok(())
            }
            RequestKind::Write => {
                if self.write_q.len() >= SchedulerConfig::WRITE_QUEUE {
                    self.stats.queue_rejections += 1;
                    return Err(request); // no state changed; bound holds
                }
                let entry = self.make_entry(MemRequest {
                    addr: masked,
                    ..request
                });
                self.note_enqueue_event(&entry, true);
                self.write_q.push(entry);
                self.write_lanes.on_push(
                    &self.write_q,
                    &self.banks,
                    self.migration.blocked_rows(),
                    self.migration.read_ok_rows(),
                );
                self.reblame_queues();
                Ok(())
            }
        }
    }

    /// Folds an additional possible event at `at` (from `source`) into
    /// the memoized next-event bound (a stale `None` stays `None` — it
    /// will be fully recomputed anyway).
    fn merge_event_bound(&mut self, at: u64, source: EventSource) {
        if let Some(r) = self.next_event_cache {
            if at < r {
                self.next_event_source = source;
            }
            self.next_event_cache = Some(r.min(at));
        }
    }

    /// The write-drain watermark hysteresis: whether the controller
    /// drains writes with `writes` queued, from its current drain state.
    fn drains_at(&self, writes: usize) -> bool {
        let mut draining = self.draining_writes;
        if !draining && writes >= SchedulerConfig::WRITE_HIGH_WATERMARK {
            draining = true;
        }
        if draining && writes <= SchedulerConfig::WRITE_LOW_WATERMARK {
            draining = false;
        }
        draining
    }

    /// The drain policy's queue selection for hypothetical queue lengths
    /// (replaying the watermark hysteresis without mutating it).
    fn queue_selection(&self, reads: usize, writes: usize) -> bool {
        self.drains_at(writes) || (reads == 0 && writes > 0)
    }

    /// Updates the memoized next-event bound for an entry about to join a
    /// queue, keeping it exact. The entry adds its own candidate to the
    /// queue it joins, if the scheduling pass prices it; anything else it
    /// can move clears the memo: the timeout close of the open row it
    /// wants (never due before `last_use + timeout`, so only one at or
    /// before the memo can be the bound), a flip of the drain policy's
    /// queue selection, and, while migration work is pending, what the
    /// migration gates read of the queues: a job's start or eagerness
    /// (see `moves_a_job_gate`), an empty controller (the write-back gate
    /// opens for it), a drain start (the write-back gate opens for one),
    /// and the demand-ready cycle that keeps idle-slot ACTs out of its
    /// tRRD shadow. The entry's candidate lowers that cycle: a candidate
    /// at or before the memo is the new bound itself, and one more than a
    /// shadow after it gates no ACT the memo could be made of, so only a
    /// candidate in between clears the memo. Even then a lower
    /// demand-ready cycle only keeps more ACTs out, which moves the bound
    /// only when the migration pass alone attains it: the pass folds last
    /// with a strict `<`, so that is a memo whose source is migration.
    fn note_enqueue_event(&mut self, entry: &QueueEntry, to_writes: bool) {
        let Some(memo) = self.next_event_cache else {
            return;
        };
        let bank = &self.banks[entry.target.bank];
        if bank.open_row == Some(entry.decoded.row)
            && bank.last_use_cycle + self.timeout_cycles <= memo
        {
            self.next_event_cache = None;
            return;
        }
        if self.pending_refresh.is_some() || self.cycle < self.maintenance_until {
            // Queue service is preempted: neither the queues nor
            // migration is in the bound, the preemption's end is.
            return;
        }
        let (reads, writes) = (self.read_q.len(), self.write_q.len());
        let (reads_after, writes_after) = if to_writes {
            (reads, writes + 1)
        } else {
            (reads + 1, writes)
        };
        let selected = self.queue_selection(reads, writes);
        let migrating = self.migration.pending_jobs() > 0;
        let gates_move = migrating
            && (self.moves_a_job_gate(entry)
                || reads + writes == 0
                || self.drains_at(writes_after) != self.drains_at(writes));
        if self.queue_selection(reads_after, writes_after) != selected || gates_move {
            self.next_event_cache = None;
        } else if selected == to_writes && self.is_priced(entry) {
            let (cmd, target) = Self::demand_command(&self.banks, entry);
            let at = self.engine.earliest(cmd, target).max(self.cycle);
            if migrating
                && self.next_event_source == EventSource::Migration
                && at > memo
                && at <= memo.saturating_add(self.migration_act_shadow())
            {
                self.next_event_cache = None;
            } else {
                self.merge_event_bound(at, EventSource::QueueReady);
            }
        }
    }

    /// Whether demand `entry` changes what a migration job's gates read
    /// of the queues on its bank: it is the first demand on a bank whose
    /// queued job could start (a start takes a bank no demand is queued
    /// for), or it targets the migrating row of an in-flight job that is
    /// not yet eager (demand waiting on that row forces the job through).
    fn moves_a_job_gate(&mut self, entry: &QueueEntry) -> bool {
        let (bank, row) = (entry.target.bank, entry.decoded.row);
        if !self.migration.is_busy(bank) {
            return self.migration.bank_has_work(bank)
                && !self.read_lanes.has_entries(bank)
                && !self.write_lanes.has_entries(bank);
        }
        !self.migration.is_mid_phase(bank)
            && self.migration.blocked_row(bank) == Some(row)
            && !self.demand_for(bank, RowWatch::Migrating, row)
    }

    /// Whether the scheduling pass prices `entry` once it is queued: not
    /// while a migration blocks its row for it, and on a bank a migration
    /// holds only if the bank serves its command
    /// ([`scheduler::bank_serves`]).
    fn is_priced(&self, entry: &QueueEntry) -> bool {
        let (bank, row, kind) = (entry.target.bank, entry.decoded.row, entry.request.kind);
        let read_ok = self.migration.read_ok_rows();
        !scheduler::entry_excluded(self.migration.blocked_rows(), read_ok, bank, row, kind)
            && scheduler::bank_serves(
                self.migration.held_banks(),
                read_ok,
                bank,
                self.banks[bank].open_row,
                Self::demand_command(&self.banks, entry).0,
            )
    }

    fn make_entry(&self, request: MemRequest) -> QueueEntry {
        let g = &self.config.geometry;
        let decoded = self
            .config
            .mapping
            .map(request.addr, g)
            .expect("masked address is always in range");
        let flat_bank = decoded.flat_bank(g);
        let target = Target {
            channel: decoded.channel as usize,
            mode: self.mode_of_row(flat_bank, decoded.row),
            ..self.bank_targets[flat_bank]
        };
        let mut entry = scheduler::entry(request, decoded, target);
        if self.blame_enabled {
            // Arrival → successful enqueue is the backpressure budget
            // (queue-full rejections make the CPU side retry).
            entry.blame = BlameLedger::new(entry.request.arrival_cycle, self.cycle);
        }
        entry
    }

    /// Advances one DRAM clock cycle, pushing finished reads into
    /// `completions`.
    pub fn tick(&mut self, completions: &mut Vec<Completion>) {
        let now = self.cycle;
        self.skip_profile.record_tick();
        let mut changed = false;

        // 1. Deliver finished reads.
        while let Some(&Reverse((done, id))) = self.inflight.peek() {
            if done > now {
                break;
            }
            self.inflight.pop();
            completions.push(Completion {
                id,
                finish_cycle: done,
            });
            changed = true;
        }

        // 2. Refresh has the highest priority once due.
        if self.pending_refresh.is_none() {
            if let Some(mode) = self.refresh.due(now) {
                self.pending_refresh = Some(mode);
                changed = true;
            }
        }
        // 3. At most one command issues. Each source in turn issues what
        // its answer names, or prices the cycle it could issue from.
        let mut priced = SourceCycles::default();
        let mut issued = false;
        if let Some(mode) = self.pending_refresh {
            priced.refresh = self.progress_refresh(mode, now).err();
            issued = priced.refresh.is_none();
        } else if now < self.maintenance_until {
            // Relocation work from a stall-mode transition batch occupies
            // the channel: queue service pauses, refresh does not.
            self.stats.relocation_stall_cycles += 1;
        } else {
            // Migration jobs *start* only in idle slots (no demand
            // command could issue) — but once a job is in flight it owns
            // its bank's row buffer, so its remaining commands outrank
            // demand: finishing eagerly bounds how long the bank blocks
            // demand to the job's own execution time, instead of letting
            // a saturated bus hold the bank hostage indefinitely.
            issued = self.serve_migration(now, false, u64::MAX).is_ok();
            if !issued {
                priced.queue = self.serve_queues(now).err();
                issued = priced.queue.is_none();
            }
            if let Some(queue) = priced.queue {
                // The failed scheduling pass priced the selected queue's
                // next-ready cycle; migration may use the slot only if
                // its command's shadow ends before that.
                priced.migration = self.serve_migration(now, true, queue).err();
                issued = priced.migration.is_none();
            }
        }

        // 4. Timeout row policy as background work.
        if !issued && now >= self.maintenance_until {
            priced.timeout = self.close_expired_row(now).err();
            issued = priced.timeout.is_none();
        }

        // 5. Background accounting.
        if !self.open_banks.is_empty() {
            self.stats.rank_active_cycles += 1;
        } else {
            self.stats.rank_precharged_cycles += 1;
        }

        if changed || issued {
            // State-changing ticks are blame boundaries; dead ticks (and
            // the dead-window jumps that replace them) charge nothing at
            // the time, which is what keeps the budgets bit-identical
            // across per-cycle and skip-ahead walks.
            self.reblame_queues();
        }
        // The memo rule: a tick that issued clears the bound; any other
        // tick priced every source it needs and stores the bound.
        self.next_event_cache = if issued {
            None
        } else {
            Some(self.compute_next_event(priced))
        };
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// Advances to DRAM cycle `target`, alternating O(1) jumps over dead
    /// windows (cycles where [`MemoryController::next_event_cycle`]
    /// proves nothing can happen) with ordinary [`MemoryController::tick`]
    /// calls at event cycles. Bit-identical to calling `tick` in a loop:
    /// same command log, same completion cycles, same statistics.
    pub fn tick_until(&mut self, target: u64, completions: &mut Vec<Completion>) {
        while self.cycle < target {
            // Jump only on a memoized bound; otherwise tick — event ticks
            // do real work, and a tick that issues nothing stores the
            // bound its own serve passes priced, so the walk never pays a
            // from-scratch event computation.
            match self.next_event_cache {
                Some(r) if r > self.cycle => self.skip_dead_cycles(r.min(target)),
                _ => self.tick(completions),
            }
        }
    }

    /// The earliest cycle ≥ now at which anything can happen: a command
    /// issue, a refresh becoming due or progressing, a read completing, a
    /// relocation stall expiring, or a timeout-policy row close. Every
    /// cycle strictly before the returned value is a *dead* cycle whose
    /// [`MemoryController::tick`] would only advance the clock and the
    /// busy/idle accounting; `u64::MAX` means the controller is fully
    /// idle and only new enqueues can wake it.
    ///
    /// The bound is exact, not heuristic: all inputs (engine readiness
    /// registers, queue contents, bank states, refresh due times) are
    /// constant across a dead window, so re-evaluating at the returned
    /// cycle finds a real event (or a newly computed later bound). The
    /// evaluation is memoized: a tick that issues nothing stores the
    /// bound it priced, dead-window jumps and repeated queries reuse it,
    /// and only a query after an issue, an enqueue that moved more than
    /// its own candidate, or a mode application evaluates from scratch.
    pub fn next_event_cycle(&mut self) -> u64 {
        if let Some(r) = self.next_event_cache {
            return r;
        }
        let r = self.compute_next_event(SourceCycles::default());
        self.next_event_cache = Some(r);
        r
    }

    /// The next-event bound at the current cycle, clamped to it (see
    /// [`MemoryController::next_event_cycle`]). `priced` carries what a
    /// tick that issued nothing already priced; a source it leaves out is
    /// evaluated here, as on a from-scratch query.
    fn compute_next_event(&mut self, priced: SourceCycles) -> u64 {
        let now = self.cycle;
        // Track which source produced the minimum so skip-ahead
        // profiling can attribute each dead-window jump.
        let mut next = u64::MAX;
        let mut source = EventSource::Completion;
        let mut fold = |t: u64, s: EventSource| {
            if t < next {
                next = t;
                source = s;
            }
        };
        // In-flight read completions are delivered at their cycle.
        if let Some(&Reverse((done, _))) = self.inflight.peek() {
            fold(done, EventSource::Completion);
        }
        let serving = now >= self.maintenance_until;
        if let Some(mode) = self.pending_refresh {
            // A pending refresh preempts the queues and migration; the
            // timeout row policy still runs unless a stall holds.
            let t = priced
                .refresh
                .unwrap_or_else(|| self.refresh_next(mode, now).err().unwrap_or(now));
            fold(t, EventSource::Refresh);
            if serving {
                let t = priced
                    .timeout
                    .unwrap_or_else(|| self.timeout_close(now).err().unwrap_or(now));
                fold(t, EventSource::TimeoutClose);
            }
        } else {
            if let Some(due) = self.refresh.next_due_cycle() {
                fold(due, EventSource::Refresh);
            }
            if !serving {
                // Queue service resumes when the relocation stall ends.
                fold(self.maintenance_until, EventSource::RelocationStall);
            } else {
                let queue = priced
                    .queue
                    .unwrap_or_else(|| self.queue_next(now).err().unwrap_or(now));
                fold(queue, EventSource::QueueReady);
                let t = priced
                    .timeout
                    .unwrap_or_else(|| self.timeout_close(now).err().unwrap_or(now));
                fold(t, EventSource::TimeoutClose);
                let t = priced
                    .migration
                    .unwrap_or_else(|| self.migration_next(now, true, queue).err().unwrap_or(now));
                fold(t, EventSource::Migration);
            }
        }
        self.next_event_source = source;
        next.max(now)
    }

    /// What background migration would issue at `now`, as `(bank,
    /// command)`, or else the earliest cycle it could. Banks are visited
    /// round-robin so one bank's backlog cannot starve the rest; the first
    /// bank whose command passes every gate answers.
    ///
    /// With `idle_slot` false, only jobs demand is waiting on are
    /// eligible (the eager pass). In an idle slot, with `demand_ready` the
    /// scheduling pass's next-ready bound, a queued job may also start on
    /// a closed bank no demand is queued for (past the rate limiter), and
    /// every in-flight job may step, except that a same-bank write-back
    /// ACT waits for a write-drain episode or an empty controller and
    /// that a phase-start ACT may not cast its tRRD shadow onto the next
    /// demand-ready cycle. Every gate reads state that is constant across
    /// a dead window, so the answer is an exact event bound; a gate that
    /// holds through the window prices its bank at `u64::MAX`, since only
    /// an event (the demand issue at `demand_ready` included) can open it.
    fn migration_next(
        &mut self,
        now: u64,
        idle_slot: bool,
        demand_ready: u64,
    ) -> Result<(usize, NextMigrationCommand), u64> {
        let rate_gate = self.migration.rate_gate(now);
        let mut next = u64::MAX;
        for b in self.migration.banks_with_work() {
            let busy = self.migration.is_busy(b);
            // Demand waiting on the job justifies forcing it through at
            // demand priority: blocked-row waiters any time, any waiter
            // once the job holds the whole bank. A mid-phase burst train
            // also finishes contiguously (one turnaround instead of one
            // per dribbled burst).
            let eager = busy
                && (self.migration.is_mid_phase(b)
                    || self
                        .migration
                        .blocked_row(b)
                        .is_some_and(|row| self.demand_for(b, RowWatch::Migrating, row)));
            if busy {
                if !idle_slot && !eager {
                    continue;
                }
                // The write-back burst rides a write-drain episode (the
                // rank is already turned around for writes) or an empty
                // controller; blocked-row demand still forces it through.
                // The drain state is the one the tick's queue pass
                // settles, so a query between ticks reads it the same.
                if idle_slot
                    && !eager
                    && self.migration.pending_writeback_act(b)
                    && !self.drains_at(self.write_q.len())
                    && !(self.read_q.is_empty() && self.write_q.is_empty())
                {
                    continue;
                }
            } else if !idle_slot
                || self.read_lanes.has_entries(b)
                || self.write_lanes.has_entries(b)
            {
                // A start must take an idle slot on a bank demand is not
                // using (and pass the rate limiter, priced below).
                continue;
            }
            let open = self.banks[b].open_row.map(|r| (r, self.banks[b].open_mode));
            // A role blocked on another side's progress (a write burst
            // waiting for unread data, a completion waiting for the
            // couple point) has no command: the event that releases it
            // is priced on the other bank.
            let Some(nc) = self.migration.next_command(b, open) else {
                continue;
            };
            let mut at = self
                .engine
                .earliest(nc.command, self.bank_target(b, nc.mode));
            if !busy {
                at = at.max(rate_gate);
            }
            if idle_slot
                && !eager
                && demand_ready != u64::MAX
                && nc.command == Command::Act
                && at.max(now) + self.migration_act_shadow() >= demand_ready
            {
                // Idle-slot phase starts must stay invisible to demand:
                // skip the slot if the ACT's cross-bank shadow (tRRD)
                // would reach the next demand-ready cycle.
                continue;
            }
            if at <= now {
                return Ok((b, nc));
            }
            next = next.min(at);
        }
        Err(next)
    }

    /// The cycles by which an idle-slot migration ACT could delay the
    /// next demand activate on the rank (tRRD, worst same-bank-group
    /// distance). Phase starts are the only migration commands issued
    /// into cold idle slots — burst trains run contiguously once their
    /// ACT lands — so the ACT's cross-bank shadow is the one that must
    /// clear imminent demand: a one-cycle gap just before a demand ACT
    /// is not a free slot.
    fn migration_act_shadow(&self) -> u64 {
        self.engine.timings().rrd_l
    }

    /// Records a migration job reaching its terminal step: end-to-end
    /// job latency (dispatch → terminal PRE) into the stats histogram,
    /// and — when tracing — a span covering the job's lifetime.
    fn note_migration_done(
        &mut self,
        name: &'static str,
        dispatched_at: u64,
        now: u64,
        bank: u32,
        row: u32,
    ) {
        self.stats
            .migration_latency_hist
            .record(now.saturating_sub(dispatched_at));
        if let Some(sink) = self.trace.as_deref_mut() {
            if sink.wants(TraceCategory::Migration) {
                sink.span(
                    TraceCategory::Migration,
                    name,
                    dispatched_at,
                    now.saturating_sub(dispatched_at).max(1),
                    vec![("bank", bank as u64), ("row", row as u64)],
                );
            }
        }
    }

    /// Emits a sampled tail-request async flow span when tracing wants
    /// the `requests` category: arrival → last data beat, carrying the
    /// read's full per-cause blame budget in the begin event's args.
    /// The sampling predicate is deterministic — latency at least 4×
    /// the unloaded CAS+burst service time — so traced and untraced
    /// runs (and any two traced runs) see identical simulations and
    /// identical spans. Flows are numbered in emission order, so each
    /// id on a channel names exactly one begin/end pair.
    fn emit_request_flow(
        &mut self,
        entry: &QueueEntry,
        ledger: &BlameLedger,
        latency: u64,
        done: u64,
    ) {
        let threshold = 4 * self.engine.read_done(0);
        let Some(sink) = self.trace.as_deref_mut() else {
            return;
        };
        if !sink.wants(TraceCategory::Requests) || latency < threshold {
            return;
        }
        let mut args: Vec<(&'static str, u64)> = vec![
            ("bank", entry.target.bank as u64),
            ("row", entry.decoded.row as u64),
            ("latency", latency),
        ];
        for (cause, &cycles) in WaitCause::ALL.iter().zip(ledger.cycles.iter()) {
            if cycles > 0 {
                args.push((cause.label(), cycles));
            }
        }
        sink.flow(
            TraceCategory::Requests,
            "slow_read",
            self.flows_emitted,
            done - latency,
            latency,
            args,
        );
        self.flows_emitted += 1;
    }

    /// Emits an instant migration-lifecycle trace event (couple points,
    /// dispatches) when tracing is enabled.
    fn trace_migration_instant(&mut self, name: &'static str, ts: u64, bank: u32, row: u32) {
        if let Some(sink) = self.trace.as_deref_mut() {
            if sink.wants(TraceCategory::Migration) {
                sink.instant(
                    TraceCategory::Migration,
                    name,
                    ts,
                    vec![("bank", bank as u64), ("row", row as u64)],
                );
            }
        }
    }

    /// Issues the background-migration command `migration_next` names at
    /// `now`, or returns the cycle it gave instead.
    fn serve_migration(&mut self, now: u64, idle_slot: bool, demand_ready: u64) -> Result<(), u64> {
        let (b, nc) = self.migration_next(now, idle_slot, demand_ready)?;
        let target = self.bank_target(b, nc.mode);
        match nc.command {
            Command::Act => {
                self.open_row(b, nc.row, nc.mode, now);
                self.engine.issue(Command::Act, target, now);
                self.stats.record_migration_act(nc.mode);
                self.migration.note_act(b, now);
                self.blame_stale = true;
                self.log_command_tagged(now, Command::Act, b, nc.row, nc.mode, true);
            }
            Command::Pre => {
                let closed = self.close_row(b);
                self.engine.issue(Command::Pre, target, now);
                self.stats.record_migration_pre(closed);
                let step = self.migration.note_pre(b);
                self.blame_stale = true;
                match step {
                    MigrationStep::Couple { row, to } => {
                        // The couple point: the row's mode flips here;
                        // the write-back re-activates in the new mode.
                        self.modes.set(b, row, to);
                        self.stats.mode_transitions += 1;
                        self.retune_refresh();
                        self.trace_migration_instant("couple_point", now, b as u32, row);
                    }
                    MigrationStep::Done {
                        kind,
                        row,
                        cross_bank,
                        dispatched_at,
                    } => {
                        let (done, name) = match kind {
                            JobKind::Couple => (&mut self.stats.migration_jobs_completed, "couple"),
                            JobKind::EvacuateOut => {
                                (&mut self.stats.migration_evacuations, "stage_out")
                            }
                            JobKind::FillIn => (&mut self.stats.migration_fills, "fill_in"),
                        };
                        *done += 1;
                        self.stats.migration_cross_bank_jobs += u64::from(cross_bank);
                        self.note_migration_done(name, dispatched_at, now, b as u32, row);
                    }
                    MigrationStep::InProgress => {}
                }
                self.log_command_tagged(now, Command::Pre, b, 0, closed, true);
            }
            Command::Rd | Command::Wr => {
                self.banks[b].access(now);
                self.engine.issue(nc.command, target, now);
                if nc.command == Command::Rd {
                    self.stats.migration_reads += 1;
                } else {
                    self.stats.migration_writes += 1;
                }
                self.migration.note_column(b, now);
                self.log_command_tagged(now, nc.command, b, nc.row, nc.mode, true);
            }
            Command::Ref => unreachable!("migration never issues REF"),
        }
        self.stats.migration_slot_cycles += 1;
        Ok(())
    }

    /// [`MemoryController::tick`], shortcutting provably dead cycles:
    /// when the memoized next-event bound proves nothing can happen this
    /// cycle, only the clock and the busy/idle accounting advance —
    /// exactly what the full tick would have done. Falls back to the
    /// full tick otherwise. Bit-identical to `tick` either way.
    #[inline]
    pub fn tick_fast(&mut self, completions: &mut Vec<Completion>) {
        match self.next_event_cache {
            Some(r) if r > self.cycle => self.skip_dead_cycles(self.cycle + 1),
            _ => self.tick(completions),
        }
    }

    /// The cycle through which [`MemoryController::tick_fast`] would
    /// only pass dead cycles on the memoized next-event bound: `self.cycle`
    /// when its next call ticks.
    #[inline]
    pub fn fast_dead_until(&self) -> u64 {
        match self.next_event_cache {
            Some(r) if r > self.cycle => r,
            _ => self.cycle,
        }
    }

    /// Exactly `to - cycle` calls of [`MemoryController::tick_fast`] on
    /// dead cycles, made at once: each is still recorded as a one-cycle
    /// jump, so the skip profile is the same too. `to` must not pass
    /// [`MemoryController::fast_dead_until`].
    #[inline]
    pub fn tick_fast_dead(&mut self, to: u64) {
        debug_assert!(to <= self.fast_dead_until());
        let n = to - self.cycle;
        if n == 0 {
            return;
        }
        self.skip_profile
            .record_unit_jumps(n, self.next_event_source);
        self.account_dead_cycles(to);
    }

    /// A lower bound on the next cycle a read completion can pop: the
    /// earliest in-flight completion or, for reads that have not issued
    /// yet, the next event plus the CAS + burst latency (no new read can
    /// issue before the next event, and none can complete faster than
    /// that). `u64::MAX` when no read can ever complete without new
    /// enqueues.
    ///
    /// Completions are the only signal the DRAM domain sends back to the
    /// CPU domain, so a driver whose CPU side is stalled may advance both
    /// clocks to just before this bound and let
    /// [`MemoryController::tick_until`] replay the intervening
    /// command-only events — that is the whole-system skip-ahead used by
    /// `clr_sim`.
    pub fn next_completion_bound(&mut self) -> u64 {
        let inflight = self
            .inflight
            .peek()
            .map_or(u64::MAX, |&Reverse((done, _))| done);
        // An in-flight read due within CAS + burst of now beats any read
        // that has yet to issue — no new RD (earliest at `now`) can
        // complete before `now + read_done`, so the min below would
        // return `inflight` regardless of the event bound. Skipping the
        // event evaluation here spares the saturated-loop caller a full
        // repricing pass per query.
        if inflight <= self.engine.read_done(self.cycle) {
            return inflight;
        }
        let event = self.next_event_cycle();
        let new_read = if event == u64::MAX {
            u64::MAX
        } else {
            event.saturating_add(self.engine.read_done(0))
        };
        inflight.min(new_read)
    }

    /// Jumps over `[self.cycle, to)`, applying exactly the accounting the
    /// skipped `tick`s would have: cycle counters and per-cycle busy/idle
    /// and relocation-stall statistics. Callers must have proven the
    /// window dead via [`MemoryController::next_event_cycle`].
    fn skip_dead_cycles(&mut self, to: u64) {
        debug_assert!(to > self.cycle);
        self.skip_profile
            .record_jump(to - self.cycle, self.next_event_source);
        self.account_dead_cycles(to);
    }

    /// The statistics every tick over the dead cycles `[self.cycle, to)`
    /// would have kept: the clock, busy/idle time and relocation-stall
    /// cycles.
    fn account_dead_cycles(&mut self, to: u64) {
        let n = to - self.cycle;
        if !self.open_banks.is_empty() {
            self.stats.rank_active_cycles += n;
        } else {
            self.stats.rank_precharged_cycles += n;
        }
        if self.pending_refresh.is_none() && self.cycle < self.maintenance_until {
            self.stats.relocation_stall_cycles += self.maintenance_until.min(to) - self.cycle;
        }
        self.cycle = to;
        self.stats.cycles = to;
    }

    /// What a pending refresh of `mode` would issue at `now`: the PRE of
    /// the lowest open bank (`Some(bank)`), else, once every bank is
    /// closed, the REF on every rank (`None`); or else the cycle it can
    /// next make progress.
    fn refresh_next(&self, mode: RowMode, now: u64) -> Result<Option<usize>, u64> {
        let (step, at) = match self.open_banks.first() {
            Some(b) => {
                let target = self.bank_target(b, self.banks[b].open_mode);
                (Some(b), self.engine.earliest(Command::Pre, target))
            }
            None => {
                let at = (0..self.ranks())
                    .map(|r| {
                        self.engine
                            .earliest(Command::Ref, self.rank_target(r, mode))
                    })
                    .max()
                    .unwrap_or(0);
                (None, at)
            }
        };
        if at <= now {
            Ok(step)
        } else {
            Err(at)
        }
    }

    /// Flat ranks behind this controller.
    fn ranks(&self) -> usize {
        (self.config.geometry.channels * self.config.geometry.ranks) as usize
    }

    /// The REF target of flat rank `r` (its first bank and bank group).
    fn rank_target(&self, r: usize, mode: RowMode) -> Target {
        Target {
            bank: r * (self.banks.len() / self.ranks()),
            bank_group: r * (self.config.geometry.bank_groups as usize),
            rank: r,
            channel: 0,
            mode,
        }
    }

    /// What the queue the drain policy selects would issue at `now`: the
    /// FR-FCFS-Cap decision, with whether it serves the write queue; or
    /// else the queue's exact next-ready cycle (see
    /// [`scheduler::pick_cached`]).
    fn queue_next(&mut self, now: u64) -> Result<(bool, Decision), u64> {
        let use_writes = self.queue_selection(self.read_q.len(), self.write_q.len());
        let (q, lanes) = if use_writes {
            (&self.write_q, &mut self.write_lanes)
        } else {
            (&self.read_q, &mut self.read_lanes)
        };
        match scheduler::pick_cached(
            q,
            &self.banks,
            &self.engine,
            &self.hit_streak,
            self.config.scheduler.cap,
            now,
            lanes,
            self.migration.held_banks(),
            self.migration.blocked_rows(),
            self.migration.read_ok_rows(),
        ) {
            (Some(decision), _) => Ok((use_writes, decision)),
            (None, bound) => Err(bound),
        }
    }

    /// Whether any queued read or write targets `row` of `bank`, where
    /// `row` is the bank's `watch` row (kept counts; see
    /// [`LaneCache::row_queued`]).
    fn demand_for(&mut self, bank: usize, watch: RowWatch, row: u32) -> bool {
        self.read_lanes.row_queued(&self.read_q, bank, watch, row)
            || self.write_lanes.row_queued(&self.write_q, bank, watch, row)
    }

    /// Opens `row` on bank `b` for any ACT, demand or migration. The row
    /// buffer, the open-bank set, the bank's hit streak and both lane
    /// caches change together.
    fn open_row(&mut self, b: usize, row: u32, mode: RowMode, now: u64) {
        self.banks[b].activate(row, mode, now);
        self.open_banks.insert(b);
        self.hit_streak[b] = 0;
        self.read_lanes.bank_state_changed(b);
        self.write_lanes.bank_state_changed(b);
    }

    /// Closes bank `b`'s open row for any PRE, returning the closed
    /// row's mode (see [`MemoryController::open_row`]).
    fn close_row(&mut self, b: usize) -> RowMode {
        let closed = self.banks[b].precharge();
        self.open_banks.remove(b);
        self.hit_streak[b] = 0;
        self.read_lanes.bank_state_changed(b);
        self.write_lanes.bank_state_changed(b);
        closed
    }

    /// What the timeout row policy would close at `now`: the first open
    /// bank whose row has sat idle for the timeout, that no queued request
    /// wants and no migration holds, once its PRE is ready; or else the
    /// earliest cycle such a close can fire (`u64::MAX` when every open
    /// row is wanted or held: a wanted row's service is a queue event).
    fn timeout_close(&mut self, now: u64) -> Result<usize, u64> {
        let mut next = u64::MAX;
        for b in self.open_banks.iter() {
            let Some(row) = self.banks[b].open_row else {
                continue;
            };
            // A bank's close cycle is at least `last_use + timeout`, so one
            // that cannot beat the running minimum (which lies after `now`)
            // is settled before the wanted check or the engine query is
            // paid — in a busy system most open rows were touched recently
            // and fall here.
            let floor = self.banks[b].last_use_cycle + self.timeout_cycles;
            if floor >= next
                || self.migration.is_mid_phase(b)
                || self.demand_for(b, RowWatch::Open, row)
            {
                continue;
            }
            let target = self.bank_target(b, self.banks[b].open_mode);
            let at = floor.max(self.engine.earliest(Command::Pre, target));
            if at <= now {
                return Ok(b);
            }
            next = next.min(at);
        }
        Err(next)
    }

    /// Progresses the pending refresh: issues the PRE or the REF
    /// `refresh_next` names at `now`, or returns the cycle it gave
    /// instead.
    fn progress_refresh(&mut self, mode: RowMode, now: u64) -> Result<(), u64> {
        if let Some(b) = self.refresh_next(mode, now)? {
            // Close the lowest open bank first (one PRE per cycle).
            self.precharge(b, now);
            // Refresh may close a bank out from under an in-flight
            // migration job; its phase re-activates after the blackout.
            self.migration.on_forced_precharge(b);
            self.blame_stale = true;
            return Ok(());
        }
        // All banks closed: issue REF (modelled on every rank this cycle).
        let rfc = self.engine.timings().for_mode(mode).rfc;
        for r in 0..self.ranks() {
            let t = self.rank_target(r, mode);
            self.engine.issue(Command::Ref, t, now);
        }
        self.stats.record_ref(mode);
        self.stats.refresh_busy_cycles += rfc;
        self.refresh.mark_issued(mode);
        self.pending_refresh = None;
        self.log_command(now, Command::Ref, 0, 0, mode);
        Ok(())
    }

    /// Serves the read/write queues under the drain policy: settles the
    /// drain state, then issues the command `queue_next` names at `now`,
    /// or returns the cycle it gave instead.
    fn serve_queues(&mut self, now: u64) -> Result<(), u64> {
        self.draining_writes = self.drains_at(self.write_q.len());
        let (use_writes, d) = self.queue_next(now)?;
        let (q, lanes) = if use_writes {
            (&mut self.write_q, &mut self.write_lanes)
        } else {
            (&mut self.read_q, &mut self.read_lanes)
        };
        let e = &mut q[d.queue_index];
        let bank = e.target.bank;
        match d.command {
            Command::Act => {
                if !e.classified {
                    e.classified = true;
                    if e.needed_pre {
                        self.stats.row_conflicts += 1;
                    } else {
                        self.stats.row_misses += 1;
                    }
                }
                e.needed_act = true;
                let row = e.decoded.row;
                // Mode is resolved from the shared table *at activation
                // time* — the table may have changed since enqueue.
                let mode = self.modes.mode_of(bank, row);
                e.target.mode = mode;
                let target = e.target;
                self.open_row(bank, row, mode, now);
                self.engine.issue(Command::Act, target, now);
                self.stats.record_act(mode);
                self.log_command(now, Command::Act, bank, row, mode);
            }
            Command::Pre => {
                e.needed_pre = true;
                let target = Target {
                    mode: self.banks[bank].open_mode,
                    ..e.target
                };
                let closed = self.close_row(bank);
                self.engine.issue(Command::Pre, target, now);
                self.stats.record_pre(closed);
                self.log_command(now, Command::Pre, bank, 0, closed);
            }
            Command::Rd | Command::Wr => {
                if !e.classified {
                    e.classified = true;
                    self.stats.row_hits += 1;
                }
                // Column commands run in the mode the open row was sensed
                // in (write recovery is mode-dependent), which may differ
                // from the entry's enqueue-time snapshot.
                let target = Target {
                    mode: self.banks[bank].open_mode,
                    ..e.target
                };
                lanes.before_swap_remove(q, d.queue_index);
                let entry = q.swap_remove(d.queue_index);
                self.banks[bank].access(now);
                if self.telemetry_enabled {
                    *self
                        .row_counts
                        .entry((bank as u32, entry.decoded.row))
                        .or_insert(0) += 1;
                }
                self.engine.issue(d.command, target, now);
                self.log_command(now, d.command, bank, entry.decoded.row, target.mode);
                self.hit_streak[bank] = self.hit_streak[bank].saturating_add(1);
                match d.command {
                    Command::Rd => {
                        self.stats.reads += 1;
                        let done = self.engine.read_done(now);
                        let latency = done.saturating_sub(entry.request.arrival_cycle);
                        self.stats.read_latency_sum += latency;
                        self.stats.read_latency_hist.record(latency);
                        self.stats.reads_completed += 1;
                        self.inflight.push(Reverse((done, entry.request.id)));
                        if self.blame_enabled {
                            // Settle the final wait span on the frozen
                            // cause, then the data transfer itself is the
                            // service component: the per-cause budget sums
                            // to exactly `done − arrival`, the latency the
                            // histogram just recorded.
                            let mut ledger = entry.blame;
                            ledger.settle(now, WaitCause::Service);
                            ledger.cycles[WaitCause::Service.index()] += done - now;
                            self.stats.read_blame.record(&ledger);
                            self.emit_request_flow(&entry, &ledger, latency, done);
                        }
                    }
                    Command::Wr => {
                        self.stats.writes += 1;
                        // Writes are posted: service latency is arrival →
                        // WR issue (there is no completion to wait for).
                        self.stats
                            .write_latency_hist
                            .record(now.saturating_sub(entry.request.arrival_cycle));
                        if self.blame_enabled {
                            let mut ledger = entry.blame;
                            ledger.settle(now, WaitCause::Service);
                            self.stats.write_blame.record(&ledger);
                        }
                    }
                    _ => unreachable!(),
                }
            }
            Command::Ref => unreachable!("REF is never scheduled from the queues"),
        }
        Ok(())
    }

    /// Closes the idle open row `timeout_close` names at `now`, or returns
    /// the cycle it gave instead.
    fn close_expired_row(&mut self, now: u64) -> Result<(), u64> {
        let b = self.timeout_close(now)?;
        self.precharge(b, now);
        Ok(())
    }

    /// Issues the controller's own PRE of bank `b`'s open row (a refresh
    /// PRE-out or a timeout close), in the mode the row was opened in.
    fn precharge(&mut self, b: usize, now: u64) {
        let target = self.bank_target(b, self.banks[b].open_mode);
        let closed = self.close_row(b);
        self.engine.issue(Command::Pre, target, now);
        self.stats.record_pre(closed);
        self.log_command(now, Command::Pre, b, 0, closed);
    }

    fn bank_target(&self, flat_bank: usize, mode: RowMode) -> Target {
        Target {
            mode,
            ..self.bank_targets[flat_bank]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: u64, addr: u64, at: u64) -> MemRequest {
        MemRequest::new(id, PhysAddr(addr), RequestKind::Read, at)
    }

    fn write(id: u64, addr: u64, at: u64) -> MemRequest {
        MemRequest::new(id, PhysAddr(addr), RequestKind::Write, at)
    }

    /// Every dispatched migration job is pending or counted once, at its
    /// terminal step, by the statistic of its kind.
    fn assert_jobs_accounted(mc: &MemoryController, context: &str) {
        let s = mc.stats();
        let ended = s.migration_jobs_completed + s.migration_evacuations + s.migration_fills;
        assert_eq!(
            mc.migration_jobs_dispatched(),
            ended + mc.pending_migrations() as u64,
            "{context}: dispatched jobs vs ended + pending"
        );
    }

    fn run_until_done(mc: &mut MemoryController, limit: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for _ in 0..limit {
            mc.tick(&mut done);
            if mc.is_idle() {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        mc.try_enqueue(read(1, 0x80, 0)).unwrap();
        let done = run_until_done(&mut mc, 10_000);
        assert_eq!(done.len(), 1);
        // Closed bank: ACT at ~1 + tRCD + CL + burst.
        let t = mc.engine.timings();
        let expect = 1 + t.max_capacity.rcd + t.cl + t.burst;
        assert!(
            done[0].finish_cycle <= expect + 2,
            "finish {} vs expect {}",
            done[0].finish_cycle,
            expect
        );
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(mc.stats().acts(), 1);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        // Two reads to the same row: second is a hit.
        mc.try_enqueue(read(1, 0x0, 0)).unwrap();
        mc.try_enqueue(read(2, 0x40, 0)).unwrap();
        let done = run_until_done(&mut mc, 10_000);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn conflicting_rows_force_precharge() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let row_stride = {
            // Same bank, different row: rows are the top address bits under
            // RoBgBaRaCoCh, so one full "row footprint" apart.
            let g = &cfg.geometry;
            g.capacity_bytes() / g.rows as u64
        };
        let mut mc = MemoryController::new(cfg);
        mc.try_enqueue(read(1, 0, 0)).unwrap();
        mc.try_enqueue(read(2, row_stride, 0)).unwrap();
        let done = run_until_done(&mut mc, 20_000);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().row_conflicts + mc.stats().row_misses, 2);
        assert!(mc.stats().pres() >= 1);
    }

    #[test]
    fn writes_complete_silently_and_forward_to_reads() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        mc.try_enqueue(write(1, 0x1000, 0)).unwrap();
        // A read to the same line is forwarded.
        mc.try_enqueue(read(2, 0x1000, 0)).unwrap();
        let done = run_until_done(&mut mc, 20_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 2);
        assert_eq!(mc.stats().forwarded_reads, 1);
        assert_eq!(mc.stats().writes, 1);
    }

    #[test]
    fn queue_rejection_backpressure() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        let full = SchedulerConfig::READ_QUEUE as u64;
        for i in 0..full {
            assert!(mc.try_enqueue(read(i, i * 0x40, 0)).is_ok());
        }
        assert!(mc.try_enqueue(read(full, full * 0x40, 0)).is_err());
        assert_eq!(mc.stats().queue_rejections, 1);
        assert_eq!(mc.pending_reads(), SchedulerConfig::READ_QUEUE);
    }

    #[test]
    fn refresh_blocks_and_recovers() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = true;
        let mut mc = MemoryController::new(cfg);
        let mut done = Vec::new();
        // Run past several tREFI windows with no traffic.
        for _ in 0..50_000 {
            mc.tick(&mut done);
        }
        assert!(mc.stats().refs() >= 4, "refs {}", mc.stats().refs());
        // Requests still complete after refreshes.
        mc.try_enqueue(read(9, 0x40, mc.cycle())).unwrap();
        let done = run_until_done(&mut mc, 50_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn hp_region_uses_fast_timings() {
        // All rows HP: reads complete measurably faster than baseline for
        // row-miss traffic.
        let mut base_cfg = MemConfig::paper_tiny();
        base_cfg.refresh_enabled = false;
        let mut clr_cfg = MemConfig::tiny_clr(1.0);
        clr_cfg.refresh_enabled = false;

        let run = |cfg: MemConfig| {
            let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
            let mut mc = MemoryController::new(cfg);
            // Row-conflict chain in one bank.
            for i in 0..8u64 {
                mc.try_enqueue(read(i, (i % 4) * row_stride, 0)).unwrap();
            }
            let done = run_until_done(&mut mc, 100_000);
            assert_eq!(done.len(), 8);
            done.iter().map(|c| c.finish_cycle).max().unwrap()
        };
        let t_base = run(base_cfg);
        let t_clr = run(clr_cfg);
        assert!(
            (t_clr as f64) < 0.7 * t_base as f64,
            "CLR {} vs baseline {}",
            t_clr,
            t_base
        );
    }

    #[test]
    fn timeout_policy_closes_idle_rows() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        mc.try_enqueue(read(1, 0x0, 0)).unwrap();
        let mut done = Vec::new();
        for _ in 0..2_000 {
            mc.tick(&mut done);
        }
        // Row must have been closed by the 120 ns timeout.
        assert!(mc.banks.iter().all(|b| b.open_row.is_none()));
        assert_eq!(mc.stats().pres(), 1);
    }

    #[test]
    fn interleaved_traffic_spreads_across_banks() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let g = cfg.geometry.clone();
        let mut mc = MemoryController::new(cfg);
        mc.enable_command_log();
        // One line per bank-group/bank combination: consecutive row-sized
        // strides change the row; bank bits sit between row and column
        // under RoBgBaRaCoCh, so stride by row_bytes to walk banks.
        let bank_stride = g.row_bytes();
        for i in 0..16u64 {
            mc.try_enqueue(read(i, i * bank_stride, 0)).unwrap();
        }
        let done = run_until_done(&mut mc, 100_000);
        assert_eq!(done.len(), 16);
        let mut acts_per_bank = vec![0u64; g.banks_total() as usize];
        for c in mc.command_log().unwrap() {
            if c.command == Command::Act {
                acts_per_bank[c.flat_bank] += 1;
            }
        }
        let used = acts_per_bank.iter().filter(|&&c| c > 0).count();
        assert!(used >= 2, "expected multi-bank usage, got {used} banks");
        assert_eq!(acts_per_bank.iter().sum::<u64>(), mc.stats().acts());
    }

    #[test]
    fn closed_page_policy_closes_immediately() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        // Closed-page is the timeout policy with no idle time.
        cfg.scheduler.row_timeout_ns = 0.0;
        let mut mc = MemoryController::new(cfg);
        mc.try_enqueue(read(1, 0x0, 0)).unwrap();
        let mut done = Vec::new();
        for _ in 0..200 {
            mc.tick(&mut done);
        }
        // Closed as soon as tRAS/tRTP allowed, well before the 120 ns
        // timeout equivalent (~144 cycles after the column access).
        assert!(mc.banks.iter().all(|b| b.open_row.is_none()));
        assert_eq!(mc.stats().pres(), 1);
    }

    #[test]
    fn blame_budgets_sum_exactly_to_recorded_latencies() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = true;
        let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
        let mut mc = MemoryController::new(cfg);
        mc.enable_blame();
        // Conflict-heavy mixed traffic so several causes are exercised.
        for i in 0..24u64 {
            let addr = (i % 5) * row_stride + (i % 3) * 0x40;
            let _ = mc.try_enqueue(read(i, addr, 0));
            let _ = mc.try_enqueue(write(100 + i, addr ^ 0x2000, 0));
        }
        let done = run_until_done(&mut mc, 500_000);
        assert!(!done.is_empty());
        let s = mc.stats();
        // The exactness contract: per-cause budgets sum to the latency
        // histograms' sums, cycle for cycle.
        assert_eq!(s.read_blame.total_cycles(), s.read_latency_hist.sum());
        assert_eq!(s.write_blame.total_cycles(), s.write_latency_hist.sum());
        // Every issued read has a nonzero service component.
        assert_eq!(
            s.read_blame.of(WaitCause::Service).count(),
            s.read_latency_hist.count()
        );
        // Queue-heavy traffic attributes real wait cycles, not just
        // service time.
        assert!(s.read_blame.total_cycles() > s.read_blame.of(WaitCause::Service).sum());
    }

    #[test]
    fn blame_is_inert() {
        let run = |blame: bool| {
            let mut cfg = MemConfig::paper_tiny();
            cfg.refresh_enabled = true;
            let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
            let mut mc = MemoryController::new(cfg);
            if blame {
                mc.enable_blame();
            }
            for i in 0..24u64 {
                let _ = mc.try_enqueue(read(i, (i % 5) * row_stride, 0));
                let _ = mc.try_enqueue(write(100 + i, (i % 4) * row_stride + 0x40, 0));
            }
            let done = run_until_done(&mut mc, 500_000);
            (done, mc.stats().clone())
        };
        let (done_off, stats_off) = run(false);
        let (done_on, mut stats_on) = run(true);
        assert_eq!(done_off, done_on);
        // Attribution changes nothing but its own aggregates.
        assert!(!stats_on.read_blame.is_empty());
        stats_on.read_blame.clear();
        stats_on.write_blame.clear();
        assert_eq!(stats_off, stats_on);
    }

    #[test]
    fn mode_of_row_follows_table_prefix_initially() {
        let mc = MemoryController::new(MemConfig::tiny_clr(0.25));
        let rows = mc.config().geometry.rows;
        let hp_rows = (rows as f64 * 0.25).round() as u32;
        for bank in 0..mc.mode_table().banks() as usize {
            assert_eq!(mc.mode_of_row(bank, 0), RowMode::HighPerformance);
            assert_eq!(mc.mode_of_row(bank, hp_rows - 1), RowMode::HighPerformance);
            assert_eq!(mc.mode_of_row(bank, hp_rows), RowMode::MaxCapacity);
        }
        assert!((mc.mode_table().fraction_high_performance() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn applied_transitions_redirect_timing_at_next_act() {
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        mc.enable_command_log();
        mc.try_enqueue(read(1, 0x0, 0)).unwrap();
        let done = run_until_done(&mut mc, 10_000);
        assert_eq!(done.len(), 1);
        // Row 0 starts max-capacity.
        let acts: Vec<_> = mc
            .command_log()
            .unwrap()
            .iter()
            .filter(|c| c.command == Command::Act)
            .cloned()
            .collect();
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].mode, RowMode::MaxCapacity);

        // Promote row 0 of every bank, then re-access: the next ACT must
        // carry the high-performance timing set.
        let changes: Vec<(usize, u32, RowMode)> = (0..mc.mode_table().banks() as usize)
            .map(|b| (b, 0u32, RowMode::HighPerformance))
            .collect();
        let changed = mc.apply_row_modes(&changes, 50);
        assert_eq!(changed, changes.len() as u64);
        assert_eq!(mc.stats().mode_transitions, changed);
        // Let the relocation stall pass and the timeout policy close the
        // open row, so the next access re-activates in the new mode.
        let mut sink = Vec::new();
        for _ in 0..2_000 {
            mc.tick(&mut sink);
        }
        mc.try_enqueue(read(2, 0x0, mc.cycle())).unwrap();
        let done = run_until_done(&mut mc, 10_000);
        assert_eq!(done.len(), 1);
        let acts: Vec<_> = mc
            .command_log()
            .unwrap()
            .iter()
            .filter(|c| c.command == Command::Act)
            .cloned()
            .collect();
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[1].mode, RowMode::HighPerformance);
        // Relocation stalled the queues for the charged cycles.
        assert!(mc.stats().relocation_stall_cycles >= 50);
    }

    #[test]
    fn telemetry_counts_column_accesses_and_drains() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        mc.enable_row_telemetry();
        mc.try_enqueue(read(1, 0x0, 0)).unwrap();
        mc.try_enqueue(read(2, 0x40, 0)).unwrap();
        mc.try_enqueue(write(3, 0x80, 0)).unwrap();
        let _ = run_until_done(&mut mc, 20_000);
        let mut telemetry = Vec::new();
        mc.drain_row_telemetry_into(&mut telemetry);
        let total: u64 = telemetry.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3, "reads + writes that reached the device");
        // Drained: a second export is empty until new traffic arrives.
        mc.drain_row_telemetry_into(&mut telemetry);
        assert!(telemetry.is_empty());
    }

    #[test]
    fn tick_until_matches_per_cycle_stepping() {
        // Mixed read/write burst with refresh on: the skip-ahead walk and
        // the per-cycle walk must agree on every logged command, every
        // completion cycle, and every statistic.
        let requests: Vec<MemRequest> = (0..12)
            .map(|i| {
                let addr = (i * 0x9E37) % 0x4000;
                if i % 3 == 2 {
                    write(i, addr, 0)
                } else {
                    read(i, addr, 0)
                }
            })
            .collect();
        let horizon = 60_000;

        let run = |skip: bool| {
            let mut cfg = MemConfig::tiny_clr(0.25);
            cfg.refresh_enabled = true;
            let mut mc = MemoryController::new(cfg);
            mc.enable_command_log();
            for r in &requests {
                mc.try_enqueue(*r).unwrap();
            }
            let mut done = Vec::new();
            if skip {
                mc.tick_until(horizon, &mut done);
            } else {
                for _ in 0..horizon {
                    mc.tick(&mut done);
                }
            }
            assert_eq!(mc.cycle(), horizon);
            (mc.command_log().unwrap().to_vec(), done, mc.stats().clone())
        };
        let (log_a, done_a, stats_a) = run(false);
        let (log_b, done_b, stats_b) = run(true);
        assert_eq!(log_a, log_b, "command logs diverge");
        assert_eq!(done_a, done_b, "completions diverge");
        assert_eq!(stats_a, stats_b, "statistics diverge");
        assert!(!log_a.is_empty() && !done_a.is_empty());
    }

    #[test]
    fn next_event_cycle_is_max_when_fully_idle() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        assert_eq!(mc.next_event_cycle(), u64::MAX);
        // A queued request creates an immediate event.
        mc.try_enqueue(read(1, 0x40, 0)).unwrap();
        assert_eq!(mc.next_event_cycle(), 0);
        // Serve it; afterwards the only events are the RD-ready cycle,
        // the completion, and the timeout close — all strictly ahead.
        let mut done = Vec::new();
        mc.tick(&mut done);
        let next = mc.next_event_cycle();
        assert!(next > mc.cycle(), "dead window after the ACT");
        // Jumping a fully idle controller is pure accounting.
        let _ = run_until_done(&mut mc, 10_000);
        let cycles_before = mc.cycle();
        let idle_split = mc.stats().rank_active_cycles + mc.stats().rank_precharged_cycles;
        assert_eq!(idle_split, cycles_before);
        mc.tick_until(cycles_before + 5_000, &mut done);
        assert_eq!(mc.cycle(), cycles_before + 5_000);
        let idle_split = mc.stats().rank_active_cycles + mc.stats().rank_precharged_cycles;
        assert_eq!(idle_split, cycles_before + 5_000, "busy/idle accounting");
    }

    #[test]
    fn tick_until_matches_per_cycle_across_mode_transitions() {
        // Apply a relocation-stalled mode-transition batch mid-run in both
        // walks; stall accounting and post-transition ACT modes must agree.
        let run = |skip: bool| {
            let mut cfg = MemConfig::tiny_clr(0.0);
            cfg.refresh_enabled = true;
            let mut mc = MemoryController::new(cfg);
            mc.enable_command_log();
            mc.try_enqueue(read(1, 0x0, 0)).unwrap();
            let mut done = Vec::new();
            let step_to = |mc: &mut MemoryController, done: &mut Vec<Completion>, to: u64| {
                if skip {
                    mc.tick_until(to, done);
                } else {
                    while mc.cycle() < to {
                        mc.tick(done);
                    }
                }
            };
            step_to(&mut mc, &mut done, 3_000);
            let changes: Vec<(usize, u32, RowMode)> = (0..mc.mode_table().banks() as usize)
                .map(|b| (b, 0u32, RowMode::HighPerformance))
                .collect();
            mc.apply_row_modes(&changes, 75);
            step_to(&mut mc, &mut done, 6_000);
            mc.try_enqueue(read(2, 0x0, mc.cycle())).unwrap();
            step_to(&mut mc, &mut done, 20_000);
            (mc.command_log().unwrap().to_vec(), done, mc.stats().clone())
        };
        let (log_a, done_a, stats_a) = run(false);
        let (log_b, done_b, stats_b) = run(true);
        assert_eq!(log_a, log_b);
        assert_eq!(done_a, done_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.relocation_stall_cycles >= 75);
        let acts: Vec<_> = log_a.iter().filter(|c| c.command == Command::Act).collect();
        assert_eq!(acts.last().unwrap().mode, RowMode::HighPerformance);
    }

    #[test]
    fn telemetry_drain_into_reuses_buffer() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg);
        mc.enable_row_telemetry();
        mc.try_enqueue(read(1, 0x0, 0)).unwrap();
        let _ = run_until_done(&mut mc, 10_000);
        let mut buf = Vec::with_capacity(16);
        let cap = buf.capacity();
        mc.drain_row_telemetry_into(&mut buf);
        assert_eq!(buf.iter().map(|&(_, n)| n).sum::<u64>(), 1);
        mc.drain_row_telemetry_into(&mut buf);
        assert!(buf.is_empty(), "second drain is empty");
        assert_eq!(buf.capacity(), cap, "allocation is reused");
    }

    #[test]
    fn background_migration_completes_without_stalling() {
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let mut mc = MemoryController::new(cfg);
        mc.enable_command_log();
        // Promote row 0 of banks 0 and 1 in the background.
        let jobs = mc.begin_row_migrations(&[
            (0, 0, RowMode::HighPerformance),
            (1, 0, RowMode::HighPerformance),
        ]);
        assert_eq!(jobs, 2);
        assert_eq!(mc.pending_migrations(), 2);
        // The mode flips only at each job's couple point.
        assert_eq!(mc.mode_of_row(0, 0), RowMode::MaxCapacity);
        let mut done = Vec::new();
        for _ in 0..20_000 {
            mc.tick(&mut done);
            if mc.pending_migrations() == 0 {
                break;
            }
        }
        assert_eq!(mc.pending_migrations(), 0);
        assert_eq!(mc.mode_of_row(0, 0), RowMode::HighPerformance);
        assert_eq!(mc.mode_of_row(1, 0), RowMode::HighPerformance);
        assert_eq!(mc.stats().mode_transitions, 2);
        assert_eq!(mc.stats().migration_jobs_completed, 2);
        assert_eq!(mc.stats().relocation_stall_cycles, 0, "no stall charged");
        // Each job: 2 ACTs + 2 PREs + a half-row of RDs and of WRs.
        let bursts = mc.config().geometry.row_bytes() / 2 / mc.config().geometry.burst_bytes();
        assert_eq!(mc.stats().migration_reads, 2 * bursts);
        assert_eq!(mc.stats().migration_writes, 2 * bursts);
        // Read-out ACTs the source and write-back ACTs the destination
        // frame — both in max-capacity mode (the source is read in its
        // old mode; the destination is an ordinary MC row).
        assert_eq!(mc.stats().migration_acts_max_capacity, 4);
        assert_eq!(mc.stats().migration_acts_high_performance, 0);
        // Demand counters stayed clean.
        assert_eq!(mc.stats().acts(), 0);
        assert_eq!(mc.stats().reads, 0);
        // Every migration command is tagged in the log and took one
        // command slot; completions drain once.
        let log = mc.command_log().unwrap();
        assert!(log.iter().all(|c| c.migration));
        assert_eq!(mc.stats().migration_slot_cycles, log.len() as u64);
        let mut completed = Vec::new();
        mc.drain_completed_migrations_into(&mut completed);
        assert_eq!(completed.len(), 2);
        mc.drain_completed_migrations_into(&mut completed);
        assert!(completed.is_empty());
    }

    #[test]
    fn migration_blocks_only_the_migrating_bank() {
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let g = cfg.geometry.clone();
        let bank_stride = g.row_bytes();
        let mut mc = MemoryController::new(cfg);
        mc.begin_row_migrations(&[(0, 0, RowMode::HighPerformance)]);
        // Start the job so bank 0 is busy.
        let mut done = Vec::new();
        mc.tick(&mut done);
        // Demand to a *different* bank completes while the job runs.
        mc.try_enqueue(read(1, bank_stride, mc.cycle())).unwrap();
        let before = mc.cycle();
        for _ in 0..10_000 {
            mc.tick(&mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1, "other-bank demand not blocked");
        let t = mc.engine.timings();
        let unblocked_latency = done[0].finish_cycle - before;
        assert!(
            unblocked_latency < (t.max_capacity.rc() + t.cl + t.burst) * 2,
            "latency {unblocked_latency} suggests the whole controller stalled"
        );
        assert!(mc.stats().migration_slot_cycles > 0, "migration overlapped");
    }

    #[test]
    fn background_demotions_flip_immediately() {
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(1.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let mut mc = MemoryController::new(cfg);
        let jobs = mc.begin_row_migrations(&[(0, 3, RowMode::MaxCapacity)]);
        assert_eq!(jobs, 0, "decoupling needs no data movement");
        assert_eq!(mc.mode_of_row(0, 3), RowMode::MaxCapacity);
        assert_eq!(mc.stats().mode_transitions, 1);
        assert_eq!(mc.pending_migrations(), 0);
    }

    #[test]
    fn migration_rate_limiter_spreads_job_starts() {
        use crate::migrate::{MigrationRate, RelocationConfig, RelocationMode};
        let window = 2_000u64;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig {
            mode: RelocationMode::Background,
            rate: Some(MigrationRate {
                window_cycles: window,
                max_starts: 1,
            }),
        };
        let mut mc = MemoryController::new(cfg);
        mc.enable_command_log();
        mc.begin_row_migrations(&[
            (0, 0, RowMode::HighPerformance),
            (1, 0, RowMode::HighPerformance),
            (2, 0, RowMode::HighPerformance),
        ]);
        let mut done = Vec::new();
        for _ in 0..20_000 {
            mc.tick(&mut done);
            if mc.pending_migrations() == 0 {
                break;
            }
        }
        assert_eq!(mc.pending_migrations(), 0);
        // A job's read-out starts with an ACT of the source row; at one
        // start per window, those ACTs land in distinct windows.
        let starts: Vec<u64> = mc
            .command_log()
            .unwrap()
            .iter()
            .filter(|c| c.migration && c.command == Command::Act && c.row == 0)
            .map(|c| c.cycle / window)
            .collect();
        assert_eq!(starts.len(), 3);
        let mut dedup = starts.clone();
        dedup.dedup();
        assert_eq!(dedup, starts, "two job starts shared a rate window");
    }

    #[test]
    fn tick_until_is_bit_identical_with_background_migration() {
        use crate::migrate::RelocationConfig;
        let run = |skip: bool| {
            let mut cfg = MemConfig::tiny_clr(0.0);
            cfg.refresh_enabled = true;
            cfg.relocation = RelocationConfig::background();
            let mut mc = MemoryController::new(cfg);
            mc.enable_command_log();
            mc.try_enqueue(read(1, 0x0, 0)).unwrap();
            mc.try_enqueue(read(2, 0x1000, 0)).unwrap();
            let mut done = Vec::new();
            let step_to = |mc: &mut MemoryController, done: &mut Vec<Completion>, to: u64| {
                if skip {
                    mc.tick_until(to, done);
                } else {
                    while mc.cycle() < to {
                        mc.tick(done);
                    }
                }
            };
            step_to(&mut mc, &mut done, 2_000);
            let changes: Vec<(usize, u32, RowMode)> = (0..mc.mode_table().banks() as usize)
                .map(|b| (b, 0u32, RowMode::HighPerformance))
                .collect();
            mc.begin_row_migrations(&changes);
            step_to(&mut mc, &mut done, 10_000);
            mc.try_enqueue(read(3, 0x0, mc.cycle())).unwrap();
            step_to(&mut mc, &mut done, 60_000);
            (
                mc.command_log().unwrap().to_vec(),
                done,
                mc.stats().clone(),
                mc.pending_migrations(),
            )
        };
        let (log_a, done_a, stats_a, pend_a) = run(false);
        let (log_b, done_b, stats_b, pend_b) = run(true);
        assert_eq!(log_a, log_b, "command logs diverge");
        assert_eq!(done_a, done_b, "completions diverge");
        assert_eq!(stats_a, stats_b, "statistics diverge");
        assert_eq!(pend_a, pend_b);
        assert_eq!(pend_a, 0, "all jobs completed in the horizon");
        assert!(stats_a.migration_jobs_completed > 0);
        assert!(log_a.iter().any(|c| c.migration));
        assert!(log_a.iter().any(|c| !c.migration));
    }

    #[test]
    fn writeback_waiting_for_a_drain_episode_is_jumped() {
        // A same-bank coupling past its couple point holds its write-back
        // ACT for a write-drain episode. Reads to other banks keep the
        // queue busy without ever draining writes, so the ACT waits
        // until they are served. The wait is a gate, not an event: the
        // skip-ahead walk must jump it (the bound leaves the gated ACT
        // out) instead of ticking every cycle, and stay bit-identical to
        // per-cycle stepping.
        use crate::migrate::RelocationConfig;
        let run = |skip: bool| {
            let mut cfg = MemConfig::tiny_clr(0.0);
            cfg.refresh_enabled = false;
            cfg.relocation = RelocationConfig::background();
            let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
            let bank_stride = cfg.geometry.row_bytes();
            let mut mc = MemoryController::new(cfg);
            mc.enable_command_log();
            assert_eq!(
                mc.begin_row_migrations(&[(0, 0, RowMode::HighPerformance)]),
                1
            );
            let mut done = Vec::new();
            while !mc.migration.pending_writeback_act(0) {
                mc.tick(&mut done);
            }
            // Row conflicts on banks 1..4 keep the read queue busy.
            for i in 0..24u64 {
                let addr = (i % 6) * row_stride + (1 + i % 3) * bank_stride;
                mc.try_enqueue(read(i, addr, mc.cycle())).unwrap();
            }
            let (start, ticked) = (mc.cycle(), mc.skip_profile().ticked_cycles);
            while mc.pending_reads() > 0 {
                assert!(mc.migration.pending_writeback_act(0), "the ACT waits");
                if skip {
                    mc.tick_until(mc.cycle() + 1, &mut done);
                } else {
                    mc.tick(&mut done);
                }
            }
            let waited = mc.cycle() - start;
            let wait_ticks = mc.skip_profile().ticked_cycles - ticked;
            mc.tick_until(mc.cycle() + 5_000, &mut done);
            assert_eq!(mc.pending_migrations(), 0, "the drained gate let it finish");
            let log = mc.command_log().unwrap().to_vec();
            (log, done, mc.stats().clone(), waited, wait_ticks)
        };
        let (log_a, done_a, stats_a, waited, per_cycle_ticks) = run(false);
        let (log_b, done_b, stats_b, waited_b, skip_ticks) = run(true);
        assert_eq!(log_a, log_b, "command logs diverge");
        assert_eq!(done_a, done_b, "completions diverge");
        assert_eq!(stats_a, stats_b, "statistics diverge");
        assert_eq!(waited, waited_b);
        assert_eq!(per_cycle_ticks, waited);
        // About 200 waiting cycles: a bound that prices the gated ACT as
        // ready ticks 192 of them, the gated bound 80.
        assert!(waited > 150, "the reads held the ACT for {waited} cycles");
        assert!(
            skip_ticks * 2 < waited,
            "{skip_ticks} of {waited} waiting cycles ticked"
        );
    }

    #[test]
    fn an_enqueue_that_starts_a_drain_opens_the_writeback_gate() {
        // The write-back gate reads the drain state a tick would settle,
        // so a query between an enqueue and the next tick (the run
        // loop's completion bound) sees the drain the enqueue started.
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
        let bank_stride = cfg.geometry.row_bytes();
        let mut mc = MemoryController::new(cfg);
        mc.begin_row_migrations(&[(0, 0, RowMode::HighPerformance)]);
        let mut done = Vec::new();
        while !mc.migration.pending_writeback_act(0) {
            mc.tick(&mut done);
        }
        for i in 0..8u64 {
            let addr = (i % 4) * row_stride + bank_stride;
            mc.try_enqueue(read(i, addr, mc.cycle())).unwrap();
        }
        mc.tick_until(mc.cycle() + 40, &mut done);
        let now = mc.cycle();
        assert!(mc.pending_reads() > 0);
        assert!(mc.migration_next(now, true, u64::MAX).is_err(), "gated");
        for i in 0..SchedulerConfig::WRITE_HIGH_WATERMARK as u64 {
            let addr = (2 + i % 8) * bank_stride + (4 + i / 8) * row_stride;
            mc.try_enqueue(write(100 + i, addr, now)).unwrap();
        }
        let (bank, nc) = mc
            .migration_next(now, true, u64::MAX)
            .expect("drain opens it");
        assert_eq!((bank, nc.command), (0, Command::Act));
        assert_eq!(mc.next_event_cycle(), now);
    }

    #[test]
    fn a_drain_start_without_a_queue_flip_keeps_the_memo_exact() {
        // With no read queued the write queue is selected already, so the
        // write that reaches the high watermark starts a drain without
        // flipping the selection. The drain opens a same-bank coupling's
        // write-back gate; with the queued writes held far off (a row
        // conflict on a bank whose row was just opened), the ungated ACT
        // becomes the bound, and a memo kept across the enqueue would miss
        // it. The run loop queries the bound after every enqueue.
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
        let bank_stride = cfg.geometry.row_bytes();
        let mut mc = MemoryController::new(cfg);
        mc.begin_row_migrations(&[(0, 0, RowMode::HighPerformance)]);
        let mut done = Vec::new();
        while !mc.migration.pending_writeback_act(0) {
            mc.tick(&mut done);
        }
        // Open row 1 of bank 1 with one served write.
        mc.try_enqueue(write(0, row_stride + bank_stride, mc.cycle()))
            .unwrap();
        while mc.pending_writes() > 0 {
            mc.tick(&mut done);
        }
        assert!(mc.migration.pending_writeback_act(0), "the ACT still waits");
        let now = mc.cycle();
        for i in 1..=SchedulerConfig::WRITE_HIGH_WATERMARK as u64 {
            mc.try_enqueue(write(i, 2 * row_stride + bank_stride, now))
                .unwrap();
            mc.assert_memo_exact(&format!("write {i}"));
            mc.next_event_cycle();
        }
        assert!(mc.drains_at(mc.pending_writes()), "a drain started");
        assert_eq!(mc.pending_reads(), 0);
    }

    #[test]
    fn a_read_hit_on_a_held_read_out_row_joins_the_memo() {
        // After a coupling's last read-out burst its next command is the
        // read-out PRE, which tRTP holds later than the next RD could
        // issue. A held bank still serves a read hit to its read-out row,
        // so such a read enqueued then is an earlier candidate than the
        // migration's PRE, and the memo must take it in.
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
        let mut mc = MemoryController::new(cfg);
        mc.begin_row_migrations(&[(0, 0, RowMode::HighPerformance)]);
        let mut done = Vec::new();
        let next_is_pre = |mc: &MemoryController| {
            let open = mc.banks[0].open_row.map(|r| (r, mc.banks[0].open_mode));
            mc.migration
                .next_command(0, open)
                .is_some_and(|nc| nc.command == Command::Pre)
        };
        while !(mc.migration.is_mid_phase(0) && next_is_pre(&mc)) {
            mc.tick(&mut done);
        }
        // A row conflict on the held bank keeps the queue non-empty
        // without a priced candidate.
        mc.try_enqueue(read(0, row_stride, mc.cycle())).unwrap();
        let pre_at = mc.next_event_cycle();
        mc.try_enqueue(read(1, 0, mc.cycle())).unwrap();
        mc.assert_memo_exact("read hit on the held read-out row");
        assert!(
            mc.next_event_cycle() < pre_at,
            "the read hit is the bound, ahead of the PRE at {pre_at}"
        );
    }

    #[test]
    fn cross_bank_placement_overlaps_read_out_and_write_back() {
        use crate::frames::DestinationPicker;
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        cfg.placement = DestinationPicker::CrossBank;
        let mut mc = MemoryController::new(cfg);
        mc.enable_command_log();
        let jobs = mc.begin_row_migrations(&[(0, 0, RowMode::HighPerformance)]);
        assert_eq!(jobs, 1);
        let mut done = Vec::new();
        for _ in 0..20_000 {
            mc.tick(&mut done);
            if mc.pending_migrations() == 0 {
                break;
            }
        }
        assert_eq!(mc.pending_migrations(), 0);
        assert_eq!(mc.mode_of_row(0, 0), RowMode::HighPerformance);
        assert_eq!(mc.stats().migration_jobs_completed, 1);
        assert_eq!(mc.stats().migration_cross_bank_jobs, 1);
        // The destination frame was activated in *another* bank while the
        // source bank's read-out was still open — concurrent activity of
        // both banks within one job.
        let log = mc.command_log().unwrap();
        let src_act = log
            .iter()
            .find(|c| c.migration && c.command == Command::Act && c.flat_bank == 0)
            .expect("source ACT");
        let dest_act = log
            .iter()
            .find(|c| c.migration && c.command == Command::Act && c.flat_bank != 0)
            .expect("destination ACT in a different bank");
        let src_pre = log
            .iter()
            .find(|c| c.migration && c.command == Command::Pre && c.flat_bank == 0)
            .expect("source PRE");
        assert!(
            src_act.cycle < dest_act.cycle && dest_act.cycle < src_pre.cycle,
            "destination ACT at {} must land inside the source's open window [{}, {}]",
            dest_act.cycle,
            src_act.cycle,
            src_pre.cycle
        );
        // The displaced half-row moved in full, once out and once in.
        let bursts = mc.config().geometry.row_bytes() / 2 / mc.config().geometry.burst_bytes();
        assert_eq!(mc.stats().migration_reads, bursts);
        assert_eq!(mc.stats().migration_writes, bursts);
    }

    #[test]
    fn tick_until_is_bit_identical_with_cross_bank_placement() {
        use crate::frames::DestinationPicker;
        use crate::migrate::RelocationConfig;
        let run = |skip: bool| {
            let mut cfg = MemConfig::tiny_clr(0.0);
            cfg.refresh_enabled = true;
            cfg.relocation = RelocationConfig::background();
            cfg.placement = DestinationPicker::CrossBank;
            let mut mc = MemoryController::new(cfg);
            mc.enable_command_log();
            let categories = clr_obs::CategorySet::none().with(TraceCategory::Migration);
            mc.enable_tracing(
                &TraceConfig {
                    categories,
                    capacity: 1 << 16,
                },
                0,
            );
            mc.try_enqueue(read(1, 0x0, 0)).unwrap();
            mc.try_enqueue(read(2, 0x1000, 0)).unwrap();
            let mut done = Vec::new();
            let step_to = |mc: &mut MemoryController, done: &mut Vec<Completion>, to: u64| {
                if skip {
                    mc.tick_until(to, done);
                } else {
                    while mc.cycle() < to {
                        mc.tick(done);
                    }
                }
            };
            step_to(&mut mc, &mut done, 2_000);
            let changes: Vec<(usize, u32, RowMode)> = (0..mc.mode_table().banks() as usize)
                .map(|b| (b, 0u32, RowMode::HighPerformance))
                .collect();
            mc.begin_row_migrations(&changes);
            step_to(&mut mc, &mut done, 10_000);
            mc.try_enqueue(read(3, 0x0, mc.cycle())).unwrap();
            step_to(&mut mc, &mut done, 60_000);
            let trace = mc.trace_sink_mut().unwrap().drain();
            (
                mc.command_log().unwrap().to_vec(),
                done,
                mc.stats().clone(),
                mc.pending_migrations(),
                trace,
            )
        };
        let (log_a, done_a, stats_a, pend_a, trace_a) = run(false);
        let (log_b, done_b, stats_b, pend_b, trace_b) = run(true);
        assert_eq!(log_a, log_b, "command logs diverge");
        assert_eq!(done_a, done_b, "completions diverge");
        assert_eq!(stats_a, stats_b, "statistics diverge");
        assert_eq!(pend_a, pend_b);
        assert_eq!(pend_a, 0, "all jobs completed in the horizon");
        assert!(stats_a.migration_cross_bank_jobs > 0, "cross-bank jobs ran");
        // The migration spans and couple points (name, bank, row, start
        // cycle, duration), identical across walks and pinned.
        assert_eq!(trace_a, trace_b, "migration traces diverge");
        let hash = trace_a.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
            let text = format!("{} {} {} {:?};", e.name, e.ts, e.dur, e.args);
            text.bytes()
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
        assert_eq!((trace_a.len(), hash), (8, 0xc740_8ea3_1bef_35bc));
    }

    #[test]
    fn evacuation_and_fill_run_as_background_traffic() {
        use crate::migrate::RelocationConfig;
        let mut cfg = MemConfig::tiny_clr(0.0);
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let mut mc = MemoryController::new(cfg);
        // The fill half of a cross-channel move: the frame is reserved
        // when the move is scheduled and adopted by the fill job.
        let (bank, row) = mc.reserve_import_frame(2).expect("a free frame");
        assert!(mc.is_row_migrating(bank, row), "frame reserved");
        assert!(mc.begin_fill(bank, row));
        let mut done = Vec::new();
        for _ in 0..30_000 {
            mc.tick(&mut done);
            if mc.pending_migrations() == 0 {
                break;
            }
        }
        assert_eq!(mc.pending_migrations(), 0);
        assert_eq!(mc.stats().migration_fills, 1);
        assert_eq!(mc.migration_jobs_dispatched(), 1);
        assert_jobs_accounted(&mc, "after the fill");
        assert!(
            !mc.is_row_migrating(bank, row),
            "fill released the reservation"
        );
        let full_row = mc.config().geometry.row_bytes() / mc.config().geometry.burst_bytes();
        assert_eq!(mc.stats().migration_reads, 0, "a fill reads nothing");
        assert_eq!(
            mc.stats().migration_writes,
            full_row,
            "one full row written"
        );
    }

    #[test]
    fn bank_sets_match_a_rescan_under_fuzzed_traffic() {
        // Fuzzed reads and writes on 16 banks with background migration
        // (same-bank and cross-bank placement), refresh and the timeout
        // row policy on: after every `tick` and `tick_until` the
        // open-row set and the migration-work set must equal a rescan.
        // A set next-event memo must equal a from-scratch bound after
        // every enqueue, `tick` and `tick_until`; the walk also queries
        // the bound between enqueues and ticks, as the run loop does, and
        // must stay bit-identical to a per-cycle twin. Every dispatched
        // job stays accounted for.
        use crate::frames::DestinationPicker;
        use crate::migrate::RelocationConfig;
        let check = |mc: &mut MemoryController, step: usize| {
            mc.assert_memo_exact(&format!("step {step}"));
            assert_jobs_accounted(mc, &format!("step {step}"));
            let banks = 0..mc.banks.len();
            let open: Vec<usize> = banks
                .clone()
                .filter(|&b| mc.banks[b].open_row.is_some())
                .collect();
            assert_eq!(
                mc.open_banks.iter().collect::<Vec<_>>(),
                open,
                "step {step}"
            );
            let mut work: Vec<usize> = mc.migration.banks_with_work().collect();
            work.sort_unstable();
            let rescan: Vec<usize> = banks.filter(|&b| mc.migration.bank_has_work(b)).collect();
            assert_eq!(work, rescan, "step {step}");
        };
        // The last run also sends demand to rows 32..40, the same-bank
        // destination frames of couplings of rows 0..8.
        for (placement, frame_demand) in [
            (DestinationPicker::SameBank, false),
            (DestinationPicker::CrossBank, false),
            (DestinationPicker::SameBank, true),
        ] {
            let mut cfg = MemConfig::tiny_clr(0.0);
            cfg.refresh_enabled = true;
            cfg.relocation = RelocationConfig::background();
            cfg.placement = placement;
            cfg.geometry.bank_groups = 4;
            cfg.geometry.banks_per_group = 4;
            let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
            let bank_stride = cfg.geometry.row_bytes();
            let mut mc = MemoryController::new(cfg.clone());
            let mut twin = MemoryController::new(cfg);
            mc.enable_command_log();
            twin.enable_command_log();
            let banks = mc.banks.len();
            let mut state = 0xB4C5_E75E_0F0D_D1E5u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let (mut done, mut twin_done) = (Vec::new(), Vec::new());
            for step in 0..3_000 {
                for id in 0..rng() % 3 {
                    let row = rng() % 8
                        + if frame_demand && rng() % 4 == 0 {
                            32
                        } else {
                            0
                        };
                    let addr =
                        row * row_stride + (rng() % banks as u64) * bank_stride + (rng() % 4) * 64;
                    let req = MemRequest::new(id, PhysAddr(addr), RequestKind::Read, mc.cycle());
                    let req = if rng() % 3 == 0 {
                        MemRequest {
                            kind: RequestKind::Write,
                            ..req
                        }
                    } else {
                        req
                    };
                    let _ = mc.try_enqueue(req);
                    let _ = twin.try_enqueue(req);
                    mc.assert_memo_exact(&format!("step {step} enqueue"));
                }
                if rng() % 4 == 0 {
                    mc.next_event_cycle();
                }
                if step % 200 == 0 {
                    let changes: Vec<(usize, u32, RowMode)> = (0..3)
                        .map(|_| {
                            let bank = (rng() % banks as u64) as usize;
                            (bank, (rng() % 8) as u32, RowMode::HighPerformance)
                        })
                        .collect();
                    mc.begin_row_migrations(&changes);
                    twin.begin_row_migrations(&changes);
                }
                if rng() % 2 == 0 {
                    mc.tick(&mut done);
                } else {
                    let to = mc.cycle() + 1 + rng() % 48;
                    mc.tick_until(to, &mut done);
                }
                while twin.cycle() < mc.cycle() {
                    twin.tick(&mut twin_done);
                }
                check(&mut mc, step);
            }
            assert_eq!(mc.command_log(), twin.command_log(), "{placement:?}");
            assert_eq!(done, twin_done, "{placement:?}");
            assert_eq!(mc.stats(), twin.stats(), "{placement:?}");
            let s = mc.stats();
            assert!(s.migration_jobs_completed > 0, "{placement:?}: jobs ran");
            assert!(s.refs() > 0 && s.pres() > 0 && !done.is_empty());
        }
    }

    #[test]
    fn lazy_blame_matches_the_eager_walk_under_fuzzed_traffic() {
        // Fuzzed reads and writes on 16 banks with blame on: load phases
        // push the write queue across the drain watermarks, refresh is
        // on, a stall-mode mode application opens a stall window
        // mid-run, and background migration runs with same-bank and
        // cross-bank placement. Demand also targets the destination
        // frames, and one phase keeps it off the source banks so jobs
        // start while their destination banks serve it. After every
        // blame boundary — enqueue, state-changing tick, mode
        // application, dispatch — each queued entry's frozen cause must
        // equal the eager walk's, and after every enqueue and tick a set
        // next-event memo must equal a from-scratch bound.
        use crate::frames::DestinationPicker;
        use crate::migrate::RelocationConfig;
        let check = |mc: &MemoryController, seen: &mut u64, step: usize, what: &str| {
            if mc.blame_boundaries == *seen {
                return;
            }
            *seen = mc.blame_boundaries;
            // A tick's boundary ran before it advanced the clock.
            let at = mc.cycle - u64::from(what == "tick");
            let (reads, writes) = mc.eager_causes(at);
            let lazy = |q: &[QueueEntry]| q.iter().map(|e| e.blame.cause).collect::<Vec<_>>();
            assert_eq!(lazy(&mc.read_q), reads, "reads: step {step}, {what} @ {at}");
            assert_eq!(
                lazy(&mc.write_q),
                writes,
                "writes: step {step}, {what} @ {at}"
            );
        };
        for placement in [DestinationPicker::SameBank, DestinationPicker::CrossBank] {
            let mut cfg = MemConfig::tiny_clr(0.0);
            cfg.refresh_enabled = true;
            cfg.relocation = RelocationConfig::background();
            cfg.placement = placement;
            cfg.geometry.bank_groups = 4;
            cfg.geometry.banks_per_group = 4;
            let row_stride = cfg.geometry.capacity_bytes() / cfg.geometry.rows as u64;
            let bank_stride = cfg.geometry.row_bytes();
            let mut mc = MemoryController::new(cfg);
            mc.enable_blame();
            let banks = mc.banks.len() as u64;
            let mut state = 0x5EED_B1A3_E0A6_E41Eu64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut done = Vec::new();
            let (mut seen, mut id) = (0, 0);
            let steps = 36_000;
            for step in 0..steps + 4_000 {
                // Heavy phases saturate both queues (writes drain only
                // past the high watermark), light ones let them empty,
                // and destination phases send demand only to rows 32..40
                // of banks 8..16, where couplings of rows 0..8 on banks
                // 0..8 land their frames.
                let phase = (step / 2_000) % 3;
                let arrivals = match phase {
                    _ if step >= steps => 0,
                    0 => rng() % 3,
                    1 => u64::from(rng() % 8 == 0),
                    _ => rng() % 2,
                };
                for _ in 0..arrivals {
                    // Hot rows 0..8, or rows 32..40 where their
                    // destination frames land.
                    let (row, bank) = if phase == 2 {
                        (rng() % 8 + 32, banks / 2 + rng() % (banks / 2))
                    } else {
                        (
                            rng() % 8 + if rng() % 4 == 0 { 32 } else { 0 },
                            rng() % banks,
                        )
                    };
                    let addr = row * row_stride + bank * bank_stride + (rng() % 4) * 64;
                    let kind = if rng() % 3 == 0 {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    // Some arrivals retried after a full queue.
                    let arrival = mc.cycle().saturating_sub(rng() % 4);
                    id += 1;
                    let _ = mc.try_enqueue(MemRequest::new(id, PhysAddr(addr), kind, arrival));
                    check(&mc, &mut seen, step, "enqueue");
                    mc.assert_memo_exact(&format!("{placement:?} step {step} enqueue"));
                }
                if step % if phase == 2 { 100 } else { 400 } == 0 && step < steps {
                    // Promote hot rows (couplings) and demote others
                    // (immediate flips).
                    let changes: Vec<(usize, u32, RowMode)> = (0..4)
                        .map(|k| {
                            let bank =
                                (rng() % if phase == 2 { banks / 2 } else { banks }) as usize;
                            let mode = if k < 3 {
                                RowMode::HighPerformance
                            } else {
                                RowMode::MaxCapacity
                            };
                            (bank, (rng() % 8) as u32, mode)
                        })
                        .collect();
                    mc.begin_row_migrations(&changes);
                    check(&mc, &mut seen, step, "dispatch");
                }
                if step == steps / 2 {
                    let bank = (rng() % banks) as usize;
                    let changed = mc.apply_row_modes(
                        &[
                            (bank, 56, RowMode::HighPerformance),
                            (bank, 57, RowMode::HighPerformance),
                        ],
                        600,
                    );
                    assert_eq!(changed, 2);
                    check(&mc, &mut seen, step, "mode application");
                }
                mc.tick(&mut done);
                check(&mc, &mut seen, step, "tick");
                mc.assert_memo_exact(&format!("{placement:?} step {step}"));
            }
            assert!(
                mc.blame_boundaries > 10_000,
                "{placement:?}: boundaries checked"
            );
            let s = mc.stats();
            assert_eq!(s.read_blame.total_cycles(), s.read_latency_hist.sum());
            assert_eq!(s.write_blame.total_cycles(), s.write_latency_hist.sum());
            for cause in WaitCause::ALL {
                let charged = s.read_blame.of(cause).count() + s.write_blame.of(cause).count();
                assert!(charged > 0, "{placement:?}: nothing charged to {cause:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the 64-bank limit")]
    fn new_rejects_more_banks_per_channel_than_a_bank_set_holds() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.geometry.bank_groups = 16;
        cfg.geometry.banks_per_group = 8;
        cfg.geometry
            .validate()
            .expect("128 banks is a valid geometry");
        let _ = MemoryController::new(cfg);
    }

    #[test]
    fn heterogeneous_refresh_issues_two_stream_kinds() {
        let mut cfg = MemConfig::tiny_clr(0.5);
        cfg.refresh_enabled = true;
        let mut mc = MemoryController::new(cfg);
        let mut done = Vec::new();
        for _ in 0..200_000 {
            mc.tick(&mut done);
        }
        assert!(mc.stats().refs_max_capacity > 0);
        assert!(mc.stats().refs_high_performance > 0);
    }
}
