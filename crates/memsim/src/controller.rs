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
//! accounting move), so it can be jumped over:
//!
//! * [`MemoryController::next_event_cycle`] computes the earliest cycle
//!   at which *anything* can happen — the minimum over (1) the next
//!   in-flight read completion, (2) the next refresh due time (or, while
//!   a refresh is pending, the cycle its next PRE/REF becomes issuable),
//!   (3) the relocation-stall expiry, (4) the earliest cycle any queued
//!   request's next service command satisfies the timing engine, (5) the
//!   earliest timeout-policy row close, and (6) the earliest issuable
//!   background-migration command (job starts, phase bursts,
//!   rate-limiter windows — see [`crate::migrate`]). Everything it reads
//!   is constant across a dead window, so the bound is exact, not
//!   heuristic.
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
//! busy/idle accounting, the timeout close and its bound, refresh's
//! PRE-out, the migration serve pass in its round-robin order and the
//! migration bound walk these sets, and per-bank counts answer whether
//! demand waits on a bank's open or migrating row. The FR-FCFS-Cap pass
//! ([`scheduler::pick_cached`]) prices the banks with queued demand once
//! and returns the decision together with the exact queue bound.
//!
//! [`tick`]: MemoryController::tick

use std::cell::Cell;
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
use crate::config::{ClrModeConfig, MemConfig};
use crate::cycletimings::CycleTimings;
use crate::engine::{Target, TimingEngine};
use crate::frames::FrameDirectory;
use crate::migrate::{MigrationEngine, MigrationStep, PlacementEvent};
use crate::refresh::RefreshScheduler;
use crate::request::{Completion, MemRequest, RequestKind};
use crate::scheduler::{self, Decision, LaneCache, QueueEntry, RowWatch};
use crate::stats::MemStats;

/// Sentinel row for an empty per-bank mode-cache slot (no real row index
/// reaches `u32::MAX`).
const MODE_CACHE_EMPTY: u32 = u32::MAX;

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
    pending_refresh: Option<(RowMode, u64)>,
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
    timeout_cycles: Option<u64>,
    addr_mask: u64,
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
    /// Memoized raw next-event bound (unclamped). Controller state only
    /// changes at event ticks, on enqueue, and on mode application — the
    /// only places that clear this — so dead ticks, dead-window jumps,
    /// and repeated queries all reuse one evaluation. A dead tick
    /// re-fills it almost for free from the scheduling pass it already
    /// ran (see `queue_ready_hint`).
    next_event_cache: Option<u64>,
    /// The queue's next-ready bound produced as a byproduct of this
    /// tick's failed scheduling pass (`u64::MAX` otherwise). Only
    /// meaningful within the tick that set it.
    queue_ready_hint: u64,
    /// Per-bank one-entry cache of the last `(row, mode)` lookup, keyed on
    /// the row — repeated resolutions against an open row (enqueue-time
    /// target classification, per-ACT resolution of row-hit streams) skip
    /// the bitmap walk. Invalidated whenever `apply_row_modes` touches the
    /// bank.
    mode_cache: Vec<Cell<(u32, RowMode)>>,
    /// Structured event-trace sink (off by default; see
    /// [`MemoryController::enable_tracing`]). Purely observational:
    /// recording never changes a simulated outcome.
    trace: Option<Box<TraceSink>>,
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
            let mc_rfc = engine.timings().max_capacity.rfc;
            let hp_rfc = engine.timings().high_performance.rfc;
            RefreshScheduler::new(&plan, config.interface.t_ck_ns, |m| match m {
                RowMode::MaxCapacity => mc_rfc,
                RowMode::HighPerformance => hp_rfc,
            })
        } else {
            RefreshScheduler::disabled()
        };

        let timeout_cycles = config
            .scheduler
            .row_policy
            .idle_threshold_ns()
            .map(|ns| config.interface.ns_to_cycles(ns));
        let mut modes = ModeTable::new(g);
        // Initial layout: the paper's contiguous low-row prefix. A policy
        // runtime may rewrite this at any epoch via `apply_row_modes`.
        modes.set_fraction_high_performance(fraction_hp);
        let addr_mask = g.capacity_bytes() - 1;

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
            read_q: Vec::with_capacity(config.scheduler.read_queue),
            write_q: Vec::with_capacity(config.scheduler.write_queue),
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
            queue_ready_hint: u64::MAX,
            mode_cache: vec![Cell::new((MODE_CACHE_EMPTY, RowMode::MaxCapacity)); banks_total],
            trace: None,
            skip_profile: SkipProfile::default(),
            next_event_source: EventSource::Completion,
            blame_enabled: false,
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
    /// cause and a resume cycle, re-derived only at the boundaries every
    /// walk executes identically (enqueues, state-changing ticks, mode
    /// applications, migration dispatches) — dead cycles and dead-window
    /// jumps charge nothing at the time they elapse, so per-cycle,
    /// skip-ahead, and threaded walks charge identical budgets.
    pub fn enable_blame(&mut self) {
        self.blame_enabled = true;
    }

    /// Whether wait-cause attribution is on.
    pub fn blame_enabled(&self) -> bool {
        self.blame_enabled
    }

    /// The wait cause `entry` is blocked on right now — the mutually
    /// exclusive taxonomy, priority top to bottom. `preempted` carries a
    /// queue-global preemption (pending refresh or relocation stall);
    /// `deselected` flags that the drain policy is servicing the other
    /// queue this window. An associated function over disjoint field
    /// borrows so [`MemoryController::reblame_queues`] can hold the
    /// queues mutably while deriving causes.
    #[allow(clippy::too_many_arguments)]
    fn cause_of(
        banks: &[BankState],
        engine: &TimingEngine,
        migration: &MigrationEngine,
        entry: &QueueEntry,
        now: u64,
        preempted: Option<WaitCause>,
        deselected: bool,
    ) -> WaitCause {
        if let Some(cause) = preempted {
            return cause;
        }
        if deselected {
            return WaitCause::WriteDrain;
        }
        let bank = entry.target.bank;
        let row = entry.decoded.row;
        // Mirrors the scheduler's exclusion rules: a held bank blocks
        // everything; a migrating row blocks writes always and reads
        // unless the read-out source still sits intact in the row
        // buffer.
        let is_read = entry.request.kind == RequestKind::Read;
        if migration.is_mid_phase(bank)
            || (migration.blocked_row(bank) == Some(row)
                && !(is_read && migration.read_ok_rows()[bank] == row))
        {
            return WaitCause::MigrationBlock;
        }
        // The entry's next command, exactly as `note_enqueue_event`
        // derives it for the event bound.
        let (cmd, target) = match banks[bank].open_row {
            Some(open) if open == row => (scheduler::column_command(entry), entry.target),
            Some(_) => (
                Command::Pre,
                Target {
                    mode: banks[bank].open_mode,
                    ..entry.target
                },
            ),
            None => (Command::Act, entry.target),
        };
        let full = engine.earliest(cmd, target);
        if full <= now {
            // The command is issuable; the request lost FR-FCFS-Cap
            // arbitration (or the single command-bus slot) to another.
            return WaitCause::Aging;
        }
        if engine.bank_gate(cmd, bank) >= full {
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
        }
    }

    /// The blame boundary step: settles every queued request's span
    /// since its last boundary on its frozen cause, then re-freezes the
    /// cause from the current state. Called only where every walk of the
    /// same simulation executes identically — successful enqueues,
    /// state-changing ticks, mode applications, and migration
    /// dispatches — so the settled spans (and hence the final budgets)
    /// are bit-identical across per-cycle, skip-ahead, and threaded
    /// walks.
    fn reblame_queues(&mut self) {
        if !self.blame_enabled || (self.read_q.is_empty() && self.write_q.is_empty()) {
            return;
        }
        let now = self.cycle;
        let preempted = if self.pending_refresh.is_some() {
            Some(WaitCause::Refresh)
        } else if now < self.maintenance_until {
            Some(WaitCause::RelocationStall)
        } else {
            None
        };
        let use_writes = self.queue_selection(self.read_q.len(), self.write_q.len());
        let MemoryController {
            ref mut read_q,
            ref mut write_q,
            ref banks,
            ref engine,
            ref migration,
            ..
        } = *self;
        for e in read_q.iter_mut() {
            let c = Self::cause_of(banks, engine, migration, e, now, preempted, use_writes);
            e.blame.settle(now, c);
        }
        for e in write_q.iter_mut() {
            let c = Self::cause_of(banks, engine, migration, e, now, preempted, !use_writes);
            e.blame.settle(now, c);
        }
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
    /// [`ModeTable`] through the per-bank single-entry cache (row-hit
    /// streams resolve the same open row repeatedly).
    ///
    /// # Panics
    ///
    /// Panics if `flat_bank` or `row` is out of range.
    pub fn mode_of_row(&self, flat_bank: usize, row: u32) -> RowMode {
        Self::cached_mode(&self.modes, &self.mode_cache, flat_bank, row)
    }

    /// The cache-backed mode lookup, as an associated function so callers
    /// holding disjoint field borrows of the controller can use it.
    fn cached_mode(
        modes: &ModeTable,
        cache: &[Cell<(u32, RowMode)>],
        flat_bank: usize,
        row: u32,
    ) -> RowMode {
        let (cached_row, cached_mode) = cache[flat_bank].get();
        if cached_row == row {
            return cached_mode;
        }
        let mode = modes.mode_of(flat_bank, row);
        cache[flat_bank].set((row, mode));
        mode
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
            // Any touched bank's cached lookup may now be stale.
            self.mode_cache[bank].set((MODE_CACHE_EMPTY, RowMode::MaxCapacity));
        }
        if changed > 0 {
            self.stats.mode_transitions += changed;
            self.maintenance_until = self.maintenance_until.max(self.cycle) + stall_cycles;
            self.retune_refresh();
            self.next_event_cache = None;
            // The stall window opening is a blame boundary: queued
            // requests charge RelocationStall from here, not from the
            // next state-changing tick.
            self.reblame_queues();
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
                    self.mode_cache[bank].set((MODE_CACHE_EMPTY, RowMode::MaxCapacity));
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
            self.next_event_cache = None;
            self.reblame_queues();
        }
        jobs
    }

    /// Picks the destination frame for a coupling's displaced half-row
    /// under the configured [`DestinationPicker`]. Same-bank placement is
    /// the legacy scan: a max-capacity row of the same bank with no
    /// pending migration role, scanned deterministically from half a
    /// bank away (so destinations land far from the contiguous fast-row
    /// prefix). Cross-bank placement prefers a frame in another bank —
    /// known-free directory frames first, then the same deterministic
    /// scan — falling back to the same-bank scan on single-bank
    /// geometries. `None` when no frame exists anywhere — the coupling
    /// is then impossible and skipped, exactly as an OS with no free
    /// frame would decline it.
    fn pick_migration_dest(&mut self, bank: usize, row: u32) -> Option<(usize, u32)> {
        if self.config.placement.is_cross_bank() {
            if let Some(hit) = self.pick_cross_bank_dest(bank, row) {
                return Some(hit);
            }
        }
        let rows = self.config.geometry.rows;
        (0..rows)
            .map(|k| (row + rows / 2 + k) % rows)
            .find(|&cand| {
                cand != row
                    && self.modes.mode_of(bank, cand) == RowMode::MaxCapacity
                    && !self.migration.is_row_pending(bank, cand)
            })
            .map(|r| (bank, r))
    }

    /// The cross-bank destination scan: rotate over the other banks
    /// (starting opposite the source, advanced by a cursor so
    /// consecutive couplings spread), preferring each bank's known-free
    /// frames before its deterministic row scan.
    fn pick_cross_bank_dest(&mut self, bank: usize, row: u32) -> Option<(usize, u32)> {
        let banks = self.banks.len();
        if banks < 2 {
            return None;
        }
        let rows = self.config.geometry.rows;
        let start = bank + banks / 2 + self.dest_cursor;
        for k in 0..banks {
            let cand_bank = (start + k) % banks;
            if cand_bank == bank {
                continue;
            }
            let (frames, modes, migration) = (&mut self.frames, &self.modes, &self.migration);
            if let Some(r) = frames.take_in_bank(cand_bank, |r| {
                modes.mode_of(cand_bank, r) == RowMode::MaxCapacity
                    && !migration.is_row_pending(cand_bank, r)
            }) {
                self.stats.frames_reused += 1;
                self.dest_cursor = (self.dest_cursor + 1) % banks;
                return Some((cand_bank, r));
            }
            if let Some(r) = self.scan_mc_frame(cand_bank, row + rows / 2) {
                self.dest_cursor = (self.dest_cursor + 1) % banks;
                return Some((cand_bank, r));
            }
        }
        None
    }

    /// Migration jobs dispatched but not yet complete.
    pub fn pending_migrations(&self) -> usize {
        self.migration.pending_jobs()
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
            self.next_event_cache = None;
            self.reblame_queues();
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
            self.next_event_cache = None;
            self.reblame_queues();
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
        let banks = self.banks.len();
        let rows = self.config.geometry.rows;
        for k in 0..banks {
            let bank = (hint + k) % banks;
            if let Some(r) = self.frames.peek_in_bank(bank, |r| {
                self.modes.mode_of(bank, r) == RowMode::MaxCapacity
                    && !self.migration.is_row_pending(bank, r)
            }) {
                self.migration.reserve(bank, r);
                return Some((bank, r));
            }
            if let Some(r) = self.scan_mc_frame(bank, rows / 2) {
                self.migration.reserve(bank, r);
                return Some((bank, r));
            }
        }
        None
    }

    /// The shared allocatability scan: the first max-capacity row of
    /// `bank` with no pending migration role, walking `rows` entries
    /// from `start_row` (wrapping) — the deterministic fallback every
    /// destination picker uses when the directory has no known-free
    /// frame.
    fn scan_mc_frame(&self, bank: usize, start_row: u32) -> Option<u32> {
        let rows = self.config.geometry.rows;
        (0..rows).map(|k| (start_row + k) % rows).find(|&cand| {
            self.modes.mode_of(bank, cand) == RowMode::MaxCapacity
                && !self.migration.is_row_pending(bank, cand)
        })
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
        let mc_rfc = self.engine.timings().max_capacity.rfc;
        let hp_rfc = self.engine.timings().high_performance.rfc;
        // Carry surviving streams' due times: a retune must not push
        // refresh into the future (policy epochs can be much shorter
        // than tREFI, so resetting would starve refresh entirely).
        self.refresh = self.refresh.retuned(
            &plan,
            self.config.interface.t_ck_ns,
            |m| match m {
                RowMode::MaxCapacity => mc_rfc,
                RowMode::HighPerformance => hp_rfc,
            },
            self.cycle,
        );
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
        let line = masked.line(self.config.geometry.burst_bytes());
        match request.kind {
            RequestKind::Read => {
                if self
                    .write_q
                    .iter()
                    .any(|e| e.request.addr.line(self.config.geometry.burst_bytes()) == line)
                {
                    self.stats.forwarded_reads += 1;
                    self.inflight.push(Reverse((self.cycle + 1, request.id)));
                    self.merge_event_bound(self.cycle + 1, EventSource::Completion);
                    return Ok(());
                }
                if self.read_q.len() >= self.config.scheduler.read_queue {
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
                if self.write_q.len() >= self.config.scheduler.write_queue {
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

    /// The drain policy's queue selection for hypothetical queue lengths
    /// (replaying the watermark hysteresis without mutating it).
    fn queue_selection(&self, reads: usize, writes: usize) -> bool {
        let mut draining = self.draining_writes;
        if !draining && writes >= self.config.scheduler.write_high_watermark {
            draining = true;
        }
        if draining && writes <= self.config.scheduler.write_low_watermark {
            draining = false;
        }
        draining || (reads == 0 && writes > 0)
    }

    /// Updates the memoized next-event bound for an entry about to join a
    /// queue. Exact, O(1): an enqueue cannot change any existing lane's
    /// readiness, so the bound only gains the new entry's own earliest —
    /// unless it flips the drain policy's queue selection, where the
    /// bound must be rebuilt from the other queue.
    fn note_enqueue_event(&mut self, entry: &QueueEntry, to_writes: bool) {
        if self.pending_refresh.is_some() || self.cycle < self.maintenance_until {
            // Queue service is preempted: no queue event can fire before
            // the preemption-end stop point already in the bound (the
            // REF issue or the stall expiry), and both re-derive the
            // bound with the queue included. Merging the new entry's
            // readiness here would only wedge a stale `<= now` value
            // into the memo and disable jumping for the whole window.
            return;
        }
        let (reads, writes) = (self.read_q.len(), self.write_q.len());
        let before = self.queue_selection(reads, writes);
        let after = if to_writes {
            self.queue_selection(reads, writes + 1)
        } else {
            self.queue_selection(reads + 1, writes)
        };
        if before != after {
            self.next_event_cache = None;
            return;
        }
        if after != to_writes {
            // The unselected queue is not serviced this window; existing
            // events are unaffected.
            return;
        }
        let bank = entry.target.bank;
        if self.migration.is_mid_phase(bank)
            || self.migration.blocked_row(bank) == Some(entry.decoded.row)
        {
            // The entry waits on the in-flight migration (the job holds
            // the bank, or the entry targets the migrating row) — but
            // its arrival can *enable* the job's eager finish
            // (demand-pressure priority), so the memoized bound must be
            // re-derived rather than merely merged.
            self.next_event_cache = None;
            return;
        }
        let (cmd, target) = match self.banks[bank].open_row {
            Some(row) if row == entry.decoded.row => {
                (scheduler::column_command(entry), entry.target)
            }
            Some(_) => (
                Command::Pre,
                Target {
                    mode: self.banks[bank].open_mode,
                    ..entry.target
                },
            ),
            None => (Command::Act, entry.target),
        };
        let at = self.engine.earliest(cmd, target);
        self.merge_event_bound(at, EventSource::QueueReady);
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
            if let Some((mode, rfc)) = self.refresh.due(now) {
                self.pending_refresh = Some((mode, rfc));
                changed = true;
            }
        }
        let mut issued = false;
        let mut served = false;
        self.queue_ready_hint = u64::MAX;
        if let Some((mode, rfc)) = self.pending_refresh {
            issued = self.progress_refresh(mode, rfc, now);
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
            let migration_work = self.migration.pending_jobs() > 0;
            if migration_work {
                issued = self.serve_migration(now, false, u64::MAX);
            }
            if !issued {
                issued = self.serve_queues(now);
                served = true;
            }
            if !issued && migration_work {
                // The failed scheduling pass priced the selected queue's
                // next-ready cycle; migration may use the slot only if
                // its command's shadow ends before that.
                issued = self.serve_migration(now, true, self.queue_ready_hint);
            }
        }

        // 3. Timeout row policy as background work.
        if !issued && now >= self.maintenance_until {
            changed |= self.close_expired_row(now);
        }

        // 4. Background accounting.
        if !self.open_banks.is_empty() {
            self.stats.rank_active_cycles += 1;
        } else {
            self.stats.rank_precharged_cycles += 1;
        }

        if changed || issued {
            // Only ticks that actually did something move the next-event
            // bound; dead ticks keep the memoized value.
            self.next_event_cache = None;
            // State-changing ticks are blame boundaries; dead ticks (and
            // the dead-window jumps that replace them) charge nothing at
            // the time, which is what keeps the budgets bit-identical
            // across per-cycle and skip-ahead walks.
            self.reblame_queues();
        } else if self.next_event_cache.is_none() {
            // A dead tick re-derives the bound almost for free: its
            // failed scheduling pass already priced the queue (the
            // dominant term), so only the cheap components remain.
            let hint = served.then_some(self.queue_ready_hint);
            let r = self.compute_next_event(hint);
            self.next_event_cache = Some(r);
        }
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
            // do real work, and the first dead tick after them re-fills
            // the memo as a byproduct of its own scheduling pass, so the
            // walk never pays a from-scratch event computation (the exact
            // pricing pass walks every candidate; a failing serve pass
            // prunes, so it is the cheaper way to re-derive the bound).
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
    /// evaluation is memoized: dead ticks and dead-window jumps reuse it,
    /// and it is recomputed only after a state-changing tick, enqueue, or
    /// mode application.
    pub fn next_event_cycle(&mut self) -> u64 {
        let now = self.cycle;
        let raw = match self.next_event_cache {
            Some(r) if r > now => r,
            _ => {
                let r = self.compute_next_event(None);
                self.next_event_cache = Some(r);
                r
            }
        };
        if raw == u64::MAX {
            u64::MAX
        } else {
            raw.max(now)
        }
    }

    /// The uncached next-event evaluation (see
    /// [`MemoryController::next_event_cycle`]). `queue_ready` carries the
    /// bound a just-failed scheduling pass already derived for the
    /// selected queue, sparing the rescan.
    fn compute_next_event(&mut self, queue_ready: Option<u64>) -> u64 {
        let now = self.cycle;
        // Track which source produced the minimum so skip-ahead
        // profiling can attribute each dead-window jump.
        let mut next = u64::MAX;
        let mut source = EventSource::Completion;
        let fold = |next: &mut u64, source: &mut EventSource, t: u64, s: EventSource| {
            if t < *next {
                *next = t;
                *source = s;
            }
        };
        // 1. In-flight read completions are delivered at their cycle.
        if let Some(&Reverse((done, _))) = self.inflight.peek() {
            fold(&mut next, &mut source, done, EventSource::Completion);
        }
        let maintenance_active = now < self.maintenance_until;
        if let Some((mode, _rfc)) = self.pending_refresh {
            // 2a. A pending refresh progresses (PRE of an open bank, or
            // the REF itself) as soon as the engine allows.
            let t = self.refresh_progress_ready_cycle(mode);
            fold(&mut next, &mut source, t, EventSource::Refresh);
            // The timeout row policy still runs while refresh is blocked
            // (it fires whenever no command issued and no stall holds).
            if !maintenance_active {
                if let Some(t) = self.next_timeout_close_cycle() {
                    fold(&mut next, &mut source, t, EventSource::TimeoutClose);
                }
            }
        } else {
            // 2b. Refresh becoming due preempts queue service.
            if let Some(due) = self.refresh.next_due_cycle() {
                fold(&mut next, &mut source, due, EventSource::Refresh);
            }
            if maintenance_active {
                // 3. Queue service resumes when the relocation stall ends.
                fold(
                    &mut next,
                    &mut source,
                    self.maintenance_until,
                    EventSource::RelocationStall,
                );
            } else {
                // 4. The earliest issuable command of the queue the
                // drain policy would select this window.
                let t = match queue_ready {
                    Some(hint) => hint,
                    None => self.next_queue_ready_cycle(),
                };
                fold(&mut next, &mut source, t, EventSource::QueueReady);
                // 5. Timeout-policy background row close.
                if let Some(t) = self.next_timeout_close_cycle() {
                    fold(&mut next, &mut source, t, EventSource::TimeoutClose);
                }
                // 6. The earliest issuable background-migration command
                // (rate-limiter gated).
                if let Some(t) = self.migration_next_ready() {
                    fold(&mut next, &mut source, t, EventSource::Migration);
                }
            }
        }
        self.next_event_source = source;
        next
    }

    /// The earliest cycle ≥ now at which any bank's next migration
    /// command satisfies the timing engine, the rate limiter (job starts
    /// only), and the start-eligibility rules (`None` when no migration
    /// work is pending). Like the queue bound, every input is constant
    /// across a dead window, so the value is an exact event bound.
    fn migration_next_ready(&self) -> Option<u64> {
        if self.migration.pending_jobs() == 0 {
            return None;
        }
        let rate_gate = self.migration.rate_gate(self.cycle);
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        for b in self.migration.banks_with_work() {
            let open = self.banks[b].open_row.map(|r| (r, self.banks[b].open_mode));
            if self.migration.is_busy(b) {
                // A role blocked on another side's progress (a write
                // burst waiting for unread data, a completion waiting for
                // the couple point) has no command; the event that
                // releases it is priced on the other bank.
                if let Some(nc) = self.migration.next_command(b, open) {
                    fold(
                        self.engine
                            .earliest(nc.command, self.bank_target(b, nc.mode)),
                    );
                }
            } else if open.is_none()
                && !self.read_lanes.has_entries(b)
                && !self.write_lanes.has_entries(b)
            {
                // A start needs a closed bank no demand is queued for;
                // otherwise it waits for the bank to close (demand PRE or
                // timeout close) or the queue to drain — all events.
                if let Some((_row, from)) = self.migration.queued_start(b) {
                    let target = self.bank_target(b, from);
                    fold(self.engine.earliest(Command::Act, target).max(rate_gate));
                }
            }
        }
        next
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
    /// identical spans.
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
            entry.request.id,
            done - latency,
            latency,
            args,
        );
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

    /// Issues one background-migration command if any bank's next
    /// migration step is engine-ready (and, for job starts, the rate
    /// limiter allows it). With `idle_slot` false, only jobs demand is
    /// waiting on are eligible; in idle slots (`demand_ready` carries the
    /// scheduling pass's next-ready bound) phase-start ACTs are
    /// additionally tRRD-shadow-gated so relocation never delays an
    /// imminent demand activate. Banks are visited round-robin so one
    /// bank's backlog cannot starve the rest. Returns whether a command
    /// issued.
    fn serve_migration(&mut self, now: u64, idle_slot: bool, demand_ready: u64) -> bool {
        // The rate limiter is global and applies to every start, so when
        // it is closed only busy banks merit a look.
        let start_blocked = self.migration.rate_gate(now) > now;
        for b in self.migration.banks_with_work() {
            let busy = self.migration.is_busy(b);
            if !busy && start_blocked {
                continue;
            }
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
                if idle_slot
                    && self.migration.pending_writeback_act(b)
                    && !eager
                    && !self.draining_writes
                    && !(self.read_q.is_empty() && self.write_q.is_empty())
                {
                    continue;
                }
            } else if !idle_slot
                || self.read_lanes.has_entries(b)
                || self.write_lanes.has_entries(b)
            {
                // A start must take an idle slot on a bank demand is not
                // using (and pass the rate limiter, checked above).
                continue;
            }
            let open = self.banks[b].open_row.map(|r| (r, self.banks[b].open_mode));
            let Some(nc) = self.migration.next_command(b, open) else {
                continue;
            };
            if idle_slot
                && !eager
                && demand_ready != u64::MAX
                && nc.command == Command::Act
                && now + self.migration_act_shadow() >= demand_ready
            {
                // Idle-slot phase starts must stay invisible to demand:
                // skip the slot if the ACT's cross-bank shadow (tRRD)
                // would reach the next demand-ready cycle.
                continue;
            }
            let target = self.bank_target(b, nc.mode);
            if !self.engine.can_issue(nc.command, target, now) {
                continue;
            }
            match nc.command {
                Command::Act => {
                    self.open_row(b, nc.row, nc.mode, now);
                    self.engine.issue(Command::Act, target, now);
                    self.stats.record_migration_act(nc.mode);
                    self.migration.note_act(b, now);
                    self.log_command_tagged(now, Command::Act, b, nc.row, nc.mode, true);
                }
                Command::Pre => {
                    let closed = self.close_row(b);
                    self.engine.issue(Command::Pre, target, now);
                    self.stats.record_migration_pre(closed);
                    let step = self.migration.note_pre(b);
                    match step {
                        MigrationStep::Couple { row, to } => {
                            // The couple point: the row's mode flips here;
                            // the write-back re-activates in the new mode.
                            self.modes.set(b, row, to);
                            self.mode_cache[b].set((MODE_CACHE_EMPTY, RowMode::MaxCapacity));
                            self.stats.mode_transitions += 1;
                            self.retune_refresh();
                            self.trace_migration_instant("couple_point", now, b as u32, row);
                        }
                        MigrationStep::Complete {
                            row,
                            cross_bank,
                            dispatched_at,
                            ..
                        } => {
                            self.stats.migration_jobs_completed += 1;
                            if cross_bank {
                                self.stats.migration_cross_bank_jobs += 1;
                            }
                            self.note_migration_done("couple", dispatched_at, now, b as u32, row);
                        }
                        MigrationStep::StagedOut {
                            bank,
                            row,
                            dispatched_at,
                        } => {
                            // The data left for another channel; the frame
                            // is freed only once the system confirms the
                            // landing (note_frame_freed).
                            self.stats.migration_evacuations += 1;
                            self.note_migration_done("stage_out", dispatched_at, now, bank, row);
                        }
                        MigrationStep::Filled {
                            bank,
                            row,
                            dispatched_at,
                        } => {
                            self.stats.migration_fills += 1;
                            self.note_migration_done("fill_in", dispatched_at, now, bank, row);
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
            return true;
        }
        false
    }

    /// [`MemoryController::tick`], shortcutting provably dead cycles:
    /// when the memoized next-event bound proves nothing can happen this
    /// cycle, only the clock and the busy/idle accounting advance —
    /// exactly what the full tick would have done. Falls back to the
    /// full tick otherwise. Bit-identical to `tick` either way.
    pub fn tick_fast(&mut self, completions: &mut Vec<Completion>) {
        match self.next_event_cache {
            Some(r) if r > self.cycle => self.skip_dead_cycles(self.cycle + 1),
            _ => self.tick(completions),
        }
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
        let n = to - self.cycle;
        self.skip_profile.record_jump(n, self.next_event_source);
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

    /// The cycle a pending refresh can next make progress: the PRE of the
    /// first still-open bank, else the REF across every rank (mirrors
    /// [`MemoryController::progress_refresh`]'s issue conditions).
    fn refresh_progress_ready_cycle(&self, mode: RowMode) -> u64 {
        if let Some(b) = self.open_banks.first() {
            let target = self.bank_target(b, self.banks[b].open_mode);
            return self.engine.earliest(Command::Pre, target);
        }
        (0..self.ranks())
            .map(|r| {
                self.engine
                    .earliest(Command::Ref, self.rank_target(r, mode))
            })
            .max()
            .unwrap_or(0)
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

    /// The earliest cycle the queue the drain policy would select can
    /// issue a command. Replays the write-drain hysteresis against the
    /// current queue lengths without mutating it (the lengths — and hence
    /// the selection — are constant across a dead window; `serve_queues`
    /// re-derives the same state at the event cycle).
    fn next_queue_ready_cycle(&mut self) -> u64 {
        let use_writes = self.queue_selection(self.read_q.len(), self.write_q.len());
        self.schedule(use_writes, self.cycle).1
    }

    /// The FR-FCFS-Cap pass over the read or write queue at `now`: the
    /// decision and the queue's exact next-ready bound (see
    /// [`scheduler::pick_cached`]).
    fn schedule(&mut self, use_writes: bool, now: u64) -> (Option<Decision>, u64) {
        let (q, lanes) = if use_writes {
            (&self.write_q, &mut self.write_lanes)
        } else {
            (&self.read_q, &mut self.read_lanes)
        };
        scheduler::pick_cached(
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
        )
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

    /// The earliest cycle the timeout row policy can close an idle open
    /// row no queued request wants (`None` under open-page, or when every
    /// open row is still wanted — a wanted row's service is covered by
    /// the queue-readiness event instead). Only open banks are visited.
    fn next_timeout_close_cycle(&mut self) -> Option<u64> {
        let timeout_cycles = self.timeout_cycles?;
        let mut next: Option<u64> = None;
        for b in self.open_banks.iter() {
            let Some(row) = self.banks[b].open_row else {
                continue;
            };
            // A bank's close cycle is at least `last_use + timeout`, so
            // one that cannot beat the running minimum is settled before
            // the wanted check or the engine query is paid — in a busy
            // system most open rows were touched recently and fall here.
            let floor = self.banks[b].last_use_cycle + timeout_cycles;
            if next.is_some_and(|n| floor >= n) {
                continue;
            }
            if self.migration.is_mid_phase(b) {
                continue;
            }
            if self.demand_for(b, RowWatch::Open, row) {
                continue;
            }
            let target = self.bank_target(b, self.banks[b].open_mode);
            let t = floor.max(self.engine.earliest(Command::Pre, target));
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Progress the pending refresh: close open banks, then issue REF to
    /// every rank. Returns whether a command issued this cycle.
    fn progress_refresh(&mut self, mode: RowMode, _rfc: u64, now: u64) -> bool {
        // Close the lowest open bank first (one PRE per cycle).
        if let Some(b) = self.open_banks.first() {
            let target = self.bank_target(b, self.banks[b].open_mode);
            if !self.engine.can_issue(Command::Pre, target, now) {
                return false; // wait for tRAS/tWR of that bank
            }
            let closed = self.close_row(b);
            self.engine.issue(Command::Pre, target, now);
            self.stats.record_pre(closed);
            self.log_command(now, Command::Pre, b, 0, closed);
            // Refresh may close a bank out from under an in-flight
            // migration job; its phase re-activates after the blackout.
            self.migration.on_forced_precharge(b);
            return true;
        }
        // All banks closed: issue REF (modelled on every rank this cycle).
        let ranks = self.ranks();
        if (0..ranks).all(|r| {
            self.engine
                .can_issue(Command::Ref, self.rank_target(r, mode), now)
        }) {
            let rfc = self.engine.timings().for_mode(mode).rfc;
            for r in 0..ranks {
                let t = self.rank_target(r, mode);
                self.engine.issue(Command::Ref, t, now);
            }
            self.stats.record_ref(mode);
            self.stats.refresh_busy_cycles += rfc;
            self.refresh.mark_issued(mode);
            self.pending_refresh = None;
            self.log_command(now, Command::Ref, 0, 0, mode);
            return true;
        }
        false
    }

    /// Serve read/write queues under the drain policy. Returns whether a
    /// command issued.
    fn serve_queues(&mut self, now: u64) -> bool {
        // Drain-mode hysteresis.
        if !self.draining_writes && self.write_q.len() >= self.config.scheduler.write_high_watermark
        {
            self.draining_writes = true;
        }
        if self.draining_writes && self.write_q.len() <= self.config.scheduler.write_low_watermark {
            self.draining_writes = false;
        }
        let use_writes =
            self.draining_writes || (self.read_q.is_empty() && !self.write_q.is_empty());

        let (decision, bound) = self.schedule(use_writes, now);
        self.queue_ready_hint = bound;
        let Some(d) = decision else {
            return false;
        };
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
                let mode = Self::cached_mode(&self.modes, &self.mode_cache, bank, row);
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
        true
    }

    /// Close an open row per the configured row policy (closed-page or
    /// timeout) when no queued request targets it, returning whether a
    /// PRE issued. Open-page never closes in the background.
    fn close_expired_row(&mut self, now: u64) -> bool {
        let Some(timeout_cycles) = self.timeout_cycles else {
            return false; // open-page policy
        };
        for b in self.open_banks.iter() {
            let Some(row) = self.banks[b].open_row else {
                continue;
            };
            if self.migration.is_mid_phase(b) {
                // An in-flight migration holds this row buffer; its own
                // PRE closes it.
                continue;
            }
            if now.saturating_sub(self.banks[b].last_use_cycle) < timeout_cycles {
                continue;
            }
            if self.demand_for(b, RowWatch::Open, row) {
                continue;
            }
            let target = self.bank_target(b, self.banks[b].open_mode);
            if self.engine.can_issue(Command::Pre, target, now) {
                let closed = self.close_row(b);
                self.engine.issue(Command::Pre, target, now);
                self.stats.record_pre(closed);
                self.log_command(now, Command::Pre, b, 0, closed);
                return true;
            }
        }
        false
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
        cfg.scheduler.read_queue = 2;
        let mut mc = MemoryController::new(cfg);
        assert!(mc.try_enqueue(read(1, 0x00, 0)).is_ok());
        assert!(mc.try_enqueue(read(2, 0x40, 0)).is_ok());
        assert!(mc.try_enqueue(read(3, 0x80, 0)).is_err());
        assert_eq!(mc.stats().queue_rejections, 1);
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
    fn open_page_policy_never_closes_idle_rows() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        cfg.scheduler.row_policy = crate::config::RowPolicy::Open;
        let mut mc = MemoryController::new(cfg);
        mc.try_enqueue(read(1, 0x0, 0)).unwrap();
        let mut done = Vec::new();
        for _ in 0..5_000 {
            mc.tick(&mut done);
        }
        assert!(
            mc.banks.iter().any(|b| b.open_row.is_some()),
            "open-page must keep the row open"
        );
        assert_eq!(mc.stats().pres(), 0);
    }

    #[test]
    fn closed_page_policy_closes_immediately() {
        let mut cfg = MemConfig::paper_tiny();
        cfg.refresh_enabled = false;
        cfg.scheduler.row_policy = crate::config::RowPolicy::Closed;
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
        assert!(stats_a.migration_cross_bank_jobs > 0, "cross-bank jobs ran");
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
        use crate::frames::DestinationPicker;
        use crate::migrate::RelocationConfig;
        let check = |mc: &MemoryController, step: usize| {
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
            let banks = mc.banks.len();
            let mut state = 0xB4C5_E75E_0F0D_D1E5u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut done = Vec::new();
            for step in 0..3_000 {
                for id in 0..rng() % 3 {
                    let addr = (rng() % 8) * row_stride
                        + (rng() % banks as u64) * bank_stride
                        + (rng() % 4) * 64;
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
                }
                if step % 200 == 0 {
                    let changes: Vec<(usize, u32, RowMode)> = (0..3)
                        .map(|_| {
                            let bank = (rng() % banks as u64) as usize;
                            (bank, (rng() % 8) as u32, RowMode::HighPerformance)
                        })
                        .collect();
                    mc.begin_row_migrations(&changes);
                }
                if rng() % 2 == 0 {
                    mc.tick(&mut done);
                } else {
                    let to = mc.cycle() + 1 + rng() % 48;
                    mc.tick_until(to, &mut done);
                }
                check(&mc, step);
            }
            let s = mc.stats();
            assert!(s.migration_jobs_completed > 0, "{placement:?}: jobs ran");
            assert!(s.refs() > 0 && s.pres() > 0 && !done.is_empty());
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
