//! The background row-migration engine: relocation as scheduled DRAM
//! traffic.
//!
//! A mode transition that couples a row (max-capacity →
//! high-performance) halves its usable capacity, so the half-row of data
//! the coupling displaces must physically move first. The legacy model
//! priced that movement as a controller-wide stall
//! ([`RelocationMode::Stall`]); this module instead decomposes each
//! coupling into a per-row [`MigrationJob`] whose phases are *real DRAM
//! commands* issued into idle bank slots:
//!
//! 1. **read-out** — ACT the source row in its current (max-capacity)
//!    mode, stream the displaced half-row out as RD bursts, PRE;
//! 2. **couple** — flip the row's [`ModeTable`] entry (the ISO control
//!    signals are applied at the next activation, §3.3 — no bus
//!    command);
//! 3. **write-back** — ACT the *destination frame* (the max-capacity row
//!    the capacity directory allocated for the displaced data) and
//!    stream the data back as WR bursts, PRE.
//!
//! Decoupling (high-performance → max-capacity) is free at the device
//! level — a coupled logical cell drives both physical cells, so each
//! cell already holds the stored bit — and is applied immediately, as in
//! the stall model.
//!
//! # One job, two sides
//!
//! Every job is a *read-out side* on its owning bank and a *write-back
//! side* on the bank of its destination frame, which the
//! [`DestinationPicker`](crate::frames::DestinationPicker) chooses. Under
//! **same-bank** placement both sides share the owning bank's row
//! buffer: the read-out's commands come first until its PRE (the couple
//! point), only then does the write-back ACT the destination frame, and
//! the controller lets that ACT wait for a write-drain episode. Under
//! **cross-bank** placement the sides run on two banks and overlap: the
//! destination's ACT issues while the read-out is still streaming (its
//! ACT/tRCD window hides under the read bursts). Either way, write
//! bursts are released only once the data they carry has been read
//! (`wr_remaining > rd_remaining`), and the couple point gates the
//! completion so the mode flip always precedes it. The source row
//! blocks until the couple point (reads stay servable during read-out —
//! the data sits intact in the row buffer), the destination row blocks
//! until the job completes, and a bank blocks demand entirely only while
//! one of the job's sides holds that bank's row buffer.
//!
//! Beyond couplings, the engine executes the two halves of the capacity
//! directory's cross-channel whole-row frame moves, so it runs three job
//! kinds ([`JobKind`]): the coupling itself, an **evacuate-out**
//! (read-out only; the data leaves the channel) and a **fill-in**
//! (write-back only; the data arrives from another channel), the last
//! two staged by [`MemorySystem::pump_placement`]. Completed placement
//! work is reported as [`PlacementEvent`]s so the system can install
//! [`RemapTable`](crate::system::RemapTable) entries.
//!
//! Jobs queue per owning bank and at most one migration role (job source
//! *or* destination) is in flight per bank. Under
//! [`RelocationMode::Background`] a job *starts* only on a cycle where
//! no demand command could issue, on a closed bank with no queued
//! demand, outside the tRRD shadow of imminent demand activates; once a
//! side's ACT has issued, the burst train finishes contiguously, and a
//! job that demand is actually waiting on finishes at demand priority.
//! An optional [`MigrationRate`] caps job starts per cycle window.
//!
//! The engine is driven by the controller, which owns all protocol state;
//! this module tracks job progress and answers two questions the
//! controller's event model needs: *which command would migration issue
//! next on bank `b`*, and *from which cycle onward is migration allowed
//! to issue at all* (the rate-limiter window). Both are constant across a
//! dead window — a write burst gated on unread data has no command, and
//! the read that releases it is itself an event — so the skip-ahead
//! bound stays exact.
//!
//! [`ModeTable`]: clr_core::mode::ModeTable
//! [`MemorySystem::pump_placement`]: crate::system::MemorySystem::pump_placement

use std::collections::BTreeSet;

use clr_core::mode::RowMode;

use crate::bankstate::BankSet;
use crate::command::Command;

/// How mode-transition data movement is realized by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocationMode {
    /// Legacy stall-the-world: the batch's priced cost is charged as a
    /// controller-wide queue-service stall and the mode table flips
    /// atomically.
    Stall,
    /// Background migration: couplings become per-row jobs that start
    /// only in idle bank slots; an in-flight job finishes eagerly so its
    /// bank unblocks quickly.
    Background,
}

/// Rate limit on background-migration bandwidth: at most `max_starts`
/// migration *jobs may start* per `window_cycles`-cycle window (windows
/// are aligned to cycle 0, so the limit is deterministic and skip-ahead
/// can price the next window boundary exactly). Limiting starts rather
/// than individual commands caps bandwidth — every start implies one
/// job's fixed command budget — without ever gating an in-flight job,
/// which would leave its bank blocked while waiting for tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRate {
    /// Window length in DRAM cycles.
    pub window_cycles: u64,
    /// Migration-job starts allowed per window.
    pub max_starts: u64,
}

/// Relocation configuration carried by
/// [`MemConfig`](crate::config::MemConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationConfig {
    /// The relocation realization.
    pub mode: RelocationMode,
    /// Optional migration-bandwidth cap (background mode only).
    pub rate: Option<MigrationRate>,
}

impl MigrationRate {
    /// A moderate default pacing: four job starts per 2048-cycle window
    /// (≈7 % of command-bus slots at this crate's default job sizes) —
    /// enough to drain a sane policy's per-epoch batch within the epoch,
    /// while a pathologically churning policy cannot flood the bus with
    /// relocation traffic.
    pub fn default_pacing() -> Self {
        MigrationRate {
            window_cycles: 2048,
            max_starts: 4,
        }
    }
}

impl RelocationConfig {
    /// Pure background migration, unlimited bandwidth.
    pub fn background() -> Self {
        RelocationConfig {
            mode: RelocationMode::Background,
            rate: None,
        }
    }

    /// Background migration with the default start pacing
    /// ([`MigrationRate::default_pacing`]).
    pub fn background_paced() -> Self {
        RelocationConfig {
            mode: RelocationMode::Background,
            rate: Some(MigrationRate::default_pacing()),
        }
    }

    /// Whether this configuration migrates in the background.
    pub fn is_background(&self) -> bool {
        self.mode != RelocationMode::Stall
    }
}

impl Default for RelocationConfig {
    fn default() -> Self {
        RelocationConfig {
            mode: RelocationMode::Stall,
            rate: None,
        }
    }
}

/// What a migration job moves and why — the capacity directory's job
/// taxonomy: a coupling, or one half of a cross-channel frame move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A mode-transition coupling: half a row out of the source, mode
    /// flip at the couple point, half a row into the destination frame.
    Couple,
    /// The source half of a cross-channel frame move: a full row read
    /// out; the data leaves this channel (staged by the system).
    EvacuateOut,
    /// The destination half of a cross-channel frame move: a full row
    /// written into a local frame; the data arrived from another
    /// channel.
    FillIn,
}

/// Execution state of a job's two sides: the read-out on the owning
/// bank and the write-back on the destination frame's bank.
#[derive(Debug, Clone, Copy)]
struct JobState {
    /// Whether the read-out ACT has issued.
    src_opened: bool,
    /// RD bursts remaining.
    rd_remaining: u32,
    /// Whether the read-out side finished (its PRE issued) — for
    /// [`JobKind::FillIn`], which has no read-out, true from dispatch.
    src_done: bool,
    /// Whether the write-back ACT has issued.
    dest_opened: bool,
    /// WR bursts remaining.
    wr_remaining: u32,
}

impl JobState {
    /// A job that reads `rd` bursts out and writes `wr` bursts back
    /// (`rd == 0`: no read-out side).
    fn new(rd: u32, wr: u32) -> Self {
        JobState {
            src_opened: false,
            rd_remaining: rd,
            src_done: rd == 0,
            dest_opened: false,
            wr_remaining: wr,
        }
    }
}

/// One row's relocation, decomposed into commands.
#[derive(Debug, Clone, Copy)]
pub struct MigrationJob {
    /// What the job moves (see [`JobKind`]).
    pub kind: JobKind,
    /// The source row (for [`JobKind::FillIn`], equal to `dest`).
    pub row: u32,
    /// The destination frame row (`u32::MAX` for
    /// [`JobKind::EvacuateOut`], whose data leaves the channel).
    pub dest: u32,
    /// The destination frame's flat bank (the owning bank for same-bank
    /// couplings and fill-ins; `u32::MAX` for evacuate-outs).
    pub dest_bank: u32,
    /// Mode before the transition (the mode the source is read in).
    pub from: RowMode,
    /// Mode after the transition (couplings only; frame moves keep
    /// max-capacity).
    pub to: RowMode,
    /// Cycle the job was dispatched, for end-to-end job latency.
    pub dispatched_at: u64,
    state: JobState,
}

impl MigrationJob {
    /// The bank the write-back side runs on (`None` for an
    /// evacuate-out, whose data leaves the channel).
    fn write_bank(&self) -> Option<usize> {
        (self.dest_bank != u32::MAX).then_some(self.dest_bank as usize)
    }
}

/// The migration command the engine wants to issue next on a bank, with
/// the mode its timing must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextMigrationCommand {
    /// The command.
    pub command: Command,
    /// Row the command targets (the source row or destination frame for
    /// an ACT; the bank's open row otherwise).
    pub row: u32,
    /// Mode governing the command's timings.
    pub mode: RowMode,
}

/// What happened when the controller told the engine a migration command
/// issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStep {
    /// The job made progress but still owns its bank(s).
    InProgress,
    /// The read-out phase finished: the controller must flip the row's
    /// mode-table entry now (the couple point).
    Couple {
        /// Row to flip.
        row: u32,
        /// Mode to flip it to.
        to: RowMode,
    },
    /// A coupling finished; its banks are free again.
    Complete {
        /// The migrated row.
        row: u32,
        /// Its (already applied) final mode.
        to: RowMode,
        /// Whether the destination frame lived in another bank (the
        /// overlapped two-bank execution).
        cross_bank: bool,
        /// Cycle the job was dispatched, for end-to-end job latency.
        dispatched_at: u64,
    },
    /// A cross-channel move's read-out half finished; the row's data is
    /// staged for a fill on another channel (the source row stays
    /// reserved until the system confirms the landing).
    StagedOut {
        /// Source bank read out.
        bank: u32,
        /// Source row read out.
        row: u32,
        /// Cycle the job was dispatched, for end-to-end job latency.
        dispatched_at: u64,
    },
    /// A cross-channel move's write-back half finished; the data landed
    /// in this channel's frame.
    Filled {
        /// Destination bank filled.
        bank: u32,
        /// Destination row filled.
        row: u32,
        /// Cycle the job was dispatched, for end-to-end job latency.
        dispatched_at: u64,
    },
}

/// A completed placement action, drained by the memory system to update
/// the capacity directory and the remap table. `bank`/`row` is the
/// source location, `dest_bank`/`dest` the destination (both `u32::MAX`
/// for [`JobKind::EvacuateOut`], whose destination lives on another
/// channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementEvent {
    /// What kind of job completed.
    pub kind: JobKind,
    /// Source flat bank.
    pub bank: u32,
    /// Source row.
    pub row: u32,
    /// Destination flat bank.
    pub dest_bank: u32,
    /// Destination row.
    pub dest: u32,
}

/// Sentinel slot index for [`JobArena`] links.
const NIL: u32 = u32::MAX;

/// Per-bank migration-job FIFOs backed by one shared slab: jobs live in
/// a single contiguous `Vec` with intrusive `next` links and per-bank
/// `head`/`tail` cursors, so steady-state push/pop recycles slots from
/// the free list instead of reallocating per-bank ring buffers. Queue
/// order is identical to the `Vec<VecDeque>` it replaces.
#[derive(Debug)]
struct JobArena {
    jobs: Vec<MigrationJob>,
    /// Next slot in the owning bank's FIFO (`NIL` at the tail).
    next: Vec<u32>,
    head: Vec<u32>,
    tail: Vec<u32>,
    free: Vec<u32>,
}

impl JobArena {
    fn new(banks: usize) -> Self {
        JobArena {
            jobs: Vec::new(),
            next: Vec::new(),
            head: vec![NIL; banks],
            tail: vec![NIL; banks],
            free: Vec::new(),
        }
    }

    fn banks(&self) -> usize {
        self.head.len()
    }

    fn alloc(&mut self, job: MigrationJob) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.jobs[slot as usize] = job;
            self.next[slot as usize] = NIL;
            slot
        } else {
            self.jobs.push(job);
            self.next.push(NIL);
            (self.jobs.len() - 1) as u32
        }
    }

    fn push_back(&mut self, bank: usize, job: MigrationJob) {
        let slot = self.alloc(job);
        match self.tail[bank] {
            NIL => self.head[bank] = slot,
            t => self.next[t as usize] = slot,
        }
        self.tail[bank] = slot;
    }

    fn push_front(&mut self, bank: usize, job: MigrationJob) {
        let slot = self.alloc(job);
        self.next[slot as usize] = self.head[bank];
        self.head[bank] = slot;
        if self.tail[bank] == NIL {
            self.tail[bank] = slot;
        }
    }

    fn front(&self, bank: usize) -> Option<&MigrationJob> {
        match self.head[bank] {
            NIL => None,
            h => Some(&self.jobs[h as usize]),
        }
    }

    fn pop_front(&mut self, bank: usize) -> Option<MigrationJob> {
        let h = self.head[bank];
        if h == NIL {
            return None;
        }
        let job = self.jobs[h as usize];
        self.head[bank] = self.next[h as usize];
        if self.head[bank] == NIL {
            self.tail[bank] = NIL;
        }
        self.free.push(h);
        Some(job)
    }

    fn is_empty(&self, bank: usize) -> bool {
        self.head[bank] == NIL
    }
}

/// Per-bank job queues plus the rate limiter — the bookkeeping half of
/// background migration (the controller owns all protocol state).
#[derive(Debug)]
pub struct MigrationEngine {
    cfg: RelocationConfig,
    /// Column bursts per coupling phase: the displaced half-row at one
    /// burst per column access (matches the relocation cost model's
    /// `bursts_per_row`). Whole-row frame moves transfer twice this.
    bursts_per_phase: u32,
    queues: JobArena,
    active: Vec<Option<MigrationJob>>,
    /// For banks serving as the *destination* side of an active job: the
    /// owning bank (the bank itself for same-bank couplings and
    /// fill-ins).
    dest_of: Vec<Option<usize>>,
    /// Banks whose in-flight role currently *holds the row buffer* (its
    /// side's ACT has issued): the whole bank blocks demand. Otherwise
    /// only the migrating row blocks (see `row_block`).
    held: BankSet,
    /// Banks with migration work — an in-flight role or a queued job —
    /// updated wherever a job is queued, started or finished.
    work: BankSet,
    /// The migrating row per bank (`u32::MAX` when none): demand to this
    /// row waits — its content is in flux — while the bank's other rows
    /// stay schedulable whenever the bank is not held.
    row_block: Vec<u32>,
    /// The source row per bank while its job is in the read-out phase
    /// (`u32::MAX` otherwise): reads to it remain servable (see
    /// [`MigrationEngine::read_ok_rows`]).
    readout_src: Vec<u32>,
    /// Every `(bank, row)` with a pending migration role (queued or in
    /// flight, source or destination) or an external reservation by the
    /// capacity directory — the "do not touch" set pickers and
    /// dispatchers consult.
    reserved: BTreeSet<(u32, u32)>,
    pending_jobs: usize,
    /// Completed coupling `(bank, row, mode)` transitions awaiting a
    /// drain by the policy driver.
    completed: Vec<(u32, u32, RowMode)>,
    /// Completed frame-placement actions awaiting a drain by the memory
    /// system.
    placements: Vec<PlacementEvent>,
    /// Whether completed *couplings* with cross-bank destinations are
    /// also recorded as placement events. Off by default: the system
    /// pump ignores them (couplings need no remap), so recording them
    /// unconditionally would grow `placements` without bound on runs
    /// that never drain it. Audits (the workspace consistency test)
    /// switch it on.
    log_couple_placements: bool,
    /// Rate-limiter state: the window index last charged and the
    /// commands issued within it.
    window_index: u64,
    issued_in_window: u64,
    /// Round-robin start bank so one bank's backlog cannot starve the
    /// others.
    rr_next: usize,
}

impl MigrationEngine {
    /// An engine for `banks` banks moving `half_row_bytes` per coupling
    /// phase at `burst_bytes` per column access.
    ///
    /// # Panics
    ///
    /// Panics if `banks` exceeds [`BankSet::CAPACITY`].
    pub fn new(cfg: RelocationConfig, banks: usize, half_row_bytes: u64, burst_bytes: u64) -> Self {
        BankSet::assert_fits(banks);
        let bursts = half_row_bytes.div_ceil(burst_bytes.max(1)).max(1) as u32;
        MigrationEngine {
            cfg,
            bursts_per_phase: bursts,
            queues: JobArena::new(banks),
            active: vec![None; banks],
            dest_of: vec![None; banks],
            held: BankSet::default(),
            work: BankSet::default(),
            row_block: vec![u32::MAX; banks],
            readout_src: vec![u32::MAX; banks],
            reserved: BTreeSet::new(),
            pending_jobs: 0,
            completed: Vec::new(),
            placements: Vec::new(),
            log_couple_placements: false,
            window_index: 0,
            issued_in_window: 0,
            rr_next: 0,
        }
    }

    /// Starts recording completed cross-bank couplings as placement
    /// events (frame moves are always recorded — the system pump
    /// consumes them; coupling events exist for audits and debugging).
    pub fn enable_couple_placement_log(&mut self) {
        self.log_couple_placements = true;
    }

    /// Column bursts of a whole-row frame move (both halves of the row).
    pub fn bursts_per_frame_move(&self) -> u32 {
        self.bursts_per_phase * 2
    }

    /// Jobs dispatched but not yet complete (queued + in flight).
    pub fn pending_jobs(&self) -> usize {
        self.pending_jobs
    }

    /// Whether bank `b` has an in-flight migration role (job source or
    /// destination; started, not complete).
    pub fn is_busy(&self, bank: usize) -> bool {
        self.active[bank].is_some() || self.dest_of[bank].is_some()
    }

    /// Whether bank `b` has any migration work to consider at all — an
    /// in-flight role (source or destination) or a queued job.
    pub fn bank_has_work(&self, bank: usize) -> bool {
        self.is_busy(bank) || !self.queues.is_empty(bank)
    }

    /// Re-derives `bank`'s membership of the work set after a job was
    /// queued, started or finished there.
    fn sync_work(&mut self, bank: usize) {
        let has_work = self.bank_has_work(bank);
        self.work.set(bank, has_work);
    }

    /// Whether bank `b`'s in-flight role is mid-burst-train (its side's
    /// ACT has issued, so the role holds the row buffer and the whole
    /// bank blocks demand). A mid-phase burst train should finish
    /// contiguously: dribbling the bursts one idle slot at a time would
    /// pay the rank-level read/write turnaround penalties once per burst
    /// instead of once per train.
    pub fn is_mid_phase(&self, bank: usize) -> bool {
        self.held.contains(bank)
    }

    /// Whether bank `b`'s in-flight *same-bank* coupling has passed its
    /// couple point and is waiting to open its write-back side. The
    /// controller aligns these with write-drain episodes: a WR burst
    /// train injected while the rank serves reads pays a write→read
    /// turnaround that blocks the whole rank, but during a drain the bus
    /// is already turned around for writes. Cross-bank destinations are
    /// exempt — hiding the destination ACT under the read-out is the
    /// point of the placement — and so are fill-ins.
    pub fn pending_writeback_act(&self, bank: usize) -> bool {
        self.active[bank].is_some_and(|j| {
            j.kind == JobKind::Couple
                && j.dest_bank as usize == bank
                && j.state.src_done
                && !j.state.dest_opened
        })
    }

    /// The banks whose demand the scheduler must hold back: exactly
    /// those where a migration role holds the row buffer.
    pub fn held_banks(&self) -> BankSet {
        self.held
    }

    /// Per-bank migrating-row blocks for the scheduler (`u32::MAX` =
    /// none): the row whose content is in flux for the role's lifetime.
    pub fn blocked_rows(&self) -> &[u32] {
        &self.row_block
    }

    /// Per-bank rows whose *reads* remain servable despite the block
    /// (`u32::MAX` = none): during the read-out phase the source row sits
    /// intact in the row buffer, so demand read hits interleave with the
    /// migration's own RD bursts — only writes must wait (they would be
    /// lost behind the data already streamed out).
    pub fn read_ok_rows(&self) -> &[u32] {
        &self.readout_src
    }

    /// The migrating row on `bank`, if a role is in flight there.
    pub fn blocked_row(&self, bank: usize) -> Option<u32> {
        let r = self.row_block[bank];
        (r != u32::MAX).then_some(r)
    }

    /// Whether `(bank, row)` has a pending migration role (queued or in
    /// flight, as source *or* destination) or an external reservation.
    pub fn is_row_pending(&self, bank: usize, row: u32) -> bool {
        self.reserved.contains(&(bank as u32, row))
    }

    /// Reserves `(bank, row)` for the capacity directory (e.g. the
    /// destination frame of a cross-channel move scheduled but not yet
    /// dispatched on this channel). Returns `false` if the row already
    /// has a pending role.
    pub fn reserve(&mut self, bank: usize, row: u32) -> bool {
        self.reserved.insert((bank as u32, row))
    }

    /// Releases an external reservation (or a staged-out source row once
    /// its move has landed elsewhere). Returns whether it was held.
    pub fn release(&mut self, bank: usize, row: u32) -> bool {
        self.reserved.remove(&(bank as u32, row))
    }

    /// Dispatches one coupling job with an explicit destination bank:
    /// with `dest_bank == bank` the job's two sides serialize on one row
    /// buffer, anything else is the overlapped two-bank execution.
    /// Returns `false` (and does nothing) if either row already has a
    /// pending role or the coordinates are degenerate.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_couple(
        &mut self,
        bank: usize,
        row: u32,
        dest_bank: usize,
        dest: u32,
        from: RowMode,
        to: RowMode,
        now: u64,
    ) -> bool {
        if self.is_row_pending(bank, row)
            || self.is_row_pending(dest_bank, dest)
            || (bank == dest_bank && row == dest)
        {
            return false;
        }
        self.enqueue_job(
            bank,
            MigrationJob {
                kind: JobKind::Couple,
                row,
                dest,
                dest_bank: dest_bank as u32,
                from,
                to,
                dispatched_at: now,
                state: JobState::new(self.bursts_per_phase, self.bursts_per_phase),
            },
        );
        true
    }

    /// Dispatches the read-out half of a cross-channel frame move: the
    /// full row `(bank, row)` is streamed out; on completion the data is
    /// staged (the row stays reserved until the system confirms the
    /// landing and releases it). Returns `false` if the row has a
    /// pending role.
    pub fn dispatch_evacuate_out(&mut self, bank: usize, row: u32, now: u64) -> bool {
        if self.is_row_pending(bank, row) {
            return false;
        }
        self.enqueue_job(
            bank,
            MigrationJob {
                kind: JobKind::EvacuateOut,
                row,
                dest: u32::MAX,
                dest_bank: u32::MAX,
                from: RowMode::MaxCapacity,
                to: RowMode::MaxCapacity,
                dispatched_at: now,
                state: JobState::new(self.bursts_per_frame_move(), 0),
            },
        );
        true
    }

    /// Dispatches the write-back half of a cross-channel frame move: a
    /// full row's worth of data (staged by the system) is written into
    /// the frame `(bank, row)`, which the caller must hold through
    /// [`MigrationEngine::reserve`]; the job adopts that reservation as
    /// its own entry. Returns `false` if the frame is not reserved.
    pub fn dispatch_fill(&mut self, bank: usize, row: u32, now: u64) -> bool {
        if !self.is_row_pending(bank, row) {
            return false;
        }
        self.enqueue_job(
            bank,
            MigrationJob {
                kind: JobKind::FillIn,
                row,
                dest: row,
                dest_bank: bank as u32,
                from: RowMode::MaxCapacity,
                to: RowMode::MaxCapacity,
                dispatched_at: now,
                state: JobState::new(0, self.bursts_per_frame_move()),
            },
        );
        true
    }

    fn enqueue_job(&mut self, bank: usize, job: MigrationJob) {
        self.reserved.insert((bank as u32, job.row));
        if let Some(db) = job.write_bank() {
            self.reserved.insert((db as u32, job.dest));
        }
        // The capacity directory's frame moves are few and system-wide
        // (a stuck move pins reservations on two channels), so they jump
        // the bank's coupling backlog; couplings keep FIFO order among
        // themselves.
        match job.kind {
            JobKind::Couple => self.queues.push_back(bank, job),
            _ => self.queues.push_front(bank, job),
        }
        self.pending_jobs += 1;
        self.work.insert(bank);
    }

    /// Whether the front job of `bank`'s queue cannot start because a
    /// migration role already occupies one of its banks.
    fn start_blocked(&self, bank: usize) -> bool {
        self.is_busy(bank)
            || self
                .queues
                .front(bank)
                .and_then(MigrationJob::write_bank)
                .is_some_and(|db| self.is_busy(db))
    }

    /// The first command of a queued job: the read-out ACT of its
    /// source, or — for a fill-in — the write-back ACT of its frame.
    fn start_target(job: &MigrationJob) -> (u32, RowMode) {
        match job.kind {
            JobKind::FillIn => (job.dest, RowMode::MaxCapacity),
            _ => (job.row, job.from),
        }
    }

    /// The queued job a closed `bank` could start next, as
    /// `(row, mode)` of its first ACT — the event-bound input for start
    /// candidates. `None` while any of the job's banks is occupied by
    /// another migration role (the occupying job's completion is an
    /// event, so the bound stays exact).
    pub fn queued_start(&self, bank: usize) -> Option<(u32, RowMode)> {
        if self.start_blocked(bank) {
            return None;
        }
        self.queues.front(bank).map(Self::start_target)
    }

    /// The earliest cycle ≥ `now` at which the rate limiter permits a
    /// migration job to *start* (`now` itself when unlimited or under
    /// budget, the next window boundary when the current window's starts
    /// are exhausted). In-flight jobs are never rate-gated.
    pub fn rate_gate(&self, now: u64) -> u64 {
        let Some(rate) = self.cfg.rate else {
            return now;
        };
        // Whether `now` lies in the charged window, without a division.
        let start = self.window_index * rate.window_cycles;
        let end = start + rate.window_cycles;
        if (start..end).contains(&now) && self.issued_in_window >= rate.max_starts {
            end
        } else {
            now
        }
    }

    /// The in-flight job side that issues on `bank`, as `(owning bank,
    /// whether it is the read-out side)`: the bank's own job until its
    /// read-out PRE, else the write-back side of the job whose
    /// destination frame lives here — for a same-bank coupling, the same
    /// job once its read-out is done. `None` for a bank without a role,
    /// and for a cross-bank owner past its read-out.
    fn role(&self, bank: usize) -> Option<(usize, bool)> {
        if self.active[bank].is_some_and(|j| !j.state.src_done) {
            return Some((bank, true));
        }
        self.dest_of[bank].map(|owner| (owner, false))
    }

    /// The flag recording whether the ACT of one side (read-out when
    /// `src`) of `owner`'s active job has issued.
    fn opened_mut(&mut self, owner: usize, src: bool) -> &mut bool {
        let state = &mut self.active[owner].as_mut().expect("active owner").state;
        if src {
            &mut state.src_opened
        } else {
            &mut state.dest_opened
        }
    }

    /// One side's next command on its bank: the side's ACT of `act` on a
    /// closed bank, a PRE of whatever row occupies the buffer (a demand
    /// row, or a refresh leftover) ahead of that ACT, and `then` on the
    /// side's own row once it holds the buffer.
    fn side_command(
        opened: bool,
        act: (u32, RowMode),
        then: Command,
        open: Option<(u32, RowMode)>,
    ) -> NextMigrationCommand {
        let (command, (row, mode)) = match (opened, open) {
            (false, None) => (Command::Act, act),
            (false, Some(occupant)) => (Command::Pre, occupant),
            (true, own) => (then, own.expect("an opened side holds its bank open")),
        };
        NextMigrationCommand { command, row, mode }
    }

    /// The read-out side's next command: ACT the source in its old
    /// mode, stream the RD bursts, PRE (the couple point, for
    /// couplings).
    fn src_side_command(job: &MigrationJob, open: Option<(u32, RowMode)>) -> NextMigrationCommand {
        let s = job.state;
        let then = if s.rd_remaining > 0 {
            Command::Rd
        } else {
            Command::Pre
        };
        Self::side_command(s.src_opened, (job.row, job.from), then, open)
    }

    /// The write-back side's next command: ACT the (max-capacity)
    /// destination frame, stream the WR bursts, PRE. `None` while the
    /// side is blocked on unread data or on the couple point — both
    /// released by read-out events.
    fn dest_side_command(
        job: &MigrationJob,
        open: Option<(u32, RowMode)>,
    ) -> Option<NextMigrationCommand> {
        let s = job.state;
        let (then, ready) = if s.wr_remaining > 0 {
            // A write burst may only carry data that has been read:
            // wr_remaining must stay strictly behind rd_remaining.
            (Command::Wr, s.wr_remaining > s.rd_remaining)
        } else {
            // All data written: completion must not outrun the
            // read-out's PRE (the couple point, for couplings).
            (Command::Pre, s.src_done)
        };
        if s.dest_opened && !ready {
            return None;
        }
        // Otherwise the write-back ACT may issue any time its bank is
        // free: on another bank from the job's start — hiding its
        // ACT/tRCD window under the read-out is the overlap a cross-bank
        // placement buys — and on the owning bank after the read-out.
        Some(Self::side_command(
            s.dest_opened,
            (job.dest, RowMode::MaxCapacity),
            then,
            open,
        ))
    }

    /// The command migration would issue next on `bank`, given the bank's
    /// open row/mode (`None` when the bank has no migration command to
    /// issue). Pure bookkeeping: timing readiness is the controller's
    /// engine's call. A queued job starts with its first ACT, on a
    /// closed bank only — an open bank is demand territory.
    pub fn next_command(
        &self,
        bank: usize,
        open: Option<(u32, RowMode)>,
    ) -> Option<NextMigrationCommand> {
        if let Some((owner, src)) = self.role(bank) {
            let job = self.active[owner].as_ref().expect("active owner");
            return if src {
                Some(Self::src_side_command(job, open))
            } else {
                Self::dest_side_command(job, open)
            };
        }
        if self.active[bank].is_some() || open.is_some() {
            return None;
        }
        let (row, mode) = self.queued_start(bank)?;
        Some(NextMigrationCommand {
            command: Command::Act,
            row,
            mode,
        })
    }

    /// Records that a migration ACT issued on `bank` (installs the
    /// owning job as active first if it was still queued).
    pub fn note_act(&mut self, bank: usize, now: u64) {
        self.bump(bank);
        if !self.is_busy(bank) {
            self.start(bank, now);
        }
        let (owner, src) = self.role(bank).expect("ACT requires a migration role");
        let opened = self.opened_mut(owner, src);
        debug_assert!(!*opened, "double ACT on one side");
        *opened = true;
        self.held.insert(bank);
    }

    /// Records that a migration column burst issued on `bank`.
    pub fn note_column(&mut self, bank: usize, _now: u64) {
        self.bump(bank);
        let (owner, src) = self.role(bank).expect("column requires a migration role");
        let s = &mut self.active[owner].as_mut().expect("active owner").state;
        if src {
            debug_assert!(s.src_opened && s.rd_remaining > 0);
            s.rd_remaining -= 1;
        } else {
            debug_assert!(s.dest_opened && s.wr_remaining > s.rd_remaining);
            s.wr_remaining -= 1;
        }
    }

    /// Records that a migration PRE issued on `bank`: a side's closing
    /// PRE, or a demand-row close ahead of a side's (re-)ACT. Returns
    /// the resulting step so the controller can apply couple points,
    /// completions, and placement bookkeeping.
    pub fn note_pre(&mut self, bank: usize) -> MigrationStep {
        self.bump(bank);
        let (owner, src) = self.role(bank).expect("PRE requires a migration role");
        if !*self.opened_mut(owner, src) {
            // The side's ACT had not issued: the PRE closed a demand row
            // ahead of it.
            return MigrationStep::InProgress;
        }
        self.held.remove(bank);
        let job = self.active[owner].as_mut().expect("active owner");
        if !src {
            debug_assert_eq!(
                job.state.wr_remaining, 0,
                "PRE before the write-back drained"
            );
            debug_assert!(
                job.state.src_done,
                "completion must not outrun the couple point"
            );
            return self.complete_job(owner);
        }
        debug_assert_eq!(job.state.rd_remaining, 0, "PRE before the read-out drained");
        job.state.src_done = true;
        let job = *job;
        self.readout_src[bank] = u32::MAX;
        match job.kind {
            JobKind::Couple => {
                // The couple point: the source row is usable in its new
                // mode from here; only the destination frame still
                // blocks — on this bank too, when it lives here.
                self.row_block[bank] = if job.dest_bank as usize == bank {
                    job.dest
                } else {
                    u32::MAX
                };
                MigrationStep::Couple {
                    row: job.row,
                    to: job.to,
                }
            }
            JobKind::EvacuateOut => {
                // Single-sided: the read-out completes the job. The
                // source row's reservation survives until the system
                // confirms the landing on the other channel. The
                // *demand* block is released here, though: row blocks
                // are tied to in-flight roles, so a demand write landing
                // in the staging window (before the fill lands and the
                // remap swap redirects the address) is a known fidelity
                // approximation of this data-less model — it costs
                // nothing in timing, and the staging window is bounded by
                // the pump cadence (see the ROADMAP open item).
                self.active[bank] = None;
                self.sync_work(bank);
                self.row_block[bank] = u32::MAX;
                self.pending_jobs -= 1;
                self.placements.push(PlacementEvent {
                    kind: JobKind::EvacuateOut,
                    bank: bank as u32,
                    row: job.row,
                    dest_bank: u32::MAX,
                    dest: u32::MAX,
                });
                MigrationStep::StagedOut {
                    bank: bank as u32,
                    row: job.row,
                    dispatched_at: job.dispatched_at,
                }
            }
            JobKind::FillIn => unreachable!("fill-ins have no read-out side"),
        }
    }

    /// Finishes the active job owned by `owner`, releasing every role
    /// and reservation it held and emitting its completion records.
    fn complete_job(&mut self, owner: usize) -> MigrationStep {
        let job = self.active[owner].take().expect("completing an active job");
        self.sync_work(owner);
        self.row_block[owner] = u32::MAX;
        self.readout_src[owner] = u32::MAX;
        if let Some(db) = job.write_bank() {
            self.dest_of[db] = None;
            self.sync_work(db);
            self.row_block[db] = u32::MAX;
            self.reserved.remove(&(db as u32, job.dest));
        }
        self.pending_jobs -= 1;
        self.reserved.remove(&(owner as u32, job.row));
        match job.kind {
            JobKind::Couple => {
                self.completed.push((owner as u32, job.row, job.to));
                let cross_bank = job.dest_bank as usize != owner;
                if cross_bank && self.log_couple_placements {
                    self.placements.push(PlacementEvent {
                        kind: JobKind::Couple,
                        bank: owner as u32,
                        row: job.row,
                        dest_bank: job.dest_bank,
                        dest: job.dest,
                    });
                }
                MigrationStep::Complete {
                    row: job.row,
                    to: job.to,
                    cross_bank,
                    dispatched_at: job.dispatched_at,
                }
            }
            JobKind::FillIn => {
                self.placements.push(PlacementEvent {
                    kind: JobKind::FillIn,
                    bank: owner as u32,
                    row: job.dest,
                    dest_bank: job.dest_bank,
                    dest: job.dest,
                });
                MigrationStep::Filled {
                    bank: job.dest_bank,
                    row: job.dest,
                    dispatched_at: job.dispatched_at,
                }
            }
            JobKind::EvacuateOut => unreachable!("evacuate-outs complete at their source PRE"),
        }
    }

    /// A refresh (or other controller-side maintenance) precharged `bank`
    /// out from under an in-flight migration role: that side must
    /// re-activate before continuing.
    pub fn on_forced_precharge(&mut self, bank: usize) {
        if let Some((owner, src)) = self.role(bank) {
            *self.opened_mut(owner, src) = false;
            self.held.remove(bank);
        }
    }

    /// Banks that currently have migration work (an in-flight role or a
    /// non-empty queue), visited from the round-robin pointer. The
    /// iterator owns a copy of the set, so the caller may issue commands
    /// while walking it.
    pub fn banks_with_work(&self) -> impl Iterator<Item = usize> {
        self.work.iter_from(self.rr_next)
    }

    /// Drains completed coupling `(bank, row, mode)` transitions into
    /// `out` (clearing `out` first).
    pub fn drain_completed_into(&mut self, out: &mut Vec<(u32, u32, RowMode)>) {
        out.clear();
        out.append(&mut self.completed);
    }

    /// Drains completed placement actions (staged read-outs, fills,
    /// cross-bank couplings) into `out` (clearing `out` first).
    pub fn drain_placements_into(&mut self, out: &mut Vec<PlacementEvent>) {
        out.clear();
        out.append(&mut self.placements);
    }

    /// Installs the bank's front job as in flight, charging one start
    /// against the rate window. The destination side takes its bank
    /// (the owning bank itself for same-bank couplings and fill-ins)
    /// and blocks the frame; a read-out side then blocks its source row
    /// on the owning bank.
    fn start(&mut self, bank: usize, now: u64) {
        if let Some(rate) = self.cfg.rate {
            let idx = now / rate.window_cycles;
            if idx != self.window_index {
                self.window_index = idx;
                self.issued_in_window = 0;
            }
            self.issued_in_window += 1;
        }
        let job = self
            .queues
            .pop_front(bank)
            .expect("start requires a queued job");
        if let Some(db) = job.write_bank() {
            self.dest_of[db] = Some(bank);
            self.work.insert(db);
            self.row_block[db] = job.dest;
        }
        if !job.state.src_done {
            self.row_block[bank] = job.row;
            self.readout_src[bank] = job.row;
        }
        self.active[bank] = Some(job);
    }

    fn bump(&mut self, bank: usize) {
        self.rr_next = (bank + 1) % self.queues.banks().max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatches a same-bank coupling of `row` into the frame `dest`.
    fn same_bank(e: &mut MigrationEngine, bank: usize, row: u32, dest: u32) -> bool {
        e.dispatch_couple(
            bank,
            row,
            bank,
            dest,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        )
    }

    fn engine(rate: Option<MigrationRate>) -> MigrationEngine {
        MigrationEngine::new(
            RelocationConfig {
                mode: RelocationMode::Background,
                rate,
            },
            4,
            1024,
            64,
        )
    }

    #[test]
    fn job_walks_read_out_couple_write_back() {
        let mut e = engine(None);
        assert!(same_bank(&mut e, 1, 7, 40));
        assert!(!same_bank(&mut e, 1, 7, 41));
        assert!(
            !same_bank(&mut e, 1, 9, 40),
            "a busy destination frame refuses a second job"
        );
        assert_eq!(e.pending_jobs(), 1);

        // Bank closed → first command is the read-out ACT in the old mode.
        assert_eq!(e.queued_start(1), Some((7, RowMode::MaxCapacity)));
        let c = e.next_command(1, None).unwrap();
        assert_eq!(c.command, Command::Act);
        assert_eq!(c.mode, RowMode::MaxCapacity);
        assert_eq!(c.row, 7);
        e.note_act(1, 0);
        assert!(e.is_busy(1));
        assert_eq!(e.queued_start(1), None, "in-flight job is not a start");

        assert_eq!(e.blocked_row(1), Some(7), "read-out blocks the source");
        for i in 0..16 {
            let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Rd, "burst {i}");
            e.note_column(1, 10 + i);
        }
        let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Pre);
        let step = e.note_pre(1);
        assert_eq!(
            step,
            MigrationStep::Couple {
                row: 7,
                to: RowMode::HighPerformance
            }
        );

        // Write-back activates the destination frame (max-capacity): the
        // coupled source row is demand-usable from the couple point on.
        assert_eq!(e.blocked_row(1), Some(40), "block moves to the dest");
        let c = e.next_command(1, None).unwrap();
        assert_eq!(c.command, Command::Act);
        assert_eq!(c.row, 40);
        assert_eq!(c.mode, RowMode::MaxCapacity);
        e.note_act(1, 120);
        for i in 0..16 {
            let c = e.next_command(1, Some((40, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Wr, "burst {i}");
            e.note_column(1, 130 + i);
        }
        let step = e.note_pre(1);
        assert_eq!(
            step,
            MigrationStep::Complete {
                row: 7,
                to: RowMode::HighPerformance,
                cross_bank: false,
                dispatched_at: 0,
            }
        );
        assert!(!e.is_busy(1));
        assert_eq!(e.pending_jobs(), 0);
        let mut done = Vec::new();
        e.drain_completed_into(&mut done);
        assert_eq!(done, vec![(1, 7, RowMode::HighPerformance)]);
    }

    #[test]
    fn pure_background_never_starts_on_an_open_bank() {
        let mut e = engine(None);
        same_bank(&mut e, 0, 3, 40);
        // The bank is open with a demand row: no start command until the
        // bank closes (demand territory).
        assert!(e.next_command(0, Some((9, RowMode::MaxCapacity))).is_none());
        // Once closed, the start ACT is offered.
        let c = e.next_command(0, None).unwrap();
        assert_eq!(c.command, Command::Act);
        assert_eq!(c.row, 3);
    }

    #[test]
    fn forced_precharge_restarts_the_phase_act() {
        let mut e = engine(None);
        same_bank(&mut e, 2, 1, 40);
        e.note_act(2, 0);
        e.note_column(2, 10);
        e.on_forced_precharge(2);
        let c = e.next_command(2, None).unwrap();
        assert_eq!(c.command, Command::Act, "phase re-activates after refresh");
        e.note_act(2, 50);
        // The burst already transferred stays transferred.
        let mut remaining = 0;
        while e
            .next_command(2, Some((1, RowMode::MaxCapacity)))
            .unwrap()
            .command
            == Command::Rd
        {
            e.note_column(2, 60 + remaining);
            remaining += 1;
        }
        assert_eq!(remaining, 15, "one of 16 bursts was already done");
    }

    #[test]
    fn forced_precharge_mid_write_back_reopens_the_destination_frame() {
        let mut e = engine(None);
        same_bank(&mut e, 1, 7, 40);
        e.note_act(1, 0);
        for i in 0..16 {
            e.note_column(1, 1 + i);
        }
        assert!(matches!(e.note_pre(1), MigrationStep::Couple { .. }));
        e.note_act(1, 30);
        for i in 0..5 {
            e.note_column(1, 31 + i);
        }
        // Refresh closes the destination frame mid-train.
        e.on_forced_precharge(1);
        assert!(!e.is_mid_phase(1), "the bank is released to refresh");
        assert!(e.is_busy(1));
        assert_eq!(e.blocked_row(1), Some(40), "the frame still blocks");
        assert!(
            e.pending_writeback_act(1),
            "the write-back ACT is due again"
        );
        // A demand row opened meanwhile is closed first.
        let c = e.next_command(1, Some((9, RowMode::MaxCapacity))).unwrap();
        assert_eq!((c.command, c.row), (Command::Pre, 9));
        assert_eq!(e.note_pre(1), MigrationStep::InProgress);
        let c = e.next_command(1, None).unwrap();
        assert_eq!(
            (c.command, c.row, c.mode),
            (Command::Act, 40, RowMode::MaxCapacity),
            "the destination frame re-activates"
        );
        e.note_act(1, 50);
        assert!(e.is_mid_phase(1));
        let mut written = 0;
        while e
            .next_command(1, Some((40, RowMode::MaxCapacity)))
            .unwrap()
            .command
            == Command::Wr
        {
            e.note_column(1, 60 + written);
            written += 1;
        }
        assert_eq!(written, 11, "five of 16 bursts were already written");
        assert_eq!(
            e.note_pre(1),
            MigrationStep::Complete {
                row: 7,
                to: RowMode::HighPerformance,
                cross_bank: false,
                dispatched_at: 0,
            }
        );
        assert!(!e.is_busy(1));
        assert_eq!(e.blocked_row(1), None);
    }

    #[test]
    fn pending_writeback_act_covers_same_bank_couple_to_write_back_act_only() {
        let mut e = engine(None);
        // Same-bank coupling on bank 0: pending exactly from the couple
        // point to the write-back ACT.
        same_bank(&mut e, 0, 7, 40);
        assert!(!e.pending_writeback_act(0), "queued");
        e.note_act(0, 0);
        for i in 0..16 {
            assert!(!e.pending_writeback_act(0), "read-out burst {i}");
            e.note_column(0, 1 + i);
        }
        assert!(!e.pending_writeback_act(0), "read-out drained");
        assert!(matches!(e.note_pre(0), MigrationStep::Couple { .. }));
        assert!(e.pending_writeback_act(0), "couple point passed");
        e.note_pre(0); // closes a demand row ahead of the ACT
        assert!(e.pending_writeback_act(0), "still before the ACT");
        e.note_act(0, 30);
        assert!(!e.pending_writeback_act(0), "write-back ACT issued");
        for i in 0..16 {
            e.note_column(0, 31 + i);
        }
        assert!(matches!(e.note_pre(0), MigrationStep::Complete { .. }));
        assert!(!e.pending_writeback_act(0), "complete");

        // Cross-bank coupling 1 → 3: never, on either bank — even with
        // the couple point passed and the destination ACT outstanding.
        let never =
            |e: &MigrationEngine| !e.pending_writeback_act(1) && !e.pending_writeback_act(3);
        assert!(e.dispatch_couple(
            1,
            7,
            3,
            41,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            100
        ));
        assert!(never(&e));
        e.note_act(1, 100);
        for i in 0..16 {
            e.note_column(1, 101 + i);
        }
        assert!(matches!(e.note_pre(1), MigrationStep::Couple { .. }));
        assert!(never(&e), "couple point passed, destination ACT pending");
        e.note_act(3, 121);
        e.note_column(3, 122);
        e.on_forced_precharge(3);
        assert!(never(&e), "destination ACT due again after refresh");
        e.note_act(3, 130);
        for i in 0..15 {
            e.note_column(3, 131 + i);
        }
        assert!(matches!(e.note_pre(3), MigrationStep::Complete { .. }));
        assert!(never(&e));

        // Fill-in on bank 2: write-back only, never pending either.
        assert!(e.reserve(2, 17));
        assert!(e.dispatch_fill(2, 17, 200));
        assert!(!e.pending_writeback_act(2));
        e.note_act(2, 200);
        e.note_column(2, 201);
        e.on_forced_precharge(2);
        assert!(!e.pending_writeback_act(2), "fill-in ACT due again");
        e.note_act(2, 210);
        for i in 0..31 {
            e.note_column(2, 211 + i);
        }
        assert!(matches!(e.note_pre(2), MigrationStep::Filled { .. }));
        assert!(!e.pending_writeback_act(2));
    }

    #[test]
    fn rate_limiter_gates_job_starts_only() {
        let rate = MigrationRate {
            window_cycles: 100,
            max_starts: 1,
        };
        let mut e = engine(Some(rate));
        same_bank(&mut e, 0, 1, 40);
        same_bank(&mut e, 2, 5, 40);
        assert_eq!(e.rate_gate(5), 5);
        e.note_act(0, 5); // first start charges the window
                          // Window 0 exhausted for *starts*: gate jumps to the boundary...
        assert_eq!(e.rate_gate(11), 100);
        assert_eq!(e.rate_gate(99), 100);
        // ...but the in-flight job's own commands are never gated.
        e.note_column(0, 10);
        e.note_column(0, 20);
        assert_eq!(e.rate_gate(99), 100, "columns do not charge the window");
        // New window: the second job may start, counter reset on charge.
        assert_eq!(e.rate_gate(100), 100);
        e.note_act(2, 100);
        assert_eq!(e.rate_gate(101), 200);
    }

    #[test]
    fn round_robin_rotates_across_banks_with_work() {
        let mut e = engine(None);
        same_bank(&mut e, 0, 1, 40);
        same_bank(&mut e, 2, 5, 40);
        let first: Vec<usize> = e.banks_with_work().collect();
        assert_eq!(first, vec![0, 2]);
        e.note_act(0, 0);
        let next: Vec<usize> = e.banks_with_work().collect();
        assert_eq!(next, vec![2, 0], "pointer moved past the served bank");
    }

    #[test]
    fn cross_bank_couple_overlaps_its_two_sides() {
        let mut e = engine(None);
        e.enable_couple_placement_log();
        assert!(e.dispatch_couple(
            1,
            7,
            3,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0
        ));
        // Both rows are guarded from the moment of dispatch.
        assert!(e.is_row_pending(1, 7));
        assert!(e.is_row_pending(3, 40));
        assert!(!e.is_row_pending(1, 40));

        // The start is the source ACT on the owning bank.
        let c = e.next_command(1, None).unwrap();
        assert_eq!((c.command, c.row), (Command::Act, 7));
        e.note_act(1, 0);
        assert!(e.is_busy(1) && e.is_busy(3), "both banks carry a role");
        assert_eq!(e.blocked_row(1), Some(7));
        assert_eq!(e.blocked_row(3), Some(40), "dest row blocks from start");

        // The destination ACT is offered immediately — concurrent with
        // the read-out.
        let c = e.next_command(3, None).unwrap();
        assert_eq!(
            (c.command, c.row, c.mode),
            (Command::Act, 40, RowMode::MaxCapacity)
        );
        e.note_act(3, 1);
        assert!(e.is_mid_phase(3));

        // Writes stay strictly behind reads.
        assert!(
            e.next_command(3, Some((40, RowMode::MaxCapacity)))
                .is_none(),
            "no data read yet → no write burst"
        );
        let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Rd);
        e.note_column(1, 2);
        let c = e.next_command(3, Some((40, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Wr, "one read releases one write");
        e.note_column(3, 3);
        assert!(e
            .next_command(3, Some((40, RowMode::MaxCapacity)))
            .is_none());

        // Drain the remaining reads; writes catch up but the destination
        // PRE still waits for the couple point.
        for i in 0..15 {
            e.note_column(1, 10 + i);
        }
        for i in 0..15 {
            let c = e.next_command(3, Some((40, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Wr);
            e.note_column(3, 40 + i);
        }
        assert!(
            e.next_command(3, Some((40, RowMode::MaxCapacity)))
                .is_none(),
            "write-back complete but the couple point has not passed"
        );
        // Source PRE = the couple point; the source bank frees entirely.
        let c = e.next_command(1, Some((7, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Pre);
        assert_eq!(
            e.note_pre(1),
            MigrationStep::Couple {
                row: 7,
                to: RowMode::HighPerformance
            }
        );
        assert_eq!(e.blocked_row(1), None, "source bank freed at couple");
        assert!(e.is_busy(1), "owner stays busy until the move lands");
        // Destination PRE completes the job.
        let c = e.next_command(3, Some((40, RowMode::MaxCapacity))).unwrap();
        assert_eq!(c.command, Command::Pre);
        assert_eq!(
            e.note_pre(3),
            MigrationStep::Complete {
                row: 7,
                to: RowMode::HighPerformance,
                cross_bank: true,
                dispatched_at: 0,
            }
        );
        assert!(!e.is_busy(1) && !e.is_busy(3));
        assert!(!e.is_row_pending(1, 7) && !e.is_row_pending(3, 40));
        let mut done = Vec::new();
        e.drain_completed_into(&mut done);
        assert_eq!(done, vec![(1, 7, RowMode::HighPerformance)]);
        let mut events = Vec::new();
        e.drain_placements_into(&mut events);
        assert_eq!(
            events,
            vec![PlacementEvent {
                kind: JobKind::Couple,
                bank: 1,
                row: 7,
                dest_bank: 3,
                dest: 40,
            }]
        );
    }

    #[test]
    fn queued_start_waits_for_a_free_destination_bank() {
        let mut e = engine(None);
        e.dispatch_couple(
            0,
            1,
            2,
            40,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.dispatch_couple(
            1,
            5,
            2,
            41,
            RowMode::MaxCapacity,
            RowMode::HighPerformance,
            0,
        );
        e.note_act(0, 0); // first job takes banks 0 and 2
        assert_eq!(
            e.queued_start(1),
            None,
            "second job's dest bank is occupied"
        );
        assert!(e.next_command(1, None).is_none());
        // A bank serving as a destination cannot start its own queue
        // either.
        same_bank(&mut e, 2, 9, 50);
        assert_eq!(e.queued_start(2), None);
    }

    #[test]
    fn evacuation_stages_and_fill_lands_a_frame_move() {
        let mut e = engine(None);
        // Cross-channel stage 1: read the full row out.
        assert!(e.dispatch_evacuate_out(0, 9, 0));
        assert_eq!(e.bursts_per_frame_move(), 32);
        let c = e.next_command(0, None).unwrap();
        assert_eq!((c.command, c.row), (Command::Act, 9));
        e.note_act(0, 0);
        for i in 0..32 {
            e.note_column(0, 1 + i);
        }
        let step = e.note_pre(0);
        assert_eq!(
            step,
            MigrationStep::StagedOut {
                bank: 0,
                row: 9,
                dispatched_at: 0
            }
        );
        assert!(!e.is_busy(0));
        assert!(
            e.is_row_pending(0, 9),
            "staged-out source stays reserved until the landing is confirmed"
        );
        assert!(e.release(0, 9), "the system releases it after the fill");

        // Stage 2 on the destination channel: a fill-in adopting the
        // system's reservation.
        assert!(e.reserve(2, 17));
        assert!(e.dispatch_fill(2, 17, 60));
        let c = e.next_command(2, None).unwrap();
        assert_eq!(
            (c.command, c.row, c.mode),
            (Command::Act, 17, RowMode::MaxCapacity)
        );
        e.note_act(2, 60);
        for i in 0..32 {
            let c = e.next_command(2, Some((17, RowMode::MaxCapacity))).unwrap();
            assert_eq!(c.command, Command::Wr, "burst {i}");
            e.note_column(2, 61 + i);
        }
        let step = e.note_pre(2);
        assert_eq!(
            step,
            MigrationStep::Filled {
                bank: 2,
                row: 17,
                dispatched_at: 60
            }
        );
        assert!(!e.is_row_pending(2, 17));
        let mut events = Vec::new();
        e.drain_placements_into(&mut events);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, JobKind::EvacuateOut);
        assert_eq!(events[1].kind, JobKind::FillIn);
        assert_eq!((events[1].dest_bank, events[1].dest), (2, 17));
    }
}
