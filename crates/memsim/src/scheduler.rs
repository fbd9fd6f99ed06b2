//! FR-FCFS-Cap request scheduling (Table 2; the policy of Mutlu &
//! Moscibroda, "Stall-Time Fair Memory Access Scheduling", MICRO 2007 —
//! reference 71 of the paper).
//!
//! FR-FCFS serves ready row-buffer hits before older row misses to
//! maximize row-buffer locality; the *Cap* variant bounds how many younger
//! hits may bypass an older request to the same bank, restoring fairness
//! under streaming interference.
//!
//! # Implementation: per-bank lanes
//!
//! A naive FR-FCFS scan is O(queue²) per cycle (every hit candidate
//! re-scans the queue for an older same-bank waiter) plus an O(n log n)
//! sort for the oldest-first pass. This module instead aggregates the
//! queue into per-bank *lanes* in one O(queue) pass over a reusable
//! [`SchedScratch`]:
//!
//! * the oldest entry per bank plus the oldest entry targeting a
//!   *different* row, which makes the FR-FCFS-Cap "older waiter exists"
//!   test O(1) per candidate;
//! * the oldest ready-row-hit per bank (split by read/write, since their
//!   column commands have different timing readiness) and the oldest
//!   non-hit, so both scheduling passes and the skip-ahead engine's
//!   [`next_ready_cycle`] only visit banks that actually have pending
//!   work — one timing-engine query per (bank, command class) instead of
//!   one per request.
//!
//! Within a (bank, command-class) lane every entry shares the same command
//! and the same timing readiness, so the lane's oldest entry is a faithful
//! representative: the aggregated pick is decision-for-decision identical
//! to the naive scan (the differential test in `tests/` enforces this at
//! the whole-simulation level).

use clr_core::addr::DramAddr;

use crate::bankstate::BankState;
use crate::command::Command;
use crate::engine::{Target, TimingEngine};
use crate::request::MemRequest;

/// A queued request with its decoded coordinates and service bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct QueueEntry {
    /// The original request.
    pub request: MemRequest,
    /// Decoded DRAM coordinates.
    pub decoded: DramAddr,
    /// Pre-flattened engine target (mode = target row's mode).
    pub target: Target,
    /// Whether the scheduler had to activate a row for this request.
    pub needed_act: bool,
    /// Whether the scheduler had to precharge a conflicting row.
    pub needed_pre: bool,
    /// Whether the first service attempt has classified this request
    /// (hit/miss/conflict).
    pub classified: bool,
    /// Wait-cause charge ledger (inert unless the controller has blame
    /// attribution enabled).
    pub blame: clr_obs::BlameLedger,
}

/// The scheduling decision for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index into the queue of the chosen request.
    pub queue_index: usize,
    /// The command to issue on its behalf this cycle.
    pub command: Command,
}

/// Per-bank aggregation of one queue (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Validity stamp (lanes are reused across calls without clearing).
    stamp: u64,
    /// Oldest entry overall: `(arrival, queue index, row)`.
    oldest: (u64, usize, u32),
    /// Oldest arrival among entries whose row differs from `oldest`'s
    /// row (`u64::MAX` if the bank's entries all target one row).
    oldest_other_row: u64,
    /// Oldest ready-row-hit read: `(arrival, queue index)`.
    hit_rd: Option<(u64, usize)>,
    /// Oldest ready-row-hit write.
    hit_wr: Option<(u64, usize)>,
    /// Oldest non-hit entry (needs PRE on an open bank, ACT on a closed
    /// one).
    miss: Option<(u64, usize)>,
}

impl Lane {
    fn fresh(stamp: u64) -> Self {
        Lane {
            stamp,
            oldest: (u64::MAX, usize::MAX, 0),
            oldest_other_row: u64::MAX,
            hit_rd: None,
            hit_wr: None,
            miss: None,
        }
    }

    /// Folds one queue entry into the lane. Comparisons are lexicographic
    /// on `(arrival, queue index)`, so the fold is *order-independent*:
    /// folding the bank's entries in any order produces the same lane as
    /// the queue-order pass (the incremental [`LaneCache`] rebuilds from
    /// unordered per-bank index lists).
    fn fold(&mut self, e: &QueueEntry, i: usize, open_row_hit: bool) {
        let arrival = e.request.arrival_cycle;
        let row = e.decoded.row;
        if (arrival, i) < (self.oldest.0, self.oldest.1) {
            if row != self.oldest.2 && self.oldest.1 != usize::MAX {
                // The displaced oldest is the best "other row" candidate:
                // its arrival is a lower bound on every other entry's.
                self.oldest_other_row = self.oldest.0;
            }
            self.oldest = (arrival, i, row);
        } else if row != self.oldest.2 && arrival < self.oldest_other_row {
            self.oldest_other_row = arrival;
        }
        if open_row_hit {
            let slot = match e.request.kind {
                crate::request::RequestKind::Read => &mut self.hit_rd,
                crate::request::RequestKind::Write => &mut self.hit_wr,
            };
            if slot.is_none_or(|(a, j)| (arrival, i) < (a, j)) {
                *slot = Some((arrival, i));
            }
        } else if self.miss.is_none_or(|(a, j)| (arrival, i) < (a, j)) {
            self.miss = Some((arrival, i));
        }
    }

    /// Whether a strictly older entry targeting a row other than `row`
    /// waits in this bank — the FR-FCFS-Cap fairness test, O(1).
    fn older_waiter(&self, arrival: u64, row: u32) -> bool {
        if row != self.oldest.2 {
            self.oldest.0 < arrival
        } else {
            self.oldest_other_row < arrival
        }
    }
}

/// Reusable per-bank scratch for [`pick`] and [`next_ready_cycle`].
///
/// Owning it on the controller avoids a per-cycle allocation; lanes are
/// invalidated by stamping rather than clearing, so a call touches only
/// the banks that have queued work.
#[derive(Debug, Default)]
pub struct SchedScratch {
    lanes: Vec<Lane>,
    /// Banks with at least one queued entry this pass, in first-touch
    /// order.
    touched: Vec<usize>,
    stamp: u64,
}

/// Whether `(bank, row)` is excluded from scheduling by a per-bank row
/// block (`u32::MAX` sentinel = no block; an empty slice blocks nothing).
/// A background migration blocks exactly the row whose content is in
/// flux for its job's whole lifetime — except that *reads* stay servable
/// while the row is listed in `read_ok_rows` (the read-out phase keeps
/// the source's data intact in the row buffer).
fn entry_excluded(
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
    bank: usize,
    row: u32,
    kind: crate::request::RequestKind,
) -> bool {
    if blocked_rows.get(bank).is_none_or(|&r| r != row) {
        return false;
    }
    !(kind == crate::request::RequestKind::Read
        && read_ok_rows.get(bank).is_some_and(|&r| r == row))
}

/// Builds the per-bank lanes for `entries` into `scratch` (one O(n)
/// pass). Entries whose row is blocked are left out of the lanes
/// entirely: they neither issue nor contribute to readiness bounds until
/// the block lifts (a scheduling event).
fn analyze(
    entries: &[QueueEntry],
    banks: &[BankState],
    scratch: &mut SchedScratch,
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
) {
    scratch.stamp += 1;
    scratch.touched.clear();
    if scratch.lanes.len() < banks.len() {
        scratch.lanes.resize(banks.len(), Lane::fresh(0));
    }
    for (i, e) in entries.iter().enumerate() {
        let b = e.target.bank;
        if scratch.lanes[b].stamp != scratch.stamp {
            scratch.lanes[b] = Lane::fresh(scratch.stamp);
            scratch.touched.push(b);
        }
        if entry_excluded(blocked_rows, read_ok_rows, b, e.decoded.row, e.request.kind) {
            continue;
        }
        scratch.lanes[b].fold(e, i, banks[b].is_open(e.decoded.row));
    }
}

/// Selects the next command under FR-FCFS-Cap.
///
/// `hit_streak` is the per-flat-bank count of consecutively served row
/// hits; once it reaches `cap` while an older request waits on the same
/// bank, hits in that bank lose their priority.
pub fn pick(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    scratch: &mut SchedScratch,
) -> Option<Decision> {
    pick_with_bound(entries, banks, engine, hit_streak, cap, now, scratch).0
}

/// [`pick`] that additionally returns the earliest cycle at which *any*
/// queued command could issue (the queue's next-event bound), computed as
/// a byproduct of the oldest-first pass. The bound is meaningful only
/// when the decision is `None` — on an issue, controller state is about
/// to change anyway — and is `u64::MAX` for an empty queue. A dead
/// scheduling cycle thereby prices the skip-ahead jump for free.
#[allow(clippy::too_many_arguments)]
pub fn pick_with_bound(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    scratch: &mut SchedScratch,
) -> (Option<Decision>, u64) {
    if entries.is_empty() {
        return (None, u64::MAX);
    }
    analyze(entries, banks, scratch, &[], &[]);
    pick_from_lanes(
        entries,
        banks,
        engine,
        hit_streak,
        cap,
        now,
        &scratch.lanes,
        &scratch.touched,
        &[],
        &[],
    )
}

/// Per-command-class gating of pass 1's ready-hit scan: a rank whose
/// rank-scope earliest (tFAW/tRRD shadow, tRFC, turnaround) is in the
/// future cannot issue that column class *anywhere* in the rank, so the
/// rank-split cached path discharges all its hit lanes with one
/// [`TimingEngine::rank_gate`] query per class.
#[derive(Debug, Clone, Copy)]
struct HitGate {
    rd: bool,
    wr: bool,
}

impl HitGate {
    const OPEN: HitGate = HitGate {
        rd: false,
        wr: false,
    };
}

/// Pass 1 over one bank list: ready row hits, oldest first, unless
/// capped. Folds the best candidate into `best` (shared across rank
/// lists by the rank-split path).
#[allow(clippy::too_many_arguments)]
fn pass_hits(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    lanes: &[Lane],
    bank_list: &[usize],
    gate: HitGate,
    blocked: &[bool],
    read_ok_rows: &[u32],
    best: &mut Option<(u64, usize, Command)>,
) {
    let is_blocked = |b: usize| blocked.get(b).copied().unwrap_or(false);
    // A blocked bank whose open row is read-servable (a migration
    // read-out in progress) still serves *read hits* to that row; all
    // other service on the bank waits for the job.
    let read_hits_only = |b: usize| {
        banks[b]
            .open_row
            .is_some_and(|r| read_ok_rows.get(b).copied() == Some(r))
    };
    for &b in bank_list {
        let gated = is_blocked(b);
        if gated && !read_hits_only(b) {
            continue;
        }
        let lane = &lanes[b];
        for (cand, cmd, class_gated) in [
            (lane.hit_rd, Command::Rd, gate.rd),
            (lane.hit_wr, Command::Wr, gate.wr),
        ] {
            if class_gated || (gated && cmd != Command::Rd) {
                continue;
            }
            let Some((arrival, i)) = cand else { continue };
            let e = &entries[i];
            if gated && e.decoded.row != read_ok_rows[b] {
                continue;
            }
            if hit_streak[b] >= cap && lane.older_waiter(arrival, e.decoded.row) {
                continue;
            }
            if engine.can_issue(cmd, e.target, now)
                && best.is_none_or(|(a, j, _)| (arrival, i) < (a, j))
            {
                *best = Some((arrival, i, cmd));
            }
        }
    }
}

/// Pass 2 over one bank list: oldest-first over every request; issue
/// whatever step of its service (PRE → ACT → column) is ready. All
/// entries of a lane share readiness, so the lane's oldest entry stands
/// for the whole lane. Also folds every candidate's earliest issue cycle
/// into `bound` (the queue's next-event contribution — never pruned, so
/// the skip-ahead bound stays exact).
#[allow(clippy::too_many_arguments)]
fn pass_oldest(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    now: u64,
    lanes: &[Lane],
    bank_list: &[usize],
    blocked: &[bool],
    read_ok_rows: &[u32],
    best: &mut Option<(u64, usize, Command)>,
    bound: &mut u64,
) {
    let is_blocked = |b: usize| blocked.get(b).copied().unwrap_or(false);
    let read_hits_only = |b: usize| {
        banks[b]
            .open_row
            .is_some_and(|r| read_ok_rows.get(b).copied() == Some(r))
    };
    for &b in bank_list {
        let gated = is_blocked(b);
        if gated && !read_hits_only(b) {
            continue;
        }
        let lane = &lanes[b];
        let miss_cmd = if banks[b].open_row.is_some() {
            Command::Pre
        } else {
            Command::Act
        };
        for (cand, cmd) in [
            (lane.hit_rd, Command::Rd),
            (lane.hit_wr, Command::Wr),
            (lane.miss, miss_cmd),
        ] {
            if gated && cmd != Command::Rd {
                continue;
            }
            let Some((arrival, i)) = cand else { continue };
            if gated && entries[i].decoded.row != read_ok_rows[b] {
                continue;
            }
            // PRE must respect the mode of the row it closes, not the
            // target's.
            let target = if cmd == Command::Pre {
                Target {
                    mode: banks[b].open_mode,
                    ..entries[i].target
                }
            } else {
                entries[i].target
            };
            let ready = engine.earliest(cmd, target);
            *bound = (*bound).min(ready);
            if ready <= now && best.is_none_or(|(a, j, _)| (arrival, i) < (a, j)) {
                *best = Some((arrival, i, cmd));
            }
        }
    }
}

/// The shared scheduling passes over a set of built lanes. `bank_list` is
/// the banks with queued work; banks flagged in `blocked` (demand service
/// suspended — e.g. an in-flight background migration owns the row
/// buffer) are skipped entirely, in both the decision and the bound.
#[allow(clippy::too_many_arguments)]
fn pick_from_lanes(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    lanes: &[Lane],
    bank_list: &[usize],
    blocked: &[bool],
    read_ok_rows: &[u32],
) -> (Option<Decision>, u64) {
    let mut best: Option<(u64, usize, Command)> = None;
    pass_hits(
        entries,
        banks,
        engine,
        hit_streak,
        cap,
        now,
        lanes,
        bank_list,
        HitGate::OPEN,
        blocked,
        read_ok_rows,
        &mut best,
    );
    if let Some((_, i, command)) = best {
        return (
            Some(Decision {
                queue_index: i,
                command,
            }),
            u64::MAX,
        );
    }
    let mut best = None;
    let mut bound = u64::MAX;
    pass_oldest(
        entries,
        banks,
        engine,
        now,
        lanes,
        bank_list,
        blocked,
        read_ok_rows,
        &mut best,
        &mut bound,
    );
    (
        best.map(|(_, i, command)| Decision {
            queue_index: i,
            command,
        }),
        bound,
    )
}

/// [`pick_from_lanes`] over rank-split bank lists (one list per rank):
/// pass 1 consults the per-rank column gates once and skips every hit
/// lane of a rank that cannot issue that class now — one query
/// discharging the whole rank during tFAW shadows, refresh tRFC blocks,
/// and write-to-read turnarounds. Decision-identical to the flat pass
/// (the gate only removes candidates whose `can_issue` is false), which
/// the lane-cache fuzz test enforces.
#[allow(clippy::too_many_arguments)]
fn pick_from_ranked_lanes(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    lanes: &[Lane],
    rank_lists: &[Vec<usize>],
    blocked: &[bool],
    read_ok_rows: &[u32],
) -> (Option<Decision>, u64) {
    let mut best: Option<(u64, usize, Command)> = None;
    for (r, list) in rank_lists.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let gate = HitGate {
            rd: engine.rank_gate(Command::Rd, r) > now,
            wr: engine.rank_gate(Command::Wr, r) > now,
        };
        if gate.rd && gate.wr {
            continue;
        }
        pass_hits(
            entries,
            banks,
            engine,
            hit_streak,
            cap,
            now,
            lanes,
            list,
            gate,
            blocked,
            read_ok_rows,
            &mut best,
        );
    }
    if let Some((_, i, command)) = best {
        return (
            Some(Decision {
                queue_index: i,
                command,
            }),
            u64::MAX,
        );
    }
    let mut best = None;
    let mut bound = u64::MAX;
    for list in rank_lists {
        pass_oldest(
            entries,
            banks,
            engine,
            now,
            lanes,
            list,
            blocked,
            read_ok_rows,
            &mut best,
            &mut bound,
        );
    }
    (
        best.map(|(_, i, command)| Decision {
            queue_index: i,
            command,
        }),
        bound,
    )
}

/// The readiness pass shared by [`next_ready_cycle`] and
/// [`next_ready_cached`].
fn ready_from_lanes(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    lanes: &[Lane],
    bank_list: &[usize],
    blocked: &[bool],
    read_ok_rows: &[u32],
) -> Option<u64> {
    let is_blocked = |b: usize| blocked.get(b).copied().unwrap_or(false);
    let read_hits_only = |b: usize| {
        banks[b]
            .open_row
            .is_some_and(|r| read_ok_rows.get(b).copied() == Some(r))
    };
    let mut next: Option<u64> = None;
    for &b in bank_list {
        let gated = is_blocked(b);
        if gated && !read_hits_only(b) {
            continue;
        }
        let lane = &lanes[b];
        let miss_cmd = if banks[b].open_row.is_some() {
            Command::Pre
        } else {
            Command::Act
        };
        for (cand, cmd) in [
            (lane.hit_rd, Command::Rd),
            (lane.hit_wr, Command::Wr),
            (lane.miss, miss_cmd),
        ] {
            if gated && cmd != Command::Rd {
                continue;
            }
            let Some((_, i)) = cand else { continue };
            if gated && entries[i].decoded.row != read_ok_rows[b] {
                continue;
            }
            let target = if cmd == Command::Pre {
                Target {
                    mode: banks[b].open_mode,
                    ..entries[i].target
                }
            } else {
                entries[i].target
            };
            let t = engine.earliest(cmd, target);
            next = Some(next.map_or(t, |n| n.min(t)));
        }
    }
    next
}

/// The earliest cycle at which *any* queued entry's next service command
/// could issue, or `None` for an empty queue — the queue's contribution
/// to the controller's next-event computation. The FR-FCFS cap is
/// irrelevant here: it reorders commands but never delays the first
/// issuable one (pass 2 ignores it).
pub fn next_ready_cycle(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    scratch: &mut SchedScratch,
) -> Option<u64> {
    if entries.is_empty() {
        return None;
    }
    analyze(entries, banks, scratch, &[], &[]);
    ready_from_lanes(
        entries,
        banks,
        engine,
        &scratch.lanes,
        &scratch.touched,
        &[],
        &[],
    )
}

/// Incrementally maintained per-bank lanes for one request queue.
///
/// [`analyze`] rebuilds every lane from scratch on each scheduling pass —
/// an O(queue) walk that profiling showed at ≈40 % of the simulation
/// loop. The cache instead keeps the lanes *live* across passes and
/// rebuilds a bank's lane only when something it depends on changed:
///
/// * **queue composition** — an enqueue folds the new entry into its
///   bank's lane in O(1) (the lane fold is purely accumulative); a
///   removal dirties the removed entry's bank and, because the queues use
///   `swap_remove`, the bank of the entry whose queue index moved;
/// * **bank state** — an ACT or PRE flips entries between the hit and
///   miss classes, so the controller dirties the bank on every row-buffer
///   change (demand, refresh, timeout close, or migration).
///
/// Timing-engine state is *not* a lane input (readiness is queried per
/// pass), so engine updates never dirty the cache. Lane folds compare
/// `(arrival, queue index)` lexicographically, which makes the fold
/// order-independent — rebuilding from the unordered per-bank index list
/// yields exactly the lane the queue-order pass would build, a property
/// the fuzz test below checks against both [`analyze`] and the naive
/// reference scan.
#[derive(Debug, Default)]
pub struct LaneCache {
    lanes: Vec<Lane>,
    /// Queue indices per bank, unordered.
    by_bank: Vec<Vec<u32>>,
    /// Occupied banks, split by rank (`occupied[rank]` = that rank's
    /// banks with queued work, unordered within the rank) — the
    /// rank-split lanes the gated scheduling passes iterate.
    occupied: Vec<Vec<usize>>,
    /// Position of each bank within its rank's `occupied` list
    /// (`u32::MAX` when absent).
    occupied_pos: Vec<u32>,
    /// Banks per rank (for the flat-bank → rank split).
    banks_per_rank: usize,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
}

impl LaneCache {
    /// An empty cache for `banks` banks split into ranks of
    /// `banks_per_rank` (flat bank layout is rank-major, matching the
    /// controller's target decomposition).
    pub fn new(banks: usize, banks_per_rank: usize) -> Self {
        let bpr = banks_per_rank.max(1);
        LaneCache {
            lanes: vec![Lane::fresh(0); banks],
            by_bank: vec![Vec::new(); banks],
            occupied: vec![Vec::new(); banks.div_ceil(bpr).max(1)],
            occupied_pos: vec![u32::MAX; banks],
            banks_per_rank: bpr,
            dirty: vec![false; banks],
            dirty_list: Vec::new(),
        }
    }

    /// Whether any queued entry targets `bank` (maintained exactly by the
    /// push/remove hooks, so it is O(1) and always current).
    pub fn has_entries(&self, bank: usize) -> bool {
        self.occupied_pos[bank] != u32::MAX
    }

    /// Marks a bank whose row-buffer state changed (ACT or PRE): its hit
    /// and miss classes must be re-derived on the next pass.
    pub fn bank_state_changed(&mut self, bank: usize) {
        if self.occupied_pos[bank] != u32::MAX {
            self.force_dirty(bank);
        }
    }

    fn force_dirty(&mut self, bank: usize) {
        if !self.dirty[bank] {
            self.dirty[bank] = true;
            self.dirty_list.push(bank as u32);
        }
    }

    /// Whether any queued entry targets `(bank, row)` (an O(entries in
    /// bank) scan of the per-bank index list — used to decide whether
    /// demand is waiting on a migrating row).
    pub fn has_row_entry(&self, entries: &[QueueEntry], bank: usize, row: u32) -> bool {
        self.by_bank[bank]
            .iter()
            .any(|&i| entries[i as usize].decoded.row == row)
    }

    /// Folds the entry just pushed onto `entries` into its bank's lane
    /// (O(1) — an enqueue cannot invalidate any existing lane). Entries
    /// targeting a blocked row are indexed but not folded, mirroring
    /// [`analyze`].
    pub fn on_push(
        &mut self,
        entries: &[QueueEntry],
        banks: &[BankState],
        blocked_rows: &[u32],
        read_ok_rows: &[u32],
    ) {
        let i = entries.len() - 1;
        let e = &entries[i];
        let b = e.target.bank;
        self.by_bank[b].push(i as u32);
        if self.occupied_pos[b] == u32::MAX {
            let list = &mut self.occupied[b / self.banks_per_rank];
            self.occupied_pos[b] = list.len() as u32;
            list.push(b);
            self.lanes[b] = Lane::fresh(0);
        } else if self.dirty[b] {
            return;
        }
        if !entry_excluded(blocked_rows, read_ok_rows, b, e.decoded.row, e.request.kind) {
            self.lanes[b].fold(e, i, banks[b].is_open(e.decoded.row));
        }
    }

    /// Updates the index structures for `entries.swap_remove(idx)`. Must
    /// be called *before* the removal (it needs the entry still in
    /// place). Dirties the removed entry's bank and — when the queue's
    /// last entry moves into the hole — the moved entry's bank, whose
    /// lane holds the now-stale index.
    pub fn before_swap_remove(&mut self, entries: &[QueueEntry], idx: usize) {
        let last = entries.len() - 1;
        let b = entries[idx].target.bank;
        let list = &mut self.by_bank[b];
        let pos = list
            .iter()
            .position(|&x| x as usize == idx)
            .expect("removed entry is indexed");
        list.swap_remove(pos);
        if list.is_empty() {
            let p = self.occupied_pos[b] as usize;
            let rank_list = &mut self.occupied[b / self.banks_per_rank];
            let moved = *rank_list.last().expect("rank list is nonempty");
            rank_list.swap_remove(p);
            if moved != b {
                self.occupied_pos[moved] = p as u32;
            }
            self.occupied_pos[b] = u32::MAX;
            // A stale dirty flag (if any) is skipped lazily on rebuild.
        } else {
            self.force_dirty(b);
        }
        if last != idx {
            let b2 = entries[last].target.bank;
            let list2 = &mut self.by_bank[b2];
            let pos2 = list2
                .iter()
                .position(|&x| x as usize == last)
                .expect("moved entry is indexed");
            list2[pos2] = idx as u32;
            self.force_dirty(b2);
        }
    }

    /// Rebuilds every dirty (and still occupied) lane from its per-bank
    /// index list.
    fn rebuild_dirty(
        &mut self,
        entries: &[QueueEntry],
        banks: &[BankState],
        blocked_rows: &[u32],
        read_ok_rows: &[u32],
    ) {
        for k in 0..self.dirty_list.len() {
            let b = self.dirty_list[k] as usize;
            self.dirty[b] = false;
            if self.occupied_pos[b] == u32::MAX {
                continue;
            }
            let mut lane = Lane::fresh(0);
            for &i in &self.by_bank[b] {
                let e = &entries[i as usize];
                if entry_excluded(blocked_rows, read_ok_rows, b, e.decoded.row, e.request.kind) {
                    continue;
                }
                lane.fold(e, i as usize, banks[b].is_open(e.decoded.row));
            }
            self.lanes[b] = lane;
        }
        self.dirty_list.clear();
    }
}

/// [`pick_with_bound`] over an incrementally maintained [`LaneCache`]:
/// only banks dirtied since the last pass are re-aggregated, and the
/// rank-split occupied lists let pass 1 discharge whole ranks through
/// their column gates. Banks flagged in `blocked` are skipped (their
/// entries neither issue nor contribute to the bound — unblocking is
/// itself a scheduling event).
#[allow(clippy::too_many_arguments)]
pub fn pick_cached(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    cache: &mut LaneCache,
    blocked: &[bool],
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
) -> (Option<Decision>, u64) {
    if entries.is_empty() {
        return (None, u64::MAX);
    }
    cache.rebuild_dirty(entries, banks, blocked_rows, read_ok_rows);
    pick_from_ranked_lanes(
        entries,
        banks,
        engine,
        hit_streak,
        cap,
        now,
        &cache.lanes,
        &cache.occupied,
        blocked,
        read_ok_rows,
    )
}

/// [`next_ready_cycle`] over a [`LaneCache`], skipping blocked banks and
/// blocked rows. The readiness bound is a min over every candidate, so
/// the rank lists are walked in full (no gate pruning — the bound must
/// stay exact for the skip-ahead engine).
pub fn next_ready_cached(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    cache: &mut LaneCache,
    blocked: &[bool],
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
) -> Option<u64> {
    if entries.is_empty() {
        return None;
    }
    cache.rebuild_dirty(entries, banks, blocked_rows, read_ok_rows);
    let mut next: Option<u64> = None;
    for list in &cache.occupied {
        if let Some(t) = ready_from_lanes(
            entries,
            banks,
            engine,
            &cache.lanes,
            list,
            blocked,
            read_ok_rows,
        ) {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
    }
    next
}

/// The column command for a request.
pub fn column_command(e: &QueueEntry) -> Command {
    match e.request.kind {
        crate::request::RequestKind::Read => Command::Rd,
        crate::request::RequestKind::Write => Command::Wr,
    }
}

/// Builds a queue entry (helper shared with the controller).
pub fn entry(request: MemRequest, decoded: DramAddr, target: Target) -> QueueEntry {
    QueueEntry {
        request,
        decoded,
        target,
        needed_act: false,
        needed_pre: false,
        classified: false,
        blame: clr_obs::BlameLedger::disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycletimings::CycleTimings;
    use crate::request::{MemRequest, RequestKind};
    use clr_core::addr::PhysAddr;
    use clr_core::mode::RowMode;
    use clr_core::timing::{ClrTimings, InterfaceTimings};

    fn engine() -> TimingEngine {
        let t = ClrTimings::from_circuit_defaults();
        let i = InterfaceTimings::ddr4_2400();
        let ct = CycleTimings::baseline(&t, &i);
        TimingEngine::new(ct, 4, 2, 1, 1, |b| (b / 2, 0))
    }

    fn mk(id: u64, bank: usize, row: u32, kind: RequestKind, arrival: u64) -> QueueEntry {
        let decoded = DramAddr {
            bank: (bank % 2) as u32,
            bank_group: (bank / 2) as u32,
            row,
            ..DramAddr::default()
        };
        entry(
            MemRequest::new(id, PhysAddr(0), kind, arrival),
            decoded,
            Target {
                bank,
                bank_group: bank / 2,
                rank: 0,
                channel: 0,
                mode: RowMode::MaxCapacity,
            },
        )
    }

    /// The original O(n²) scan, kept as the behavioural reference the
    /// lane-aggregated `pick` must match decision-for-decision.
    fn pick_reference(
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
        hit_streak: &[u32],
        cap: u32,
        now: u64,
    ) -> Option<Decision> {
        fn older_waiter_exists(entries: &[QueueEntry], i: usize, e: &QueueEntry) -> bool {
            entries.iter().enumerate().any(|(j, o)| {
                j != i
                    && o.target.bank == e.target.bank
                    && o.decoded.row != e.decoded.row
                    && o.request.arrival_cycle < e.request.arrival_cycle
            })
        }
        let mut best_hit: Option<(u64, usize)> = None;
        for (i, e) in entries.iter().enumerate() {
            let bank = &banks[e.target.bank];
            if !bank.is_open(e.decoded.row) {
                continue;
            }
            if hit_streak[e.target.bank] >= cap && older_waiter_exists(entries, i, e) {
                continue;
            }
            let cmd = column_command(e);
            if engine.can_issue(cmd, e.target, now) {
                let age = e.request.arrival_cycle;
                if best_hit.is_none_or(|(a, _)| age < a) {
                    best_hit = Some((age, i));
                }
            }
        }
        if let Some((_, i)) = best_hit {
            return Some(Decision {
                queue_index: i,
                command: column_command(&entries[i]),
            });
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].request.arrival_cycle, i));
        for i in order {
            let e = &entries[i];
            let bank = &banks[e.target.bank];
            let cmd = match bank.open_row {
                Some(r) if r == e.decoded.row => column_command(e),
                Some(_) => Command::Pre,
                None => Command::Act,
            };
            let target = if cmd == Command::Pre {
                Target {
                    mode: bank.open_mode,
                    ..e.target
                }
            } else {
                e.target
            };
            if engine.can_issue(cmd, target, now) {
                return Some(Decision {
                    queue_index: i,
                    command: cmd,
                });
            }
        }
        None
    }

    #[test]
    fn prefers_ready_row_hit_over_older_miss() {
        let mut e = engine();
        let mut banks = vec![BankState::new(); 4];
        // Bank 0 has row 5 open and ready for column access.
        let t = Target {
            bank: 0,
            bank_group: 0,
            rank: 0,
            channel: 0,
            mode: RowMode::MaxCapacity,
        };
        e.issue(Command::Act, t, 0);
        banks[0].activate(5, RowMode::MaxCapacity, 0);
        let now = e.earliest(Command::Rd, t);

        let entries = vec![
            mk(0, 1, 9, RequestKind::Read, 0),  // older, bank closed
            mk(1, 0, 5, RequestKind::Read, 10), // younger, row hit
        ];
        let mut s = SchedScratch::default();
        let d = pick(&entries, &banks, &e, &[0; 4], 4, now, &mut s).unwrap();
        assert_eq!(d.queue_index, 1);
        assert_eq!(d.command, Command::Rd);
    }

    #[test]
    fn cap_reverts_to_oldest_first() {
        let mut e = engine();
        let mut banks = vec![BankState::new(); 4];
        let t = Target {
            bank: 0,
            bank_group: 0,
            rank: 0,
            channel: 0,
            mode: RowMode::MaxCapacity,
        };
        e.issue(Command::Act, t, 0);
        banks[0].activate(5, RowMode::MaxCapacity, 0);
        let now = e.earliest(Command::Rd, t).max(e.earliest(Command::Pre, t));

        let entries = vec![
            mk(0, 0, 9, RequestKind::Read, 0),  // older conflict in bank 0
            mk(1, 0, 5, RequestKind::Read, 10), // younger hit in bank 0
        ];
        let mut s = SchedScratch::default();
        // Below cap: the hit wins.
        let d = pick(&entries, &banks, &e, &[0; 4], 4, now, &mut s).unwrap();
        assert_eq!(d.queue_index, 1);
        // At cap: oldest-first; service starts with PRE of the conflict.
        let d = pick(&entries, &banks, &e, &[4, 0, 0, 0], 4, now, &mut s).unwrap();
        assert_eq!(d.queue_index, 0);
        assert_eq!(d.command, Command::Pre);
    }

    #[test]
    fn closed_bank_gets_activate() {
        let e = engine();
        let banks = vec![BankState::new(); 4];
        let entries = vec![mk(0, 2, 7, RequestKind::Write, 0)];
        let mut s = SchedScratch::default();
        let d = pick(&entries, &banks, &e, &[0; 4], 4, 0, &mut s).unwrap();
        assert_eq!(d.command, Command::Act);
    }

    #[test]
    fn nothing_issuable_returns_none() {
        let mut e = engine();
        let banks = vec![BankState::new(); 4];
        let t = Target {
            bank: 0,
            bank_group: 0,
            rank: 0,
            channel: 0,
            mode: RowMode::MaxCapacity,
        };
        e.issue(Command::Act, t, 0);
        // Bank 0 closed per `banks`, but engine forbids ACT until tRC.
        let entries = vec![mk(0, 0, 7, RequestKind::Read, 0)];
        let mut s = SchedScratch::default();
        assert!(pick(&entries, &banks, &e, &[0; 4], 4, 1, &mut s).is_none());
    }

    #[test]
    fn next_ready_cycle_predicts_first_issue() {
        let mut e = engine();
        let banks = vec![BankState::new(); 4];
        let t = Target {
            bank: 0,
            bank_group: 0,
            rank: 0,
            channel: 0,
            mode: RowMode::MaxCapacity,
        };
        e.issue(Command::Act, t, 0);
        // Bank 0 closed in `banks` (engine-only ACT): re-ACT waits tRC.
        let entries = vec![mk(0, 0, 7, RequestKind::Read, 0)];
        let mut s = SchedScratch::default();
        let ready = next_ready_cycle(&entries, &banks, &e, &mut s).unwrap();
        assert_eq!(ready, e.earliest(Command::Act, t));
        assert!(pick(&entries, &banks, &e, &[0; 4], 4, ready - 1, &mut s).is_none());
        assert!(pick(&entries, &banks, &e, &[0; 4], 4, ready, &mut s).is_some());
        assert!(next_ready_cycle(&[], &banks, &e, &mut s).is_none());
    }

    #[test]
    fn lane_cache_matches_full_rebuild_on_fuzzed_op_sequences() {
        // Drive a persistent LaneCache through random enqueue /
        // swap-remove / bank-state / blocked-bank op sequences; after
        // every op both the decision and the bound must match a
        // from-scratch rebuild (analyze + the shared lane passes), and —
        // with no banks blocked — the public pick_with_bound path.
        let mut state = 0x0DD0_FEED_5EED_1234u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..80 {
            let mut e = engine();
            let mut banks = vec![BankState::new(); 4];
            // Warm the engine with a few legal issues so readiness varies.
            for (b, bank) in banks.iter_mut().enumerate() {
                if rng() % 2 == 0 {
                    let t = Target {
                        bank: b,
                        bank_group: b / 2,
                        rank: 0,
                        channel: 0,
                        mode: RowMode::MaxCapacity,
                    };
                    let at = e.earliest(Command::Act, t);
                    e.issue(Command::Act, t, at);
                    bank.activate((rng() % 4) as u32, RowMode::MaxCapacity, at);
                }
            }
            let mut entries: Vec<QueueEntry> = Vec::new();
            let mut cache = LaneCache::new(4, 4);
            let mut blocked = vec![false; 4];
            let mut blocked_rows = vec![u32::MAX; 4];
            let mut read_ok_rows = vec![u32::MAX; 4];
            let mut next_id = 0u64;
            for op in 0..60 {
                match rng() % 7 {
                    0..=2 => {
                        let kind = if rng() % 4 == 0 {
                            RequestKind::Write
                        } else {
                            RequestKind::Read
                        };
                        entries.push(mk(
                            next_id,
                            (rng() % 4) as usize,
                            (rng() % 4) as u32,
                            kind,
                            rng() % 8,
                        ));
                        next_id += 1;
                        cache.on_push(&entries, &banks, &blocked_rows, &read_ok_rows);
                    }
                    3 => {
                        if !entries.is_empty() {
                            let idx = (rng() % entries.len() as u64) as usize;
                            cache.before_swap_remove(&entries, idx);
                            entries.swap_remove(idx);
                        }
                    }
                    4 => {
                        let b = (rng() % 4) as usize;
                        if banks[b].open_row.is_some() {
                            let _ = banks[b].precharge();
                        } else {
                            banks[b].activate((rng() % 4) as u32, RowMode::MaxCapacity, 0);
                        }
                        cache.bank_state_changed(b);
                    }
                    5 => {
                        let b = (rng() % 4) as usize;
                        blocked[b] = !blocked[b];
                    }
                    _ => {
                        // Row blocks change only alongside a lane
                        // invalidation (in the controller they coincide
                        // with a migration ACT/PRE on the bank).
                        let b = (rng() % 4) as usize;
                        if blocked_rows[b] == u32::MAX {
                            blocked_rows[b] = (rng() % 4) as u32;
                            // Half the time the blocked row stays
                            // read-servable (a read-out in progress).
                            read_ok_rows[b] = if rng() % 2 == 0 {
                                blocked_rows[b]
                            } else {
                                u32::MAX
                            };
                        } else {
                            blocked_rows[b] = u32::MAX;
                            read_ok_rows[b] = u32::MAX;
                        }
                        cache.bank_state_changed(b);
                    }
                }
                let streaks: Vec<u32> = (0..4).map(|_| (rng() % 6) as u32).collect();
                let cap = 1 + (rng() % 4) as u32;
                let now = (rng() % 64).max(20);

                let got = pick_cached(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    &mut cache,
                    &blocked,
                    &blocked_rows,
                    &read_ok_rows,
                );
                let got_ready = next_ready_cached(
                    &entries,
                    &banks,
                    &e,
                    &mut cache,
                    &blocked,
                    &blocked_rows,
                    &read_ok_rows,
                );
                let (want, want_ready) = if entries.is_empty() {
                    ((None, u64::MAX), None)
                } else {
                    let mut s = SchedScratch::default();
                    analyze(&entries, &banks, &mut s, &blocked_rows, &read_ok_rows);
                    (
                        pick_from_lanes(
                            &entries,
                            &banks,
                            &e,
                            &streaks,
                            cap,
                            now,
                            &s.lanes,
                            &s.touched,
                            &blocked,
                            &read_ok_rows,
                        ),
                        ready_from_lanes(
                            &entries,
                            &banks,
                            &e,
                            &s.lanes,
                            &s.touched,
                            &blocked,
                            &read_ok_rows,
                        ),
                    )
                };
                assert_eq!(got, want, "round {round} op {op}: cached pick diverges");
                assert_eq!(
                    got_ready, want_ready,
                    "round {round} op {op}: cached readiness diverges"
                );
                if blocked.iter().all(|&b| !b) && blocked_rows.iter().all(|&r| r == u32::MAX) {
                    let mut s = SchedScratch::default();
                    let public = pick_with_bound(&entries, &banks, &e, &streaks, cap, now, &mut s);
                    assert_eq!(got, public, "round {round} op {op}: public path diverges");
                }
            }
        }
    }

    #[test]
    fn rank_split_matches_flat_passes_on_two_ranks() {
        // An 8-bank, 2-rank engine: the rank-split cached pick (with its
        // per-rank column-gate skip) must stay decision- and
        // bound-identical to the flat, ungated passes under fuzzed
        // queues, bank states, and rank-gating engine histories
        // (ACT bursts filling one rank's tFAW window, refreshes).
        let t = ClrTimings::from_circuit_defaults();
        let i = InterfaceTimings::ddr4_2400();
        let ct = CycleTimings::baseline(&t, &i);
        let mk8 = |id: u64, bank: usize, row: u32, kind: RequestKind, arrival: u64| {
            let decoded = DramAddr {
                bank: (bank % 2) as u32,
                bank_group: ((bank / 2) % 2) as u32,
                rank: (bank / 4) as u32,
                row,
                ..DramAddr::default()
            };
            entry(
                MemRequest::new(id, PhysAddr(0), kind, arrival),
                decoded,
                Target {
                    bank,
                    bank_group: bank / 2,
                    rank: bank / 4,
                    channel: 0,
                    mode: RowMode::MaxCapacity,
                },
            )
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..80 {
            let mut e = TimingEngine::new(ct.clone(), 8, 4, 2, 1, |b| (b / 2, b / 4));
            let mut banks = vec![BankState::new(); 8];
            // Saturate one rank's ACT window so its gate sits in the
            // future while the other rank stays issuable.
            let hot_rank = (rng() % 2) as usize;
            for k in 0..4 {
                let b = hot_rank * 4 + k;
                let tgt = Target {
                    bank: b,
                    bank_group: b / 2,
                    rank: hot_rank,
                    channel: 0,
                    mode: RowMode::MaxCapacity,
                };
                let at = e.earliest(Command::Act, tgt);
                e.issue(Command::Act, tgt, at);
                banks[b].activate((rng() % 4) as u32, RowMode::MaxCapacity, at);
            }
            let mut entries: Vec<QueueEntry> = Vec::new();
            let mut cache = LaneCache::new(8, 4);
            let blocked = vec![false; 8];
            let blocked_rows = vec![u32::MAX; 8];
            let read_ok_rows = vec![u32::MAX; 8];
            for op in 0..40 {
                if rng() % 4 < 3 || entries.is_empty() {
                    let kind = if rng() % 4 == 0 {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    entries.push(mk8(
                        op as u64,
                        (rng() % 8) as usize,
                        (rng() % 4) as u32,
                        kind,
                        rng() % 8,
                    ));
                    cache.on_push(&entries, &banks, &blocked_rows, &read_ok_rows);
                } else {
                    let idx = (rng() % entries.len() as u64) as usize;
                    cache.before_swap_remove(&entries, idx);
                    entries.swap_remove(idx);
                }
                let streaks: Vec<u32> = (0..8).map(|_| (rng() % 6) as u32).collect();
                let cap = 1 + (rng() % 4) as u32;
                let now = (rng() % 96).max(20);
                let got = pick_cached(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    &mut cache,
                    &blocked,
                    &blocked_rows,
                    &read_ok_rows,
                );
                let want = if entries.is_empty() {
                    (None, u64::MAX)
                } else {
                    let mut s = SchedScratch::default();
                    analyze(&entries, &banks, &mut s, &blocked_rows, &read_ok_rows);
                    pick_from_lanes(
                        &entries,
                        &banks,
                        &e,
                        &streaks,
                        cap,
                        now,
                        &s.lanes,
                        &s.touched,
                        &blocked,
                        &read_ok_rows,
                    )
                };
                assert_eq!(got, want, "round {round} op {op}: rank split diverges");
            }
        }
    }

    #[test]
    fn lane_pick_matches_reference_scan_on_fuzzed_queues() {
        // Deterministic LCG fuzz over queue composition, bank states, hit
        // streaks and times; the lane-aggregated pick must agree with the
        // naive reference on every sample.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut s = SchedScratch::default();
        for round in 0..400 {
            let mut e = engine();
            let mut banks = vec![BankState::new(); 4];
            // Open some banks and warm the engine with a few legal issues.
            for (b, bank) in banks.iter_mut().enumerate() {
                if rng() % 2 == 0 {
                    let t = Target {
                        bank: b,
                        bank_group: b / 2,
                        rank: 0,
                        channel: 0,
                        mode: RowMode::MaxCapacity,
                    };
                    let at = e.earliest(Command::Act, t);
                    e.issue(Command::Act, t, at);
                    bank.activate((rng() % 4) as u32, RowMode::MaxCapacity, at);
                }
            }
            let n = (rng() % 12) as usize;
            let entries: Vec<QueueEntry> = (0..n)
                .map(|i| {
                    let kind = if rng() % 4 == 0 {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    mk(
                        i as u64,
                        (rng() % 4) as usize,
                        (rng() % 4) as u32,
                        kind,
                        rng() % 8,
                    )
                })
                .collect();
            let streaks: Vec<u32> = (0..4).map(|_| (rng() % 6) as u32).collect();
            let cap = 1 + (rng() % 4) as u32;
            let now = (rng() % 64).max(20);
            let got = pick(&entries, &banks, &e, &streaks, cap, now, &mut s);
            let want = pick_reference(&entries, &banks, &e, &streaks, cap, now);
            assert_eq!(got, want, "round {round}: lanes diverge from reference");
        }
    }
}
