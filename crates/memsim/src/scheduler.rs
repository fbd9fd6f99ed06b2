//! FR-FCFS-Cap request scheduling (Table 2; the policy of Mutlu &
//! Moscibroda, "Stall-Time Fair Memory Access Scheduling", MICRO 2007 —
//! reference 71 of the paper).
//!
//! FR-FCFS serves ready row-buffer hits before older row misses to
//! maximize row-buffer locality; the *Cap* variant bounds how many younger
//! hits may bypass an older request to the same bank, restoring fairness
//! under streaming interference.
//!
//! # Implementation: one pass over per-bank lanes
//!
//! The naive FR-FCFS-Cap scan is O(queue²) per cycle: every hit
//! candidate re-scans the queue for an older same-bank waiter, and the
//! oldest-first pass sorts the queue. That scan survives only as the
//! tests' oracle (`pick_reference`). Production keeps each queue
//! aggregated into per-bank *lanes* in a [`LaneCache`]:
//!
//! * the oldest entry per bank plus the oldest entry targeting a
//!   *different* row, which makes the Cap rule's "older waiter exists"
//!   test O(1) per candidate;
//! * the oldest open-row-hit read and write per bank and the oldest
//!   non-hit. Within a (bank, command) lane every entry shares the
//!   command and its timing readiness, so the lane's oldest entry stands
//!   for the whole lane.
//!
//! [`pick_cached`] is then one walk over the banks with queued demand.
//! It prices each bank's (at most three) candidates once, from the bank
//! index and the timing registers alone, without loading a queue entry,
//! and returns together pass 1's capped ready row hit, pass 2's oldest
//! ready command, and the exact next-ready bound: the minimum
//! earliest-issue cycle over every candidate, which the controller's
//! skip-ahead uses. The priced candidates stay valid until the lanes
//! change or the timing engine issues a command, so a pass on a later
//! cycle with neither (the tick a skip-ahead jump lands on, or one whose
//! only event was a read completion) re-decides from them without
//! walking the banks. The fuzz tests below hold it to the oracle,
//! decision for decision and bound for bound.

use clr_core::addr::DramAddr;

use crate::bankstate::{BankSet, BankState};
use crate::command::Command;
use crate::engine::{Target, TimingEngine};
use crate::request::{MemRequest, RequestKind};

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
    /// The [`crate::engine::Touched::bit`] of the command `blame.cause`
    /// was priced for (0 when no timing register can move it): the
    /// blame layer re-derives the cause only once an issue touched that
    /// command or this entry's bank (unused unless blame is on).
    pub blame_command: u8,
    /// The cycle the priced command's timing wait runs out, from which
    /// the cause is `Aging` (`u64::MAX` when no wait is pending). A new
    /// entry's 0 makes its first blame boundary derive it.
    pub blame_ready_at: u64,
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
    /// Oldest entry overall: `(arrival, queue index, row)`.
    oldest: (u64, usize, u32),
    /// Oldest arrival among entries whose row differs from `oldest`'s
    /// row (`u64::MAX` if the bank's entries all target one row).
    oldest_other_row: u64,
    /// Oldest open-row-hit read: `(arrival, queue index)`.
    hit_rd: Option<(u64, usize)>,
    /// Oldest open-row-hit write.
    hit_wr: Option<(u64, usize)>,
    /// Oldest non-hit entry (needs PRE on an open bank, ACT on a closed
    /// one).
    miss: Option<(u64, usize)>,
}

impl Lane {
    const EMPTY: Lane = Lane {
        oldest: (u64::MAX, usize::MAX, 0),
        oldest_other_row: u64::MAX,
        hit_rd: None,
        hit_wr: None,
        miss: None,
    };

    /// Folds one queue entry into the lane. Comparisons are lexicographic
    /// on `(arrival, queue index)`, so the fold is *order-independent*:
    /// folding the bank's entries in any order produces the same lane
    /// (the [`LaneCache`] rebuilds from unordered per-bank index lists).
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
                RequestKind::Read => &mut self.hit_rd,
                RequestKind::Write => &mut self.hit_wr,
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

/// Whether `(bank, row)` is excluded from scheduling by a per-bank row
/// block (`u32::MAX` sentinel = no block; an empty slice blocks nothing).
/// A background migration blocks exactly the row whose content is in
/// flux for its job's whole lifetime — except that *reads* stay servable
/// while the row is listed in `read_ok_rows` (the read-out phase keeps
/// the source's data intact in the row buffer).
pub(crate) fn entry_excluded(
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
    bank: usize,
    row: u32,
    kind: RequestKind,
) -> bool {
    if blocked_rows.get(bank).is_none_or(|&r| r != row) {
        return false;
    }
    !(kind == RequestKind::Read && read_ok_rows.get(bank).is_some_and(|&r| r == row))
}

/// Whether bank `bank`, with row `open` open, serves `command`: a bank
/// in `held` (a migration owns its row buffer) serves only read hits to
/// its read-out row in `read_ok_rows`; every other bank serves all.
pub(crate) fn bank_serves(
    held: BankSet,
    read_ok_rows: &[u32],
    bank: usize,
    open: Option<u32>,
    command: Command,
) -> bool {
    !held.contains(bank)
        || (command == Command::Rd && open.is_some_and(|r| read_ok_rows.get(bank) == Some(&r)))
}

/// One candidate of a pass: a lane's oldest entry for one command.
#[derive(Debug, Clone, Copy)]
struct Priced {
    /// The earliest cycle the command can issue.
    ready: u64,
    /// `(arrival, queue index)`: FR-FCFS age order.
    age: (u64, usize),
    command: Command,
    /// For a row hit, its bank and whether an older request to another
    /// row waits there (what the Cap rule checks); `None` for PRE/ACT.
    hit: Option<(usize, bool)>,
}

/// The two rows per bank whose queued demand the controller asks about
/// on every tick (see [`LaneCache::row_queued`]).
#[derive(Debug, Clone, Copy)]
pub enum RowWatch {
    /// The bank's open row: the timeout policy closes it only when no
    /// queued request wants it.
    Open,
    /// The bank's migrating row: demand waiting on it forces the job
    /// through at demand priority.
    Migrating,
}

/// Incrementally maintained per-bank lanes for one request queue.
///
/// The cache keeps the lanes *live* across passes and rebuilds a bank's
/// lane only when something it depends on changed:
///
/// * **queue composition** — an enqueue folds the new entry into its
///   bank's lane in O(1) (the lane fold is purely accumulative); a
///   removal dirties the removed entry's bank and, because the queues use
///   `swap_remove`, the bank of the entry whose queue index moved;
/// * **bank state** — an ACT or PRE flips entries between the hit and
///   miss classes, so the controller dirties the bank on every row-buffer
///   change (demand, refresh, timeout close, or migration).
///
/// Timing-engine state is *not* a lane input (readiness is priced per
/// pass), so engine updates never dirty the cache. Because the fold is
/// order-independent, rebuilding from the unordered per-bank index list
/// yields exactly the lane a queue-order fold would build.
///
/// The cache also keeps the last pass's priced candidates, valid while
/// the lanes, the engine's issue count and the held banks are unchanged
/// (bank rows and read-out rows change only with a lane invalidation).
/// Hit streaks and the cap are read afresh by every pass.
#[derive(Debug)]
pub struct LaneCache {
    lanes: Vec<Lane>,
    /// Queue indices per bank, unordered.
    by_bank: Vec<Vec<u32>>,
    /// Banks with at least one queued entry.
    occupied: BankSet,
    /// Banks whose lane is rebuilt before the next pass. A bank emptied
    /// meanwhile keeps its stale mark until that rebuild, which skips it.
    dirty: BankSet,
    /// Per bank and [`RowWatch`]: the watched row and how many queued
    /// entries target it (`u32::MAX` = no row watched yet).
    watched: Vec<[(u32, u32); 2]>,
    /// Every candidate of the last pass and their minimum price.
    priced: Vec<Priced>,
    bound: u64,
    /// The engine's issue count and held banks `priced` was taken at,
    /// while no lane has changed since (`None` once one has).
    priced_at: Option<(u64, BankSet)>,
}

impl LaneCache {
    /// An empty cache for `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` exceeds [`BankSet::CAPACITY`].
    pub fn new(banks: usize) -> Self {
        BankSet::assert_fits(banks);
        LaneCache {
            lanes: vec![Lane::EMPTY; banks],
            by_bank: vec![Vec::new(); banks],
            occupied: BankSet::default(),
            dirty: BankSet::default(),
            watched: vec![[(u32::MAX, 0); 2]; banks],
            priced: Vec::new(),
            bound: u64::MAX,
            priced_at: None,
        }
    }

    /// Whether any queued entry targets `bank`.
    pub fn has_entries(&self, bank: usize) -> bool {
        self.occupied.contains(bank)
    }

    /// Marks a bank whose row-buffer state changed (ACT or PRE): its hit
    /// and miss classes must be re-derived on the next pass.
    pub fn bank_state_changed(&mut self, bank: usize) {
        self.priced_at = None;
        if self.occupied.contains(bank) {
            self.dirty.insert(bank);
        }
    }

    /// Whether any queued entry targets `(bank, row)`, where `row` is the
    /// bank's `watch` row. The count is kept across enqueues and
    /// removals, so a query is O(1) until the watched row changes; only
    /// then are the bank's own entries recounted.
    pub fn row_queued(
        &mut self,
        entries: &[QueueEntry],
        bank: usize,
        watch: RowWatch,
        row: u32,
    ) -> bool {
        let slot = &mut self.watched[bank][watch as usize];
        if slot.0 != row {
            let count = self.by_bank[bank]
                .iter()
                .filter(|&&i| entries[i as usize].decoded.row == row)
                .count();
            *slot = (row, count as u32);
        }
        slot.1 > 0
    }

    /// Folds the entry just pushed onto `entries` into its bank's lane
    /// (O(1) — an enqueue cannot invalidate any existing lane). Entries
    /// targeting a blocked row are indexed but not folded: they neither
    /// issue nor count toward the bound until the block lifts.
    pub fn on_push(
        &mut self,
        entries: &[QueueEntry],
        banks: &[BankState],
        blocked_rows: &[u32],
        read_ok_rows: &[u32],
    ) {
        self.priced_at = None;
        let i = entries.len() - 1;
        let e = &entries[i];
        let b = e.target.bank;
        self.by_bank[b].push(i as u32);
        for slot in &mut self.watched[b] {
            if slot.0 == e.decoded.row {
                slot.1 += 1;
            }
        }
        if !self.occupied.contains(b) {
            self.occupied.insert(b);
            self.lanes[b] = Lane::EMPTY;
        } else if self.dirty.contains(b) {
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
        self.priced_at = None;
        let last = entries.len() - 1;
        let b = entries[idx].target.bank;
        for slot in &mut self.watched[b] {
            if slot.0 == entries[idx].decoded.row {
                slot.1 -= 1;
            }
        }
        let list = &mut self.by_bank[b];
        let pos = list
            .iter()
            .position(|&x| x as usize == idx)
            .expect("removed entry is indexed");
        list.swap_remove(pos);
        if list.is_empty() {
            self.occupied.remove(b);
        } else {
            self.dirty.insert(b);
        }
        if last != idx {
            let b2 = entries[last].target.bank;
            let list2 = &mut self.by_bank[b2];
            let pos2 = list2
                .iter()
                .position(|&x| x as usize == last)
                .expect("moved entry is indexed");
            list2[pos2] = idx as u32;
            self.dirty.insert(b2);
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
        for b in self.dirty.iter() {
            if !self.occupied.contains(b) {
                continue;
            }
            let mut lane = Lane::EMPTY;
            for &i in &self.by_bank[b] {
                let e = &entries[i as usize];
                if entry_excluded(blocked_rows, read_ok_rows, b, e.decoded.row, e.request.kind) {
                    continue;
                }
                lane.fold(e, i as usize, banks[b].is_open(e.decoded.row));
            }
            self.lanes[b] = lane;
        }
        self.dirty = BankSet::default();
    }
}

/// Selects the next command under FR-FCFS-Cap and returns it with the
/// queue's next-ready bound.
///
/// `hit_streak` is the per-flat-bank count of consecutively served row
/// hits; once it reaches `cap` while an older request waits on the same
/// bank, hits in that bank lose their priority. The decision is pass 1's
/// oldest ready, uncapped row hit, else pass 2's oldest ready command of
/// any kind (PRE → ACT → column, whichever step of its service is next).
/// The bound is the earliest cycle at which *any* candidate could issue
/// (`u64::MAX` when none is eligible); the cap reorders commands but
/// never delays the first issuable one, so it does not enter the bound.
///
/// A bank in `held` (a migration owns its row buffer) serves only read
/// hits to its read-out row in `read_ok_rows` (`bank_serves`); its other
/// candidates neither issue nor count toward the bound — the release is
/// itself an event.
#[allow(clippy::too_many_arguments)]
pub fn pick_cached(
    entries: &[QueueEntry],
    banks: &[BankState],
    engine: &TimingEngine,
    hit_streak: &[u32],
    cap: u32,
    now: u64,
    cache: &mut LaneCache,
    held: BankSet,
    blocked_rows: &[u32],
    read_ok_rows: &[u32],
) -> (Option<Decision>, u64) {
    if entries.is_empty() {
        return (None, u64::MAX);
    }
    if cache.priced_at != Some((engine.issued(), held)) {
        cache.rebuild_dirty(entries, banks, blocked_rows, read_ok_rows);
        cache.price(banks, engine, held, read_ok_rows);
    }
    if now < cache.bound {
        return (None, cache.bound);
    }
    // The best candidate of each pass.
    let mut best_hit: Option<&Priced> = None;
    let mut best_any: Option<&Priced> = None;
    for p in cache.priced.iter().filter(|p| p.ready <= now) {
        if best_any.is_none_or(|b| p.age < b.age) {
            best_any = Some(p);
        }
        let first_ready = p
            .hit
            .is_some_and(|(bank, older_waiter)| !(older_waiter && hit_streak[bank] >= cap));
        if first_ready && best_hit.is_none_or(|b| p.age < b.age) {
            best_hit = Some(p);
        }
    }
    let decision = best_hit.or(best_any).map(|p| Decision {
        queue_index: p.age.1,
        command: p.command,
    });
    (decision, cache.bound)
}

impl LaneCache {
    /// The walk over the banks with queued demand: prices each bank's
    /// candidates from the bank index and the timing registers.
    fn price(
        &mut self,
        banks: &[BankState],
        engine: &TimingEngine,
        held: BankSet,
        read_ok_rows: &[u32],
    ) {
        self.priced.clear();
        self.bound = u64::MAX;
        for b in self.occupied.iter() {
            let lane = &self.lanes[b];
            let open = banks[b].open_row;
            let miss_cmd = if open.is_some() {
                Command::Pre
            } else {
                Command::Act
            };
            for (cand, command) in [
                (lane.hit_rd, Command::Rd),
                (lane.hit_wr, Command::Wr),
                (lane.miss, miss_cmd),
            ] {
                let Some(age) = cand else { continue };
                if !bank_serves(held, read_ok_rows, b, open, command) {
                    continue;
                }
                let ready = engine.earliest_in_bank(command, b);
                self.bound = self.bound.min(ready);
                let hit = match (command, open) {
                    (Command::Rd | Command::Wr, Some(row)) => {
                        Some((b, lane.older_waiter(age.0, row)))
                    }
                    _ => None,
                };
                self.priced.push(Priced {
                    ready,
                    age,
                    command,
                    hit,
                });
            }
        }
        self.priced_at = Some((engine.issued(), held));
    }
}

/// The column command for a request.
pub fn column_command(e: &QueueEntry) -> Command {
    match e.request.kind {
        RequestKind::Read => Command::Rd,
        RequestKind::Write => Command::Wr,
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
        blame_command: 0,
        blame_ready_at: 0,
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

    /// The naive O(n²) FR-FCFS-Cap scan straight from the rules, with
    /// no per-bank aggregation: the oracle every optimised pass must
    /// match decision for decision and bound for bound. An entry is
    /// eligible unless its row is blocked (writes always, reads unless
    /// the row is the bank's read-out row) or its bank is held (then
    /// only read hits to an open read-out row stay eligible). Returns
    /// the decision and the next-ready bound: the minimum earliest-issue
    /// cycle over eligible entries (`u64::MAX` when none is eligible).
    #[allow(clippy::too_many_arguments)]
    fn pick_reference(
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
        hit_streak: &[u32],
        cap: u32,
        now: u64,
        held: BankSet,
        blocked_rows: &[u32],
        read_ok_rows: &[u32],
    ) -> (Option<Decision>, u64) {
        // The entry's next command and the target it is priced on.
        let next_command = |e: &QueueEntry| {
            let bank = &banks[e.target.bank];
            match bank.open_row {
                Some(r) if r == e.decoded.row => (column_command(e), e.target),
                Some(_) => (
                    Command::Pre,
                    Target {
                        mode: bank.open_mode,
                        ..e.target
                    },
                ),
                None => (Command::Act, e.target),
            }
        };
        let row_blocked = |e: &QueueEntry| {
            let b = e.target.bank;
            blocked_rows.get(b) == Some(&e.decoded.row)
                && !(e.request.kind == RequestKind::Read
                    && read_ok_rows.get(b) == Some(&e.decoded.row))
        };
        let eligible = |e: &QueueEntry| {
            let b = e.target.bank;
            if row_blocked(e) {
                return false;
            }
            if !held.contains(b) {
                return true;
            }
            e.request.kind == RequestKind::Read
                && banks[b].is_open(e.decoded.row)
                && read_ok_rows.get(b) == Some(&e.decoded.row)
        };
        // A strictly older entry to another row of the same bank; a
        // blocked-row entry is out of scheduling entirely and never
        // counts.
        let older_waiter_exists = |e: &QueueEntry| {
            entries.iter().any(|o| {
                o.target.bank == e.target.bank
                    && o.decoded.row != e.decoded.row
                    && o.request.arrival_cycle < e.request.arrival_cycle
                    && !row_blocked(o)
            })
        };
        let mut bound = u64::MAX;
        let mut best_hit: Option<(u64, usize)> = None;
        for (i, e) in entries.iter().enumerate() {
            if !eligible(e) {
                continue;
            }
            let (cmd, target) = next_command(e);
            let ready = engine.earliest(cmd, target);
            bound = bound.min(ready);
            if !banks[e.target.bank].is_open(e.decoded.row)
                || (hit_streak[e.target.bank] >= cap && older_waiter_exists(e))
            {
                continue;
            }
            let age = e.request.arrival_cycle;
            if ready <= now && best_hit.is_none_or(|(a, _)| age < a) {
                best_hit = Some((age, i));
            }
        }
        if let Some((_, i)) = best_hit {
            let decision = Decision {
                queue_index: i,
                command: column_command(&entries[i]),
            };
            return (Some(decision), bound);
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].request.arrival_cycle, i));
        let decision = order.into_iter().find_map(|i| {
            let e = &entries[i];
            let (cmd, target) = next_command(e);
            (eligible(e) && engine.can_issue(cmd, target, now)).then_some(Decision {
                queue_index: i,
                command: cmd,
            })
        });
        (decision, bound)
    }

    /// One pass over a cache built fresh from `entries` (every lane
    /// folded against today's bank state and row blocks).
    #[allow(clippy::too_many_arguments)]
    fn pick_fresh(
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
        hit_streak: &[u32],
        cap: u32,
        now: u64,
        held: BankSet,
        blocked_rows: &[u32],
        read_ok_rows: &[u32],
    ) -> (Option<Decision>, u64) {
        let mut cache = LaneCache::new(banks.len());
        for k in 1..=entries.len() {
            cache.on_push(&entries[..k], banks, blocked_rows, read_ok_rows);
        }
        pick_cached(
            entries,
            banks,
            engine,
            hit_streak,
            cap,
            now,
            &mut cache,
            held,
            blocked_rows,
            read_ok_rows,
        )
    }

    /// [`pick_fresh`] with no bank held and no row blocked.
    fn pick_open(
        entries: &[QueueEntry],
        banks: &[BankState],
        engine: &TimingEngine,
        hit_streak: &[u32],
        cap: u32,
        now: u64,
    ) -> (Option<Decision>, u64) {
        let none = BankSet::default();
        pick_fresh(entries, banks, engine, hit_streak, cap, now, none, &[], &[])
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
        let d = pick_open(&entries, &banks, &e, &[0; 4], 4, now).0.unwrap();
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
        // Below cap: the hit wins.
        let d = pick_open(&entries, &banks, &e, &[0; 4], 4, now).0.unwrap();
        assert_eq!(d.queue_index, 1);
        // At cap: oldest-first; service starts with PRE of the conflict.
        let d = pick_open(&entries, &banks, &e, &[4, 0, 0, 0], 4, now)
            .0
            .unwrap();
        assert_eq!(d.queue_index, 0);
        assert_eq!(d.command, Command::Pre);
    }

    #[test]
    fn closed_bank_gets_activate() {
        let e = engine();
        let banks = vec![BankState::new(); 4];
        let entries = vec![mk(0, 2, 7, RequestKind::Write, 0)];
        let d = pick_open(&entries, &banks, &e, &[0; 4], 4, 0).0.unwrap();
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
        assert!(pick_open(&entries, &banks, &e, &[0; 4], 4, 1).0.is_none());
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
        let (d, ready) = pick_open(&entries, &banks, &e, &[0; 4], 4, 0);
        assert!(d.is_none());
        assert_eq!(ready, e.earliest(Command::Act, t));
        assert!(pick_open(&entries, &banks, &e, &[0; 4], 4, ready - 1)
            .0
            .is_none());
        assert!(pick_open(&entries, &banks, &e, &[0; 4], 4, ready)
            .0
            .is_some());
        assert_eq!(pick_open(&[], &banks, &e, &[0; 4], 4, ready).1, u64::MAX);
    }

    #[test]
    fn lane_cache_matches_full_rebuild_on_fuzzed_op_sequences() {
        // Drive a persistent LaneCache through random enqueue /
        // swap-remove / bank-state / held-bank / row-block op sequences;
        // after every op the one pass over it must return the decision
        // and the bound of a pass over a cache built from scratch, and of
        // the naive oracle; the watched-row counts must match a rescan.
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
            let mut cache = LaneCache::new(4);
            let mut held = BankSet::default();
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
                        held.set(b, !held.contains(b));
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
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                let rebuilt = pick_fresh(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                assert_eq!(got, rebuilt, "round {round} op {op}: cached pass diverges");
                let oracle = pick_reference(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                assert_eq!(got, oracle, "round {round} op {op}: pass vs oracle");
                // Nothing priced changed: a pass at another cycle under
                // other hit streaks and cap re-decides from the kept
                // prices, and must still match the oracle.
                let streaks: Vec<u32> = (0..4).map(|_| (rng() % 6) as u32).collect();
                let cap = 1 + (rng() % 4) as u32;
                let now = (rng() % 64).max(20);
                let kept = pick_cached(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    &mut cache,
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                let oracle = pick_reference(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                assert_eq!(kept, oracle, "round {round} op {op}: kept prices vs oracle");
                let b = (rng() % 4) as usize;
                let (watch, row) = if rng() % 2 == 0 {
                    (RowWatch::Open, (rng() % 4) as u32)
                } else {
                    (RowWatch::Migrating, (rng() % 4) as u32)
                };
                let rescan = entries
                    .iter()
                    .any(|x| x.target.bank == b && x.decoded.row == row);
                assert_eq!(
                    cache.row_queued(&entries, b, watch, row),
                    rescan,
                    "round {round} op {op}: watched count vs rescan"
                );
            }
        }
    }

    #[test]
    fn rank_split_matches_flat_passes_on_two_ranks() {
        // An 8-bank, 2-rank engine: the one pass must stay decision- and
        // bound-identical to a fresh rebuild and to the naive oracle
        // under fuzzed queues, bank states, held banks and rank-gating
        // engine histories (ACT bursts filling one rank's tFAW window).
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
            let mut cache = LaneCache::new(8);
            let mut held = BankSet::default();
            let blocked_rows = vec![u32::MAX; 8];
            let read_ok_rows = banks
                .iter()
                .map(|b| b.open_row.unwrap_or(u32::MAX))
                .collect::<Vec<_>>();
            for op in 0..40 {
                if rng() % 8 == 0 {
                    let b = (rng() % 8) as usize;
                    held.set(b, !held.contains(b));
                } else if rng() % 4 < 3 || entries.is_empty() {
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
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                let rebuilt = pick_fresh(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                assert_eq!(got, rebuilt, "round {round} op {op}: cached pass diverges");
                let oracle = pick_reference(
                    &entries,
                    &banks,
                    &e,
                    &streaks,
                    cap,
                    now,
                    held,
                    &blocked_rows,
                    &read_ok_rows,
                );
                assert_eq!(got, oracle, "round {round} op {op}: pass vs oracle");
            }
        }
    }

    #[test]
    fn lane_pick_matches_reference_scan_on_fuzzed_queues() {
        // Deterministic fuzz over queue composition, bank states, hit
        // streaks and times; the one pass over fresh lanes must agree
        // with the naive oracle on every sample, decision and bound.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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
            let got = pick_open(&entries, &banks, &e, &streaks, cap, now);
            let none = BankSet::default();
            let want = pick_reference(&entries, &banks, &e, &streaks, cap, now, none, &[], &[]);
            assert_eq!(got, want, "round {round}: lanes diverge from reference");
        }
    }
}
