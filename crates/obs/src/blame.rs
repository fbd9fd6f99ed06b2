//! Per-request wait-cause attribution: the latency anatomy layer.
//!
//! A request's enqueue→completion latency is decomposed into an exact,
//! mutually exclusive cycle budget over the [`WaitCause`] taxonomy: the
//! controller freezes one cause per queued request and lazily charges
//! whole dead windows to it, re-deriving the cause only at the
//! scheduling boundaries every walk executes identically (enqueues,
//! state-changing ticks, mode applications). The charges telescope —
//! each boundary settles `boundary − last_charge` cycles — so the
//! per-cause budget of a completed request sums *exactly* to its
//! measured latency, and because dead cycles charge nothing at the time
//! they elapse, the budgets are bit-identical across per-cycle,
//! skip-ahead, and threaded channel walks (the workspace
//! `blame_inertness` differential enforces both properties).
//!
//! A [`BlameSet`] aggregates the per-request budgets as one
//! [`LatencyHistogram`] per cause, with the same exact `merge` /
//! `delta_since` algebra as every other statistic in the repo — so
//! per-channel fusion, warmup subtraction, windowed series deltas, and
//! fleet-level fusion all work unchanged.

use crate::hist::LatencyHistogram;

/// The mutually exclusive causes a queued demand request's cycles are
/// charged to. Exactly one cause is frozen per request at any time;
/// priority runs top to bottom (a refresh-preempted controller charges
/// `Refresh` even if the request's bank is also timing-blocked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitCause {
    /// Queue-full rejection: cycles between the request's arrival and
    /// its successful enqueue (the CPU-side retry loop).
    Backpressure,
    /// Queue service preempted by a pending refresh (PRE-out plus the
    /// REF itself).
    Refresh,
    /// Queue service suspended by a stall-mode relocation batch.
    RelocationStall,
    /// Queue-selection wait: reads stalled behind an active write-drain
    /// episode, or writes parked until the next drain episode opens.
    WriteDrain,
    /// The target bank or row is held by an in-flight background
    /// migration job (row-block or mid-phase bank ownership).
    MigrationBlock,
    /// Row-conflict resolution: waiting to close a different open row
    /// (tRAS/tWR before PRE) or to re-activate after one (tRP).
    RowConflict,
    /// Own-bank timing for the request's next command with no conflict
    /// involved: tRCD before the column access, tRC between activates.
    BankBusy,
    /// Rank/bank-group/channel serialization: tRRD, tFAW, tCCD,
    /// write↔read bus turnarounds.
    Bus,
    /// The command was issuable but an older or prioritized request won
    /// the command bus (FR-FCFS ordering, the Cap rule, migration's
    /// eager-finish priority).
    Aging,
    /// Pure service: RD issue to last data beat (posted writes complete
    /// at issue, so their service component is zero).
    Service,
}

impl WaitCause {
    /// All causes, in a fixed order matching [`BlameSet`] indexing.
    pub const ALL: [WaitCause; 10] = [
        WaitCause::Backpressure,
        WaitCause::Refresh,
        WaitCause::RelocationStall,
        WaitCause::WriteDrain,
        WaitCause::MigrationBlock,
        WaitCause::RowConflict,
        WaitCause::BankBusy,
        WaitCause::Bus,
        WaitCause::Aging,
        WaitCause::Service,
    ];

    /// Number of causes.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase label for reports and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            WaitCause::Backpressure => "backpressure",
            WaitCause::Refresh => "refresh",
            WaitCause::RelocationStall => "relocation_stall",
            WaitCause::WriteDrain => "write_drain",
            WaitCause::MigrationBlock => "migration_block",
            WaitCause::RowConflict => "row_conflict",
            WaitCause::BankBusy => "bank_busy",
            WaitCause::Bus => "bus",
            WaitCause::Aging => "aging",
            WaitCause::Service => "service",
        }
    }

    /// The cause's index into a [`BlameSet`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The running per-request charge ledger the controller embeds in each
/// queue entry: the frozen cause, the cycle charging resumes from, and
/// the per-cause budget accumulated so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameLedger {
    /// Cycles not yet settled are charged from here.
    pub charge_from: u64,
    /// The cause frozen at the last boundary.
    pub cause: WaitCause,
    /// Settled cycles per cause (indexed by [`WaitCause::index`]).
    pub cycles: [u64; WaitCause::COUNT],
}

impl BlameLedger {
    /// A fresh ledger charging from `enqueue_cycle`, with the
    /// arrival→enqueue gap already settled as [`WaitCause::Backpressure`].
    pub fn new(arrival_cycle: u64, enqueue_cycle: u64) -> Self {
        let mut cycles = [0; WaitCause::COUNT];
        cycles[WaitCause::Backpressure.index()] = enqueue_cycle.saturating_sub(arrival_cycle);
        BlameLedger {
            charge_from: enqueue_cycle,
            cause: WaitCause::Backpressure,
            cycles,
        }
    }

    /// An inert ledger for attribution-off runs (never charged).
    pub fn disabled() -> Self {
        BlameLedger {
            charge_from: 0,
            cause: WaitCause::Backpressure,
            cycles: [0; WaitCause::COUNT],
        }
    }

    /// Settles `now − charge_from` cycles on the frozen cause and
    /// refreezes `cause` from `now` on — the boundary step. Charges
    /// telescope: summing every settled span reproduces the full
    /// enqueue→issue wait exactly.
    #[inline]
    pub fn settle(&mut self, now: u64, cause: WaitCause) {
        self.cycles[self.cause.index()] += now - self.charge_from;
        self.charge_from = now;
        self.cause = cause;
    }

    /// Total settled cycles across every cause.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// Per-cause latency distributions: one [`LatencyHistogram`] per
/// [`WaitCause`], each recording completed requests' per-cause budget
/// components (zero components are skipped, so a cause's `count` is the
/// number of requests that spent any cycles on it while the `sum`s
/// across causes still total the request class's exact latency sum).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlameSet {
    /// The per-cause histograms, indexed by [`WaitCause::index`].
    pub hists: [LatencyHistogram; WaitCause::COUNT],
}

impl BlameSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request's settled ledger: every nonzero
    /// per-cause component goes into that cause's histogram.
    pub fn record(&mut self, ledger: &BlameLedger) {
        for (cause, &cycles) in WaitCause::ALL.iter().zip(ledger.cycles.iter()) {
            if cycles > 0 {
                self.hists[cause.index()].record(cycles);
            }
        }
    }

    /// Records `cycles` against one cause directly (tests and synthetic
    /// fixtures).
    pub fn record_cause(&mut self, cause: WaitCause, cycles: u64) {
        if cycles > 0 {
            self.hists[cause.index()].record(cycles);
        }
    }

    /// The cause's distribution.
    pub fn of(&self, cause: WaitCause) -> &LatencyHistogram {
        &self.hists[cause.index()]
    }

    /// Total cycles attributed across every cause — for a demand
    /// request class this equals the class's latency-histogram sum
    /// exactly (the exactness contract).
    pub fn total_cycles(&self) -> u64 {
        self.hists.iter().map(|h| h.sum()).sum()
    }

    /// Whether nothing has been attributed.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.count() == 0)
    }

    /// Empties every histogram in place, keeping bucket allocations.
    pub fn clear(&mut self) {
        self.hists.iter_mut().for_each(LatencyHistogram::clear);
    }

    /// The per-cause maps every report's blame object carries, as JSON
    /// object bodies keyed by the stable cause labels
    /// (`"backpressure": 0, "refresh": 400, …`): the exact attributed
    /// cycles, then their [`BlameSet::fractions_permille`] shares.
    pub fn json_maps(&self) -> (String, String) {
        let map = |values: [u64; WaitCause::COUNT]| {
            WaitCause::ALL
                .iter()
                .zip(values)
                .map(|(cause, v)| format!("\"{}\": {v}", cause.label()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let cycles = WaitCause::ALL.map(|cause| self.of(cause).sum());
        (map(cycles), map(self.fractions_permille()))
    }

    /// Per-cause share of the attributed cycles in permille (integer,
    /// so reports stay byte-deterministic). All zeros when empty.
    pub fn fractions_permille(&self) -> [u64; WaitCause::COUNT] {
        let total = self.total_cycles();
        let mut out = [0; WaitCause::COUNT];
        if total == 0 {
            return out;
        }
        for (o, h) in out.iter_mut().zip(self.hists.iter()) {
            *o = h.sum() * 1000 / total;
        }
        out
    }

    /// Causes ordered by attributed cycles, heaviest first, zero-cycle
    /// causes omitted — the "top blame" vector SLO violations carry.
    pub fn dominant(&self) -> Vec<(WaitCause, u64)> {
        let mut v: Vec<(WaitCause, u64)> = WaitCause::ALL
            .iter()
            .map(|&c| (c, self.of(c).sum()))
            .filter(|&(_, s)| s > 0)
            .collect();
        // Stable tie-break on the fixed cause order keeps reports
        // byte-deterministic.
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        v
    }

    /// Histogram-wise sum (per-channel and fleet fusion); exact.
    pub fn merge(&mut self, other: &BlameSet) {
        for (s, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            s.merge(o);
        }
    }

    /// Histogram-wise difference `self − earlier` (warmup and window
    /// subtraction); exact inverse of [`BlameSet::merge`].
    #[must_use]
    pub fn delta_since(&self, earlier: &BlameSet) -> BlameSet {
        let mut out = BlameSet::new();
        for ((o, s), e) in out
            .hists
            .iter_mut()
            .zip(self.hists.iter())
            .zip(earlier.hists.iter())
        {
            *o = s.delta_since(e);
        }
        out
    }

    /// Folds many sets into one with [`BlameSet::merge`].
    pub fn fused<'a>(parts: impl IntoIterator<Item = &'a BlameSet>) -> BlameSet {
        let mut out = BlameSet::new();
        for p in parts {
            out.merge(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cause charged from `seed`, no `..Default` — adding a
    /// [`WaitCause`] variant breaks this at compile time, forcing the
    /// merge/delta algebra and every report to be revisited (the drift
    /// guard `MemStats` and `SkipProfile` use).
    fn all_causes(seed: u64) -> BlameSet {
        let mut s = BlameSet::new();
        for (i, &c) in WaitCause::ALL.iter().enumerate() {
            s.record_cause(c, seed + i as u64);
            s.record_cause(c, seed * 3 + 1);
        }
        s
    }

    #[test]
    fn ledger_charges_telescope() {
        let mut l = BlameLedger::new(10, 25);
        assert_eq!(l.cycles[WaitCause::Backpressure.index()], 15);
        l.settle(40, WaitCause::RowConflict); // 25..40 on Backpressure
        l.settle(100, WaitCause::Refresh); // 40..100 on RowConflict
        l.settle(130, WaitCause::Aging); // 100..130 on Refresh
        l.settle(130, WaitCause::Bus); // zero-width boundary
        l.settle(150, WaitCause::Service); // 130..150 on Bus
        assert_eq!(l.cycles[WaitCause::Backpressure.index()], 15 + 15);
        assert_eq!(l.cycles[WaitCause::RowConflict.index()], 60);
        assert_eq!(l.cycles[WaitCause::Refresh.index()], 30);
        assert_eq!(l.cycles[WaitCause::Aging.index()], 0);
        assert_eq!(l.cycles[WaitCause::Bus.index()], 20);
        // The settled total is exactly arrival → last boundary.
        assert_eq!(l.total(), 150 - 10);
    }

    #[test]
    fn recording_preserves_sums_and_skips_zeros() {
        let mut l = BlameLedger::new(0, 0);
        l.settle(30, WaitCause::Bus);
        l.settle(70, WaitCause::Service);
        let mut set = BlameSet::new();
        set.record(&l);
        assert_eq!(set.total_cycles(), l.total());
        assert_eq!(set.of(WaitCause::Backpressure).count(), 1);
        assert_eq!(set.of(WaitCause::Bus).count(), 1);
        assert_eq!(set.of(WaitCause::Refresh).count(), 0);
        let top = set.dominant();
        assert_eq!(top[0], (WaitCause::Bus, 40));
        assert_eq!(top[1], (WaitCause::Backpressure, 30));
    }

    #[test]
    fn merge_and_delta_are_inverses() {
        let a = all_causes(100);
        let b = all_causes(9_000);
        let mut fused = a.clone();
        fused.merge(&b);
        assert_eq!(fused.delta_since(&a), b);
        assert_eq!(fused.delta_since(&b), a);
        assert_eq!(fused.total_cycles(), a.total_cycles() + b.total_cycles());
        assert_eq!(BlameSet::fused([&a]), a);
        assert_eq!(BlameSet::fused(std::iter::empty()), BlameSet::new());
    }

    #[test]
    fn fractions_are_permille_of_total() {
        let mut s = BlameSet::new();
        s.record_cause(WaitCause::Refresh, 750);
        s.record_cause(WaitCause::Service, 250);
        let f = s.fractions_permille();
        assert_eq!(f[WaitCause::Refresh.index()], 750);
        assert_eq!(f[WaitCause::Service.index()], 250);
        assert_eq!(BlameSet::new().fractions_permille(), [0; WaitCause::COUNT]);
    }

    #[test]
    fn cause_indexing_is_stable() {
        for (i, c) in WaitCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(WaitCause::COUNT, 10);
    }
}
