//! The capacity directory: free-frame tracking, destination placement,
//! and cross-channel frame rebalancing.
//!
//! A coupling displaces half a row of data into an OS-allocated
//! max-capacity *destination frame*. Where that frame lives is a
//! placement decision with real performance consequences:
//!
//! * **same bank** ([`DestinationPicker::SameBank`], the legacy model) —
//!   the read-out and write-back phases serialize on one bank's row
//!   buffer, and the write-back ACT additionally waits for a write-drain
//!   episode;
//! * **cross bank** ([`DestinationPicker::CrossBank`]) — the destination
//!   frame sits in a *different* bank of the same channel, so the
//!   write-back's ACT/tRCD window hides under the read-out's burst train
//!   and the write bursts chase the read bursts with no inter-phase gap
//!   (TL-DRAM's inter-subarray-copy insight applied at bank granularity);
//! * **cross channel** ([`DestinationPicker::CrossChannel`]) — couplings
//!   still place cross-bank, and additionally a system-level rebalancer
//!   moves whole *frames* between channels at epoch boundaries: hot rows
//!   that overflow a saturated channel's fast-row budget are evacuated
//!   into free frames of an underloaded channel (and remapped, see
//!   [`crate::system::RemapTable`]), so both capacity and bus load follow
//!   demand instead of only the budget fraction
//!   ([`clr_policy`-side budget rebalancing]).
//!
//! [`FrameDirectory`] is the bookkeeping half: per-bank sets of
//! explicitly *freed* frames (rows whose contents were evacuated
//! elsewhere) that destination pickers consume first, plus counters the
//! rebalancer and the sweep report read. [`CapacityRebalancer`] is the
//! decision half: a pure, deterministic planner that turns per-channel
//! demand telemetry into "move K frames from channel A to channel B"
//! plans.
//!
//! [`clr_policy`-side budget rebalancing]: DestinationPicker::CrossChannel

use std::collections::BTreeSet;

/// Where a coupling's displaced half-row is written back — the pluggable
/// placement policy of the migration engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DestinationPicker {
    /// Legacy placement: a max-capacity row of the *same bank* as the
    /// coupled row. Read-out and write-back serialize on the bank.
    #[default]
    SameBank,
    /// A max-capacity row of a *different bank* of the same channel: the
    /// job's two phases issue into two banks and overlap.
    CrossBank,
    /// Cross-bank couplings plus the system-level frame rebalancer:
    /// whole frames move between channels at epoch boundaries, remapped
    /// through the [`RemapTable`](crate::system::RemapTable).
    CrossChannel,
}

impl DestinationPicker {
    /// Whether couplings may place their destination frame in another
    /// bank.
    pub fn is_cross_bank(&self) -> bool {
        !matches!(self, DestinationPicker::SameBank)
    }

    /// Whether the system-level cross-channel frame rebalancer is
    /// enabled.
    pub fn is_cross_channel(&self) -> bool {
        matches!(self, DestinationPicker::CrossChannel)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DestinationPicker::SameBank => "same-bank",
            DestinationPicker::CrossBank => "cross-bank",
            DestinationPicker::CrossChannel => "cross-channel",
        }
    }
}

/// Per-bank directory of allocatable destination frames.
///
/// The simulator's OS abstraction treats any max-capacity row without a
/// pending migration role as allocatable (the legacy scan); the
/// directory refines that with rows *known free* — frames whose contents
/// were evacuated to another channel. Pickers consume known-free
/// frames first, so evacuations actually create usable local headroom
/// instead of being pure accounting.
///
/// Sets are [`BTreeSet`]s so allocation order is deterministic.
#[derive(Debug, Clone)]
pub struct FrameDirectory {
    /// Explicitly freed frames per flat bank.
    freed: Vec<BTreeSet<u32>>,
    /// Frames freed over the directory's lifetime.
    freed_total: u64,
    /// Frames handed out over the directory's lifetime.
    consumed_total: u64,
}

impl FrameDirectory {
    /// An empty directory for `banks` banks.
    pub fn new(banks: usize) -> Self {
        FrameDirectory {
            freed: vec![BTreeSet::new(); banks],
            freed_total: 0,
            consumed_total: 0,
        }
    }

    /// Number of banks tracked.
    pub fn banks(&self) -> usize {
        self.freed.len()
    }

    /// Marks `(bank, row)` as a known-free frame (its contents moved
    /// elsewhere).
    pub fn free(&mut self, bank: usize, row: u32) {
        if self.freed[bank].insert(row) {
            self.freed_total += 1;
        }
    }

    /// Whether `(bank, row)` is a known-free frame.
    pub fn is_free(&self, bank: usize, row: u32) -> bool {
        self.freed[bank].contains(&row)
    }

    /// The lowest known-free frame in `bank` passing `usable`, removed
    /// from the directory.
    pub fn take_in_bank(
        &mut self,
        bank: usize,
        mut usable: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let row = self.freed[bank].iter().copied().find(|&r| usable(r))?;
        self.freed[bank].remove(&row);
        self.consumed_total += 1;
        Some(row)
    }

    /// The lowest known-free frame in `bank` passing `usable`, *left in
    /// the directory* — for reservations that may still be aborted (the
    /// reservation itself keeps pickers away; the frame is consumed only
    /// when data actually lands in it).
    pub fn peek_in_bank(&self, bank: usize, mut usable: impl FnMut(u32) -> bool) -> Option<u32> {
        self.freed[bank].iter().copied().find(|&r| usable(r))
    }

    /// Removes `(bank, row)` from the free set if present (a picker or
    /// reservation chose it through another path).
    pub fn take_exact(&mut self, bank: usize, row: u32) -> bool {
        let hit = self.freed[bank].remove(&row);
        if hit {
            self.consumed_total += 1;
        }
        hit
    }

    /// Frames freed over the directory's lifetime.
    pub fn freed_total(&self) -> u64 {
        self.freed_total
    }

    /// Frames consumed over the directory's lifetime.
    pub fn consumed_total(&self) -> u64 {
        self.consumed_total
    }
}

/// Tuning of the cross-channel frame rebalancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Minimum ratio of the hottest channel's demand to the coldest
    /// channel's before any frames move (hysteresis against churn).
    pub imbalance_ratio: f64,
    /// Maximum frame moves planned per epoch — each move is a whole-row
    /// evacuation plus a whole-row fill of real DRAM traffic, so the cap
    /// bounds the migration bandwidth the rebalancer can consume.
    pub moves_per_epoch: usize,
    /// Minimum accesses the hottest channel must have served this epoch;
    /// below it the imbalance signal is noise.
    pub min_demand: u64,
    /// Minimum accesses a victim row must have served this epoch to be
    /// worth a whole-row move — rows below it shift too little load to
    /// repay the evacuate + fill traffic.
    pub min_row_heat: u64,
    /// Maximum staged moves outstanding at once: scheduling past the
    /// migration engine's drain rate only accumulates reservations (and
    /// stale victim picks) in a queue, so the planner backs off until
    /// the staged work lands.
    pub max_in_flight: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            imbalance_ratio: 1.25,
            moves_per_epoch: 8,
            min_demand: 64,
            min_row_heat: 4,
            max_in_flight: 16,
        }
    }
}

/// One epoch's rebalancing decision: move up to `moves` frames' worth of
/// hot data *out of* channel `from` into free frames of channel `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalancePlan {
    /// The overloaded channel donating hot rows.
    pub from: usize,
    /// The underloaded channel receiving them.
    pub to: usize,
    /// Moves to schedule this epoch.
    pub moves: usize,
}

/// The system-level capacity rebalancer: a deterministic planner mapping
/// per-channel demand telemetry to frame moves.
///
/// The planner is pure — it owns no channel state — so the decision is
/// identical under per-cycle and skip-ahead walks (epoch boundaries fire
/// at the same cycle on every channel). The *driver*
/// ([`clr_sim::policyrun`]-style epoch loops, or a direct
/// [`MemorySystem`](crate::system::MemorySystem) user) selects concrete
/// victim rows and destination frames and dispatches the staged
/// evacuate/fill jobs.
///
/// [`clr_sim::policyrun`]: DestinationPicker::CrossChannel
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityRebalancer {
    cfg: RebalanceConfig,
}

impl CapacityRebalancer {
    /// A rebalancer with the given tuning.
    pub fn new(cfg: RebalanceConfig) -> Self {
        CapacityRebalancer { cfg }
    }

    /// The tuning in force.
    pub fn config(&self) -> &RebalanceConfig {
        &self.cfg
    }

    /// Plans this epoch's frame moves from per-channel demand (accesses
    /// served this epoch). `None` when demand is balanced, too small, or
    /// there is only one channel. Ties break toward the lower channel
    /// index, so the plan is deterministic.
    pub fn plan(&self, demand: &[u64]) -> Option<RebalancePlan> {
        if demand.len() < 2 || self.cfg.moves_per_epoch == 0 {
            return None;
        }
        let mut from = 0usize;
        let mut to = 0usize;
        for (c, &d) in demand.iter().enumerate() {
            if d > demand[from] {
                from = c;
            }
            if d < demand[to] {
                to = c;
            }
        }
        if from == to || demand[from] < self.cfg.min_demand {
            return None;
        }
        if (demand[from] as f64) < self.cfg.imbalance_ratio * (demand[to].max(1) as f64) {
            return None;
        }
        Some(RebalancePlan {
            from,
            to,
            moves: self.cfg.moves_per_epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_predicates_and_labels() {
        assert_eq!(DestinationPicker::default(), DestinationPicker::SameBank);
        assert!(!DestinationPicker::SameBank.is_cross_bank());
        assert!(DestinationPicker::CrossBank.is_cross_bank());
        assert!(DestinationPicker::CrossChannel.is_cross_bank());
        assert!(DestinationPicker::CrossChannel.is_cross_channel());
        assert!(!DestinationPicker::CrossBank.is_cross_channel());
        assert_eq!(DestinationPicker::CrossChannel.label(), "cross-channel");
    }

    #[test]
    fn directory_allocates_deterministically() {
        let mut d = FrameDirectory::new(2);
        d.free(1, 9);
        d.free(1, 3);
        d.free(1, 3); // idempotent
        assert_eq!(d.freed_total(), 2);
        assert!(d.is_free(1, 9) && d.is_free(1, 3));
        // Lowest usable row first; the filter skips unusable candidates.
        assert_eq!(d.take_in_bank(1, |r| r != 3), Some(9));
        assert_eq!(d.take_in_bank(1, |_| true), Some(3));
        assert_eq!(d.take_in_bank(1, |_| true), None);
        assert_eq!(d.consumed_total(), 2);
        assert!(!d.is_free(1, 9) && !d.is_free(1, 3));
    }

    #[test]
    fn take_exact_claims_a_specific_frame() {
        let mut d = FrameDirectory::new(1);
        d.free(0, 7);
        assert!(d.take_exact(0, 7));
        assert!(!d.take_exact(0, 7));
        assert!(!d.is_free(0, 7));
    }

    #[test]
    fn rebalancer_plans_only_under_real_imbalance() {
        let rb = CapacityRebalancer::new(RebalanceConfig {
            imbalance_ratio: 1.5,
            moves_per_epoch: 4,
            min_demand: 100,
            ..RebalanceConfig::default()
        });
        // Balanced: no plan.
        assert_eq!(rb.plan(&[500, 480]), None);
        // Imbalanced but tiny: no plan.
        assert_eq!(rb.plan(&[90, 10]), None);
        // Real imbalance: hot channel exports to the cold one.
        assert_eq!(
            rb.plan(&[1000, 100]),
            Some(RebalancePlan {
                from: 0,
                to: 1,
                moves: 4
            })
        );
        assert_eq!(
            rb.plan(&[100, 50, 1000]),
            Some(RebalancePlan {
                from: 2,
                to: 1,
                moves: 4
            })
        );
        // One channel: nothing to rebalance.
        assert_eq!(rb.plan(&[1000]), None);
        // All-zero demand: from == to, no plan.
        assert_eq!(rb.plan(&[0, 0]), None);
    }
}
