//! The epoch-based mode-management runtime.
//!
//! [`PolicyRuntime`] sits between a [`ModePolicy`] and the memory
//! controller that owns the [`ModeTable`]. Each epoch it:
//!
//! 1. asks the policy for transitions given the epoch's telemetry,
//! 2. validates them — no-ops removed, one transition per row per epoch
//!    (the oscillation guard), the capacity budget never exceeded, the
//!    per-epoch transition-rate cap respected,
//! 3. prices the surviving batch through the [`RelocationEngine`], and
//! 4. returns an [`EpochOutcome`] for the caller to apply to the real
//!    table (the runtime never mutates controller state directly, so
//!    there is exactly one owner of the mode table).

use clr_core::capacity::capacity_loss_fraction;
use clr_core::mode::{ModeTable, RowMode};

use crate::policy::{ModePolicy, PolicyConstraints, PolicyContext, RowTransition};
use crate::reloc::{RelocationCost, RelocationEngine};
use crate::telemetry::{EpochTelemetry, RowId};

/// The validated result of one epoch.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Epoch sequence number (matches the telemetry frame).
    pub epoch: u64,
    /// Transitions that survived validation, demotions first. The caller
    /// must apply exactly these to the shared table.
    pub applied: Vec<RowTransition>,
    /// Proposals dropped by validation (no-ops, duplicates, budget or
    /// rate-cap violations).
    pub dropped: usize,
    /// Relocation cost of the applied batch.
    pub cost: RelocationCost,
}

/// Lifetime counters of one runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeStats {
    /// Epochs processed.
    pub epochs: u64,
    /// Transitions applied.
    pub transitions_applied: u64,
    /// Proposals dropped by validation.
    pub transitions_dropped: u64,
    /// Rows promoted to high-performance.
    pub promotions: u64,
    /// Rows demoted to max-capacity.
    pub demotions: u64,
    /// Total accesses observed across all telemetry frames.
    pub accesses_observed: u64,
    /// Cumulative relocation cost.
    pub total_cost: RelocationCost,
    /// Sum over epochs of the HP fraction after the epoch's transitions
    /// (divide by `epochs` for the time-average capacity loss).
    pub hp_fraction_sum: f64,
    /// Background migrations reported complete by the controller.
    pub migrations_completed: u64,
}

impl RuntimeStats {
    /// Time-averaged high-performance fraction over all epochs.
    pub fn avg_hp_fraction(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.hp_fraction_sum / self.epochs as f64
        }
    }

    /// Time-averaged fraction of device capacity forfeited (each HP row
    /// costs half its capacity).
    pub fn avg_capacity_loss(&self) -> f64 {
        capacity_loss_fraction(self.avg_hp_fraction())
    }

    /// Counter-wise sum `self + other` — fusing per-channel runtimes of a
    /// sharded memory system into one view. Channels run the same number
    /// of epochs (boundaries fire at the same cycle on every channel), so
    /// the fused `avg_hp_fraction` is the mean of the per-channel
    /// fractions.
    #[must_use]
    pub fn merged(&self, other: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            epochs: self.epochs + other.epochs,
            transitions_applied: self.transitions_applied + other.transitions_applied,
            transitions_dropped: self.transitions_dropped + other.transitions_dropped,
            promotions: self.promotions + other.promotions,
            demotions: self.demotions + other.demotions,
            accesses_observed: self.accesses_observed + other.accesses_observed,
            total_cost: self.total_cost.merged(&other.total_cost),
            hp_fraction_sum: self.hp_fraction_sum + other.hp_fraction_sum,
            migrations_completed: self.migrations_completed + other.migrations_completed,
        }
    }
}

/// Drives a policy across epochs and validates its proposals.
#[derive(Debug)]
pub struct PolicyRuntime {
    policy: Box<dyn ModePolicy>,
    constraints: PolicyConstraints,
    reloc: RelocationEngine,
    epoch: u64,
    stats: RuntimeStats,
    /// Rows whose promotion has been dispatched as a background
    /// migration but not yet reported complete. In-flight rows are
    /// excluded from new proposals (a row cannot transition while its
    /// data is mid-move) and counted against the capacity budget (the
    /// coupling *will* land), so an atomic batch apply is no longer
    /// assumed anywhere in the validation.
    in_flight: std::collections::BTreeSet<RowId>,
}

impl PolicyRuntime {
    /// A runtime driving `policy` under `constraints`, pricing moves with
    /// `reloc`.
    pub fn new(
        policy: Box<dyn ModePolicy>,
        constraints: PolicyConstraints,
        reloc: RelocationEngine,
    ) -> Self {
        PolicyRuntime {
            policy,
            constraints,
            reloc,
            epoch: 0,
            stats: RuntimeStats::default(),
            in_flight: std::collections::BTreeSet::new(),
        }
    }

    /// Marks controller-*confirmed* coupling dispatches as in flight —
    /// the `(bank, row)` set reported back by
    /// `begin_row_migrations_tracked`, not the proposed batch: the
    /// controller may silently skip a proposal (row already migrating,
    /// row serving as another job's destination frame, no free frame),
    /// and a skipped row never produces a completion callback, so
    /// tracking it here would leak it out of the proposal pool forever.
    /// Until each row is reported back via
    /// [`PolicyRuntime::note_completed`], it is excluded from new
    /// proposals and counts against the capacity budget. (Demotions
    /// decouple immediately and are never tracked.)
    pub fn note_in_flight(&mut self, dispatched: &[(u32, u32)]) {
        for &(bank, row) in dispatched {
            self.in_flight.insert(RowId::new(bank, row));
        }
    }

    /// Completion callback: the controller finished migrating these
    /// `(bank, row, mode)` transitions.
    pub fn note_completed(&mut self, completed: &[(u32, u32, RowMode)]) {
        for &(bank, row, _) in completed {
            if self.in_flight.remove(&RowId::new(bank, row)) {
                self.stats.migrations_completed += 1;
            }
        }
    }

    /// The policy's report label.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// The constraints in force.
    pub fn constraints(&self) -> &PolicyConstraints {
        &self.constraints
    }

    /// Rebinds the capacity budget before the next epoch — the hook a
    /// cross-channel [`BudgetSplit`](crate::budget::BudgetSplit)
    /// partitioner uses to rebalance per-channel budgets at epoch
    /// boundaries. Shrinking the budget never force-demotes: promotions
    /// stop until the policy's own demotions bring the channel back
    /// under its new budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_hp_fraction` is outside `0.0..=1.0` (a tolerance
    /// above 1.0 from float partitioning is clamped).
    pub fn set_max_hp_fraction(&mut self, max_hp_fraction: f64) {
        assert!(
            (0.0..=1.0 + 1e-9).contains(&max_hp_fraction),
            "budget {max_hp_fraction} not within 0.0..=1.0"
        );
        self.constraints.max_hp_fraction = max_hp_fraction.min(1.0);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Runs one epoch: decide, validate, price. `modes` is the shared
    /// table as the controller currently sees it; the caller applies
    /// `EpochOutcome::applied` to it afterwards.
    pub fn on_epoch(&mut self, telemetry: &EpochTelemetry, modes: &ModeTable) -> EpochOutcome {
        // The policy reasons about the *committed* state: a dispatched
        // background migration will land, so its row counts as already
        // high-performance. This keeps decisions identical whether a
        // batch applied atomically (stall) or is still in flight
        // (background) — the table clone is copy-on-write, so the
        // overlay costs one bitmap split per touched bank.
        let committed_view = if self.in_flight.is_empty() {
            None
        } else {
            let mut view = modes.clone();
            for id in &self.in_flight {
                view.set(id.bank as usize, id.row, RowMode::HighPerformance);
            }
            Some(view)
        };
        let view = committed_view.as_ref().unwrap_or(modes);
        let ctx = PolicyContext {
            modes: view,
            constraints: &self.constraints,
            reloc: &self.reloc,
        };
        let proposed = self.policy.decide(telemetry, &ctx);
        let proposed_len = proposed.len();

        // Interleave demotions and promotions (demotion leading) so a
        // same-epoch swap fits inside the budget *and* the transition-rate
        // cap cannot starve one direction: a churny policy that proposes
        // 1000 demotions and 1000 promotions makes paired progress on
        // both rather than spending the whole cap on demotions.
        let (demotions, promotions): (Vec<_>, Vec<_>) = proposed
            .into_iter()
            .partition(|t| t.to == RowMode::MaxCapacity);
        let mut batch = Vec::with_capacity(demotions.len() + promotions.len());
        let (mut di, mut pi) = (demotions.into_iter(), promotions.into_iter());
        loop {
            let d = di.next();
            let p = pi.next();
            if d.is_none() && p.is_none() {
                break;
            }
            batch.extend(d);
            batch.extend(p);
        }

        let budget = self.constraints.budget_rows(modes);
        // Validation runs against the committed view, so in-flight
        // promotions count toward the budget exactly once whether or not
        // their couple point has reached the physical table yet.
        let mut hp_now = view.high_performance_rows();
        let mut seen = std::collections::BTreeSet::new();
        let mut applied = Vec::new();
        for t in batch {
            if applied.len() >= self.constraints.max_transitions_per_epoch {
                break;
            }
            // One transition per row per epoch: a second proposal for the
            // same row (an intra-epoch oscillation) is dropped.
            if !seen.insert(t.row) {
                continue;
            }
            // A row mid-migration cannot transition again until its data
            // movement completes.
            if self.in_flight.contains(&t.row) {
                continue;
            }
            let cur = view.mode_of(t.row.bank as usize, t.row.row);
            if cur == t.to {
                continue; // no-op
            }
            match t.to {
                RowMode::HighPerformance => {
                    if hp_now >= budget {
                        continue; // over capacity budget
                    }
                    hp_now += 1;
                }
                RowMode::MaxCapacity => {
                    hp_now = hp_now.saturating_sub(1);
                }
            }
            applied.push(t);
        }

        let cost = self.reloc.cost_of(&applied);
        let dropped = proposed_len - applied.len();
        let total_rows = modes.rows_per_bank() as u64 * modes.banks() as u64;

        self.stats.epochs += 1;
        self.stats.transitions_applied += applied.len() as u64;
        self.stats.transitions_dropped += (proposed_len - applied.len()) as u64;
        self.stats.promotions += cost.rows_coupled;
        self.stats.demotions += cost.rows_decoupled;
        self.stats.accesses_observed += telemetry.total_accesses();
        self.stats.total_cost = self.stats.total_cost.merged(&cost);
        self.stats.hp_fraction_sum += hp_now as f64 / total_rows as f64;

        let outcome = EpochOutcome {
            epoch: self.epoch,
            applied,
            dropped,
            cost,
        };
        self.epoch += 1;
        outcome
    }

    /// Applies an outcome to a table (helper for tests and standalone
    /// use; the simulator applies through the controller instead so the
    /// controller can charge the stall and retune refresh).
    pub fn apply(outcome: &EpochOutcome, modes: &mut ModeTable) {
        for t in &outcome.applied {
            modes.set(t.row.bank as usize, t.row.row, t.to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicySpec, StaticSplit};
    use crate::telemetry::RowId;
    use clr_core::geometry::DramGeometry;

    fn runtime(spec: PolicySpec, budget: f64) -> PolicyRuntime {
        PolicyRuntime::new(
            spec.build(),
            PolicyConstraints::with_budget(budget),
            RelocationEngine::default(),
        )
    }

    fn telemetry(rows: &[(u32, u32, u64)]) -> EpochTelemetry {
        let mut t = EpochTelemetry::new(0, 10_000);
        for &(bank, row, n) in rows {
            t.record(RowId::new(bank, row), n);
        }
        t
    }

    #[test]
    fn static_split_configures_once_within_budget() {
        let g = DramGeometry::tiny();
        let mut modes = ModeTable::new(&g);
        let mut rt = runtime(PolicySpec::StaticSplit { fraction: 0.5 }, 0.25);
        let out = rt.on_epoch(&telemetry(&[]), &modes);
        PolicyRuntime::apply(&out, &mut modes);
        // Budget (25%) clamps the requested 50% split.
        let budget = rt.constraints().budget_rows(&modes);
        assert!(modes.high_performance_rows() <= budget);
        assert!(modes.high_performance_rows() > 0);
        let again = rt.on_epoch(&telemetry(&[]), &modes);
        assert!(again.applied.is_empty(), "static split must not churn");
    }

    #[test]
    fn topk_tracks_the_hot_set() {
        let g = DramGeometry::tiny();
        let mut modes = ModeTable::new(&g);
        let mut rt = runtime(PolicySpec::TopKHotness, 0.05);
        let out = rt.on_epoch(&telemetry(&[(0, 1, 100), (0, 2, 90), (1, 9, 80)]), &modes);
        PolicyRuntime::apply(&out, &mut modes);
        let budget = rt.constraints().budget_rows(&modes) as usize;
        assert_eq!(modes.high_performance_rows() as usize, budget.min(3));
        assert_eq!(
            modes.mode_of(0, 1),
            clr_core::mode::RowMode::HighPerformance
        );
        // The hot set moves: the table follows.
        let out = rt.on_epoch(&telemetry(&[(2, 5, 100)]), &modes);
        PolicyRuntime::apply(&out, &mut modes);
        assert_eq!(
            modes.mode_of(2, 5),
            clr_core::mode::RowMode::HighPerformance
        );
        assert_eq!(modes.mode_of(0, 1), clr_core::mode::RowMode::MaxCapacity);
    }

    #[test]
    fn budget_is_a_hard_ceiling_even_for_greedy_policies() {
        let g = DramGeometry::tiny();
        let modes = ModeTable::new(&g);
        let mut rt = runtime(PolicySpec::UtilizationThreshold { hot: 1, cold: 0 }, 0.1);
        // Every row of bank 0 is hot.
        let hot: Vec<(u32, u32, u64)> = (0..g.rows).map(|r| (0, r, 50)).collect();
        let out = rt.on_epoch(&telemetry(&hot), &modes);
        let budget = rt.constraints().budget_rows(&modes) as usize;
        assert!(out.applied.len() <= budget);
    }

    #[test]
    fn hysteresis_needs_persistent_cold_before_demoting() {
        let g = DramGeometry::tiny();
        let mut modes = ModeTable::new(&g);
        // Budget of exactly one row, so the single promotion puts the
        // policy under budget pressure and demotion gating is exercised.
        let mut rt = runtime(PolicySpec::Hysteresis, 1.0 / 256.0);
        // Promotion requires a *persistent* hot streak, so the row is
        // still max-capacity after the first hot epoch.
        let hot = telemetry(&[(0, 3, 500)]);
        let out = rt.on_epoch(&hot, &modes);
        PolicyRuntime::apply(&out, &mut modes);
        assert_eq!(modes.mode_of(0, 3), clr_core::mode::RowMode::MaxCapacity);
        loop {
            let hot = telemetry(&[(0, 3, 500)]);
            let out = rt.on_epoch(&hot, &modes);
            PolicyRuntime::apply(&out, &mut modes);
            if !out.applied.is_empty() {
                break;
            }
        }
        assert_eq!(
            modes.mode_of(0, 3),
            clr_core::mode::RowMode::HighPerformance
        );
        // Fewer cold epochs than `cold_epochs_to_demote` (3): still
        // high-performance.
        for _ in 0..2 {
            let out = rt.on_epoch(&telemetry(&[]), &modes);
            PolicyRuntime::apply(&out, &mut modes);
            assert_eq!(
                modes.mode_of(0, 3),
                clr_core::mode::RowMode::HighPerformance
            );
        }
        // Third consecutive cold epoch: demoted.
        let out = rt.on_epoch(&telemetry(&[]), &modes);
        PolicyRuntime::apply(&out, &mut modes);
        assert_eq!(modes.mode_of(0, 3), clr_core::mode::RowMode::MaxCapacity);
    }

    #[test]
    fn rebound_budget_gates_promotions_without_force_demoting() {
        let g = DramGeometry::tiny();
        let mut modes = ModeTable::new(&g);
        let mut rt = runtime(PolicySpec::UtilizationThreshold { hot: 1, cold: 0 }, 0.5);
        let hot: Vec<(u32, u32, u64)> = (0..8).map(|r| (0, r, 50)).collect();
        let out = rt.on_epoch(&telemetry(&hot), &modes);
        PolicyRuntime::apply(&out, &mut modes);
        let promoted = modes.high_performance_rows();
        assert!(promoted > 0);
        // Shrink the budget to zero: the still-hot rows stay promoted
        // (no forced demotion), but nothing new can be promoted.
        rt.set_max_hp_fraction(0.0);
        let more: Vec<(u32, u32, u64)> = (8..16).map(|r| (0, r, 50)).collect();
        let out = rt.on_epoch(&telemetry(&[hot.clone(), more].concat()), &modes);
        assert!(out
            .applied
            .iter()
            .all(|t| t.to == clr_core::mode::RowMode::MaxCapacity));
        assert_eq!(rt.constraints().max_hp_fraction, 0.0);
    }

    #[test]
    fn runtime_stats_merge_sums_and_averages() {
        let a = RuntimeStats {
            epochs: 2,
            transitions_applied: 3,
            hp_fraction_sum: 0.5,
            accesses_observed: 10,
            ..RuntimeStats::default()
        };
        let b = RuntimeStats {
            epochs: 2,
            transitions_applied: 5,
            hp_fraction_sum: 1.5,
            accesses_observed: 20,
            ..RuntimeStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.epochs, 4);
        assert_eq!(m.transitions_applied, 8);
        assert_eq!(m.accesses_observed, 30);
        // Mean of per-channel fractions: (0.25 + 0.75) / 2.
        assert!((m.avg_hp_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn static_policy_through_spec_builds() {
        let p = StaticSplit::new(0.25);
        assert_eq!(p.name(), "static-25");
        assert_eq!(
            PolicySpec::StaticSplit { fraction: 0.25 }.label(),
            "static-25"
        );
    }
}
