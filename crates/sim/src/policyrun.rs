//! Full-system runs with a dynamic mode-management policy in the loop.
//!
//! [`run_policy_workloads`] is [`crate::system::run_workloads`] plus an
//! epoch driver: every `epoch_dram_cycles` DRAM cycles it drains each
//! channel's per-row telemetry, lets one [`clr_policy`] runtime *per
//! channel* decide transitions against that channel's live [`ModeTable`],
//! and applies the validated batches back to the owning controllers.
//! Channels advance in lockstep, so every epoch boundary fires at the
//! same cycle on every channel; one global capacity budget is partitioned
//! across the per-channel runtimes by a [`BudgetSplit`] (static even
//! split, or demand-proportional rebalancing recomputed at each
//! boundary from the epoch's per-channel access counts).
//!
//! How a batch lands is governed by the memory configuration's
//! [`RelocationConfig`](clr_memsim::migrate::RelocationConfig):
//!
//! * **stall** (legacy) — the batch flips atomically through
//!   [`MemoryController::apply_row_modes`], charging the relocation
//!   engine's priced data movement as controller stall cycles;
//! * **background** — the batch is dispatched through
//!   [`MemoryController::begin_row_migrations`]: demotions flip
//!   immediately, promotions become per-row migration jobs whose
//!   commands steal idle bank slots while demand traffic keeps flowing.
//!   The driver feeds each channel's completion reports back into that
//!   channel's runtime, so epoch boundaries can overlap in-progress
//!   migrations without double-proposing rows.
//!
//! [`ModeTable`]: clr_core::mode::ModeTable
//! [`MemoryController::apply_row_modes`]: clr_memsim::controller::MemoryController::apply_row_modes
//! [`MemoryController::begin_row_migrations`]: clr_memsim::controller::MemoryController::begin_row_migrations

use clr_core::mode::RowMode;
use clr_memsim::frames::{CapacityRebalancer, DestinationPicker, RebalanceConfig};
use clr_memsim::system::MemorySystem;
use clr_obs::TraceCategory;
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::{PolicyConstraints, PolicySpec};
use clr_policy::reloc::{DestinationSpread, RelocationEngine, RelocationParams};
use clr_policy::runtime::{PolicyRuntime, RuntimeStats};
use clr_policy::telemetry::{EpochTelemetry, RowId};
use clr_trace::workload::Workload;

use crate::system::{run_workloads_observed, RunConfig, RunObserver, RunResult};

/// Configuration of one policy-driven run.
#[derive(Debug, Clone)]
pub struct PolicyRunConfig {
    /// The underlying full-system run (its `mem.clr` fraction is the
    /// *initial* table layout; the policy takes over from epoch 0).
    pub base: RunConfig,
    /// Which policy to run (instantiated once per channel).
    pub policy: PolicySpec,
    /// Global capacity budget and transition-rate limits; the budget is
    /// partitioned across channels by `budget_split`.
    pub constraints: PolicyConstraints,
    /// Epoch length in DRAM cycles.
    pub epoch_dram_cycles: u64,
    /// How the global capacity budget is divided across channels (even
    /// split by default; irrelevant for 1-channel systems).
    pub budget_split: BudgetSplit,
}

impl PolicyRunConfig {
    /// A policy run over `base` with an epoch every `epoch_dram_cycles`
    /// and an even cross-channel budget split.
    pub fn new(
        base: RunConfig,
        policy: PolicySpec,
        constraints: PolicyConstraints,
        epoch_dram_cycles: u64,
    ) -> Self {
        assert!(epoch_dram_cycles > 0, "epochs must have nonzero length");
        PolicyRunConfig {
            base,
            policy,
            constraints,
            epoch_dram_cycles,
            budget_split: BudgetSplit::EvenSplit,
        }
    }

    /// Replaces the cross-channel budget split.
    #[must_use]
    pub fn with_budget_split(mut self, split: BudgetSplit) -> Self {
        self.budget_split = split;
        self
    }
}

/// Results of one policy-driven run.
#[derive(Debug, Clone)]
pub struct PolicyRunResult {
    /// The measurement-window system results.
    pub run: RunResult,
    /// Policy label.
    pub policy: String,
    /// The fused lifetime counters (sum over per-channel runtimes; see
    /// [`RuntimeStats::merged`]).
    pub policy_stats: RuntimeStats,
    /// Each channel's runtime counters (channel 0 first).
    pub policy_stats_per_channel: Vec<RuntimeStats>,
    /// System-wide high-performance row fraction at the end of the run
    /// (mean over channels — channels have equal row counts).
    pub final_hp_fraction: f64,
    /// Each channel's budget fraction at the last epoch boundary — the
    /// partitioner's final verdict (equal entries under an even split).
    pub final_channel_budgets: Vec<f64>,
    /// Remap-table swaps installed by the cross-channel capacity
    /// rebalancer over the run (0 outside
    /// [`DestinationPicker::CrossChannel`]).
    pub rows_remapped: u64,
}

impl PolicyRunResult {
    /// Time-averaged fraction of device capacity forfeited to
    /// high-performance mode.
    pub fn avg_capacity_loss(&self) -> f64 {
        self.policy_stats.avg_capacity_loss()
    }

    /// Fraction of measurement-window channel-cycles a
    /// background-migration command occupied a command bus — the overlap
    /// metric that replaces `relocation_stall_cycles` under background
    /// relocation.
    pub fn migration_slot_utilization(&self) -> f64 {
        self.run.mem.migration_slot_utilization()
    }
}

struct EpochDriver {
    /// One runtime per channel, sharing one policy spec and one global
    /// budget.
    runtimes: Vec<PolicyRuntime>,
    split: BudgetSplit,
    global_budget: f64,
    epoch_dram_cycles: u64,
    next_epoch: u64,
    last_epoch_cycle: u64,
    final_hp_fraction: f64,
    channel_budgets: Vec<f64>,
    /// Whether transition batches go through the background migration
    /// engine instead of the atomic stall apply (derived from the
    /// memory configuration at run start).
    background: bool,
    /// Whether the cross-channel frame rebalancer runs at epoch
    /// boundaries (placement `CrossChannel` on a multi-channel system
    /// with background relocation).
    cross_channel: bool,
    /// The frame-move planner (consulted only when `cross_channel`).
    rebalancer: CapacityRebalancer,
    /// Remap installs observed so far (copied into the result).
    remap_installs: u64,
    /// Reused across epochs so the steady-state epoch loop allocates
    /// nothing per drain.
    telemetry_scratch: Vec<((u32, u32), u64)>,
    epoch_scratch: Vec<EpochTelemetry>,
    demand_scratch: Vec<u64>,
    changes_scratch: Vec<(usize, u32, RowMode)>,
    completed_scratch: Vec<(u32, u32, RowMode)>,
    dispatched_scratch: Vec<(u32, u32)>,
}

impl RunObserver for EpochDriver {
    fn on_run_start(&mut self, mem: &mut MemorySystem) {
        // Telemetry collection is opt-in on the controllers; it must be
        // on before the very first command — including commands replayed
        // inside a skip-ahead window before the first per-tick callback.
        mem.enable_row_telemetry();
        self.background = mem.config().relocation.is_background();
        // Frame moves are background migration traffic; the stall model
        // has no engine to execute them.
        self.cross_channel =
            self.background && mem.config().placement.is_cross_channel() && mem.channels() > 1;
    }

    fn after_dram_tick(&mut self, mem: &mut MemorySystem) {
        let now = mem.cycle();
        if now < self.next_epoch {
            return;
        }
        let channels = self.runtimes.len();
        let epoch_len = now - self.last_epoch_cycle;

        // Pass 1 per channel: feed migration completions back (rows that
        // finished moving are proposable again this epoch) and collect
        // the epoch telemetry + demand.
        self.epoch_scratch.clear();
        self.demand_scratch.clear();
        for ch in 0..channels {
            let mc = mem.channel_mut(ch);
            if self.background {
                mc.drain_completed_migrations_into(&mut self.completed_scratch);
                self.runtimes[ch].note_completed(&self.completed_scratch);
            }
            let mut telemetry = EpochTelemetry::new(self.runtimes[ch].stats().epochs, epoch_len);
            mc.drain_row_telemetry_into(&mut self.telemetry_scratch);
            for &((bank, row), n) in &self.telemetry_scratch {
                telemetry.record(RowId::new(bank, row), n);
            }
            self.demand_scratch.push(telemetry.total_accesses());
            self.epoch_scratch.push(telemetry);
        }

        // Frame rebalancing: advance staged cross-channel moves, then
        // plan new ones from this epoch's demand imbalance. Everything
        // here happens at the epoch boundary — the same cycle on every
        // channel under both per-cycle and skip-ahead walks — so routing
        // changes stay bit-identical across walks.
        if self.cross_channel {
            mem.pump_placement();
            if let Some(plan) = self.rebalancer.plan(&self.demand_scratch) {
                // Victims: the donor channel's hottest rows still in
                // max-capacity mode with no migration in flight — hot
                // data the policy's fast-row budget did not absorb
                // (promotions and their in-flight jobs are skipped), so
                // moving it shifts real bus load onto the recipient,
                // which can serve (and even promote) it with its idle
                // budget. The scan walks the full heat-ordered telemetry
                // and stops at the heat floor: everything below shifts
                // too little traffic to repay a whole-row move.
                let min_heat = self.rebalancer.config().min_row_heat.max(1);
                let donor_rows = self.epoch_scratch[plan.from].rows_touched();
                // Back off while staged moves are still draining: more
                // scheduling would only pile reservations into the
                // migration queues.
                let headroom = self
                    .rebalancer
                    .config()
                    .max_in_flight
                    .saturating_sub(mem.moves_in_flight());
                let mut scheduled = 0usize;
                for (rid, count) in self.epoch_scratch[plan.from].hottest(donor_rows) {
                    if scheduled >= plan.moves.min(headroom) || count < min_heat {
                        break;
                    }
                    let donor = mem.channel(plan.from);
                    if donor.mode_table().mode_of(rid.bank as usize, rid.row)
                        != RowMode::MaxCapacity
                        || donor.is_row_migrating(rid.bank as usize, rid.row)
                    {
                        continue;
                    }
                    if mem
                        .schedule_row_export(plan.from, rid.bank as usize, rid.row, plan.to)
                        .is_some()
                    {
                        scheduled += 1;
                    }
                }
            }
            self.remap_installs = mem.remap_table().installs();
        }

        // Rebalance the global budget across channels from this epoch's
        // demand, then run each channel's epoch under its new budget.
        self.channel_budgets = self
            .split
            .partition(self.global_budget, &self.demand_scratch);
        #[cfg(debug_assertions)]
        {
            // The partition must never mint capacity: validated against
            // every channel's live table (panics on violation).
            let tables: Vec<&clr_core::mode::ModeTable> =
                (0..channels).map(|c| mem.channel(c).mode_table()).collect();
            BudgetSplit::validate_partition(self.global_budget, &self.channel_budgets, &tables);
        }
        let mut hp_fraction_sum = 0.0;
        let mut applied_total = 0u64;
        for ch in 0..channels {
            self.runtimes[ch].set_max_hp_fraction(self.channel_budgets[ch]);
            let outcome =
                self.runtimes[ch].on_epoch(&self.epoch_scratch[ch], mem.channel(ch).mode_table());
            applied_total += outcome.applied.len() as u64;
            if !outcome.applied.is_empty() {
                self.changes_scratch.clear();
                self.changes_scratch.extend(
                    outcome
                        .applied
                        .iter()
                        .map(|t| (t.row.bank as usize, t.row.row, t.to)),
                );
                let mc = mem.channel_mut(ch);
                if self.background {
                    self.dispatched_scratch.clear();
                    mc.begin_row_migrations_tracked(
                        &self.changes_scratch,
                        &mut self.dispatched_scratch,
                    );
                    self.runtimes[ch].note_in_flight(&self.dispatched_scratch);
                } else {
                    mc.apply_row_modes(&self.changes_scratch, outcome.cost.dram_cycles);
                }
            }
            hp_fraction_sum += mem.channel(ch).mode_table().fraction_high_performance();
        }

        self.final_hp_fraction = hp_fraction_sum / channels as f64;

        // Policy-epoch trace event: one instant per boundary recording
        // what the decision pass did (observational only).
        if let Some(sink) = mem.system_trace_sink_mut() {
            if sink.wants(TraceCategory::Policy) {
                let budget_permille: u64 = self
                    .channel_budgets
                    .iter()
                    .map(|b| (b * 1000.0) as u64)
                    .sum::<u64>()
                    / channels as u64;
                sink.instant(
                    TraceCategory::Policy,
                    "epoch",
                    now,
                    vec![
                        ("epoch_len", epoch_len),
                        ("transitions_applied", applied_total),
                        (
                            "hp_fraction_permille",
                            (self.final_hp_fraction * 1000.0) as u64,
                        ),
                        ("budget_permille", budget_permille),
                    ],
                );
            }
        }

        self.last_epoch_cycle = now;
        self.next_epoch = now + self.epoch_dram_cycles;
    }

    /// Epoch boundaries must fire at exact cycles even under skip-ahead:
    /// telemetry windows, relocation-stall start cycles, and refresh
    /// retunes all anchor to them — on every channel at once.
    fn next_boundary(&self) -> Option<u64> {
        Some(self.next_epoch)
    }

    /// The metrics layer samples the partitioner's live verdict as the
    /// per-channel `budget_permille` gauge.
    fn channel_budgets(&self) -> Option<&[f64]> {
        Some(&self.channel_budgets)
    }
}

/// Runs `workloads` under `cfg` with one policy runtime per memory
/// channel in the loop.
///
/// # Panics
///
/// Panics if `workloads` is empty or the system deadlocks (as
/// [`crate::system::run_workloads`]).
pub fn run_policy_workloads(workloads: &[Workload], cfg: &PolicyRunConfig) -> PolicyRunResult {
    let g = &cfg.base.mem.geometry;
    let channels = g.channels as usize;
    // The policy-side cost model prices what the engine will actually
    // do: cross-bank (and cross-channel) placements overlap the two
    // phases of each coupling.
    let spread = match cfg.base.mem.placement {
        DestinationPicker::SameBank => DestinationSpread::SameBank,
        DestinationPicker::CrossBank => DestinationSpread::CrossBank,
        DestinationPicker::CrossChannel => DestinationSpread::CrossChannel,
    };
    let reloc = || {
        RelocationEngine::new(
            RelocationParams::for_geometry(g.row_bytes(), g.burst_bytes()).with_spread(spread),
        )
    };
    let runtimes: Vec<PolicyRuntime> = (0..channels)
        .map(|_| PolicyRuntime::new(cfg.policy.build(), cfg.constraints, reloc()))
        .collect();
    let mut driver = EpochDriver {
        runtimes,
        split: cfg.budget_split,
        global_budget: cfg.constraints.max_hp_fraction,
        epoch_dram_cycles: cfg.epoch_dram_cycles,
        next_epoch: cfg.epoch_dram_cycles,
        last_epoch_cycle: 0,
        final_hp_fraction: cfg.base.mem.clr.fraction_hp(),
        channel_budgets: vec![cfg.constraints.max_hp_fraction; channels],
        background: cfg.base.mem.relocation.is_background(),
        cross_channel: false,
        rebalancer: CapacityRebalancer::new(RebalanceConfig::default()),
        remap_installs: 0,
        telemetry_scratch: Vec::new(),
        epoch_scratch: Vec::new(),
        demand_scratch: Vec::new(),
        changes_scratch: Vec::new(),
        completed_scratch: Vec::new(),
        dispatched_scratch: Vec::new(),
    };
    let run = run_workloads_observed(workloads, &cfg.base, &mut driver);
    let policy = driver.runtimes[0].policy_name();
    let policy_stats_per_channel: Vec<RuntimeStats> =
        driver.runtimes.iter().map(|r| *r.stats()).collect();
    let policy_stats = policy_stats_per_channel
        .iter()
        .fold(RuntimeStats::default(), |acc, s| acc.merged(s));
    PolicyRunResult {
        run,
        policy,
        policy_stats,
        policy_stats_per_channel,
        final_hp_fraction: driver.final_hp_fraction,
        final_channel_budgets: driver.channel_budgets,
        rows_remapped: driver.remap_installs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use clr_trace::phase::PhaseShiftSpec;

    fn quick(policy: PolicySpec, fraction_hp: f64, budget: f64) -> PolicyRunResult {
        let mut mem = crate::experiment::policies::policy_mem_config(fraction_hp);
        mem.refresh_enabled = false;
        let base = RunConfig {
            mem,
            cluster: clr_cpu::cluster::ClusterConfig::tiny(),
            budget_insts: 6_000,
            warmup_insts: 500,
            seed: 11,
            skip_ahead: true,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        };
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 500,
            ..PhaseShiftSpec::paper_default()
        };
        let cfg = PolicyRunConfig::new(base, policy, PolicyConstraints::with_budget(budget), 2_000);
        run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg)
    }

    #[test]
    fn dynamic_policy_moves_the_table() {
        let r = quick(PolicySpec::TopKHotness, 0.0, 0.25);
        assert!(r.policy_stats.epochs > 0, "epochs must have run");
        assert!(
            r.policy_stats.transitions_applied > 0,
            "top-k must promote rows on a hot workload"
        );
        // Memoryless top-K may demote everything in a trailing empty
        // epoch, so assert on the time-average rather than the endpoint.
        assert!(r.policy_stats.avg_hp_fraction() > 0.0);
        assert!(r.run.mem.mode_transitions > 0);
        assert_eq!(r.policy, "topk");
    }

    #[test]
    fn static_policy_keeps_the_initial_layout() {
        let r = quick(PolicySpec::StaticSplit { fraction: 0.25 }, 0.25, 0.25);
        assert_eq!(
            r.policy_stats.transitions_applied, 0,
            "table already matches the static split"
        );
        assert!((r.final_hp_fraction - 0.25).abs() < 0.02);
    }

    #[test]
    fn background_relocation_overlaps_instead_of_stalling() {
        use clr_memsim::migrate::RelocationConfig;
        let mut mem = crate::experiment::policies::policy_mem_config(0.0);
        mem.refresh_enabled = false;
        mem.relocation = RelocationConfig::background();
        let base = RunConfig {
            mem,
            cluster: clr_cpu::cluster::ClusterConfig::tiny(),
            budget_insts: 6_000,
            warmup_insts: 500,
            seed: 11,
            skip_ahead: true,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        };
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 500,
            ..PhaseShiftSpec::paper_default()
        };
        let cfg = PolicyRunConfig::new(
            base,
            PolicySpec::TopKHotness,
            PolicyConstraints::with_budget(0.25),
            2_000,
        );
        let r = run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg);
        assert!(r.policy_stats.transitions_applied > 0);
        assert_eq!(
            r.run.mem.relocation_stall_cycles, 0,
            "background mode must never stall the controller"
        );
        assert!(
            r.run.mem.migration_jobs_completed > 0,
            "promotions must complete as background jobs"
        );
        assert!(r.migration_slot_utilization() > 0.0);
        assert!(
            r.policy_stats.migrations_completed > 0,
            "completions must flow back into the runtime"
        );
        // Completed couplings are in the table.
        assert!(r.policy_stats.avg_hp_fraction() > 0.0);
    }

    #[test]
    fn cross_channel_rebalancer_moves_frames_on_a_skewed_hot_set() {
        use clr_memsim::frames::DestinationPicker;
        use clr_memsim::migrate::RelocationConfig;
        let mut mem = crate::experiment::policies::policy_mem_config(0.0);
        mem.geometry.channels = 2;
        mem.refresh_enabled = false;
        mem.relocation = RelocationConfig::background();
        mem.placement = DestinationPicker::CrossChannel;
        let base = RunConfig {
            mem,
            cluster: clr_cpu::cluster::ClusterConfig::tiny(),
            budget_insts: 12_000,
            warmup_insts: 500,
            seed: 11,
            skip_ahead: true,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        };
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 500,
            ..PhaseShiftSpec::paper_default()
        }
        .with_channel_skew(2, 0);
        let cfg = PolicyRunConfig::new(
            base,
            PolicySpec::UtilizationThreshold { hot: 2, cold: 0 },
            PolicyConstraints::with_budget(0.25),
            2_000,
        )
        .with_budget_split(BudgetSplit::demand_proportional());
        let r = run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg);
        // The skew loads channel 0; the rebalancer must export hot
        // overflow rows into channel 1's frames and remap them.
        assert!(r.rows_remapped > 0, "no frames moved between channels");
        assert!(r.run.mem.migration_evacuations > 0);
        assert!(r.run.mem.migration_fills > 0);
        assert_eq!(r.run.mem.relocation_stall_cycles, 0);
        assert!(
            r.run.mem_per_channel[0].reads > r.run.mem_per_channel[1].reads,
            "the skew must actually load channel 0"
        );
    }

    #[test]
    fn capacity_budget_is_respected_throughout() {
        let r = quick(
            PolicySpec::UtilizationThreshold { hot: 2, cold: 0 },
            0.0,
            0.125,
        );
        assert!(r.final_hp_fraction <= 0.125 + 1e-9);
        assert!(r.avg_capacity_loss() <= 0.125 / 2.0 + 1e-9);
    }

    #[test]
    fn two_channel_policy_run_partitions_the_budget() {
        let mut mem = crate::experiment::policies::policy_mem_config(0.0);
        mem.geometry.channels = 2;
        mem.refresh_enabled = false;
        mem.relocation = clr_memsim::migrate::RelocationConfig::background();
        let base = RunConfig {
            mem,
            cluster: clr_cpu::cluster::ClusterConfig::tiny(),
            budget_insts: 6_000,
            warmup_insts: 500,
            seed: 11,
            skip_ahead: true,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        };
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 500,
            ..PhaseShiftSpec::paper_default()
        };
        let cfg = PolicyRunConfig::new(
            base,
            PolicySpec::UtilizationThreshold { hot: 2, cold: 0 },
            PolicyConstraints::with_budget(0.25),
            2_000,
        )
        .with_budget_split(BudgetSplit::demand_proportional());
        let r = run_policy_workloads(&[Workload::PhaseShift(spec)], &cfg);
        assert_eq!(r.policy_stats_per_channel.len(), 2);
        assert_eq!(r.final_channel_budgets.len(), 2);
        assert_eq!(r.run.mem_per_channel.len(), 2);
        // The global budget contract holds: mean of per-channel budgets
        // never exceeds the global fraction.
        let mean: f64 = r.final_channel_budgets.iter().sum::<f64>() / 2.0;
        assert!(mean <= 0.25 + 1e-9, "{:?}", r.final_channel_budgets);
        // Both channels saw traffic and the system-wide fraction
        // respects the global budget.
        assert!(r.run.mem_per_channel.iter().all(|s| s.reads > 0));
        assert!(r.final_hp_fraction <= 0.25 + 1e-9);
        assert!(r.policy_stats.epochs > 0);
        assert_eq!(r.run.mem.relocation_stall_cycles, 0);
    }
}
