//! The dynamic-policy sweep: mode-management policies × workloads, run in
//! parallel, reporting IPC, DRAM energy, and capacity loss per cell.
//!
//! This is the experiment behind the repo's "dynamic capacity-latency
//! trade-off" claim: on a workload whose hot set drifts
//! ([`clr_trace::phase`]), a telemetry-driven policy under a 25 % capacity
//! budget should beat every static split of comparable capacity loss,
//! while forfeiting half as much capacity as the all-high-performance
//! configuration.
//!
//! Two contrast workloads bracket that claim: a **stable hot set**
//! (zero-drift phase workload), where profile-guided static placement is
//! already near-optimal and a dynamic policy can at best match it; and
//! **uniform-random** traffic, where there are no persistent hot rows to
//! find and a telemetry-driven policy should decline to burn relocation
//! work. Together the three columns show *when* dynamism pays, not just
//! that it can.
//!
//! The system is deliberately scaled down from the paper's 16 GiB device
//! (a 16 MiB device, 64 KiB LLC) so that capacity pressure — the thing
//! dynamic policies exist to manage — actually occurs at simulable
//! instruction budgets. Relative orderings, not absolute numbers, are the
//! output.

use clr_core::capacity::capacity_loss_fraction;
use clr_core::geometry::DramGeometry;
use clr_core::par::parallel_map;
use clr_cpu::cache::CacheConfig;
use clr_cpu::cluster::ClusterConfig;
use clr_memsim::config::{ClrModeConfig, MemConfig};
use clr_memsim::frames::DestinationPicker;
use clr_memsim::migrate::RelocationConfig;
use clr_obs::{BlameSet, Json, MetricsConfig, SloSpec, WindowMetric, WindowedObjective};
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::{PolicyConstraints, PolicySpec};
use clr_trace::phase::PhaseShiftSpec;
use clr_trace::synthetic::{SyntheticKind, SyntheticSpec};
use clr_trace::workload::Workload;

use crate::metrics::{max_slowdown, weighted_speedup};
use crate::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use crate::scale::Scale;
use crate::system::{per_core_seed, RunConfig};

/// The capacity budget every dynamic policy runs under.
pub const DYNAMIC_BUDGET: f64 = 0.25;

/// Windowed 99th-percentile read-latency ceiling every cell is held to
/// (DRAM cycles per epoch-length window, 10 % error budget — transient
/// excursions around epoch boundaries are tolerated, sustained tail
/// inflation is not).
pub const SLO_READ_P99_CYCLES: u64 = 1_500;

/// Ceiling on the fraction of window channel-cycles migration commands
/// may occupy a command bus, permille (hard — the pacer must keep
/// background relocation a minority tenant in every window).
pub const SLO_MIGRATION_SLOT_PERMILLE: u64 = 500;

/// Max-slowdown ceiling for contention/placement cells, milli-units
/// (1.6×, the fairness bound the sweep's verdict enforces).
pub const SLO_MAX_SLOWDOWN_MILLI: u64 = 1_600;

/// The per-cell service-level spec the sweep evaluates on every cell's
/// fused (system-level) time-series. Background-relocation cells add
/// the hard zero-stall invariant; the stall model stalls by design, so
/// it is held only to the latency and migration-tenancy objectives.
pub fn cell_slo_spec(background: bool) -> SloSpec {
    let mut spec = SloSpec::named("policy-sweep-cell");
    if background {
        spec.windowed
            .push(WindowedObjective::hard(WindowMetric::StallCycles, 0));
    }
    spec.windowed.push(WindowedObjective::budgeted(
        WindowMetric::ReadP99,
        SLO_READ_P99_CYCLES,
        0.10,
    ));
    spec.windowed.push(WindowedObjective::hard(
        WindowMetric::MigrationSlotPermille,
        SLO_MIGRATION_SLOT_PERMILLE,
    ));
    spec
}

/// Results of one (policy, workload, relocation-model) cell.
#[derive(Debug, Clone)]
pub struct PolicyCell {
    /// Policy label ("static-25", "hysteresis", ...).
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Relocation model the cell ran under ("stall" or "background").
    pub reloc: String,
    /// Cores the cell ran (1 for the single-core sweep columns).
    pub cores: usize,
    /// Memory channels the cell ran.
    pub channels: u32,
    /// Cross-channel budget split ("even" or "demand").
    pub budget_split: String,
    /// Destination placement the cell ran under ("same-bank",
    /// "cross-bank", or "cross-channel").
    pub placement: String,
    /// Whole-row frame moves that landed on another channel (fills
    /// completed; nonzero only under cross-channel placement).
    pub frames_moved: u64,
    /// Remap-table swaps installed by the capacity rebalancer.
    pub rows_remapped: u64,
    /// Weighted speedup `Σ IPC_shared/IPC_alone` against per-core alone
    /// baselines (contention cells only).
    pub weighted_speedup: Option<f64>,
    /// Max slowdown `max IPC_alone/IPC_shared` (contention cells only).
    pub max_slowdown: Option<f64>,
    /// IPC (mean over cores; see `ipc_per_core` for the breakdown).
    pub ipc: f64,
    /// Per-core IPC (one entry for single-core cells).
    pub ipc_per_core: Vec<f64>,
    /// DRAM energy over the measurement window, joules.
    pub energy_j: f64,
    /// Time-averaged fraction of device capacity forfeited.
    pub avg_capacity_loss: f64,
    /// High-performance fraction at the end of the run.
    pub final_hp_fraction: f64,
    /// Mode transitions applied over the run.
    pub transitions: u64,
    /// Cycles the controller spent stalled on relocation work (zero
    /// under background relocation).
    pub relocation_stall_cycles: u64,
    /// Background-migration jobs completed over the run.
    pub migration_jobs: u64,
    /// Fraction of window cycles a migration command occupied the bus.
    pub migration_slot_utilization: f64,
    /// Row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Median demand-read service latency over the window, DRAM cycles.
    pub read_latency_p50: u64,
    /// 95th-percentile demand-read service latency, DRAM cycles.
    pub read_latency_p95: u64,
    /// 99th-percentile demand-read service latency, DRAM cycles — the
    /// tail the paper's refresh/relocation interference shows up in.
    pub read_latency_p99: u64,
    /// Whether the cell passed its service-level spec
    /// ([`cell_slo_spec`], plus the max-slowdown ceiling on fairness
    /// cells) — the machine-checkable verdict of the continuous
    /// telemetry the cell ran with.
    pub slo_pass: bool,
    /// Telemetry windows the SLO evaluation covered.
    pub slo_windows: u64,
    /// Total objective violations across all windowed objectives.
    pub slo_violations: u64,
    /// Worst *windowed* p99 read latency across the run, DRAM cycles
    /// (the transient tail the end-of-run `read_latency_p99` smooths
    /// over).
    pub slo_worst_read_p99: u64,
    /// Total demand-read enqueue→completion cycles over the measurement
    /// window (the latency histogram's exact sum). The per-cause blame
    /// budgets below sum to exactly this value — the attribution
    /// exactness contract, asserted by CI's independent parser.
    pub read_latency_cycles: u64,
    /// Per-cause read wait budgets over the measurement window.
    pub read_blame: BlameSet,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct PolicySweepReport {
    /// One cell per (policy, workload), in sweep order.
    pub cells: Vec<PolicyCell>,
    /// The contention sweep: core counts × channel counts × budget
    /// splits × dynamic policies, with per-core IPC and fairness
    /// metrics against per-core alone baselines.
    pub contention: Vec<PolicyCell>,
    /// The placement sweep: destination placements (same-bank /
    /// cross-bank / cross-channel) on the channel-skewed hot-set mix,
    /// comparing frame rebalancing against budget-only rebalancing.
    pub placement: Vec<PolicyCell>,
    /// Scale the sweep ran at.
    pub scale: Scale,
}

/// The scaled-down device the sweep runs against: 16 MiB, 4 bank groups ×
/// 4 banks, 512 rows per bank, 2 KiB rows.
pub fn policy_geometry() -> DramGeometry {
    DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 4,
        banks_per_group: 4,
        rows: 512,
        columns: 256,
        device_width_bits: 8,
        bus_width_bits: 64,
        burst_length: 8,
    }
}

/// Memory configuration for one sweep cell with the given initial
/// high-performance fraction.
pub fn policy_mem_config(fraction_hp: f64) -> MemConfig {
    let mut cfg = MemConfig::paper_baseline();
    cfg.geometry = policy_geometry();
    cfg.clr = ClrModeConfig::Clr {
        fraction_hp,
        hp_refw_ms: 64.0,
        early_termination: true,
    };
    cfg
}

/// The sweep's CPU: one paper core in front of a small (64 KiB) LLC so
/// the drifting hot set reaches DRAM instead of being absorbed.
pub fn policy_cluster() -> ClusterConfig {
    ClusterConfig {
        window_depth: 128,
        width: 4,
        cache: CacheConfig {
            size_bytes: 64 << 10,
            associativity: 8,
            line_bytes: 64,
            hit_latency: 31,
            mshrs_per_core: 8,
        },
    }
}

/// The drifting hot-set spec, sized so roughly eight phases fit in the
/// scale's instruction budget, and its zero-drift twin.
fn phase_specs(scale: Scale) -> (PhaseShiftSpec, PhaseShiftSpec) {
    let spec = PhaseShiftSpec::paper_default();
    let phases = 8;
    let accesses_per_phase =
        (scale.budget_insts() as f64 / (spec.bubbles as f64 + 1.0) / phases as f64) as u64;
    let drifting = PhaseShiftSpec {
        accesses_per_phase: accesses_per_phase.max(500),
        ..spec
    };
    let stable = PhaseShiftSpec {
        drift_fraction: 0.0,
        ..drifting
    };
    (drifting, stable)
}

/// The phase-shifting workload sized so roughly eight phases fit in the
/// scale's instruction budget.
pub fn phase_workload(scale: Scale) -> Workload {
    Workload::PhaseShift(phase_specs(scale).0)
}

/// The stable-hot contrast workload: the phase workload's hot window with
/// zero drift, so the time-averaged heat map equals the instantaneous one
/// and static placement is as informed as any telemetry-driven policy.
pub fn stable_hot_workload(scale: Scale) -> Workload {
    Workload::PhaseShift(phase_specs(scale).1)
}

/// The uniform-random contrast workload: no persistent hot rows at all, so
/// promotions cannot pay for their relocation cost. Sized to bust the
/// sweep's 64 KiB LLC while fitting the 16 MiB device.
pub fn uniform_random_workload() -> Workload {
    Workload::Synthetic(SyntheticSpec {
        kind: SyntheticKind::Random,
        index: 90, // outside the paper suite's 0..15 index space
        bubbles: 3,
        footprint_mib: 4,
    })
}

/// The sweep's workload columns: the drifting-hot-set headline first (the
/// binary's comparisons key off it), then the contrast columns.
pub fn workload_roster(scale: Scale) -> Vec<Workload> {
    vec![
        phase_workload(scale),
        stable_hot_workload(scale),
        uniform_random_workload(),
    ]
}

/// The policies the sweep compares.
pub fn policy_roster() -> Vec<(PolicySpec, f64)> {
    // (policy, capacity budget): static splits are budgeted at their own
    // fraction; dynamic policies all run under DYNAMIC_BUDGET.
    vec![
        (PolicySpec::StaticSplit { fraction: 0.0 }, 0.0),
        (PolicySpec::StaticSplit { fraction: 0.25 }, 0.25),
        (PolicySpec::StaticSplit { fraction: 0.5 }, 0.5),
        (PolicySpec::StaticSplit { fraction: 0.75 }, 0.75),
        (PolicySpec::StaticSplit { fraction: 1.0 }, 1.0),
        (
            PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
            DYNAMIC_BUDGET,
        ),
        (PolicySpec::TopKHotness, DYNAMIC_BUDGET),
        (PolicySpec::Hysteresis, DYNAMIC_BUDGET),
    ]
}

/// Epoch length in DRAM cycles, sized for roughly four policy epochs
/// per workload phase — long enough for per-row counts to clear the
/// migration-payoff thresholds, short enough to react within a phase.
pub fn epoch_cycles(scale: Scale) -> u64 {
    // ~10 DRAM cycles per trace access on this system (measured; LLC
    // hits keep many accesses off the bus).
    (phase_specs(scale).0.accesses_per_phase * 10 / 4).max(2_000)
}

/// The relocation models a policy is swept across: dynamic policies run
/// under both the legacy stall-the-world apply and background migration;
/// static splits never relocate at runtime (their layout is the initial
/// table), so only the stall cell is run.
pub fn reloc_axis(spec: PolicySpec) -> Vec<RelocationConfig> {
    match spec {
        PolicySpec::StaticSplit { .. } => vec![RelocationConfig::default()],
        _ => vec![
            RelocationConfig::default(),
            RelocationConfig::background_paced(),
        ],
    }
}

/// Label for a relocation configuration in reports.
pub fn reloc_label(cfg: &RelocationConfig) -> &'static str {
    if cfg.is_background() {
        "background"
    } else {
        "stall"
    }
}

/// One policy-system run: a policy driving one or more cores' workloads
/// under a relocation model on a (possibly multi-channel) memory system
/// of the sweep's small device. The sweep, `slo_report`, the fleet and
/// the policy examples build every policy run from one. Equal specs at
/// one trace seed simulate the same [`run_policy_workloads`] run, so the
/// sweep runs it once for every cell that uses it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The mode-management policy; it also sets the initial
    /// high-performance fraction ([`CellSpec::fraction_hp`]).
    pub policy: PolicySpec,
    /// Global capacity budget the policy runs under.
    pub budget: f64,
    /// One workload per core.
    pub workloads: Vec<Workload>,
    /// How transition batches land (stall or background migration).
    pub reloc: RelocationConfig,
    /// Memory channels.
    pub channels: u32,
    /// How the budget splits across channels.
    pub split: BudgetSplit,
    /// Where a coupling's displaced data is placed.
    pub placement: DestinationPicker,
    /// Instructions each core retires in the measurement window.
    pub budget_insts: u64,
    /// Warmup instructions per core.
    pub warmup_insts: u64,
    /// Policy epoch length in DRAM cycles.
    pub epoch_cycles: u64,
}

impl CellSpec {
    /// The sweep's defaults at `scale`: [`DYNAMIC_BUDGET`], background-paced
    /// relocation on one channel, the even split, same-bank placement and
    /// the scale's instruction counts and [`epoch_cycles`].
    pub fn new(policy: PolicySpec, workloads: Vec<Workload>, scale: Scale) -> Self {
        CellSpec {
            policy,
            budget: DYNAMIC_BUDGET,
            workloads,
            reloc: RelocationConfig::background_paced(),
            channels: 1,
            split: BudgetSplit::EvenSplit,
            placement: DestinationPicker::SameBank,
            budget_insts: scale.budget_insts(),
            warmup_insts: scale.warmup_insts(),
            epoch_cycles: epoch_cycles(scale),
        }
    }

    /// Initial high-performance row fraction of the mode table: a static
    /// split starts (and stays) at its fraction; a dynamic policy starts
    /// all-max-capacity and earns its fast rows.
    pub fn fraction_hp(&self) -> f64 {
        match self.policy {
            PolicySpec::StaticSplit { fraction } => fraction,
            _ => 0.0,
        }
    }

    /// Time-averaged fraction of device capacity run `r` of this cell
    /// forfeited. A static split forfeits its fraction's capacity for the
    /// whole run, independent of epoch accounting.
    pub fn capacity_loss(&self, r: &PolicyRunResult) -> f64 {
        match self.policy {
            PolicySpec::StaticSplit { fraction } => capacity_loss_fraction(fraction),
            _ => r.avg_capacity_loss(),
        }
    }

    /// The telemetry window the sweep samples every cell with and
    /// evaluates its SLO verdict over: one window per policy epoch aligns
    /// the sampling grid with the decision grid.
    pub fn metrics_window(&self) -> MetricsConfig {
        MetricsConfig {
            interval_cycles: self.epoch_cycles,
            capacity: 4_096,
        }
    }

    /// The run's configuration at trace seed `seed`: the small system of
    /// [`policy_mem_config`] and [`policy_cluster`] with wait-cause
    /// attribution on, metrics and tracing off, a serial channel walk
    /// (callers fan out whole runs), and at most 512 transitions per
    /// epoch, enough for real adaptation while one epoch's stall batch
    /// stays bounded on churny policies.
    pub fn run_config(&self, seed: u64, skip_ahead: bool) -> PolicyRunConfig {
        let mut mem = policy_mem_config(self.fraction_hp());
        mem.geometry.channels = self.channels;
        mem.relocation = self.reloc;
        mem.placement = self.placement;
        let base = RunConfig {
            cluster: policy_cluster(),
            skip_ahead,
            blame: true,
            ..RunConfig::paper(mem, self.budget_insts, self.warmup_insts, seed)
        };
        let constraints = PolicyConstraints {
            max_hp_fraction: self.budget,
            max_transitions_per_epoch: 512,
        };
        PolicyRunConfig::new(base, self.policy, constraints, self.epoch_cycles)
            .with_budget_split(self.split)
    }

    /// The alone baselines a shared run at trace seed `seed` is scored
    /// against: core `i`'s workload alone on the same configuration, at
    /// [`per_core_seed`]`(seed, i)`, the trace core `i` replays in the
    /// shared run.
    pub fn alone(&self, seed: u64) -> impl Iterator<Item = (CellSpec, u64)> + '_ {
        self.workloads.iter().enumerate().map(move |(core, &w)| {
            let spec = CellSpec {
                workloads: vec![w],
                ..self.clone()
            };
            (spec, per_core_seed(seed, core))
        })
    }
}

/// One reported cell: what it simulates, the workload label it reports,
/// and whether it is scored against per-core alone baselines.
#[derive(Debug, Clone)]
struct SweepCell {
    spec: CellSpec,
    label: String,
    fairness: bool,
}

fn run_cell(spec: &CellSpec, seed: u64, skip_ahead: bool) -> PolicyCell {
    let mut cfg = spec.run_config(seed, skip_ahead);
    // Every cell runs with continuous telemetry on — metrics are inert
    // (proven by the workspace differential test), and the windowed
    // series is what the SLO verdict evaluates.
    cfg.base.metrics = Some(spec.metrics_window());
    let r = run_policy_workloads(&spec.workloads, &cfg);
    let (read_p50, read_p95, read_p99) = r.run.mem.read_latency_percentiles();
    let system_series = r.run.metrics.as_ref().expect("metrics enabled").system();
    let slo = cell_slo_spec(spec.reloc.is_background()).evaluate(&system_series);
    let slo_worst_read_p99 = system_series
        .windows()
        .map(|w| w.read_p99())
        .max()
        .unwrap_or(0);
    PolicyCell {
        policy: spec.policy.label(),
        workload: String::new(), // labelled by `run_cells`
        reloc: reloc_label(&spec.reloc).to_string(),
        cores: spec.workloads.len(),
        channels: spec.channels,
        budget_split: spec.split.label().to_string(),
        placement: spec.placement.label().to_string(),
        frames_moved: r.run.mem.migration_fills,
        rows_remapped: r.rows_remapped,
        weighted_speedup: None,
        max_slowdown: None,
        ipc: r.run.ipc.iter().sum::<f64>() / r.run.ipc.len() as f64,
        ipc_per_core: r.run.ipc.clone(),
        energy_j: r.run.energy.total_j(),
        avg_capacity_loss: spec.capacity_loss(&r),
        final_hp_fraction: r.final_hp_fraction,
        transitions: r.policy_stats.transitions_applied,
        relocation_stall_cycles: r.run.mem.relocation_stall_cycles,
        migration_jobs: r.run.mem.migration_jobs_completed,
        migration_slot_utilization: r.migration_slot_utilization(),
        row_hit_rate: r.run.mem.row_hit_rate(),
        read_latency_p50: read_p50,
        read_latency_p95: read_p95,
        read_latency_p99: read_p99,
        slo_pass: slo.pass(),
        slo_windows: slo.windows,
        slo_violations: slo.objectives.iter().map(|o| o.violations).sum(),
        slo_worst_read_p99,
        read_latency_cycles: r.run.mem.read_latency_hist.sum(),
        read_blame: r.run.mem.read_blame.clone(),
    }
}

/// One contention-sweep configuration: how many cores compete for how
/// many channels, under which policy and cross-channel budget split.
#[derive(Debug, Clone, Copy)]
pub struct ContentionSpec {
    /// Competing cores (workloads assigned round-robin from the roster).
    pub cores: usize,
    /// Memory channels.
    pub channels: u32,
    /// The dynamic policy managing every channel.
    pub policy: PolicySpec,
    /// How the global budget splits across channels.
    pub split: BudgetSplit,
}

impl ContentionSpec {
    fn label(&self, workloads: &[Workload]) -> String {
        // First component of each workload name ("phase", "stablehot",
        // "random") keeps the label readable.
        let names: Vec<String> = workloads.iter().map(Workload::name).collect();
        let mix: Vec<&str> = names.iter().filter_map(|n| n.split('_').next()).collect();
        format!("{}core/{}ch:{}", self.cores, self.channels, mix.join("+"))
    }
}

/// The contention sweep's configurations: core counts {1, 2, 4} ×
/// channel counts {1, 2} × budget splits (even always; demand only
/// where there is more than one channel to rebalance) × the two
/// interesting dynamic policies. At smoke scale the roster is trimmed
/// to the two cells CI must exercise: the 2-core × 2-channel sharded
/// path and the 4-core × 2-channel hysteresis headline.
pub fn contention_roster(scale: Scale) -> Vec<ContentionSpec> {
    if scale == Scale::Smoke {
        return vec![
            // Util-threshold promotes eagerly even at smoke budgets, so
            // this cell drives real background migration through the
            // sharded path on every CI push (hysteresis's payoff
            // threshold rightly declines promotions this small).
            ContentionSpec {
                cores: 2,
                channels: 2,
                policy: PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
                split: BudgetSplit::EvenSplit,
            },
            ContentionSpec {
                cores: 4,
                channels: 2,
                policy: PolicySpec::Hysteresis,
                split: BudgetSplit::demand_proportional(),
            },
        ];
    }
    let mut out = Vec::new();
    for policy in [
        PolicySpec::Hysteresis,
        PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
    ] {
        for cores in [1usize, 2, 4] {
            for channels in [1u32, 2] {
                // The workload mix must physically fit the device: each
                // phase/stable-hot footprint is half of one channel's
                // capacity, so the 4-core mix (~28 MiB) needs the
                // 2-channel device — on 1 channel page placement would
                // rightly refuse (PlacementOverflow).
                if cores == 4 && channels == 1 {
                    continue;
                }
                let mut splits = vec![BudgetSplit::EvenSplit];
                if channels > 1 {
                    splits.push(BudgetSplit::demand_proportional());
                }
                for split in splits {
                    out.push(ContentionSpec {
                        cores,
                        channels,
                        policy,
                        split,
                    });
                }
            }
        }
    }
    out
}

/// The workload mix for an n-core contention cell: the roster columns
/// (drifting-hot, stable-hot, uniform-random) assigned round-robin, so
/// every cell mixes latency-sensitive and streaming behaviour.
pub fn contention_workloads(scale: Scale, cores: usize) -> Vec<Workload> {
    let roster = workload_roster(scale);
    (0..cores).map(|i| roster[i % roster.len()]).collect()
}

/// One [`contention_roster`] entry's cell and its report label: the
/// entry's workload mix under background relocation. The sweep's
/// contention cells and `slo_report`'s certified cell both come from
/// here.
pub fn contention_cell(scale: Scale, c: &ContentionSpec) -> (String, CellSpec) {
    let workloads = contention_workloads(scale, c.cores);
    let label = c.label(&workloads);
    let spec = CellSpec {
        channels: c.channels,
        split: c.split,
        ..CellSpec::new(c.policy, workloads, scale)
    };
    (label, spec)
}

/// The contention sweep's cells, each scored against per-core alone
/// baselines.
fn contention_cells(scale: Scale) -> Vec<SweepCell> {
    contention_roster(scale)
        .iter()
        .map(|c| {
            let (label, spec) = contention_cell(scale, c);
            SweepCell {
                spec,
                label,
                fairness: true,
            }
        })
        .collect()
}

/// The placement sweep's workload mix: the drifting and stable hot sets
/// with their hot lines pinned to channel 0 of a 2-channel system — a
/// saturated channel next to a mostly idle one, the regime where moving
/// *frames* (not just budget) across channels pays.
pub fn skewed_workloads(scale: Scale) -> Vec<Workload> {
    let (drifting, stable) = phase_specs(scale);
    vec![
        Workload::PhaseShift(drifting.with_channel_skew(2, 0)),
        Workload::PhaseShift(stable.with_channel_skew(2, 0)),
    ]
}

/// The placement axis: same-bank (the budget-only baseline — demand
/// rebalancing still runs, but capacity never physically moves),
/// cross-bank (overlapped couplings), and cross-channel (overlapped
/// couplings plus the frame rebalancer). At smoke scale the roster is
/// trimmed to the two ends CI must exercise.
pub fn placement_roster(scale: Scale) -> Vec<DestinationPicker> {
    if scale == Scale::Smoke {
        return vec![DestinationPicker::SameBank, DestinationPicker::CrossChannel];
    }
    vec![
        DestinationPicker::SameBank,
        DestinationPicker::CrossBank,
        DestinationPicker::CrossChannel,
    ]
}

/// The placement sweep's cells: each placement mode drives the
/// channel-skewed mix on a 2-channel system. Util-threshold promotes
/// eagerly even at smoke budgets, so the placement machinery is
/// exercised on every CI push. Every cell splits the budget
/// demand-proportionally, so the same-bank column is exactly
/// "budget-only rebalancing" and the placement axis is isolated.
fn placement_cells(scale: Scale) -> Vec<SweepCell> {
    let workloads = skewed_workloads(scale);
    let policy = PolicySpec::UtilizationThreshold { hot: 4, cold: 1 };
    placement_roster(scale)
        .into_iter()
        .map(|placement| SweepCell {
            spec: CellSpec {
                channels: 2,
                split: BudgetSplit::demand_proportional(),
                placement,
                ..CellSpec::new(policy, workloads.clone(), scale)
            },
            label: format!("2core/2ch:skewed:{}", placement.label()),
            fairness: true,
        })
        .collect()
}

/// The sweep's three cell lists in report order: the policy × workload
/// roster closed by the 2-core shared-budget cell, the contention cells
/// and the placement cells.
fn sweep_cells(scale: Scale) -> [Vec<SweepCell>; 3] {
    let mut roster = Vec::new();
    for w in workload_roster(scale) {
        for (policy, budget) in policy_roster() {
            for reloc in reloc_axis(policy) {
                let spec = CellSpec {
                    budget,
                    reloc,
                    ..CellSpec::new(policy, vec![w], scale)
                };
                roster.push(SweepCell {
                    spec,
                    label: w.name(),
                    fairness: false,
                });
            }
        }
    }
    // The 2-core shared-fast-row-budget cell: a drifting and a stable hot
    // set compete for one controller's capacity budget under hysteresis;
    // the per-core IPC column shows who wins the shared fast rows.
    let (w0, w1) = (phase_workload(scale), stable_hot_workload(scale));
    roster.push(SweepCell {
        spec: CellSpec::new(PolicySpec::Hysteresis, vec![w0, w1], scale),
        label: format!("2core:{}+{}", w0.name(), w1.name()),
        fairness: false,
    });
    [roster, contention_cells(scale), placement_cells(scale)]
}

/// Runs the sweep: every roster policy × every roster workload
/// (drifting-hot, stable-hot, uniform-random) × the policy's relocation
/// axis (stall vs background for dynamic policies), the 2-core
/// shared-budget cell, the contention sweep (see [`contention_roster`])
/// and the placement sweep, as one batch of distinct simulations over
/// worker threads. Cells are workload-major, the headline column first.
///
/// `skip_ahead` picks the walk every cell runs (see
/// [`RunConfig::skip_ahead`]); the sweep is bit-identical either way.
pub fn run(scale: Scale, seed: u64, skip_ahead: bool) -> PolicySweepReport {
    let lists = sweep_cells(scale);
    let mut runs = run_cells(&lists.concat(), seed, skip_ahead).into_iter();
    let [cells, contention, placement] = lists.map(|list| runs.by_ref().take(list.len()).collect());
    PolicySweepReport {
        cells,
        contention,
        placement,
        scale,
    }
}

/// The distinct simulations a cell list needs, as (spec, trace seed)
/// pairs, and for each cell the indices of its own run and of its
/// per-core alone baselines.
struct Plan {
    sims: Vec<(CellSpec, u64)>,
    uses: Vec<(usize, Vec<usize>)>,
}

/// Plans `cells` at trace seed `seed`. A fairness cell is scored
/// against [`CellSpec::alone`]. Each distinct (spec, seed) pair is one
/// simulation, so a 1-core cell is its own baseline.
fn plan(cells: &[SweepCell], seed: u64) -> Plan {
    let mut sims: Vec<(CellSpec, u64)> = Vec::new();
    let mut sim = |spec: CellSpec, seed: u64| {
        let found = sims.iter().position(|(s, t)| *s == spec && *t == seed);
        found.unwrap_or_else(|| {
            sims.push((spec, seed));
            sims.len() - 1
        })
    };
    let uses = cells
        .iter()
        .map(|c| {
            let own = sim(c.spec.clone(), seed);
            let alone = if c.fairness {
                c.spec.alone(seed).map(|(s, t)| sim(s, t)).collect()
            } else {
                Vec::new()
            };
            (own, alone)
        })
        .collect();
    Plan { sims, uses }
}

/// Runs every distinct simulation `cells` need in one [`parallel_map`],
/// then labels each cell and scores each fairness cell: weighted
/// speedup, max slowdown, and the [`SLO_MAX_SLOWDOWN_MILLI`] ceiling
/// folded into its SLO verdict (a scalar objective the windowed series
/// cannot see: it needs the alone baselines).
fn run_cells(cells: &[SweepCell], seed: u64, skip_ahead: bool) -> Vec<PolicyCell> {
    let Plan { sims, uses } = plan(cells, seed);
    let runs = parallel_map(sims.len(), |i| run_cell(&sims[i].0, sims[i].1, skip_ahead));
    cells
        .iter()
        .zip(uses)
        .map(|(c, (own, alone))| {
            let mut cell = runs[own].clone();
            cell.workload = c.label.clone();
            if c.fairness {
                let alone: Vec<f64> = alone.iter().map(|&i| runs[i].ipc).collect();
                let slowdown = max_slowdown(&cell.ipc_per_core, &alone);
                if (slowdown * 1000.0).round() as u64 > SLO_MAX_SLOWDOWN_MILLI {
                    cell.slo_pass = false;
                    cell.slo_violations += 1;
                }
                cell.weighted_speedup = Some(weighted_speedup(&cell.ipc_per_core, &alone));
                cell.max_slowdown = Some(slowdown);
            }
            cell
        })
        .collect()
}

impl PolicySweepReport {
    /// The cell for an exact (policy, workload) pair, if present. When
    /// the policy ran under both relocation models, the background cell
    /// is the representative (it is the configuration that dominates).
    pub fn cell_for(&self, policy: &str, workload: &str) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .filter(|c| c.policy == policy && c.workload == workload)
            .max_by_key(|c| c.reloc == "background")
    }

    /// The cell for an exact (policy, workload, relocation) triple.
    pub fn cell_with(&self, policy: &str, workload: &str, reloc: &str) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.workload == workload && c.reloc == reloc)
    }

    /// Every (policy, workload) pair that ran under both relocation
    /// models, as `(policy, workload, background IPC, stall IPC)` — the
    /// background-vs-stall dominance comparison.
    pub fn background_vs_stall(&self) -> Vec<(&str, &str, f64, f64)> {
        let mut out = Vec::new();
        for c in &self.cells {
            if c.reloc != "background" {
                continue;
            }
            if let Some(stall) = self.cell_with(&c.policy, &c.workload, "stall") {
                out.push((c.policy.as_str(), c.workload.as_str(), c.ipc, stall.ipc));
            }
        }
        out
    }

    /// The best static-split cell on the `workload` column whose
    /// capacity loss does not exceed `max_loss + ε` — the fair static
    /// competitor for a budgeted dynamic policy.
    pub fn best_static_within_for(&self, max_loss: f64, workload: &str) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .filter(|c| c.workload == workload)
            .filter(|c| c.policy.starts_with("static-"))
            .filter(|c| c.avg_capacity_loss <= max_loss + 1e-9)
            .max_by(|a, b| a.ipc.partial_cmp(&b.ipc).expect("finite IPC"))
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<28} {:<10} {:>7} {:>10} {:>9} {:>8} {:>11} {:>9} {:>8}\n",
            "policy",
            "workload",
            "reloc",
            "IPC",
            "energy(mJ)",
            "cap-loss",
            "hit-rate",
            "transitions",
            "stall-cyc",
            "mig-util"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<14} {:<28} {:<10} {:>7.4} {:>10.3} {:>8.1}% {:>7.1}% {:>11} {:>9} {:>7.2}%\n",
                c.policy,
                c.workload,
                c.reloc,
                c.ipc,
                c.energy_j * 1e3,
                c.avg_capacity_loss * 100.0,
                c.row_hit_rate * 100.0,
                c.transitions,
                c.relocation_stall_cycles,
                c.migration_slot_utilization * 100.0,
            ));
        }
        out
    }

    /// Renders the contention-sweep table (empty string when the sweep
    /// has no contention cells).
    pub fn render_contention(&self) -> String {
        if self.contention.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<34} {:>5} {:>3} {:<7} {:>7} {:>8} {:>9} {:>9} {:>8}\n",
            "policy",
            "cell",
            "cores",
            "ch",
            "split",
            "IPC",
            "wspeedup",
            "max-slow",
            "stall-cyc",
            "mig-util"
        ));
        for c in &self.contention {
            out.push_str(&format!(
                "{:<14} {:<34} {:>5} {:>3} {:<7} {:>7.4} {:>8.3} {:>9.3} {:>9} {:>7.2}%\n",
                c.policy,
                c.workload,
                c.cores,
                c.channels,
                c.budget_split,
                c.ipc,
                c.weighted_speedup.unwrap_or(f64::NAN),
                c.max_slowdown.unwrap_or(f64::NAN),
                c.relocation_stall_cycles,
                c.migration_slot_utilization * 100.0,
            ));
        }
        out
    }

    /// Renders the placement-sweep table (empty string when the sweep
    /// has no placement cells).
    pub fn render_placement(&self) -> String {
        if self.placement.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<34} {:<13} {:>7} {:>8} {:>9} {:>7} {:>8} {:>9}\n",
            "policy",
            "cell",
            "placement",
            "IPC",
            "wspeedup",
            "max-slow",
            "moves",
            "remaps",
            "stall-cyc"
        ));
        for c in &self.placement {
            out.push_str(&format!(
                "{:<14} {:<34} {:<13} {:>7.4} {:>8.3} {:>9.3} {:>7} {:>8} {:>9}\n",
                c.policy,
                c.workload,
                c.placement,
                c.ipc,
                c.weighted_speedup.unwrap_or(f64::NAN),
                c.max_slowdown.unwrap_or(f64::NAN),
                c.frames_moved,
                c.rows_remapped,
                c.relocation_stall_cycles,
            ));
        }
        out
    }

    /// The placement cell for a placement label, if present.
    pub fn placement_cell(&self, placement: &str) -> Option<&PolicyCell> {
        self.placement.iter().find(|c| c.placement == placement)
    }

    fn cell_json(c: &PolicyCell) -> Json {
        let f6 = |x| Json::fixed(x, 6);
        let per_core = c.ipc_per_core.iter().copied().map(f6);
        let (blame_cycles, blame_permille) = c.read_blame.cause_maps();
        Json::Obj(vec![
            ("policy", c.policy.as_str().into()),
            ("workload", c.workload.as_str().into()),
            ("reloc", c.reloc.as_str().into()),
            ("cores", c.cores.into()),
            ("channels", c.channels.into()),
            ("budget_split", c.budget_split.as_str().into()),
            ("placement", c.placement.as_str().into()),
            ("frames_moved", c.frames_moved.into()),
            ("rows_remapped", c.rows_remapped.into()),
            ("ipc", f6(c.ipc)),
            ("ipc_per_core", per_core.collect()),
            (
                "weighted_speedup",
                c.weighted_speedup.map_or(Json::Null, f6),
            ),
            ("max_slowdown", c.max_slowdown.map_or(Json::Null, f6)),
            ("energy_j", Json::Num(format!("{:.6e}", c.energy_j))),
            ("avg_capacity_loss", f6(c.avg_capacity_loss)),
            ("final_hp_fraction", f6(c.final_hp_fraction)),
            ("transitions", c.transitions.into()),
            ("relocation_stall_cycles", c.relocation_stall_cycles.into()),
            ("migration_jobs", c.migration_jobs.into()),
            (
                "migration_slot_utilization",
                f6(c.migration_slot_utilization),
            ),
            ("row_hit_rate", f6(c.row_hit_rate)),
            ("read_latency_p50", c.read_latency_p50.into()),
            ("read_latency_p95", c.read_latency_p95.into()),
            ("read_latency_p99", c.read_latency_p99.into()),
            ("slo_pass", Json::Bool(c.slo_pass)),
            ("slo_windows", c.slo_windows.into()),
            ("slo_violations", c.slo_violations.into()),
            ("slo_worst_read_p99", c.slo_worst_read_p99.into()),
            ("read_latency_cycles", c.read_latency_cycles.into()),
            ("blame_cycles", blame_cycles),
            ("blame_permille", blame_permille),
        ])
    }

    /// Machine-readable JSON (schema:
    /// `{schema, scale, cells: [...], contention: [...], placement:
    /// [...]}`), emitted by the `policy_sweep` binary so future PRs can
    /// track a performance trajectory. `v2` added the relocation-model
    /// axis (`reloc`, `migration_jobs`, `migration_slot_utilization`)
    /// and the per-core IPC breakdown; `v3` added the channel-sharding
    /// axis (`cores`, `channels`, `budget_split`) and the contention
    /// array with `weighted_speedup` / `max_slowdown` fairness columns
    /// (null on non-contention cells); `v4` adds the placement axis
    /// (`placement`, `frames_moved`, `rows_remapped` on every cell) and
    /// the placement array comparing same-bank / cross-bank /
    /// cross-channel destination placement on the channel-skewed mix;
    /// `v5` adds tail latency (`read_latency_p50`/`p95`/`p99`, DRAM
    /// cycles, from the per-request latency histograms) to every cell;
    /// `v6` adds the continuous-telemetry SLO verdict (`slo_pass`,
    /// `slo_windows`, `slo_violations`, `slo_worst_read_p99` — see
    /// [`cell_slo_spec`]) to every cell; `v7` adds cycle-exact
    /// wait-cause attribution (`read_latency_cycles`, per-cause
    /// `blame_cycles` summing to exactly it, and the derived
    /// `blame_permille` shares) to every cell.
    pub fn to_json(&self) -> String {
        let cells = |cells: &[PolicyCell]| cells.iter().map(Self::cell_json).collect();
        let doc = Json::Obj(vec![
            ("schema", "clr-dram/policy-sweep/v7".into()),
            ("scale", self.scale.label().into()),
            ("cells", cells(&self.cells)),
            ("contention", cells(&self.contention)),
            ("placement", cells(&self.placement)),
        ]);
        format!("{doc}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_obs::WaitCause;

    #[test]
    fn roster_covers_static_and_dynamic() {
        let roster = policy_roster();
        assert_eq!(roster.len(), 8);
        let labels: Vec<String> = roster.iter().map(|(s, _)| s.label()).collect();
        assert!(labels.contains(&"hysteresis".to_string()));
        assert!(labels.contains(&"static-100".to_string()));
    }

    #[test]
    fn workload_roster_has_headline_and_contrast_columns() {
        let ws = workload_roster(Scale::Smoke);
        let names: Vec<String> = ws.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].starts_with("phase_"), "headline first: {names:?}");
        assert!(names[1].starts_with("stablehot_"), "{names:?}");
        assert!(names[2].starts_with("random_"), "{names:?}");
        // All three are distinct columns in the report.
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn geometry_is_valid_and_small() {
        let g = policy_geometry();
        g.validate().expect("valid");
        assert_eq!(g.capacity_bytes(), 16 << 20);
    }

    fn cell(policy: &str, workload: &str, reloc: &str, ipc: f64) -> PolicyCell {
        PolicyCell {
            policy: policy.into(),
            workload: workload.into(),
            reloc: reloc.into(),
            cores: 1,
            channels: 1,
            budget_split: "even".into(),
            placement: "same-bank".into(),
            frames_moved: 0,
            rows_remapped: 0,
            weighted_speedup: None,
            max_slowdown: None,
            ipc,
            ipc_per_core: vec![ipc],
            energy_j: 1e-3,
            avg_capacity_loss: 0.125,
            final_hp_fraction: 0.25,
            transitions: 10,
            relocation_stall_cycles: if reloc == "stall" { 100 } else { 0 },
            migration_jobs: if reloc == "background" { 10 } else { 0 },
            migration_slot_utilization: if reloc == "background" { 0.01 } else { 0.0 },
            row_hit_rate: 0.4,
            read_latency_p50: 40,
            read_latency_p95: 120,
            read_latency_p99: 250,
            slo_pass: true,
            slo_windows: 6,
            slo_violations: 0,
            slo_worst_read_p99: 310,
            read_latency_cycles: 4_000,
            read_blame: {
                let mut b = BlameSet::new();
                b.record_cause(WaitCause::Refresh, 400);
                b.record_cause(WaitCause::RowConflict, 2_600);
                b.record_cause(WaitCause::Service, 1_000);
                b
            },
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut contention = cell("hysteresis", "4core/2ch:mix", "background", 0.5);
        contention.cores = 4;
        contention.channels = 2;
        contention.budget_split = "demand".into();
        contention.ipc_per_core = vec![0.5; 4];
        contention.weighted_speedup = Some(3.2);
        contention.max_slowdown = Some(1.4);
        let mut placement = cell(
            "util-4-1",
            "2core/2ch:skewed:cross-channel",
            "background",
            0.6,
        );
        placement.placement = "cross-channel".into();
        placement.frames_moved = 12;
        placement.rows_remapped = 12;
        placement.weighted_speedup = Some(1.8);
        let report = PolicySweepReport {
            scale: Scale::Smoke,
            cells: vec![cell("topk", "phase_12m_h04", "background", 0.5)],
            contention: vec![contention],
            placement: vec![placement],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"clr-dram/policy-sweep/v7\""));
        assert!(json.contains("\"policy\": \"topk\""));
        assert!(json.contains("\"reloc\": \"background\""));
        assert!(json.contains("\"ipc_per_core\": [0.500000]"));
        // v3 axes on every cell; fairness metrics null outside the
        // contention array.
        assert!(json.contains("\"channels\": 1"));
        assert!(json.contains("\"weighted_speedup\": null"));
        assert!(json.contains("\"contention\": ["));
        assert!(json.contains("\"budget_split\": \"demand\""));
        assert!(json.contains("\"weighted_speedup\": 3.200000"));
        assert!(json.contains("\"max_slowdown\": 1.400000"));
        // v4: the placement axis on every cell plus the placement array.
        assert!(json.contains("\"placement\": \"same-bank\""));
        assert!(json.contains("\"placement\": ["));
        assert!(json.contains("\"placement\": \"cross-channel\""));
        assert!(json.contains("\"frames_moved\": 12"));
        assert!(json.contains("\"rows_remapped\": 12"));
        // v5: read-latency tail percentiles on every cell.
        assert!(json.contains("\"read_latency_p50\": 40"));
        assert!(json.contains("\"read_latency_p95\": 120"));
        assert!(json.contains("\"read_latency_p99\": 250"));
        // v6: the SLO verdict on every cell.
        assert!(json.contains("\"slo_pass\": true"));
        assert!(json.contains("\"slo_windows\": 6"));
        assert!(json.contains("\"slo_violations\": 0"));
        assert!(json.contains("\"slo_worst_read_p99\": 310"));
        // v7: wait-cause attribution on every cell — exact cycles and
        // the derived permille shares, keyed by stable cause labels.
        assert!(json.contains("\"read_latency_cycles\": 4000"));
        assert!(json.contains("\"blame_cycles\": {\"backpressure\": 0, \"refresh\": 400,"));
        assert!(json.contains("\"row_conflict\": 2600,"));
        assert!(json.contains("\"blame_permille\": {\"backpressure\": 0, \"refresh\": 100,"));
        assert!(json.contains("\"service\": 250}"));
        assert!(report.cell_for("topk", "phase_12m_h04").is_some());
        assert!(report
            .best_static_within_for(0.2, "phase_12m_h04")
            .is_none());
        // The contention table renders its fairness columns.
        let table = report.render_contention();
        assert!(table.contains("4core/2ch:mix"));
        assert!(table.contains("3.200"));
        // The placement table renders the frame-move columns.
        let ptable = report.render_placement();
        assert!(ptable.contains("cross-channel"));
        assert!(ptable.contains("12"));
        assert!(report.placement_cell("cross-channel").is_some());
        assert!(report.placement_cell("cross-bank").is_none());
    }

    #[test]
    fn placement_roster_shape() {
        let smoke = placement_roster(Scale::Smoke);
        assert_eq!(
            smoke,
            vec![DestinationPicker::SameBank, DestinationPicker::CrossChannel]
        );
        let full = placement_roster(Scale::Default);
        assert_eq!(full.len(), 3);
        assert!(full.contains(&DestinationPicker::CrossBank));
        // The skewed mix pins both cores' hot sets to channel 0 and its
        // workload names carry the skew suffix.
        let ws = skewed_workloads(Scale::Smoke);
        assert_eq!(ws.len(), 2);
        assert!(ws[0].name().starts_with("phase_") && ws[0].name().ends_with("_ch0"));
        assert!(ws[1].name().starts_with("stablehot_") && ws[1].name().ends_with("_ch0"));
    }

    #[test]
    fn contention_roster_shape() {
        // Smoke: exactly the two CI cells, both 2-channel background.
        let smoke = contention_roster(Scale::Smoke);
        assert_eq!(smoke.len(), 2);
        assert!(smoke.iter().all(|s| s.channels == 2));
        assert_eq!(smoke[0].cores, 2);
        assert!(matches!(
            smoke[0].policy,
            PolicySpec::UtilizationThreshold { .. }
        ));
        assert_eq!(smoke[1].cores, 4);
        assert!(matches!(smoke[1].policy, PolicySpec::Hysteresis));
        // Full cross at default scale: 2 policies × (cores {1,2} ×
        // (1ch even + 2ch even + 2ch demand) + cores 4 × 2ch-only) —
        // the 4-core mix does not fit a 1-channel device.
        let full = contention_roster(Scale::Default);
        assert_eq!(full.len(), 2 * (2 * 3 + 2));
        assert!(!full.iter().any(|s| s.cores == 4 && s.channels == 1));
        assert!(full
            .iter()
            .any(|s| s.channels == 1 && matches!(s.split, BudgetSplit::EvenSplit)));
        assert!(full
            .iter()
            .any(|s| s.channels == 2 && s.split == BudgetSplit::demand_proportional()));
        // Workload mixes cycle the roster columns.
        let ws = contention_workloads(Scale::Smoke, 4);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].name(), ws[3].name());
        assert_ne!(ws[0].name(), ws[1].name());
        // `slo_report` certifies the 2-core × 2-channel util-threshold
        // even-split cell, so every scale's roster must hold it.
        for scale in [Scale::Smoke, Scale::Default, Scale::Full] {
            assert!(
                contention_roster(scale).iter().any(|c| c.cores == 2
                    && c.channels == 2
                    && c.split == BudgetSplit::EvenSplit
                    && matches!(c.policy, PolicySpec::UtilizationThreshold { .. })),
                "{scale:?}"
            );
        }
    }

    #[test]
    fn run_config_is_the_small_system_template() {
        let scale = Scale::Smoke;
        let cell = CellSpec {
            channels: 2,
            split: BudgetSplit::demand_proportional(),
            placement: DestinationPicker::CrossBank,
            ..CellSpec::new(PolicySpec::Hysteresis, skewed_workloads(scale), scale)
        };
        let cfg = cell.run_config(7, false);
        let base = &cfg.base;
        let mut mem = policy_mem_config(0.0);
        mem.geometry.channels = 2;
        mem.relocation = RelocationConfig::background_paced();
        mem.placement = DestinationPicker::CrossBank;
        assert_eq!(base.mem, mem);
        assert_eq!(base.cluster, policy_cluster());
        assert_eq!(
            (
                base.budget_insts,
                base.warmup_insts,
                base.seed,
                base.skip_ahead
            ),
            (scale.budget_insts(), scale.warmup_insts(), 7, false)
        );
        assert!(cell.run_config(7, true).base.skip_ahead);
        assert!(base.blame && base.metrics.is_none() && base.trace.is_none());
        assert_eq!(base.threads, 1, "the walk is serial");
        assert_eq!(cfg.policy, PolicySpec::Hysteresis);
        assert_eq!(
            cfg.constraints,
            PolicyConstraints {
                max_hp_fraction: DYNAMIC_BUDGET,
                max_transitions_per_epoch: 512,
            }
        );
        assert_eq!(cfg.epoch_dram_cycles, epoch_cycles(scale));
        assert_eq!(cfg.budget_split, BudgetSplit::demand_proportional());
        // The policy sets the initial fraction: a static split starts at
        // its own, whatever cell it overrides.
        let split = CellSpec {
            policy: PolicySpec::StaticSplit { fraction: 0.25 },
            ..cell
        };
        assert_eq!(split.fraction_hp(), 0.25);
        let mem = split.run_config(7, false).base.mem;
        assert_eq!(mem.clr, policy_mem_config(0.25).clr);
    }

    #[test]
    fn the_sweep_is_one_batch_of_distinct_simulations() {
        // Planned apart, the three lists would run 73 simulations at
        // default scale: the roster's 2-core cell is the 2core/1ch
        // hysteresis contention cell, and its hysteresis and
        // util-threshold background cells on the phase workload are the
        // 1-channel contention groups' core-0 baselines. Smoke shares
        // none. Update these counts when a roster changes.
        for (scale, sims, apart) in [(Scale::Default, 70, 73), (Scale::Smoke, 48, 48)] {
            let lists = sweep_cells(scale);
            let batch = plan(&lists.concat(), 42);
            for (i, sim) in batch.sims.iter().enumerate() {
                assert!(!batch.sims[..i].contains(sim), "{scale:?}: run {i} repeats");
            }
            assert_eq!(batch.sims.len(), sims, "{scale:?}");
            let planned_apart: usize = lists.iter().map(|l| plan(l, 42).sims.len()).sum();
            assert_eq!(planned_apart, apart, "{scale:?}");
        }
    }

    #[test]
    fn fairness_baselines_are_each_core_alone_at_its_trace_seed() {
        let seed = 42;
        let cells = sweep_cells(Scale::Default).concat();
        let batch = plan(&cells, seed);
        let mut one_core_cells = 0;
        for (c, (own, alone)) in cells.iter().zip(&batch.uses) {
            assert_eq!(batch.sims[*own], (c.spec.clone(), seed), "{}", c.label);
            if !c.fairness {
                assert!(alone.is_empty(), "{}", c.label);
                continue;
            }
            assert_eq!(alone.len(), c.spec.workloads.len(), "{}", c.label);
            for (core, &i) in alone.iter().enumerate() {
                let mut expected = c.spec.clone();
                expected.workloads = vec![c.spec.workloads[core]];
                assert_eq!(batch.sims[i], (expected, per_core_seed(seed, core)));
            }
            if c.spec.workloads.len() == 1 {
                // per_core_seed(seed, 0) == seed: the cell is its own
                // baseline, so its fairness scores are exactly 1.0.
                assert_eq!(alone, &vec![*own], "{}", c.label);
                one_core_cells += 1;
            }
        }
        // 2 policies × {1ch even, 2ch even, 2ch demand}.
        assert_eq!(one_core_cells, 6);
    }

    #[test]
    fn reloc_axis_doubles_dynamic_policies_only() {
        assert_eq!(
            reloc_axis(PolicySpec::StaticSplit { fraction: 0.25 }).len(),
            1
        );
        let dynamic = reloc_axis(PolicySpec::Hysteresis);
        assert_eq!(dynamic.len(), 2);
        assert!(!dynamic[0].is_background());
        assert!(dynamic[1].is_background());
        assert_eq!(reloc_label(&dynamic[1]), "background");
    }

    #[test]
    fn cell_lookup_prefers_background_and_pairs_compare() {
        let report = PolicySweepReport {
            scale: Scale::Smoke,
            cells: vec![
                cell("hysteresis", "w", "stall", 0.40),
                cell("hysteresis", "w", "background", 0.45),
                cell("static-25", "w", "stall", 0.42),
            ],
            contention: Vec::new(),
            placement: Vec::new(),
        };
        assert_eq!(
            report.cell_for("hysteresis", "w").unwrap().reloc,
            "background"
        );
        assert_eq!(
            report.cell_with("hysteresis", "w", "stall").unwrap().ipc,
            0.40
        );
        let pairs = report.background_vs_stall();
        assert_eq!(pairs, vec![("hysteresis", "w", 0.45, 0.40)]);
    }
}
