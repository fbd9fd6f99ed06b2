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

use crate::policyrun::{run_policy_workloads, PolicyRunConfig};
use crate::scale::Scale;
use crate::system::RunConfig;

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

/// The phase-shifting workload sized so roughly eight phases fit in the
/// scale's instruction budget.
pub fn phase_workload(scale: Scale) -> Workload {
    let spec = PhaseShiftSpec::paper_default();
    let phases = 8;
    let accesses_per_phase =
        (scale.budget_insts() as f64 / (spec.bubbles as f64 + 1.0) / phases as f64) as u64;
    Workload::PhaseShift(PhaseShiftSpec {
        accesses_per_phase: accesses_per_phase.max(500),
        ..spec
    })
}

/// The stable-hot contrast workload: the phase workload's hot window with
/// zero drift, so the time-averaged heat map equals the instantaneous one
/// and static placement is as informed as any telemetry-driven policy.
pub fn stable_hot_workload(scale: Scale) -> Workload {
    let Workload::PhaseShift(spec) = phase_workload(scale) else {
        unreachable!("phase_workload returns PhaseShift");
    };
    Workload::PhaseShift(PhaseShiftSpec {
        drift_fraction: 0.0,
        ..spec
    })
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
    let Workload::PhaseShift(spec) = phase_workload(scale) else {
        unreachable!("phase_workload returns PhaseShift");
    };
    // ~10 DRAM cycles per trace access on this system (measured; LLC
    // hits keep many accesses off the bus).
    (spec.accesses_per_phase * 10 / 4).max(2_000)
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

/// One sweep job: a policy driving one or more cores' workloads under a
/// relocation model on a (possibly multi-channel) memory system.
#[derive(Debug, Clone)]
struct CellSpec {
    policy: PolicySpec,
    budget: f64,
    workloads: Vec<Workload>,
    reloc: RelocationConfig,
    workload_label: String,
    channels: u32,
    split: BudgetSplit,
    placement: DestinationPicker,
}

impl CellSpec {
    /// A single-channel cell with the even (trivial) budget split — the
    /// classic sweep shape.
    fn single_channel(
        policy: PolicySpec,
        budget: f64,
        workloads: Vec<Workload>,
        reloc: RelocationConfig,
        workload_label: String,
    ) -> Self {
        CellSpec {
            policy,
            budget,
            workloads,
            reloc,
            workload_label,
            channels: 1,
            split: BudgetSplit::EvenSplit,
            placement: DestinationPicker::SameBank,
        }
    }
}

fn run_cell(spec: &CellSpec, scale: Scale, seed: u64, skip_ahead: bool) -> PolicyCell {
    let initial_fraction = match spec.policy {
        // Static splits start (and stay) at their configured layout; the
        // profile-guided placement sees the same fraction.
        PolicySpec::StaticSplit { fraction } => fraction,
        // Dynamic policies start all-max-capacity and earn their fast rows.
        _ => 0.0,
    };
    let mut mem = policy_mem_config(initial_fraction);
    mem.geometry.channels = spec.channels;
    mem.refresh_enabled = true;
    mem.relocation = spec.reloc;
    mem.placement = spec.placement;
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: scale.budget_insts(),
        warmup_insts: scale.warmup_insts(),
        seed,
        skip_ahead,
        trace: None,
        // Every cell runs with continuous telemetry on — metrics are
        // inert (proven by the workspace differential test), and the
        // windowed series is what the SLO verdict evaluates. One window
        // per policy epoch aligns the sampling grid with the decision
        // grid.
        metrics: Some(MetricsConfig {
            interval_cycles: epoch_cycles(scale),
            capacity: 4_096,
        }),
        // Cells already fan out over the job-parallel loop; threading
        // each cell's channel walk too would oversubscribe the host.
        threads: 1,
        clamp_threads: true,
        // Wait-cause attribution rides along: the blame ledger is inert
        // (differential-tested) and the sweep schema reports per-cause
        // latency fractions for every cell.
        blame: true,
    };
    let cfg = PolicyRunConfig::new(
        base,
        spec.policy,
        PolicyConstraints {
            max_hp_fraction: spec.budget,
            max_transitions_per_epoch: 512,
        },
        epoch_cycles(scale),
    )
    .with_budget_split(spec.split);
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
        workload: spec.workload_label.clone(),
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
        avg_capacity_loss: if matches!(spec.policy, PolicySpec::StaticSplit { .. }) {
            // A static split forfeits its fraction's capacity for the
            // whole run, independent of epoch accounting.
            initial_fraction / 2.0
        } else {
            r.avg_capacity_loss()
        },
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

/// The 2-core shared-fast-row-budget contention cell: two cores — a
/// drifting hot set and a stable hot set — compete for one controller's
/// capacity budget under the hysteresis policy with background
/// relocation. The per-core IPC column shows who wins the shared fast
/// rows (first step on the multi-core contention roadmap item).
fn multicore_cell(scale: Scale) -> CellSpec {
    let w0 = phase_workload(scale);
    let w1 = stable_hot_workload(scale);
    let workload_label = format!("2core:{}+{}", w0.name(), w1.name());
    CellSpec::single_channel(
        PolicySpec::Hysteresis,
        DYNAMIC_BUDGET,
        vec![w0, w1],
        RelocationConfig::background_paced(),
        workload_label,
    )
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
        let mix = workloads
            .iter()
            .map(|w| {
                // First component of the workload name ("phase",
                // "stablehot", "random") keeps the label readable.
                let name = w.name();
                name.split('_').next().unwrap_or("w").to_string()
            })
            .collect::<Vec<_>>()
            .join("+");
        format!("{}core/{}ch:{mix}", self.cores, self.channels)
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

/// Identity of one alone-baseline run: `(workload, trace seed,
/// channels, policy, split)`. Cells in the same (policy, channels,
/// split) group share baselines for the cores they have in common, so
/// each distinct configuration is simulated exactly once per sweep.
type AloneKey = (String, u64, u32, String, &'static str);

fn alone_key(spec: &ContentionSpec, w: &Workload, alone_seed: u64) -> AloneKey {
    (
        w.name(),
        alone_seed,
        spec.channels,
        spec.policy.label(),
        spec.split.label(),
    )
}

fn alone_cell_spec(spec: &ContentionSpec, w: Workload) -> CellSpec {
    CellSpec {
        policy: spec.policy,
        budget: DYNAMIC_BUDGET,
        workloads: vec![w],
        reloc: RelocationConfig::background_paced(),
        workload_label: String::new(),
        channels: spec.channels,
        split: spec.split,
        placement: DestinationPicker::SameBank,
    }
}

/// Runs one contention cell, filling in weighted speedup and max
/// slowdown against the precomputed per-core alone baselines (each
/// core's workload alone on the identical memory system, replaying the
/// exact per-core trace seed).
fn run_contention_cell(
    spec: &ContentionSpec,
    scale: Scale,
    seed: u64,
    skip_ahead: bool,
    baselines: &std::collections::HashMap<AloneKey, PolicyCell>,
) -> PolicyCell {
    let workloads = contention_workloads(scale, spec.cores);
    let cell_spec = CellSpec {
        policy: spec.policy,
        budget: DYNAMIC_BUDGET,
        workloads: workloads.clone(),
        reloc: RelocationConfig::background_paced(),
        workload_label: spec.label(&workloads),
        channels: spec.channels,
        split: spec.split,
        placement: DestinationPicker::SameBank,
    };
    // A 1-core cell *is* an alone run (per_core_seed(seed, 0) == seed):
    // when its group's core-0 baseline already exists, relabel it
    // instead of re-simulating the identical configuration; its
    // fairness metrics are exactly 1.0 by construction either way.
    if spec.cores == 1 {
        let mut cell = match baselines.get(&alone_key(spec, &workloads[0], seed)) {
            Some(baseline) => baseline.clone(),
            None => run_cell(&cell_spec, scale, seed, skip_ahead),
        };
        cell.workload = cell_spec.workload_label;
        cell.weighted_speedup = Some(1.0);
        cell.max_slowdown = Some(1.0);
        return cell;
    }
    let mut cell = run_cell(&cell_spec, scale, seed, skip_ahead);
    let alone: Vec<f64> = workloads
        .iter()
        .enumerate()
        .map(|(core, w)| {
            let alone_seed = crate::system::per_core_seed(seed, core);
            baselines[&alone_key(spec, w, alone_seed)].ipc
        })
        .collect();
    cell.weighted_speedup = Some(crate::metrics::weighted_speedup(&cell.ipc_per_core, &alone));
    cell.max_slowdown = Some(crate::metrics::max_slowdown(&cell.ipc_per_core, &alone));
    apply_slowdown_slo(&mut cell);
    cell
}

/// Folds the fairness ceiling into a cell's SLO verdict: once a
/// contention/placement cell's max slowdown is known, it must also stay
/// under [`SLO_MAX_SLOWDOWN_MILLI`] (a scalar objective the windowed
/// series cannot see — it needs the alone baselines).
fn apply_slowdown_slo(cell: &mut PolicyCell) {
    if let Some(ms) = cell.max_slowdown {
        let milli = (ms * 1000.0).round() as u64;
        if milli > SLO_MAX_SLOWDOWN_MILLI {
            cell.slo_pass = false;
            cell.slo_violations += 1;
        }
    }
}

/// Runs the contention sweep (see [`contention_roster`]): first every
/// *distinct* alone-baseline configuration (deduplicated across cells
/// — a 4-core cell shares its first two baselines with the 2-core and
/// 1-core cells of the same policy/channels/split group), then every
/// contention cell, all distributed over worker threads.
pub fn run_contention(scale: Scale, seed: u64, skip_ahead: bool) -> Vec<PolicyCell> {
    let specs = contention_roster(scale);
    let mut wanted: Vec<(AloneKey, CellSpec, u64)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for spec in &specs {
        if spec.cores == 1 {
            continue; // reuses its group's core-0 baseline (or runs once)
        }
        for (core, w) in contention_workloads(scale, spec.cores).iter().enumerate() {
            let alone_seed = crate::system::per_core_seed(seed, core);
            let key = alone_key(spec, w, alone_seed);
            if seen.insert(key.clone()) {
                wanted.push((key, alone_cell_spec(spec, *w), alone_seed));
            }
        }
    }
    let cells = parallel_map(wanted.len(), |i| {
        run_cell(&wanted[i].1, scale, wanted[i].2, skip_ahead)
    });
    let baselines: std::collections::HashMap<AloneKey, PolicyCell> = wanted
        .into_iter()
        .zip(cells)
        .map(|((key, _, _), cell)| (key, cell))
        .collect();
    parallel_map(specs.len(), |i| {
        run_contention_cell(&specs[i], scale, seed, skip_ahead, &baselines)
    })
}

/// The placement sweep's workload mix: the drifting and stable hot sets
/// with their hot lines pinned to channel 0 of a 2-channel system — a
/// saturated channel next to a mostly idle one, the regime where moving
/// *frames* (not just budget) across channels pays.
pub fn skewed_workloads(scale: Scale) -> Vec<Workload> {
    let Workload::PhaseShift(drifting) = phase_workload(scale) else {
        unreachable!("phase_workload returns PhaseShift");
    };
    let Workload::PhaseShift(stable) = stable_hot_workload(scale) else {
        unreachable!("stable_hot_workload returns PhaseShift");
    };
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

fn placement_cell_spec(
    placement: DestinationPicker,
    workloads: Vec<Workload>,
    label: String,
) -> CellSpec {
    CellSpec {
        // Util-threshold promotes eagerly even at smoke budgets, so the
        // placement machinery is exercised on every CI push.
        policy: PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
        budget: DYNAMIC_BUDGET,
        workloads,
        reloc: RelocationConfig::background_paced(),
        workload_label: label,
        channels: 2,
        // Demand-proportional budget on every cell: the same-bank column
        // is then exactly "budget-only rebalancing", so the placement
        // axis is isolated.
        split: BudgetSplit::demand_proportional(),
        placement,
    }
}

/// Runs the placement sweep: each placement mode drives the 2-core
/// channel-skewed mix on a 2-channel system, with weighted speedup and
/// max slowdown computed against per-core alone baselines run under the
/// *same* placement mode (exact per-core trace seeds, as in the
/// contention sweep).
pub fn run_placement(scale: Scale, seed: u64, skip_ahead: bool) -> Vec<PolicyCell> {
    let placements = placement_roster(scale);
    let workloads = skewed_workloads(scale);
    let per = workloads.len() + 1;
    let mut jobs: Vec<(CellSpec, u64)> = Vec::new();
    for &p in &placements {
        for (core, w) in workloads.iter().enumerate() {
            jobs.push((
                placement_cell_spec(p, vec![*w], String::new()),
                crate::system::per_core_seed(seed, core),
            ));
        }
        let label = format!("2core/2ch:skewed:{}", p.label());
        jobs.push((placement_cell_spec(p, workloads.clone(), label), seed));
    }
    let cells = parallel_map(jobs.len(), |i| {
        run_cell(&jobs[i].0, scale, jobs[i].1, skip_ahead)
    });
    cells
        .chunks(per)
        .map(|chunk| {
            let alone: Vec<f64> = chunk[..per - 1].iter().map(|c| c.ipc).collect();
            let mut cell = chunk[per - 1].clone();
            cell.weighted_speedup =
                Some(crate::metrics::weighted_speedup(&cell.ipc_per_core, &alone));
            cell.max_slowdown = Some(crate::metrics::max_slowdown(&cell.ipc_per_core, &alone));
            apply_slowdown_slo(&mut cell);
            cell
        })
        .collect()
}

/// Runs the sweep: every roster policy × every roster workload
/// (drifting-hot, stable-hot, uniform-random) × the policy's relocation
/// axis (stall vs background for dynamic policies), plus the 2-core
/// shared-budget cell and the contention sweep (core counts × channel
/// counts × budget splits; see [`contention_roster`]); cells are
/// distributed over worker threads. Cells are workload-major with the
/// drifting-hot-set column, the headline workload, first.
///
/// `skip_ahead` picks the walk every cell runs (see
/// [`RunConfig::skip_ahead`]); the sweep is bit-identical either way.
pub fn run(scale: Scale, seed: u64, skip_ahead: bool) -> PolicySweepReport {
    let mut jobs: Vec<CellSpec> = Vec::new();
    for w in workload_roster(scale) {
        for (spec, budget) in policy_roster() {
            for reloc in reloc_axis(spec) {
                jobs.push(CellSpec::single_channel(
                    spec,
                    budget,
                    vec![w],
                    reloc,
                    w.name(),
                ));
            }
        }
    }
    jobs.push(multicore_cell(scale));
    let cells = parallel_map(jobs.len(), |i| run_cell(&jobs[i], scale, seed, skip_ahead));
    let contention = run_contention(scale, seed, skip_ahead);
    let placement = run_placement(scale, seed, skip_ahead);
    PolicySweepReport {
        cells,
        contention,
        placement,
        scale,
    }
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
