//! The four workloads: seeded input generation, the untraced batch
//! through the library's entry points, and the traced replay of the
//! same batch.
//!
//! Every workload is a closed batch of fixed work. The benchmark builds
//! every input from the workload seed; the library only ever sees the
//! generated inputs.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use clr_circuit::dram::{build, Topology};
use clr_circuit::montecarlo::{perturb, worst_case_table1};
use clr_circuit::retention::initial_cell_voltage;
use clr_circuit::scenario::{run_act_pre, run_write_recovery, ActPreOptions};
use clr_circuit::timing::{ModeTimings, Table1Measurement};
use clr_circuit::CircuitParams;
use clr_core::mapping::PAGE_BYTES;
use clr_core::paper::{HEADLINES, TABLE1};
use clr_cpu::cluster::ClusterConfig;
use clr_fleet::report::{FleetReport, InstanceResult};
use clr_fleet::run_fleet;
use clr_fleet::spec::{FleetSpec, InstanceSpec};
use clr_memsim::config::MemConfig;
use clr_memsim::frames::DestinationPicker;
use clr_memsim::migrate::RelocationConfig;
use clr_memsim::stats::MemStats;
use clr_memsim::Executor;
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::{PolicyConstraints, PolicySpec};
use clr_sim::experiment::policies::{
    contention_workloads, epoch_cycles, policy_cluster, policy_geometry, policy_mem_config,
    DYNAMIC_BUDGET,
};
use clr_sim::experiment::single::{SingleReport, SingleRow};
use clr_sim::experiment::{mem_config, FRACTIONS};
use clr_sim::{
    geomean, per_core_seed, run_policy_workloads, run_workloads, PolicyRunConfig, RunConfig, Scale,
};
use clr_trace::workload::{single_core_suite, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replay::{run_policy_workloads_traced, run_workloads_traced, TracedRun};
use crate::span::Tracer;

/// Every workload runs at the library's default scale.
pub const SCALE: Scale = Scale::Default;
/// Instances in the `fleet` roster (enough for a p90 over instances).
pub const FLEET_INSTANCES: usize = 128;
/// Worker lanes of the `fleet` pool.
pub const FLEET_LANES: usize = 2;
/// Monte-Carlo samples in one `table1-mc` batch.
pub const MC_SAMPLES: usize = 8;
/// Cores and channels of the `policy-contention` cell.
const CONTENTION_CORES: usize = 4;
const CONTENTION_CHANNELS: u32 = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figure 12 single-core sweep.
    PaperFig12,
    /// The 4-core x 2-channel hysteresis contention cell.
    PolicyContention,
    /// A synthesized fleet on a 2-lane pool.
    Fleet,
    /// Worst-case Table 1 over a few Monte-Carlo samples.
    Table1Mc,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::PaperFig12,
        Kind::PolicyContention,
        Kind::Fleet,
        Kind::Table1Mc,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperFig12 => "paper-fig12",
            Kind::PolicyContention => "policy-contention",
            Kind::Fleet => "fleet",
            Kind::Table1Mc => "table1-mc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one unit of `work_per_s` is on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::PaperFig12 | Kind::PolicyContention => {
                "million simulated instructions (warmup + budget per core per run)"
            }
            Kind::Fleet => "fleet instance",
            Kind::Table1Mc => "Monte-Carlo sample",
        }
    }
}

/// splitmix64: the seeded stream every input is drawn from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by the seeded stream.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A run configuration with every observer off and one thread.
fn run_config(mem: MemConfig, cluster: ClusterConfig, seed: u64) -> RunConfig {
    RunConfig {
        mem,
        cluster,
        budget_insts: SCALE.budget_insts(),
        warmup_insts: SCALE.warmup_insts(),
        seed,
        skip_ahead: true,
        trace: None,
        metrics: None,
        threads: 1,
        clamp_threads: true,
        blame: false,
    }
}

/// One `paper-fig12` job: a workload at baseline (`fraction` = None) or
/// a CLR fraction.
#[derive(Debug, Clone)]
pub struct Fig12Run {
    workload: Workload,
    cfg: RunConfig,
}

/// The generated inputs of one workload.
#[derive(Debug)]
pub enum Inputs {
    /// 71 workloads x (baseline + 5 fractions), workload-major.
    PaperFig12(Vec<Fig12Run>),
    /// The contention cell's mix and configuration.
    PolicyContention(Vec<Workload>, Box<PolicyRunConfig>),
    /// The instance roster.
    Fleet(FleetSpec),
    /// Circuit parameters, sample count and Monte-Carlo seed.
    Table1Mc(Box<CircuitParams>, usize, u64),
}

/// Builds the inputs of `kind` from `seed`: suite order and trace seed,
/// contention mix and trace seed, fleet roster (and pool start-up), or
/// Monte-Carlo seed.
pub fn setup(kind: Kind, seed: u64) -> Inputs {
    let mut s = seed;
    match kind {
        Kind::PaperFig12 => {
            let mut suite = single_core_suite();
            shuffle(&mut suite, &mut s);
            let trace_seed = splitmix64(&mut s);
            let runs = suite
                .into_iter()
                .flat_map(|w| {
                    std::iter::once(None)
                        .chain((0..FRACTIONS.len()).map(Some))
                        .map(move |fraction| Fig12Run {
                            workload: w,
                            cfg: run_config(
                                mem_config(fraction.map(|i| FRACTIONS[i]), 64.0),
                                ClusterConfig::paper(),
                                trace_seed,
                            ),
                        })
                })
                .collect();
            Inputs::PaperFig12(runs)
        }
        Kind::PolicyContention => {
            // The sweep's 4-core mix (drifting, stable, random, drifting)
            // in a seeded core order: same work, different placement.
            let mut mix = contention_workloads(SCALE, CONTENTION_CORES);
            shuffle(&mut mix, &mut s);
            let mut mem = policy_mem_config(0.0);
            mem.geometry.channels = CONTENTION_CHANNELS;
            mem.refresh_enabled = true;
            mem.relocation = RelocationConfig::background_paced();
            mem.placement = DestinationPicker::SameBank;
            let base = run_config(mem, policy_cluster(), splitmix64(&mut s));
            let cfg = PolicyRunConfig::new(
                base,
                PolicySpec::Hysteresis,
                PolicyConstraints {
                    max_hp_fraction: DYNAMIC_BUDGET,
                    max_transitions_per_epoch: 512,
                },
                epoch_cycles(SCALE),
            )
            .with_budget_split(BudgetSplit::demand_proportional());
            Inputs::PolicyContention(mix, Box::new(cfg))
        }
        Kind::Fleet => {
            let spec = fleet_roster(&mut s);
            // Pool start-up and shutdown, as `run_fleet` pays them.
            drop(Executor::new(FLEET_LANES));
            Inputs::Fleet(spec)
        }
        Kind::Table1Mc => Inputs::Table1Mc(
            Box::new(CircuitParams::default_22nm()),
            MC_SAMPLES,
            splitmix64(&mut s),
        ),
    }
}

/// The roster-shape seed of the `fleet` workload (the one `fleet_report`
/// checks in). A seed-drawn shape would move the batch's host cost by
/// about ten percent from seed to seed, so the workload seed redraws
/// every instance's trace seed instead.
const FLEET_SHAPE_SEED: u64 = 0xF1EE7;

/// The `fleet` roster: the first [`FLEET_INSTANCES`] instances of the
/// fixed-shape `FleetSpec::synth` roster whose tenants fit their
/// instance, each with a trace seed drawn from `state`.
fn fleet_roster(state: &mut u64) -> FleetSpec {
    let mut spec = FleetSpec::synth(2 * FLEET_INSTANCES, FLEET_SHAPE_SEED, SCALE);
    spec.instances.retain(tenants_fit);
    spec.instances.truncate(FLEET_INSTANCES);
    assert_eq!(spec.instances.len(), FLEET_INSTANCES, "roster too small");
    for inst in &mut spec.instances {
        inst.seed = splitmix64(state);
    }
    spec
}

/// Whether every page an instance's tenants can touch fits the frames
/// its page placement can hand out. At default scale `FleetSpec::synth`
/// draws some tenant pairs whose combined footprint overflows a
/// one-channel static layout, which the library reports by panicking
/// (`PlacementOverflow`); the benchmark keeps such instances out.
fn tenants_fit(inst: &InstanceSpec) -> bool {
    let mut geometry = policy_geometry();
    geometry.channels = inst.channels;
    let frames = geometry.capacity_bytes() / PAGE_BYTES;
    // High-performance rows hold half a max-capacity row's data.
    let hp_region = (frames as f64 * inst.fraction_hp).ceil() as u64;
    let usable = frames - (hp_region - hp_region / 2);
    let pages: Option<u64> = inst
        .tenants
        .iter()
        .map(|w| match w {
            Workload::PhaseShift(p) => Some(p.footprint_mib),
            Workload::Synthetic(s) => Some(s.footprint_mib),
            Workload::App(_) => None,
        })
        .map(|mib| mib.map(|m| (m << 20) / PAGE_BYTES))
        .sum();
    pages.is_some_and(|p| p <= usable)
}

/// Simulated figures of a batch (repeat exactly for one seed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimFigures {
    /// Geomean IPC (contention cell, fleet).
    pub ipc_gmean: Option<f64>,
    /// Read-latency p99, DRAM cycles (contention cell, fleet).
    pub read_p99_cyc: Option<u64>,
    /// Mean absolute gap to the paper's headlines, percentage points
    /// (fig 12 IPC gains, Table 1 reductions).
    pub paper_gap_pp: Option<f64>,
}

/// What one batch produced.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Host seconds inside the library calls of the batch.
    pub wall_s: f64,
    /// Host seconds of each item where the untraced batch can see items
    /// (fig 12 runs); empty otherwise.
    pub item_s: Vec<f64>,
    /// Runs, instances or samples attempted.
    pub attempted: u64,
    /// Of those, the ones that panicked or failed a check.
    pub failed: u64,
    /// One digest per item (0 for a panicked item).
    pub digests: Vec<u64>,
    /// Units of `work_per_s` completed.
    pub work: f64,
    /// Simulated figures.
    pub sim: SimFigures,
    /// Checks that failed, described.
    pub problems: Vec<String>,
}

impl Batch {
    fn fail(&mut self, items: u64, problem: String) {
        self.failed += items;
        self.problems.push(problem);
    }

    /// Counts every item whose digest differs from `reference`'s as
    /// failed (the simulated digest must repeat exactly for one seed).
    pub fn check_against(&mut self, reference: &Batch, what: &str) {
        if self.digests.len() != reference.digests.len() {
            let n = self.digests.len() as u64;
            self.fail(n, format!("{what}: item count differs"));
            return;
        }
        let bad = self
            .digests
            .iter()
            .zip(&reference.digests)
            .filter(|(a, b)| a != b)
            .count() as u64;
        if bad > 0 {
            self.fail(
                bad,
                format!("{what}: {bad} items differ from the reference digest"),
            );
        }
    }
}

/// FNV-1a over a value's `Debug` text: `f64`s print in shortest
/// round-trip form, so equal digests mean bit-identical values.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Digest of `value`'s `Debug` text.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Host seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs the batch of `inputs` through the library's public entry points.
pub fn run_untraced(inputs: &Inputs) -> Batch {
    match inputs {
        Inputs::PaperFig12(runs) => fig12_batch(runs, None),
        Inputs::PolicyContention(mix, cfg) => {
            let mut b = Batch::default();
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| run_policy_workloads(mix, cfg)));
            b.wall_s = secs(t);
            b.attempted = 1;
            match r {
                Ok(r) => {
                    let cycles = (r.run.cpu_cycles, r.run.dram_cycles);
                    contention_outcome(&mut b, mix, cfg, &r.run.ipc, cycles, &r.run.mem)
                }
                Err(_) => b.fail(1, "contention run panicked".into()),
            }
            b
        }
        Inputs::Fleet(spec) => {
            let mut b = Batch::default();
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| run_fleet(spec, FLEET_LANES)));
            b.wall_s = secs(t);
            fleet_outcome(&mut b, spec, r.ok());
            b
        }
        Inputs::Table1Mc(p, n, seed) => {
            let mut b = Batch::default();
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| worst_case_table1(p, *n, *seed)));
            b.wall_s = secs(t);
            table1_outcome(&mut b, *n, r.ok(), true);
            b
        }
    }
}

/// Digest of one system run's simulated outcome: IPC vector, window
/// lengths and fused memory statistics.
fn run_digest(ipc: &[f64], cycles: (u64, u64), mem: &MemStats) -> u64 {
    let bits: Vec<u64> = ipc.iter().map(|v| v.to_bits()).collect();
    digest(&(bits, cycles, mem))
}

/// The fig 12 sweep, untraced (`tr` = None) or replayed through the
/// traced loop.
fn fig12_batch(runs: &[Fig12Run], mut tr: Option<&mut Tracer>) -> Batch {
    let mut b = Batch::default();
    // (ipc, energy, power) of each run, for the normalized rows.
    let mut results: Vec<Option<(f64, f64, f64)>> = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        // Each run is timed up to the library's return, before the digest.
        let t = Instant::now();
        let out = match tr.as_deref_mut() {
            None => catch_unwind(AssertUnwindSafe(|| {
                let r = run_workloads(&[run.workload], &run.cfg);
                let dt = secs(t);
                let d = run_digest(&r.ipc, (r.cpu_cycles, r.dram_cycles), &r.mem);
                (dt, r.ipc[0], r.energy.total_j(), r.avg_power_w(), d)
            })),
            Some(tr) => {
                tr.set_group(i as u64);
                catch_unwind(AssertUnwindSafe(|| {
                    let r = run_workloads_traced(&[run.workload], &run.cfg, tr);
                    let dt = secs(t);
                    let power = r.energy.avg_power_w(r.duration_ns);
                    let d = run_digest(&r.ipc, (r.cpu_cycles, r.dram_cycles), &r.mem);
                    (dt, r.ipc[0], r.energy.total_j(), power, d)
                }))
            }
        };
        let dt = out.as_ref().map_or_else(|_| secs(t), |o| o.0);
        b.wall_s += dt;
        b.item_s.push(dt);
        b.attempted += 1;
        b.work += (run.cfg.budget_insts + run.cfg.warmup_insts) as f64 / 1e6;
        match out {
            Ok((_, ipc, energy, power, d)) => {
                b.digests.push(d);
                results.push(Some((ipc, energy, power)));
            }
            Err(_) => {
                b.digests.push(0);
                results.push(None);
                b.fail(1, format!("{} run panicked", run.workload.name()));
            }
        }
    }
    let per = FRACTIONS.len() + 1;
    let rows: Option<Vec<SingleRow>> = runs
        .chunks(per)
        .zip(results.chunks(per))
        .map(|(rs, res)| {
            let (base_ipc, base_energy, base_power) = res[0]?;
            let mut row = SingleRow {
                workload: rs[0].workload,
                norm_ipc: [0.0; 5],
                norm_energy: [0.0; 5],
                norm_power: [0.0; 5],
            };
            for (k, r) in res[1..].iter().enumerate() {
                let (ipc, energy, power) = (*r)?;
                row.norm_ipc[k] = ipc / base_ipc;
                row.norm_energy[k] = energy / base_energy;
                row.norm_power[k] = power / base_power;
            }
            Some(row)
        })
        .collect();
    if let Some(rows) = rows {
        let gains = SingleReport { rows, scale: SCALE }.gmean_ipc();
        let gap: f64 = gains[1..]
            .iter()
            .zip(HEADLINES.single_core_speedup)
            .map(|(g, paper)| ((g - 1.0) - paper).abs() * 100.0)
            .sum::<f64>()
            / 4.0;
        b.sim.paper_gap_pp = Some(gap);
    }
    b
}

/// Checks and figures of the contention cell's one run.
fn contention_outcome(
    b: &mut Batch,
    mix: &[Workload],
    cfg: &PolicyRunConfig,
    ipc: &[f64],
    cycles: (u64, u64),
    mem: &MemStats,
) {
    b.digests.push(run_digest(ipc, cycles, mem));
    b.work = (mix.len() as u64 * (cfg.base.budget_insts + cfg.base.warmup_insts)) as f64 / 1e6;
    if mem.relocation_stall_cycles != 0 {
        b.fail(
            1,
            format!(
                "background relocation stalled {} cycles",
                mem.relocation_stall_cycles
            ),
        );
    }
    b.sim.ipc_gmean = Some(geomean(ipc));
    b.sim.read_p99_cyc = Some(mem.read_latency_percentiles().2);
}

/// Checks and figures of a fleet batch (`report` None = it panicked).
fn fleet_outcome(b: &mut Batch, spec: &FleetSpec, report: Option<FleetReport>) {
    let n = spec.instances.len() as u64;
    b.attempted = n;
    b.work = n as f64;
    match report {
        Some(r) => {
            b.digests.push(digest(&r.to_json()));
            b.sim.ipc_gmean = Some(r.ipc_geomean);
            b.sim.read_p99_cyc = Some(r.fused_read_latency.p99());
        }
        None => {
            b.digests.push(0);
            b.fail(n, "fleet batch panicked".into());
        }
    }
}

/// Checks and figures of a Table 1 batch (`m` None = a sample failed to
/// sense, which the library reports by panicking).
fn table1_outcome(b: &mut Batch, samples: usize, m: Option<Table1Measurement>, sensed: bool) {
    let n = samples as u64;
    b.attempted = n;
    b.work = n as f64;
    match m {
        Some(m) if sensed => {
            b.digests.push(digest(&m));
            let (rcd, ras, rp, wr) = m.reductions();
            let gap: f64 = [rcd, ras, rp, wr]
                .iter()
                .zip(TABLE1)
                .map(|(got, row)| (got - row.reduction).abs() * 100.0)
                .sum::<f64>()
                / 4.0;
            b.sim.paper_gap_pp = Some(gap);
        }
        _ => {
            b.digests.push(0);
            b.fail(n, "a Monte-Carlo sample failed to sense".into());
        }
    }
}

/// What the traced batch adds beyond [`Batch`].
#[derive(Debug, Default)]
pub struct TracedBatch {
    /// The batch's simulated outcome and checks.
    pub batch: Batch,
    /// Traced wall seconds (the batch as a user waits for it).
    pub traced_wall_s: f64,
    /// Blame-on replay minus blame-off replay, host seconds
    /// (`policy-contention` only).
    pub blame_delta_s: Option<f64>,
    /// Pool lanes and batch wall (`fleet` only): lane-seconds are
    /// `lanes x wall`.
    pub pool: Option<(usize, f64)>,
}

/// Replays the batch of `inputs` through each layer's public functions
/// with spans and timers, and checks it against `reference` (the
/// untraced batch of the same inputs).
pub fn run_traced(inputs: &Inputs, reference: &Batch, tr: &mut Tracer) -> TracedBatch {
    let mut out = TracedBatch::default();
    match inputs {
        Inputs::PaperFig12(runs) => {
            let t = Instant::now();
            let root = tr.open("sim.batch");
            out.batch = fig12_batch(runs, Some(tr));
            tr.close(root);
            out.traced_wall_s = secs(t);
        }
        Inputs::PolicyContention(mix, cfg) => {
            let b = &mut out.batch;
            b.attempted = 1;
            let t = Instant::now();
            let root = tr.open("sim.batch");
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_policy_workloads_traced(mix, cfg, tr)
            }));
            tr.close(root);
            out.traced_wall_s = secs(t);
            match r {
                Ok(r) => {
                    contention_outcome(b, mix, cfg, &r.ipc, (r.cpu_cycles, r.dram_cycles), &r.mem);
                    let (delta, problems) = blame_replay(mix, cfg, &r, out.traced_wall_s);
                    out.blame_delta_s = Some(delta);
                    for p in problems {
                        b.fail(1, p);
                    }
                }
                Err(_) => b.fail(1, "traced contention run panicked".into()),
            }
        }
        Inputs::Fleet(spec) => {
            let (report, lanes, wall) = fleet_traced(spec, tr);
            fleet_outcome(&mut out.batch, spec, report);
            out.pool = Some((lanes, wall));
            out.traced_wall_s = wall;
        }
        Inputs::Table1Mc(p, n, seed) => {
            let t = Instant::now();
            let root = tr.open("sim.batch");
            let r = catch_unwind(AssertUnwindSafe(|| table1_traced(p, *n, *seed, tr)));
            tr.close(root);
            out.traced_wall_s = secs(t);
            match r {
                Ok((m, sensed)) => table1_outcome(&mut out.batch, *n, Some(m), sensed),
                Err(_) => table1_outcome(&mut out.batch, *n, None, false),
            }
        }
    }
    out.batch
        .check_against(reference, "traced replay vs library");
    out
}

/// Replays the contention cell with blame on (in a recorder of its own,
/// so the accounting of the blame-off replay stays whole). Returns the
/// blame-on minus blame-off wall and any failed checks: the blame
/// budgets must sum exactly to the latency-histogram sums, and blame
/// must change nothing else.
fn blame_replay(
    mix: &[Workload],
    cfg: &PolicyRunConfig,
    off: &TracedRun,
    off_wall_s: f64,
) -> (f64, Vec<String>) {
    let mut on_cfg = cfg.clone();
    on_cfg.base.blame = true;
    let mut scratch = Tracer::new(Instant::now());
    let t = Instant::now();
    let on = run_policy_workloads_traced(mix, &on_cfg, &mut scratch);
    let delta = secs(t) - off_wall_s;
    let mut problems = Vec::new();
    let m = &on.mem;
    if m.read_blame.total_cycles() != m.read_latency_hist.sum() {
        problems.push(format!(
            "read blame {} != read latency sum {}",
            m.read_blame.total_cycles(),
            m.read_latency_hist.sum()
        ));
    }
    if m.write_blame.total_cycles() != m.write_latency_hist.sum() {
        problems.push(format!(
            "write blame {} != write latency sum {}",
            m.write_blame.total_cycles(),
            m.write_latency_hist.sum()
        ));
    }
    let mut stripped = on.mem.clone();
    stripped.read_blame = Default::default();
    stripped.write_blame = Default::default();
    let cycles = |r: &TracedRun| (r.cpu_cycles, r.dram_cycles);
    if run_digest(&on.ipc, cycles(&on), &stripped) != run_digest(&off.ipc, cycles(off), &off.mem) {
        problems.push("blame changed the simulated outcome".into());
    }
    (delta, problems)
}

/// The fleet's per-instance base configuration (as `clr_fleet::run`).
fn instance_run_config(spec: &InstanceSpec, seed: u64) -> RunConfig {
    let mut mem = policy_mem_config(spec.fraction_hp);
    mem.geometry.channels = spec.channels;
    mem.placement = spec.placement;
    if spec.background_relocation {
        mem.relocation = RelocationConfig::background();
    }
    RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: spec.budget_insts,
        warmup_insts: spec.warmup_insts,
        seed,
        skip_ahead: true,
        trace: None,
        metrics: None,
        threads: 1,
        clamp_threads: true,
        blame: true,
    }
}

/// `clr_fleet::run_instance`, replayed: the shared run, then one alone
/// run per tenant of a multi-tenant instance.
fn instance_traced(spec: &InstanceSpec, tr: &mut Tracer) -> InstanceResult {
    let run_one = |tenants: &[Workload], seed: u64, tr: &mut Tracer| match &spec.policy {
        Some(policy) => {
            let cfg = PolicyRunConfig::new(
                instance_run_config(spec, seed),
                *policy,
                PolicyConstraints {
                    max_hp_fraction: spec.capacity_budget,
                    max_transitions_per_epoch: 512,
                },
                spec.epoch_dram_cycles,
            );
            let r = run_policy_workloads_traced(tenants, &cfg, tr);
            let p = r.policy.as_ref().expect("policy run");
            let (loss, hp) = (p.stats.avg_capacity_loss(), p.final_hp_fraction);
            (r, loss, hp)
        }
        None => {
            let r = run_workloads_traced(tenants, &instance_run_config(spec, seed), tr);
            (r, spec.fraction_hp / 2.0, spec.fraction_hp)
        }
    };
    let (shared, capacity_forfeited, final_hp_fraction) = run_one(&spec.tenants, spec.seed, tr);
    let slowdowns = if spec.tenants.len() > 1 {
        spec.tenants
            .iter()
            .enumerate()
            .map(|(core, w)| {
                let (alone, _, _) =
                    run_one(std::slice::from_ref(w), per_core_seed(spec.seed, core), tr);
                alone.ipc[0] / shared.ipc[core]
            })
            .collect()
    } else {
        vec![1.0]
    };
    InstanceResult {
        id: spec.id,
        seed: spec.seed,
        channels: spec.channels,
        tenant_names: spec.tenants.iter().map(|w| w.name()).collect(),
        policy_label: spec.policy_label(),
        relocation_label: spec.relocation_label(),
        budget_insts: spec.budget_insts,
        ipc: shared.ipc.clone(),
        slowdowns,
        dram_cycles: shared.dram_cycles,
        energy_j: shared.energy.total_j(),
        migration_energy_j: shared.energy.migration_j,
        capacity_forfeited,
        final_hp_fraction,
        skip_profile: shared.skip_profile.clone(),
        mem: shared.mem,
    }
}

/// The fleet batch, replayed: one traced job per instance on a fresh
/// pool, then the fusion. Returns the report (None if an instance
/// panicked), the pool's lanes and the batch wall.
fn fleet_traced(spec: &FleetSpec, tr: &mut Tracer) -> (Option<FleetReport>, usize, f64) {
    let origin = tr.origin();
    // The roster synthesis the set-up performs, timed on its own.
    tr.span("fleet.synth", |_| {
        std::hint::black_box(FleetSpec::synth(
            2 * spec.instances.len(),
            spec.seed,
            spec.scale,
        ))
    });
    let t = Instant::now();
    let pool = Executor::new(FLEET_LANES);
    let lanes = pool.lanes();
    tr.add("fleet.pool", 1, t.elapsed().as_nanos() as u64);
    let tasks: Vec<_> = spec
        .instances
        .iter()
        .cloned()
        .map(|inst| {
            move || {
                let mut lane = Tracer::new(origin);
                lane.set_group(u64::from(inst.id));
                let r = catch_unwind(AssertUnwindSafe(|| {
                    lane.span("fleet.instance", |lane| instance_traced(&inst, lane))
                }));
                (r.ok(), lane)
            }
        })
        .collect();
    let t = Instant::now();
    let results = pool.run_batch(tasks);
    let wall = secs(t);
    let t = Instant::now();
    drop(pool);
    tr.add("fleet.pool", 1, t.elapsed().as_nanos() as u64);
    let mut instances = Vec::with_capacity(results.len());
    let mut busy_ns = 0u64;
    for (r, lane) in results {
        busy_ns += lane.durations("fleet.instance").iter().sum::<u64>();
        tr.absorb(lane);
        instances.extend(r);
    }
    let lane_ns = (lanes as f64 * wall * 1e9) as u64;
    tr.add("fleet.pool_idle", 1, lane_ns.saturating_sub(busy_ns));
    let complete = instances.len() == spec.instances.len();
    let report = complete.then(|| {
        tr.span("fleet.fuse", |_| {
            FleetReport::fuse(spec, instances, FLEET_LANES, lanes)
        })
    });
    (report, lanes, wall)
}

/// Worst-case Table 1, replayed sample by sample with spans around the
/// circuit phases. Returns the measurement and whether every sample
/// sensed correctly.
fn table1_traced(
    p: &CircuitParams,
    iterations: usize,
    seed: u64,
    tr: &mut Tracer,
) -> (Table1Measurement, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc: Option<Table1Measurement> = None;
    let mut sensed = true;
    for i in 0..iterations {
        tr.set_group(i as u64);
        let sample_span = tr.open("circuit.sample");
        let sample = tr.time("circuit.perturb", || perturb(p, &mut rng));
        let mut mode = |topology, et| {
            let (m, ok) = measure_mode_traced(topology, &sample, et, tr);
            sensed &= ok;
            m
        };
        let t = Table1Measurement {
            baseline: mode(Topology::OpenBitlineBaseline, false),
            max_capacity: mode(Topology::ClrMaxCapacity, false),
            hp_no_et: mode(Topology::ClrHighPerformance, false),
            hp_et: mode(Topology::ClrHighPerformance, true),
        };
        acc = Some(match acc {
            None => t,
            Some(prev) => Table1Measurement {
                baseline: worst(prev.baseline, t.baseline),
                max_capacity: worst(prev.max_capacity, t.max_capacity),
                hp_no_et: worst(prev.hp_no_et, t.hp_no_et),
                hp_et: worst(prev.hp_et, t.hp_et),
            },
        });
        tr.close(sample_span);
        tr.count("circuit.samples", 1);
    }
    (acc.expect("at least one sample"), sensed)
}

/// `clr_circuit::timing::measure_mode`, with spans around building the
/// subarray and the two transient scenarios.
fn measure_mode_traced(
    topology: Topology,
    p: &CircuitParams,
    early_termination: bool,
    tr: &mut Tracer,
) -> (ModeTimings, bool) {
    let v0 = initial_cell_voltage(p, 64.0);
    let sub = tr.span("circuit.build", |_| build(topology, p));
    let act = tr.span("circuit.act_pre", |_| {
        run_act_pre(&sub, p, ActPreOptions::nominal(v0))
    });
    let (wr_full, wr_et) = tr.span("circuit.write_recovery", |_| {
        run_write_recovery(&sub, p, v0)
    });
    let m = ModeTimings {
        t_rcd_ns: act.t_rcd_ns,
        t_ras_ns: if early_termination {
            act.t_ras_et_ns
        } else {
            act.t_ras_full_ns
        },
        t_rp_ns: act.t_rp_ns,
        t_wr_ns: if early_termination { wr_et } else { wr_full },
    };
    (m, act.sense_correct)
}

fn worst(a: ModeTimings, b: ModeTimings) -> ModeTimings {
    ModeTimings {
        t_rcd_ns: a.t_rcd_ns.max(b.t_rcd_ns),
        t_ras_ns: a.t_ras_ns.max(b.t_ras_ns),
        t_rp_ns: a.t_rp_ns.max(b.t_rp_ns),
        t_wr_ns: a.t_wr_ns.max(b.t_wr_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let names = |i: &Inputs| match i {
            Inputs::PaperFig12(runs) => runs.iter().map(|r| r.workload.name()).collect(),
            Inputs::PolicyContention(mix, _) => mix.iter().map(Workload::name).collect(),
            _ => Vec::<String>::new(),
        };
        for kind in [Kind::PaperFig12, Kind::PolicyContention] {
            let a = setup(kind, 1);
            assert_eq!(names(&a), names(&setup(kind, 1)), "{}", kind.name());
            let mut sorted_a = names(&a);
            let mut sorted_b = names(&setup(kind, 2));
            sorted_a.sort();
            sorted_b.sort();
            assert_eq!(
                sorted_a, sorted_b,
                "the seed reorders, never changes, the work"
            );
        }
        let Inputs::PaperFig12(runs) = setup(Kind::PaperFig12, 3) else {
            unreachable!()
        };
        assert_eq!(runs.len(), 71 * 6);
    }

    #[test]
    fn traced_circuit_replay_matches_the_library() {
        let p = CircuitParams::default_22nm();
        let lib = worst_case_table1(&p, 2, 5);
        let mut tr = Tracer::new(Instant::now());
        let (m, sensed) = table1_traced(&p, 2, 5, &mut tr);
        assert!(sensed);
        assert_eq!(lib, m);
        assert_eq!(tr.counter("circuit.samples"), 2);
        assert_eq!(tr.durations("circuit.act_pre").len(), 8);
    }

    #[test]
    fn traced_fleet_replay_matches_the_library() {
        let spec = FleetSpec::synth(6, 11, Scale::Smoke);
        let lib = run_fleet(&spec, FLEET_LANES).to_json();
        let mut tr = Tracer::new(Instant::now());
        let (report, lanes, _) = fleet_traced(&spec, &mut tr);
        assert_eq!(report.expect("no instance panicked").to_json(), lib);
        assert_eq!(tr.durations("fleet.instance").len(), 6);
        assert!(lanes >= 1);
        let by_layer: u64 = tr.self_ns_by_layer().values().sum();
        assert_eq!(by_layer, tr.root_ns());
    }
}
