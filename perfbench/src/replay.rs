//! Traced replay of `clr_sim::run_workloads` and
//! `clr_sim::run_policy_workloads`.
//!
//! The replay drives the same public layer functions, in the same order,
//! as the library's run loop and epoch driver — `CpuCluster`,
//! `MemorySystem`, `MemoryController`, `PolicyRuntime`, `BudgetSplit`,
//! `CapacityRebalancer` — with a timer and a counter around every call.
//! Its simulated results must equal the library's bit for bit; the
//! benchmark checks that on every traced run, and the tests below check
//! it on small configurations, so a library change that desyncs the
//! replay fails loudly instead of misattributing time.
//!
//! Only what the benchmark configurations use is replayed: the channel
//! walk must be serial and tracing and continuous telemetry off (blame
//! may be on).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use clr_core::addr::PhysAddr;
use clr_core::mapping::{PagePlacement, PageProfile};
use clr_core::mode::RowMode;
use clr_cpu::cluster::CpuCluster;
use clr_cpu::trace::{TraceItem, TraceSource};
use clr_memsim::frames::{CapacityRebalancer, DestinationPicker, RebalanceConfig};
use clr_memsim::request::{Completion, MemRequest, RequestKind};
use clr_memsim::stats::MemStats;
use clr_memsim::system::MemorySystem;
use clr_obs::SkipProfile;
use clr_policy::budget::BudgetSplit;
use clr_policy::reloc::{DestinationSpread, RelocationEngine, RelocationParams};
use clr_policy::runtime::{PolicyRuntime, RuntimeStats};
use clr_policy::telemetry::{EpochTelemetry, RowId};
use clr_power::{energy_of_run, EnergyBreakdown, IddParams};
use clr_sim::translate::{tag_for_core, TranslatedTrace};
use clr_sim::{per_core_seed, PolicyRunConfig, RunConfig};
use clr_trace::workload::Workload;

use crate::span::Tracer;

/// CPU cycles per DRAM cycle, as in the library's run loop.
const DRAM_PER_CPU_NUM: u64 = 3;
const DRAM_PER_CPU_DEN: u64 = 10;

/// The simulated outcome of one traced run (measurement window only,
/// like `RunResult`), plus whole-run work counters.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Per-core IPC over each core's window.
    pub ipc: Vec<f64>,
    /// CPU cycles in the measurement window.
    pub cpu_cycles: u64,
    /// DRAM cycles in the measurement window.
    pub dram_cycles: u64,
    /// Simulated nanoseconds of the measurement window.
    pub duration_ns: f64,
    /// Fused memory statistics over the window.
    pub mem: MemStats,
    /// Energy over the window.
    pub energy: EnergyBreakdown,
    /// Fused skip-ahead profile of the whole run.
    pub skip_profile: SkipProfile,
    /// Policy outcome, for policy runs.
    pub policy: Option<PolicyOutcome>,
}

/// What a policy run adds to [`TracedRun`].
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Runtime counters fused over channels.
    pub stats: RuntimeStats,
    /// Mean high-performance fraction over channels at the end.
    pub final_hp_fraction: f64,
}

/// Per-item timing around each core's trace source.
#[derive(Debug, Default)]
struct TraceProbe {
    items: AtomicU64,
    ns: AtomicU64,
}

/// A core's trace source with a timer around `next_item`.
struct TimedTrace {
    inner: Box<dyn TraceSource + Send>,
    probe: Arc<TraceProbe>,
}

impl TraceSource for TimedTrace {
    fn next_item(&mut self) -> Option<TraceItem> {
        let t = Instant::now();
        let item = self.inner.next_item();
        self.probe
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if item.is_some() {
            self.probe.items.fetch_add(1, Ordering::Relaxed);
        }
        item
    }
}

/// Summed time and calls of one hot call site inside the run loop,
/// flushed into the recorder when the run ends.
#[derive(Debug, Default, Clone, Copy)]
struct Site {
    count: u64,
    ns: u64,
}

impl Site {
    fn add(&mut self, from: Instant, to: Instant) {
        self.count += 1;
        self.ns += (to - from).as_nanos() as u64;
    }
}

/// The run loop's hot call sites.
#[derive(Debug, Default)]
struct Hot {
    cpu_tick: Site,
    cpu_drain: Site,
    cpu_complete: Site,
    cpu_stall_check: Site,
    cpu_skip: Site,
    cpu_skip_cycles: u64,
    enqueue: Site,
    enqueue_rejected: u64,
    mem_tick: Site,
    jump: Site,
    jump_cycles: u64,
    bound: Site,
    completions: u64,
}

/// The library's profile-guided page placement, replayed (it is private
/// to `clr_sim::system`).
fn build_placement(workloads: &[Workload], cfg: &RunConfig) -> PagePlacement {
    let mut merged = PageProfile::new();
    for (core, w) in workloads.iter().enumerate() {
        let total = cfg.budget_insts + cfg.warmup_insts;
        let items = ((total as f64 / w.instructions_per_item()) * 1.3) as usize + 1_000;
        let mut gen = w.spawn(per_core_seed(cfg.seed, core));
        for _ in 0..items {
            let Some(item) = gen.next_item() else { break };
            merged.record(tag_for_core(item.read, core));
            if let Some(wr) = item.write {
                merged.record(tag_for_core(wr, core));
            }
        }
    }
    let fraction = cfg.mem.clr.fraction_hp();
    PagePlacement::profile_guided(&merged, fraction, &cfg.mem.geometry)
        .expect("CLR fraction is validated upstream")
}

/// Traced `clr_sim::run_workloads`.
pub fn run_workloads_traced(workloads: &[Workload], cfg: &RunConfig, tr: &mut Tracer) -> TracedRun {
    replay(workloads, cfg, None, tr)
}

/// Traced `clr_sim::run_policy_workloads`.
pub fn run_policy_workloads_traced(
    workloads: &[Workload],
    cfg: &PolicyRunConfig,
    tr: &mut Tracer,
) -> TracedRun {
    replay(workloads, &cfg.base, Some(EpochReplay::new(cfg)), tr)
}

/// The run loop of `clr_sim::system::run_workloads_observed`, with the
/// policy epoch driver as the optional observer.
fn replay(
    workloads: &[Workload],
    cfg: &RunConfig,
    mut epochs: Option<EpochReplay>,
    tr: &mut Tracer,
) -> TracedRun {
    assert!(!workloads.is_empty(), "at least one workload required");
    assert!(
        cfg.trace.is_none() && cfg.metrics.is_none() && cfg.threads == 1,
        "the replay covers serial runs with tracing and telemetry off"
    );
    let run_span = tr.open("sim.run");
    let placement = tr.time("trace.profile", || build_placement(workloads, cfg));
    let probe = Arc::new(TraceProbe::default());
    let traces: Vec<Box<dyn TraceSource + Send>> = workloads
        .iter()
        .enumerate()
        .map(|(core, w)| {
            Box::new(TimedTrace {
                inner: Box::new(TranslatedTrace::new(
                    w.spawn(per_core_seed(cfg.seed, core)),
                    placement.clone(),
                    core,
                )),
                probe: Arc::clone(&probe),
            }) as Box<dyn TraceSource + Send>
        })
        .collect();

    let mut cluster = tr.time("cpu.new", || CpuCluster::new(cfg.cluster, traces));
    let mut mem_sys = tr.time("memsim.new", || MemorySystem::new(cfg.mem.clone()));
    mem_sys.set_threads(1);
    if cfg.blame {
        mem_sys.enable_blame();
    }
    if let Some(e) = epochs.as_mut() {
        e.on_run_start(&mut mem_sys);
    }
    let mut completions: Vec<Completion> = Vec::new();
    let mut dram_done: u64 = 0;

    let n = workloads.len();
    let channels = mem_sys.channels();
    let mut warm_retired: Vec<u64> = vec![0; n];
    let mut warm_cpu_cycle: u64 = 0;
    let mut warm_dram_cycle: u64 = 0;
    let mut warm_stats = MemStats::new();
    let mut warm_channel_stats: Vec<MemStats> = vec![MemStats::new(); channels];
    let mut warmed = cfg.warmup_insts == 0;
    let mut finish_cycle: Vec<Option<u64>> = vec![None; n];
    let cycle_cap = (cfg.budget_insts + cfg.warmup_insts) * 2_000 + 10_000_000;
    let mut stall_cache: Option<u64> = None;
    let mut hot = Hot::default();

    loop {
        let t0 = Instant::now();
        cluster.tick();
        let t1 = Instant::now();
        hot.cpu_tick.add(t0, t1);
        let now_dram = mem_sys.cycle();
        cluster.drain_mem_requests(|req| {
            let kind = if req.write {
                RequestKind::Write
            } else {
                RequestKind::Read
            };
            let a = Instant::now();
            let ok = mem_sys
                .try_enqueue(MemRequest::new(
                    req.id,
                    PhysAddr(req.line_addr),
                    kind,
                    now_dram,
                ))
                .is_ok();
            hot.enqueue.add(a, Instant::now());
            if !ok {
                hot.enqueue_rejected += 1;
            }
            ok
        });
        hot.cpu_drain.add(t1, Instant::now());
        let due = cluster.cycle() * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
        while dram_done < due {
            let a = Instant::now();
            if cfg.skip_ahead {
                mem_sys.tick_fast(&mut completions);
            } else {
                mem_sys.tick(&mut completions);
            }
            hot.mem_tick.add(a, Instant::now());
            dram_done += 1;
            if !completions.is_empty() {
                let a = Instant::now();
                for c in completions.drain(..) {
                    cluster.complete_read(c.id);
                    hot.completions += 1;
                    stall_cache = None;
                }
                hot.cpu_complete.add(a, Instant::now());
            }
            if let Some(e) = epochs.as_mut() {
                e.after_dram_tick(&mut mem_sys, tr);
            }
        }
        if !warmed {
            if (0..n).all(|i| cluster.retired(i) >= cfg.warmup_insts) {
                warmed = true;
                for (i, wr) in warm_retired.iter_mut().enumerate() {
                    *wr = cluster.retired(i);
                }
                warm_cpu_cycle = cluster.cycle();
                warm_dram_cycle = mem_sys.cycle();
                warm_stats = mem_sys.fused_stats();
                for (c, w) in warm_channel_stats.iter_mut().enumerate() {
                    *w = mem_sys.channel_stats(c).clone();
                }
            }
        } else {
            let mut all_done = true;
            for i in 0..n {
                if finish_cycle[i].is_none() {
                    if cluster.retired(i) >= warm_retired[i] + cfg.budget_insts {
                        finish_cycle[i] = Some(cluster.cycle());
                    } else {
                        all_done = false;
                    }
                }
            }
            if all_done {
                break;
            }
        }
        assert!(
            cluster.cycle() < cycle_cap,
            "no forward progress after {cycle_cap} CPU cycles"
        );

        if cfg.skip_ahead && completions.is_empty() {
            let stalled = match stall_cache {
                Some(w) if cluster.cycle() < w => Some(w),
                _ => {
                    let a = Instant::now();
                    let s = cluster.stalled_until();
                    hot.cpu_stall_check.add(a, Instant::now());
                    stall_cache = s;
                    s
                }
            };
            if let Some(wake) = stalled {
                let boundary = epochs.as_ref().map_or(u64::MAX, EpochReplay::next_boundary);
                let a = Instant::now();
                let dram_cap = mem_sys.next_completion_bound().min(boundary);
                hot.bound.add(a, Instant::now());
                let cpu_cap = if dram_cap >= u64::MAX / (2 * DRAM_PER_CPU_DEN) {
                    u64::MAX
                } else {
                    ((dram_cap + 1) * DRAM_PER_CPU_DEN - 1) / DRAM_PER_CPU_NUM
                };
                let target = wake.min(cpu_cap).min(cycle_cap);
                if target > cluster.cycle() {
                    hot.cpu_skip_cycles += target - cluster.cycle();
                    let a = Instant::now();
                    cluster.skip_to(target);
                    hot.cpu_skip.add(a, Instant::now());
                    let due = target * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
                    if due > dram_done {
                        hot.jump_cycles += due - dram_done;
                        let a = Instant::now();
                        mem_sys.tick_until(due, &mut completions);
                        hot.jump.add(a, Instant::now());
                        dram_done = due;
                        debug_assert!(completions.is_empty());
                        if let Some(e) = epochs.as_mut() {
                            e.after_dram_tick(&mut mem_sys, tr);
                        }
                    }
                }
            }
        }
    }

    let cpu_cycles = cluster.cycle() - warm_cpu_cycle;
    let dram_cycles = mem_sys.cycle() - warm_dram_cycle;
    let duration_ns = dram_cycles as f64 * cfg.mem.interface.t_ck_ns;
    let mem = mem_sys.fused_stats().delta_since(&warm_stats);
    let (energy, _per_channel) = tr.time("power.energy", || {
        let mem_per_channel: Vec<MemStats> = (0..channels)
            .map(|c| mem_sys.channel_stats(c).delta_since(&warm_channel_stats[c]))
            .collect();
        (
            energy_of_run(&mem, &cfg.mem, &IddParams::default()),
            clr_power::energy_per_channel(mem_per_channel.iter(), &cfg.mem, &IddParams::default()),
        )
    });
    let ipc = (0..n)
        .map(|i| {
            let cycles = finish_cycle[i].expect("every core finished") - warm_cpu_cycle;
            cfg.budget_insts as f64 / cycles as f64
        })
        .collect();
    let retired_insts = (0..n).map(|i| cluster.retired(i)).sum();
    let whole = mem_sys.fused_stats();
    let llc = cluster.llc().stats();
    let llc_hits: u64 = llc.hits.iter().sum();
    let llc_misses: u64 = llc.misses.iter().sum();

    tr.add("cpu.tick", hot.cpu_tick.count, hot.cpu_tick.ns);
    tr.add("cpu.drain", hot.cpu_drain.count, hot.cpu_drain.ns);
    tr.add_nested(
        "memsim.enqueue",
        "cpu.drain",
        hot.enqueue.count,
        hot.enqueue.ns,
    );
    let items = probe.items.load(Ordering::Relaxed);
    tr.add_nested(
        "trace.next_item",
        "cpu.tick",
        items,
        probe.ns.load(Ordering::Relaxed),
    );
    tr.add("cpu.complete", hot.cpu_complete.count, hot.cpu_complete.ns);
    tr.add(
        "cpu.stall_check",
        hot.cpu_stall_check.count,
        hot.cpu_stall_check.ns,
    );
    tr.add("cpu.skip", hot.cpu_skip.count, hot.cpu_skip.ns);
    tr.add("memsim.tick", hot.mem_tick.count, hot.mem_tick.ns);
    tr.add("memsim.jump", hot.jump.count, hot.jump.ns);
    tr.add("memsim.bound", hot.bound.count, hot.bound.ns);
    tr.count("trace.items", items);
    tr.count("cpu.skip_cycles", hot.cpu_skip_cycles);
    tr.count("cpu.llc_accesses", llc_hits + llc_misses);
    tr.count("cpu.llc_misses", llc_misses);
    tr.count("memsim.enqueue_rejected", hot.enqueue_rejected);
    tr.count("memsim.jump_cycles", hot.jump_cycles);
    tr.count("memsim.dram_cycles", mem_sys.cycle());
    tr.count("memsim.completions", hot.completions);
    tr.count("migrate.jobs_completed", whole.migration_jobs_completed);
    tr.count("migrate.slot_cycles", whole.migration_slot_cycles);
    tr.count("sim.insts", retired_insts);

    let policy = epochs.map(|e| e.finish(tr));
    tr.close(run_span);
    TracedRun {
        ipc,
        cpu_cycles,
        dram_cycles,
        duration_ns,
        mem,
        energy,
        skip_profile: mem_sys.fused_skip_profile(),
        policy,
    }
}

/// The library's policy epoch driver (`clr_sim::policyrun`), replayed
/// with spans around each epoch and timers around its layer calls.
struct EpochReplay {
    runtimes: Vec<PolicyRuntime>,
    split: BudgetSplit,
    global_budget: f64,
    epoch_dram_cycles: u64,
    next_epoch: u64,
    last_epoch_cycle: u64,
    final_hp_fraction: f64,
    channel_budgets: Vec<f64>,
    background: bool,
    cross_channel: bool,
    rebalancer: CapacityRebalancer,
    telemetry_scratch: Vec<((u32, u32), u64)>,
    epoch_scratch: Vec<EpochTelemetry>,
    demand_scratch: Vec<u64>,
    changes_scratch: Vec<(usize, u32, RowMode)>,
    completed_scratch: Vec<(u32, u32, RowMode)>,
    dispatched_scratch: Vec<(u32, u32)>,
    applied: u64,
    dropped: u64,
    dispatched: u64,
}

impl EpochReplay {
    fn new(cfg: &PolicyRunConfig) -> Self {
        let g = &cfg.base.mem.geometry;
        let channels = g.channels as usize;
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
        EpochReplay {
            runtimes: (0..channels)
                .map(|_| PolicyRuntime::new(cfg.policy.build(), cfg.constraints, reloc()))
                .collect(),
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
            telemetry_scratch: Vec::new(),
            epoch_scratch: Vec::new(),
            demand_scratch: Vec::new(),
            changes_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            dispatched_scratch: Vec::new(),
            applied: 0,
            dropped: 0,
            dispatched: 0,
        }
    }

    fn on_run_start(&mut self, mem: &mut MemorySystem) {
        mem.enable_row_telemetry();
        self.background = mem.config().relocation.is_background();
        self.cross_channel =
            self.background && mem.config().placement.is_cross_channel() && mem.channels() > 1;
    }

    fn next_boundary(&self) -> u64 {
        self.next_epoch
    }

    fn after_dram_tick(&mut self, mem: &mut MemorySystem, tr: &mut Tracer) {
        let now = mem.cycle();
        if now < self.next_epoch {
            return;
        }
        let span = tr.open("policy.epoch");
        let channels = self.runtimes.len();
        let epoch_len = now - self.last_epoch_cycle;

        self.epoch_scratch.clear();
        self.demand_scratch.clear();
        for ch in 0..channels {
            if self.background {
                tr.time("migrate.collect", || {
                    mem.channel_mut(ch)
                        .drain_completed_migrations_into(&mut self.completed_scratch)
                });
                self.runtimes[ch].note_completed(&self.completed_scratch);
            }
            let mut telemetry = EpochTelemetry::new(self.runtimes[ch].stats().epochs, epoch_len);
            tr.time("memsim.telemetry_drain", || {
                mem.channel_mut(ch)
                    .drain_row_telemetry_into(&mut self.telemetry_scratch)
            });
            for &((bank, row), n) in &self.telemetry_scratch {
                telemetry.record(RowId::new(bank, row), n);
            }
            self.demand_scratch.push(telemetry.total_accesses());
            self.epoch_scratch.push(telemetry);
        }

        if self.cross_channel {
            let t = Instant::now();
            self.rebalance(mem);
            tr.add("migrate.placement", 1, t.elapsed().as_nanos() as u64);
        }

        self.channel_budgets = self
            .split
            .partition(self.global_budget, &self.demand_scratch);
        let mut hp_fraction_sum = 0.0;
        for ch in 0..channels {
            self.runtimes[ch].set_max_hp_fraction(self.channel_budgets[ch]);
            let outcome =
                self.runtimes[ch].on_epoch(&self.epoch_scratch[ch], mem.channel(ch).mode_table());
            self.applied += outcome.applied.len() as u64;
            self.dropped += outcome.dropped as u64;
            if !outcome.applied.is_empty() {
                self.changes_scratch.clear();
                self.changes_scratch.extend(
                    outcome
                        .applied
                        .iter()
                        .map(|t| (t.row.bank as usize, t.row.row, t.to)),
                );
                let mc = mem.channel_mut(ch);
                let t = Instant::now();
                if self.background {
                    self.dispatched_scratch.clear();
                    mc.begin_row_migrations_tracked(
                        &self.changes_scratch,
                        &mut self.dispatched_scratch,
                    );
                    self.dispatched += self.dispatched_scratch.len() as u64;
                    tr.add("migrate.dispatch", 1, t.elapsed().as_nanos() as u64);
                    self.runtimes[ch].note_in_flight(&self.dispatched_scratch);
                } else {
                    mc.apply_row_modes(&self.changes_scratch, outcome.cost.dram_cycles);
                    tr.add("migrate.dispatch", 1, t.elapsed().as_nanos() as u64);
                }
            }
            hp_fraction_sum += mem.channel(ch).mode_table().fraction_high_performance();
        }
        self.final_hp_fraction = hp_fraction_sum / channels as f64;
        self.last_epoch_cycle = now;
        self.next_epoch = now + self.epoch_dram_cycles;
        tr.close(span);
    }

    /// Cross-channel frame rebalancing, exactly as the library's driver
    /// does it at an epoch boundary.
    fn rebalance(&mut self, mem: &mut MemorySystem) {
        mem.pump_placement();
        if let Some(plan) = self.rebalancer.plan(&self.demand_scratch) {
            let min_heat = self.rebalancer.config().min_row_heat.max(1);
            let donor_rows = self.epoch_scratch[plan.from].rows_touched();
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
                if donor.mode_table().mode_of(rid.bank as usize, rid.row) != RowMode::MaxCapacity {
                    continue;
                }
                if donor.is_row_migrating(rid.bank as usize, rid.row) {
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
    }

    fn finish(self, tr: &mut Tracer) -> PolicyOutcome {
        let stats = self
            .runtimes
            .iter()
            .fold(RuntimeStats::default(), |acc, r| acc.merged(r.stats()));
        tr.count("policy.applied", self.applied);
        tr.count("policy.dropped", self.dropped);
        tr.count("migrate.jobs_dispatched", self.dispatched);
        PolicyOutcome {
            stats,
            final_hp_fraction: self.final_hp_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Bit-identity of the replay against the library on tiny
    //! configurations covering every path the replay mirrors.

    use super::*;
    use clr_cpu::cluster::ClusterConfig;
    use clr_memsim::config::MemConfig;
    use clr_memsim::migrate::RelocationConfig;
    use clr_policy::policy::{PolicyConstraints, PolicySpec};
    use clr_sim::experiment::policies::{policy_cluster, policy_mem_config};
    use clr_sim::{run_policy_workloads, run_workloads};
    use clr_trace::apps::by_name;
    use clr_trace::phase::PhaseShiftSpec;
    use clr_trace::synthetic::synthetic_suite;

    fn tiny_run(mem: MemConfig, blame: bool) -> RunConfig {
        RunConfig {
            mem,
            cluster: ClusterConfig::paper(),
            budget_insts: 6_000,
            warmup_insts: 1_000,
            seed: 7,
            skip_ahead: true,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame,
        }
    }

    fn tracer() -> Tracer {
        Tracer::new(Instant::now())
    }

    #[test]
    fn plain_runs_match_the_library() {
        let cases = [
            (
                Workload::App(*by_name("429.mcf").unwrap()),
                MemConfig::paper_baseline(),
            ),
            (
                Workload::Synthetic(synthetic_suite()[2]),
                MemConfig::paper_clr(0.5),
            ),
            (
                Workload::App(*by_name("453.povray").unwrap()),
                MemConfig::paper_clr(1.0),
            ),
        ];
        for (w, mem) in cases {
            let cfg = tiny_run(mem, false);
            let lib = run_workloads(&[w], &cfg);
            let mut tr = tracer();
            let rep = run_workloads_traced(&[w], &cfg, &mut tr);
            assert_eq!(lib.ipc, rep.ipc, "{}", w.name());
            assert_eq!(lib.mem, rep.mem, "{}", w.name());
            assert_eq!(lib.cpu_cycles, rep.cpu_cycles);
            assert_eq!(lib.dram_cycles, rep.dram_cycles);
            assert_eq!(lib.energy, rep.energy);
            assert_eq!(lib.skip_profile, rep.skip_profile);
            assert!(tr.counter("sim.insts") >= cfg.budget_insts + cfg.warmup_insts);
            assert_eq!(tr.spans().len(), 1, "one run span");
            assert!(tr.agg("cpu.tick").count > 0);
            assert!(tr.counter("trace.items") > 0);
        }
    }

    #[test]
    fn multi_core_two_channel_run_matches_the_library() {
        let apps = ["429.mcf", "470.lbm", "453.povray", "403.gcc"];
        let ws: Vec<Workload> = apps
            .iter()
            .map(|n| Workload::App(*by_name(n).unwrap()))
            .collect();
        let mut mem = MemConfig::paper_clr(0.25);
        mem.geometry.channels = 2;
        let mut cfg = tiny_run(mem, true);
        cfg.budget_insts = 3_000;
        let lib = run_workloads(&ws, &cfg);
        let rep = run_workloads_traced(&ws, &cfg, &mut tracer());
        assert_eq!(lib.ipc, rep.ipc);
        assert_eq!(lib.mem, rep.mem);
    }

    fn policy_case(
        channels: u32,
        reloc: RelocationConfig,
        placement: DestinationPicker,
        policy: PolicySpec,
        skew: bool,
    ) -> (Vec<Workload>, PolicyRunConfig) {
        let mut mem = policy_mem_config(0.0);
        mem.geometry.channels = channels;
        mem.refresh_enabled = true;
        mem.relocation = reloc;
        mem.placement = placement;
        let mut base = tiny_run(mem, true);
        base.cluster = policy_cluster();
        base.budget_insts = 12_000;
        base.warmup_insts = 500;
        let spec = PhaseShiftSpec {
            footprint_mib: 1,
            accesses_per_phase: 500,
            ..PhaseShiftSpec::paper_default()
        };
        let w = if skew {
            Workload::PhaseShift(spec.with_channel_skew(2, 0))
        } else {
            Workload::PhaseShift(spec)
        };
        let cfg = PolicyRunConfig::new(base, policy, PolicyConstraints::with_budget(0.25), 2_000)
            .with_budget_split(BudgetSplit::demand_proportional());
        (vec![w, w], cfg)
    }

    fn assert_policy_identity(ws: &[Workload], cfg: &PolicyRunConfig) -> Tracer {
        let lib = run_policy_workloads(ws, cfg);
        let mut tr = tracer();
        let rep = run_policy_workloads_traced(ws, cfg, &mut tr);
        let p = rep.policy.as_ref().expect("policy outcome");
        assert_eq!(lib.run.ipc, rep.ipc);
        assert_eq!(lib.run.mem, rep.mem);
        assert_eq!(lib.run.skip_profile, rep.skip_profile);
        assert_eq!(lib.policy_stats, p.stats);
        assert_eq!(lib.final_hp_fraction, p.final_hp_fraction);
        assert_eq!(
            tr.durations("policy.epoch").len() as u64,
            lib.policy_stats.epochs / cfg.base.mem.geometry.channels as u64
        );
        tr
    }

    #[test]
    fn background_and_stall_policy_runs_match_the_library() {
        for reloc in [
            RelocationConfig::background_paced(),
            RelocationConfig::default(),
        ] {
            let (ws, cfg) = policy_case(
                2,
                reloc,
                DestinationPicker::SameBank,
                PolicySpec::Hysteresis,
                false,
            );
            assert_policy_identity(&ws, &cfg);
        }
        let (ws, cfg) = policy_case(
            1,
            RelocationConfig::background(),
            DestinationPicker::CrossBank,
            PolicySpec::TopKHotness,
            false,
        );
        assert_policy_identity(&ws, &cfg);
    }

    #[test]
    fn cross_channel_rebalancing_matches_the_library() {
        let (ws, cfg) = policy_case(
            2,
            RelocationConfig::background(),
            DestinationPicker::CrossChannel,
            PolicySpec::UtilizationThreshold { hot: 2, cold: 0 },
            true,
        );
        assert!(
            run_policy_workloads(&ws, &cfg).rows_remapped > 0,
            "frames must move"
        );
        let tr = assert_policy_identity(&ws, &cfg);
        assert!(tr.agg("migrate.placement").count > 0);
    }
}
