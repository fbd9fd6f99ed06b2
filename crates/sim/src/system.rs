//! The full-system simulator: CPU cluster + channel-sharded memory
//! system with the 4 GHz / 1200 MHz clock-domain crossing.
//!
//! The memory side is a [`MemorySystem`]: one independent controller per
//! channel of the configured geometry, requests routed by the address
//! mapping's bijective channel split. A 1-channel configuration is
//! bit-identical to driving the single controller directly.
//!
//! # Skip-ahead
//!
//! The reference loop advances both clock domains cycle by cycle. With
//! [`RunConfig::skip_ahead`] enabled (the default), the CPU cluster
//! advances without ticking in two ways, and every simulated number
//! stays bit-identical to the per-cycle loop (identical IPC, statistics,
//! and command streams; enforced by the workspace differential tests,
//! including on multi-channel configurations):
//!
//! - **Memory-stall jumps.** When [`CpuCluster::stalled_until`] reports
//!   every core stalled on memory or draining bubbles behind a blocked
//!   head, with nothing to inject, both clocks jump. The memory system's
//!   [`MemorySystem::next_completion_bound`] bounds the first cycle a
//!   read can complete on *any* channel, and the jump is capped so that
//!   the first completion, the first scheduled CPU wakeup, and the
//!   observer's next exact-cycle boundary are all reached by ordinary
//!   stepping; [`MemorySystem::tick_until`] replays the command-only
//!   DRAM events inside the window.
//! - **Compute stretches.** While every core's next tick would only
//!   retire ready window entries and dispatch bubbles — no LLC access,
//!   no trace pull — [`CpuCluster::stream`] advances the cores as
//!   counters. The memory side makes exactly the calls ticking makes:
//!   one `tick_fast` per DRAM cycle, dead cycles passed in one call
//!   that still records each as a one-cycle jump, and the observer and
//!   sampler after each step. A stretch stops before any tick that
//!   would touch the LLC or the trace, deliver a hit wakeup, or lift a
//!   core to a *retire cap* — its warm-up or budget count, which the
//!   loop must see at the exact cycle it is reached — and after any
//!   tick that delivers a completion or leaves the cluster stalled or
//!   draining, so the jump path then takes over on exactly the cycles it
//!   would after ticking. The skip profile is therefore unchanged too.
//!
//! [`CpuCluster::stalled_until`]: clr_cpu::cluster::CpuCluster::stalled_until
//! [`CpuCluster::stream`]: clr_cpu::cluster::CpuCluster::stream
//! [`MemorySystem::next_completion_bound`]: clr_memsim::system::MemorySystem::next_completion_bound
//! [`MemorySystem::tick_until`]: clr_memsim::system::MemorySystem::tick_until

use clr_core::addr::PhysAddr;
use clr_core::mapping::{PagePlacement, PageProfile};
use clr_cpu::cluster::{ClusterConfig, CpuCluster, Stretch};
use clr_cpu::trace::TraceSource;
use clr_memsim::config::MemConfig;
use clr_memsim::request::{Completion, MemRequest, RequestKind};
use clr_memsim::stats::MemStats;
use clr_memsim::system::MemorySystem;
use clr_obs::{
    ChannelSample, MetricsConfig, MetricsRecorder, SeriesCounters, SeriesGauges, SkipProfile,
    TimeSeries, TraceCategory, TraceConfig, TraceLog, SYSTEM_PID,
};
use clr_power::{energy_of_run, EnergyBreakdown, IddParams};
use clr_trace::workload::Workload;

use crate::translate::{tag_for_core, TranslatedTrace};

/// CPU cycles per DRAM-cycle numerator/denominator: 4 GHz vs 1.2 GHz is
/// exactly 3 DRAM cycles per 10 CPU cycles.
const DRAM_PER_CPU_NUM: u64 = 3;
/// See [`DRAM_PER_CPU_NUM`].
const DRAM_PER_CPU_DEN: u64 = 10;

/// One full-system run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Memory-system configuration (including the CLR mode).
    pub mem: MemConfig,
    /// CPU cluster configuration.
    pub cluster: ClusterConfig,
    /// Instructions each core must retire in the measurement window.
    pub budget_insts: u64,
    /// Warmup instructions per core before measurement starts.
    pub warmup_insts: u64,
    /// Master seed for trace generation.
    pub seed: u64,
    /// Use the event-driven skip-ahead fast path (bit-identical results;
    /// see the module docs). Disable only to measure the per-cycle
    /// baseline or to bisect a suspected skip-ahead divergence.
    pub skip_ahead: bool,
    /// Structured event tracing (`None` = off, the default; tracing is
    /// inert — it changes no simulated outcome). Binaries resolve it
    /// from the `CLR_TRACE` environment variable with
    /// `clr_bench::trace_config_from_env`; see
    /// [`clr_obs::trace`](clr_obs::TraceConfig) for the category filter
    /// syntax.
    pub trace: Option<TraceConfig>,
    /// Continuous telemetry (`None` = off, the default; like tracing,
    /// metrics are inert). Windows close at exact simulated cycles —
    /// the sampling boundary is an event source skip-ahead jumps are
    /// clamped to — so the series are bit-identical across the
    /// per-cycle, skip-ahead, and threaded walks. Binaries resolve it
    /// from the `CLR_METRICS` environment variable with
    /// `clr_bench::metrics_config_from_env`.
    pub metrics: Option<MetricsConfig>,
    /// Worker threads for the memory-side channel walk (1 = serial, the
    /// default). Channels are partitioned across workers between epoch
    /// barriers and their completion streams merged on
    /// `(finish_cycle, channel)`, so any value is bit-identical to
    /// serial.
    pub threads: usize,
    /// Clamp [`RunConfig::threads`] to the host's
    /// [`std::thread::available_parallelism`] when the run resolves its
    /// effective thread count (the default, and what every production
    /// caller wants: two threads on a 1-core host must not fan out —
    /// threads sharing one core only add spawn and hand-off latency).
    /// Differential tests set `false` so the threaded walk is exercised
    /// even on 1-core hosts; the clamp can never change a simulated
    /// outcome either way. The resolved counts are recorded in
    /// [`RunResult::threads_requested`] / [`RunResult::threads_effective`].
    pub clamp_threads: bool,
    /// Per-request wait-cause attribution (off by default; inert, like
    /// tracing and metrics): every completed demand request's
    /// enqueue→completion latency is decomposed into an exact per-cause
    /// cycle budget, accumulated in
    /// [`MemStats::read_blame`](clr_memsim::stats::MemStats)/`write_blame`
    /// and windowed into the telemetry series when metrics are also on.
    pub blame: bool,
}

impl RunConfig {
    /// Paper-configured system at the given scale knobs: skip-ahead on,
    /// serial walk, every observer off. Reads no environment variable;
    /// binaries that honour `CLR_TRACE` and friends set the fields
    /// themselves.
    pub fn paper(mem: MemConfig, budget_insts: u64, warmup_insts: u64, seed: u64) -> Self {
        RunConfig {
            mem,
            cluster: ClusterConfig::paper(),
            budget_insts,
            warmup_insts,
            seed,
            skip_ahead: true,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        }
    }
}

/// The host's available hardware parallelism (1 if unknown) — the
/// ceiling [`RunConfig::clamp_threads`] holds effective worker threads
/// to and the worker count of every job-grain batch.
pub use clr_core::par::host_parallelism;

/// Results of one run (measurement window only; warmup excluded).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-core IPC over each core's own window (budget ÷ cycles to reach
    /// it).
    pub ipc: Vec<f64>,
    /// CPU cycles in the measurement window (to the last core's finish).
    pub cpu_cycles: u64,
    /// DRAM cycles in the measurement window.
    pub dram_cycles: u64,
    /// Wall-clock nanoseconds of the measurement window.
    pub duration_ns: f64,
    /// Fused memory-system statistics delta over the window (the
    /// counter-wise sum of every channel; see
    /// [`MemStats::merge`](clr_memsim::stats::MemStats::merge)).
    pub mem: MemStats,
    /// Per-channel statistics deltas over the window (one entry per
    /// channel, channel 0 first).
    pub mem_per_channel: Vec<MemStats>,
    /// Energy over the window.
    pub energy: EnergyBreakdown,
    /// Per-channel energy over the window (component-wise, these sum to
    /// `energy`); `energy_per_channel[c].migration_j` is channel `c`'s
    /// mode-management data-movement cost.
    pub energy_per_channel: Vec<EnergyBreakdown>,
    /// Host wall-clock seconds spent in the simulation loop itself
    /// (excluding trace profiling and placement construction) — the
    /// denominator for simulator-throughput reporting.
    pub host_loop_s: f64,
    /// Worker threads the configuration asked for
    /// ([`RunConfig::threads`], ≥ 1).
    pub threads_requested: usize,
    /// Worker threads the walk actually ran with after the
    /// [`RunConfig::clamp_threads`] resolve-time clamp against
    /// [`host_parallelism`] (equals `threads_requested` when clamping
    /// is off or the host has enough cores).
    pub threads_effective: usize,
    /// The merged event trace (whole run, warmup included), present only
    /// when [`RunConfig::trace`] enabled tracing. When metrics were also
    /// enabled and the trace's category set includes
    /// [`TraceCategory::Metrics`], the log carries the time-series as
    /// Chrome counter tracks (`ph: "C"`) — per-channel under the channel
    /// pids, system-fused under [`SYSTEM_PID`].
    pub trace: Option<TraceLog>,
    /// Continuous telemetry (whole run, warmup included), present only
    /// when [`RunConfig::metrics`] enabled it.
    pub metrics: Option<RunMetrics>,
    /// Skip-ahead profiling fused across channels: dead-window jump
    /// lengths, which event source bounded each jump, ticked-vs-skipped
    /// cycle totals. Host-side observability — deliberately outside
    /// [`MemStats`], because jump shapes legitimately differ between
    /// per-cycle and skip-ahead walks of the same simulation.
    pub skip_profile: SkipProfile,
}

impl RunResult {
    /// Average DRAM power over the window, in watts.
    pub fn avg_power_w(&self) -> f64 {
        self.energy.avg_power_w(self.duration_ns)
    }
}

/// A run's continuous telemetry: one [`TimeSeries`] per channel,
/// sampled every [`RunMetrics::interval_cycles`] of simulated time
/// (plus a final partial window when the run ends off-boundary).
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Window length in DRAM cycles.
    pub interval_cycles: u64,
    /// Per-channel series, channel 0 first.
    pub per_channel: Vec<TimeSeries>,
}

impl RunMetrics {
    /// The system-level series: every channel's windows fused with the
    /// exact bucket-wise [`TimeSeries::merge`].
    pub fn system(&self) -> TimeSeries {
        TimeSeries::fused(self.per_channel.iter())
    }
}

/// The trace seed core `core` derives from a run's master seed — public
/// so an alone-IPC baseline run (in the experiment sweep or a fleet
/// instance's slowdown baseline) can hand core 0 exactly the trace that
/// core `core` replays in a shared run.
pub fn per_core_seed(seed: u64, core: usize) -> u64 {
    seed.wrapping_add((core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds the shared page placement by profiling every core's trace.
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
        .expect("the workloads' footprint does not fit the memory's usable frames")
}

/// Observer invoked after every DRAM tick — the hook the policy runtime
/// in [`crate::policyrun`] uses to run its epoch loop against the live
/// memory system.
pub(crate) trait RunObserver {
    /// Called once with the freshly built memory system before the first
    /// cycle — the place to switch on collection features (telemetry)
    /// that must precede every command, including those replayed inside
    /// skip-ahead windows.
    fn on_run_start(&mut self, _mem: &mut MemorySystem) {}

    /// Called with the memory system immediately after it ticked (or, on
    /// the skip-ahead path, after a jump over several cycles). Channels
    /// advance in lockstep, so any exact-cycle boundary work the
    /// observer does here fires at the same cycle on every channel.
    fn after_dram_tick(&mut self, mem: &mut MemorySystem);

    /// The next DRAM cycle this observer must see at an *exact* cycle
    /// boundary (e.g. a policy epoch). Skip-ahead never jumps the
    /// controller past it, so boundary work fires at the same cycle as in
    /// a per-cycle run; [`RunObserver::after_dram_tick`] must do nothing
    /// at any earlier cycle, which is what lets a jump call it once at
    /// its landing. `None` means any landing cycle is fine.
    fn next_boundary(&self) -> Option<u64> {
        None
    }

    /// The per-channel capacity-budget fractions this observer manages
    /// (the policy runtime's split), sampled by the metrics layer as a
    /// gauge. `None` means no budgets are being managed.
    fn channel_budgets(&self) -> Option<&[f64]> {
        None
    }
}

/// Continuous-telemetry sampling state for one run: the window clock
/// plus the previous boundary's per-channel statistics snapshots, so
/// each window is the exact `MemStats::delta_since` over the window.
struct MetricsSampler {
    recorder: MetricsRecorder,
    prev: Vec<MemStats>,
}

impl MetricsSampler {
    fn new(cfg: &MetricsConfig, channels: usize) -> Self {
        MetricsSampler {
            recorder: MetricsRecorder::new(cfg, channels),
            prev: vec![MemStats::new(); channels],
        }
    }

    /// Closes the window ending at `now` (the run loop calls this only
    /// at due boundaries, plus once for the final partial window).
    fn sample(&mut self, now: u64, mem: &MemorySystem, budgets: Option<&[f64]>) {
        let channels = self.prev.len();
        let samples: Vec<ChannelSample> = (0..channels)
            .map(|ch| {
                let delta = mem.channel_stats(ch).delta_since(&self.prev[ch]);
                let mc = mem.channel(ch);
                ChannelSample {
                    counters: SeriesCounters {
                        acts: delta.acts(),
                        reads: delta.reads,
                        writes: delta.writes,
                        mode_transitions: delta.mode_transitions,
                        migration_jobs: delta.migration_jobs_completed,
                        frames_moved: delta.migration_fills,
                        stall_cycles: delta.relocation_stall_cycles,
                        migration_slot_cycles: delta.migration_slot_cycles,
                    },
                    gauges: SeriesGauges {
                        queue_depth: (mc.pending_reads() + mc.pending_writes()) as u64,
                        in_flight_migrations: mc.pending_migrations() as u64,
                        hp_permille: (mc.mode_table().fraction_high_performance() * 1000.0).round()
                            as u64,
                        budget_permille: budgets
                            .and_then(|b| b.get(ch))
                            .map_or(0, |&f| (f * 1000.0).round() as u64),
                    },
                    read_latency: delta.read_latency_hist,
                    read_blame: delta.read_blame,
                }
            })
            .collect();
        for (ch, p) in self.prev.iter_mut().enumerate() {
            *p = mem.channel_stats(ch).clone();
        }
        self.recorder.commit(now, samples);
    }
}

/// The hooks every step of the memory side ends with, whether it ticked
/// one DRAM cycle or jumped several: the observer, then the metrics
/// sampler, so a policy epoch sharing a window boundary updates budgets
/// and modes before the window closes.
fn after_dram_step(
    mem: &mut MemorySystem,
    observer: &mut dyn RunObserver,
    sampler: &mut Option<MetricsSampler>,
) {
    observer.after_dram_tick(mem);
    if let Some(s) = sampler.as_mut() {
        if s.recorder.due(mem.cycle()) {
            s.sample(mem.cycle(), mem, observer.channel_budgets());
        }
    }
}

/// The next DRAM cycle the memory side must reach by an ordinary step:
/// the observer's boundary or the sampler's next window close.
fn exact_boundary(observer: &dyn RunObserver, sampler: &Option<MetricsSampler>) -> u64 {
    observer.next_boundary().unwrap_or(u64::MAX).min(
        sampler
            .as_ref()
            .map_or(u64::MAX, |s| s.recorder.next_boundary()),
    )
}

/// The default observer: does nothing.
pub(crate) struct NoObserver;

impl RunObserver for NoObserver {
    fn after_dram_tick(&mut self, _mem: &mut MemorySystem) {}
}

/// Runs `workloads` (one per core) under `cfg` and returns the
/// measurement-window results.
///
/// # Panics
///
/// Panics if `workloads` is empty or the system fails to make forward
/// progress (a protocol deadlock — treated as a simulator bug).
pub fn run_workloads(workloads: &[Workload], cfg: &RunConfig) -> RunResult {
    run_workloads_observed(workloads, cfg, &mut NoObserver)
}

/// [`run_workloads`] with a tick observer (the policy runtime's entry
/// point).
pub(crate) fn run_workloads_observed(
    workloads: &[Workload],
    cfg: &RunConfig,
    observer: &mut dyn RunObserver,
) -> RunResult {
    assert!(!workloads.is_empty(), "at least one workload required");
    let placement = build_placement(workloads, cfg);
    let traces: Vec<Box<dyn TraceSource + Send>> = workloads
        .iter()
        .enumerate()
        .map(|(core, w)| {
            Box::new(TranslatedTrace::new(
                w.spawn(per_core_seed(cfg.seed, core)),
                placement.clone(),
                core,
            )) as Box<dyn TraceSource + Send>
        })
        .collect();

    let mut cluster = CpuCluster::new(cfg.cluster, traces);
    let mut mem_sys = MemorySystem::new(cfg.mem.clone());
    // Resolve the effective worker-thread count: fanning out past the
    // host's cores only adds hand-off latency (the measured 2-thread
    // regression on a 1-core host), so production runs clamp here.
    let threads_requested = cfg.threads.max(1);
    let threads_effective = if cfg.clamp_threads {
        threads_requested.min(host_parallelism())
    } else {
        threads_requested
    };
    mem_sys.set_threads(threads_effective);
    if let Some(tc) = &cfg.trace {
        mem_sys.enable_tracing(tc);
    }
    if cfg.blame {
        mem_sys.enable_blame();
    }
    observer.on_run_start(&mut mem_sys);
    let mut sampler = cfg
        .metrics
        .as_ref()
        .map(|mc| MetricsSampler::new(mc, mem_sys.channels()));
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

    // Hard progress bound: generous multiple of the naive cycle budget.
    let cycle_cap = (cfg.budget_insts + cfg.warmup_insts) * 2_000 + 10_000_000;

    let loop_start = std::time::Instant::now();
    // Cached cluster-stall verdict: a stalled cluster stays stalled until
    // a completion is delivered or its next scheduled wakeup fires, so
    // the per-core scan can be skipped in between.
    let mut stall_cache: Option<u64> = None;

    // Retired counts the loop must see exactly: each core's warm-up or
    // budget, until it is reached.
    let mut retire_caps: Vec<u64> = vec![u64::MAX; n];
    // How the last compute stretch ended (`Declined` after a tick).
    let mut stretch = Stretch::Declined;

    loop {
        // A compute stretch: while every core only retires ready entries
        // and dispatches bubbles, the cluster advances on counters and
        // the memory side makes exactly the calls ticking would. A
        // stretch that stopped before a tick it cannot cover leaves that
        // tick to the ordinary path.
        let try_stretch = cfg.skip_ahead
            && stretch != Stretch::Blocked
            && !matches!(stall_cache, Some(w) if cluster.cycle() < w);
        stretch = Stretch::Declined;
        if try_stretch {
            for (i, cap) in retire_caps.iter_mut().enumerate() {
                *cap = if !warmed {
                    if cluster.retired(i) < cfg.warmup_insts {
                        cfg.warmup_insts
                    } else {
                        u64::MAX
                    }
                } else if finish_cycle[i].is_none() {
                    warm_retired[i] + cfg.budget_insts
                } else {
                    u64::MAX
                };
            }
            stretch = cluster.stream(&retire_caps, cycle_cap, |target| {
                let mut end = target * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
                let mut completed = None;
                let mut boundary = exact_boundary(observer, &sampler);
                while dram_done < end {
                    // Dead cycles pass in one call, up to the first cycle
                    // an observer or the sampler must see.
                    let dead = mem_sys.fast_dead_until().min(end).min(boundary);
                    if dead > dram_done {
                        mem_sys.tick_fast_dead(dead);
                        dram_done = dead;
                    } else {
                        mem_sys.tick_fast(&mut completions);
                        dram_done += 1;
                        if completed.is_none() && !completions.is_empty() {
                            // The tick this DRAM cycle belongs to ends at
                            // the first CPU cycle whose due count
                            // covers it; its remaining cycles still run.
                            let tick_end =
                                (dram_done * DRAM_PER_CPU_DEN).div_ceil(DRAM_PER_CPU_NUM);
                            completed = Some(tick_end);
                            end = tick_end * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
                        }
                    }
                    after_dram_step(&mut mem_sys, observer, &mut sampler);
                    if dram_done >= boundary {
                        boundary = exact_boundary(observer, &sampler);
                    }
                }
                completed
            });
        }
        if stretch != Stretch::Declined {
            for c in completions.drain(..) {
                cluster.complete_read(c.id);
                stall_cache = None;
            }
        } else {
            cluster.tick();
            let now_dram = mem_sys.cycle();
            cluster.drain_mem_requests(|req| {
                let kind = if req.write {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                };
                mem_sys
                    .try_enqueue(MemRequest::new(
                        req.id,
                        PhysAddr(req.line_addr),
                        kind,
                        now_dram,
                    ))
                    .is_ok()
            });
            let due = cluster.cycle() * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
            while dram_done < due {
                if cfg.skip_ahead {
                    mem_sys.tick_fast(&mut completions);
                } else {
                    mem_sys.tick(&mut completions);
                }
                dram_done += 1;
                for c in completions.drain(..) {
                    cluster.complete_read(c.id);
                    stall_cache = None;
                }
                after_dram_step(&mut mem_sys, observer, &mut sampler);
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
            "no forward progress after {} CPU cycles (retired: {:?})",
            cycle_cap,
            (0..n).map(|i| cluster.retired(i)).collect::<Vec<_>>()
        );

        // Skip-ahead: when the CPU side is provably inert (all cores
        // stalled on memory, nothing to inject) jump both clock domains
        // to the first cycle anything can happen — the next DRAM event,
        // the next scheduled CPU wakeup, or the observer's boundary —
        // and let ordinary per-cycle stepping take over there.
        if cfg.skip_ahead && completions.is_empty() {
            // A stretch that stopped without a completion knows the
            // verdict already.
            let stalled = match (stretch, stall_cache) {
                (Stretch::Blocked, _) => None,
                (Stretch::Settled(wake), _) => Some(wake),
                (_, Some(w)) if cluster.cycle() < w => Some(w),
                _ => cluster.stalled_until(),
            };
            debug_assert_eq!(stalled, cluster.stalled_until());
            stall_cache = stalled;
            if let Some(wake) = stalled {
                let boundary = exact_boundary(observer, &sampler);
                // Completions are the only DRAM→CPU signal, so the jump is
                // capped by the first possible delivery (and the observer
                // boundary) — command-only DRAM events inside the window
                // are replayed bit-identically by `tick_until` below. The
                // controller memoizes the bound, so repeated queries
                // across a dead window are O(1).
                let dram_cap = mem_sys.next_completion_bound().min(boundary);
                // The largest CPU cycle whose DRAM due-count stays within
                // the cap, so the delivering cycle itself is reached by
                // real ticks: due(C) = C·3/10 ≤ cap ⇔ C ≤ ((cap+1)·10−1)/3.
                let cpu_cap = if dram_cap >= u64::MAX / (2 * DRAM_PER_CPU_DEN) {
                    u64::MAX
                } else {
                    ((dram_cap + 1) * DRAM_PER_CPU_DEN - 1) / DRAM_PER_CPU_NUM
                };
                let target = wake.min(cpu_cap).min(cycle_cap);
                if target > cluster.cycle() {
                    cluster.skip_to(target);
                    let due = target * DRAM_PER_CPU_NUM / DRAM_PER_CPU_DEN;
                    if due > dram_done {
                        // Replays command events and skips dead stretches;
                        // the cap guarantees no completion pops in range
                        // on any channel.
                        mem_sys.tick_until(due, &mut completions);
                        dram_done = due;
                        debug_assert!(completions.is_empty());
                        after_dram_step(&mut mem_sys, observer, &mut sampler);
                    }
                }
            }
        }
    }

    let host_loop_s = loop_start.elapsed().as_secs_f64();
    let cpu_cycles = cluster.cycle() - warm_cpu_cycle;
    let dram_cycles = mem_sys.cycle() - warm_dram_cycle;
    let duration_ns = dram_cycles as f64 * cfg.mem.interface.t_ck_ns;
    let mem = mem_sys.fused_stats().delta_since(&warm_stats);
    let mem_per_channel: Vec<MemStats> = (0..channels)
        .map(|c| mem_sys.channel_stats(c).delta_since(&warm_channel_stats[c]))
        .collect();
    let energy = energy_of_run(&mem, &cfg.mem, &IddParams::default());
    let energy_per_channel =
        clr_power::energy_per_channel(mem_per_channel.iter(), &cfg.mem, &IddParams::default());
    let ipc = (0..n)
        .map(|i| {
            let cycles = finish_cycle[i].expect("every core finished") - warm_cpu_cycle;
            cfg.budget_insts as f64 / cycles as f64
        })
        .collect();

    // Close the final partial window so the series tile the whole run.
    let metrics = sampler.map(|mut s| {
        if mem_sys.cycle() > s.recorder.last_boundary() {
            s.sample(mem_sys.cycle(), &mem_sys, observer.channel_budgets());
        }
        RunMetrics {
            interval_cycles: s.recorder.interval(),
            per_channel: s.recorder.into_series(),
        }
    });
    let mut trace = mem_sys.tracing_enabled().then(|| mem_sys.collect_trace());
    if let (Some(log), Some(m)) = (trace.as_mut(), metrics.as_ref()) {
        let wants_counters = cfg
            .trace
            .as_ref()
            .is_some_and(|tc| tc.categories.contains(TraceCategory::Metrics));
        if wants_counters {
            for (ch, series) in m.per_channel.iter().enumerate() {
                log.append(series.counter_events(ch as u32));
            }
            log.append(m.system().counter_events(SYSTEM_PID));
        }
    }
    RunResult {
        ipc,
        cpu_cycles,
        dram_cycles,
        duration_ns,
        mem,
        mem_per_channel,
        energy,
        energy_per_channel,
        host_loop_s,
        threads_requested,
        threads_effective,
        trace,
        metrics,
        skip_profile: mem_sys.fused_skip_profile(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_trace::apps::by_name;
    use clr_trace::synthetic::synthetic_suite;

    fn quick_cfg(mem: MemConfig) -> RunConfig {
        RunConfig {
            mem,
            cluster: ClusterConfig::paper(),
            budget_insts: 8_000,
            warmup_insts: 1_000,
            seed: 7,
            skip_ahead: true,
            trace: None,
            metrics: None,
            threads: 1,
            clamp_threads: true,
            blame: false,
        }
    }

    #[test]
    fn single_core_run_completes_and_reports() {
        let w = Workload::App(*by_name("429.mcf").unwrap());
        let r = run_workloads(&[w], &quick_cfg(MemConfig::paper_baseline()));
        assert_eq!(r.ipc.len(), 1);
        assert!(r.ipc[0] > 0.0 && r.ipc[0] <= 4.0);
        assert!(r.mem.reads > 0);
        assert!(r.energy.total_j() > 0.0);
        assert!(r.duration_ns > 0.0);
    }

    #[test]
    fn clr_all_hp_beats_baseline_on_random_traffic() {
        let w = Workload::Synthetic(synthetic_suite()[2]); // random, hot
        let base = run_workloads(&[w], &quick_cfg(MemConfig::paper_baseline()));
        let clr = run_workloads(&[w], &quick_cfg(MemConfig::paper_clr(1.0)));
        assert!(
            clr.ipc[0] > base.ipc[0] * 1.02,
            "CLR {} vs baseline {}",
            clr.ipc[0],
            base.ipc[0]
        );
    }

    #[test]
    fn four_core_run_reports_per_core_ipc() {
        let apps = ["429.mcf", "470.lbm", "453.povray", "403.gcc"];
        let ws: Vec<Workload> = apps
            .iter()
            .map(|n| Workload::App(*by_name(n).unwrap()))
            .collect();
        let mut cfg = quick_cfg(MemConfig::paper_baseline());
        cfg.budget_insts = 4_000;
        let r = run_workloads(&ws, &cfg);
        assert_eq!(r.ipc.len(), 4);
        assert!(r.ipc.iter().all(|&i| i > 0.0));
        // povray (MPKI 0.05) must run far faster than mcf (MPKI 16.9).
        assert!(r.ipc[2] > r.ipc[0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = Workload::App(*by_name("433.milc").unwrap());
        let cfg = quick_cfg(MemConfig::paper_clr(0.5));
        let a = run_workloads(&[w], &cfg);
        let b = run_workloads(&[w], &cfg);
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn skip_ahead_is_bit_identical_to_per_cycle() {
        let w = Workload::App(*by_name("429.mcf").unwrap());
        let mut cfg = quick_cfg(MemConfig::paper_clr(0.5));
        cfg.skip_ahead = false;
        let per_cycle = run_workloads(&[w], &cfg);
        cfg.skip_ahead = true;
        let skipped = run_workloads(&[w], &cfg);
        assert_eq!(per_cycle.ipc, skipped.ipc);
        assert_eq!(per_cycle.cpu_cycles, skipped.cpu_cycles);
        assert_eq!(per_cycle.dram_cycles, skipped.dram_cycles);
        assert_eq!(per_cycle.mem, skipped.mem);
    }

    #[test]
    fn thread_request_is_clamped_to_host_parallelism() {
        let w = Workload::App(*by_name("429.mcf").unwrap());
        let mut cfg = quick_cfg(MemConfig::paper_clr(0.5));
        cfg.mem.geometry.channels = 2;
        cfg.budget_insts = 2_000;
        for requested in [1, 2, host_parallelism() + 1] {
            cfg.threads = requested;
            let r = run_workloads(&[w], &cfg);
            assert_eq!(r.threads_requested, requested);
            assert_eq!(r.threads_effective, requested.min(host_parallelism()));
        }
    }
}
