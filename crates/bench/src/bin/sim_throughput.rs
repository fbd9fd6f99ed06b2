//! Simulation-throughput benchmark: host wall-clock speed of the
//! full-system simulator across walk modes and worker-thread counts
//! (`clr-dram/sim-throughput/v4`).
//!
//! Three scenarios bracket the design space:
//!
//! * **policy-saturated** — the policy sweep's headline cell (hysteresis
//!   policy × drifting-hot-set workload, refresh on). Memory stays busy a
//!   few cycles ahead, so most cycles carry events and skip-ahead can
//!   only harvest the short gaps: the speedup here is the *floor*.
//! * **light-intensity** — a low-MPKI synthetic on the paper system,
//!   where the DRAM sits idle between bursts and the CPU stalls on
//!   isolated misses: long dead windows, the skip-ahead *headline*.
//! * **contention-4c2ch** — the 4-core × 2-channel contention cell
//!   (hysteresis, demand-proportional split), additionally run with two
//!   worker threads (`threads=2`): the multi-channel walk the persistent
//!   executor exists for. The threaded lane runs with the production
//!   resolve-time clamp on, so the **executor axis** records both the
//!   requested and the effective thread count per mode — on a 1-core
//!   host the lane clamps to serial (no fan-out, no regression), and the
//!   bench asserts exactly that. The threaded speedup is reported, not
//!   gated.
//!
//! Each scenario runs a per-cycle reference then the skip-ahead walk at
//! each thread count, verifies every mode is statistically bit-identical
//! (the skip-ahead *and* threading contracts), and reports simulated
//! DRAM cycles/second plus the host seconds spent in policy epochs.
//! Every mode ladder is run
//! for several *interleaved* repetitions and each mode keeps its
//! fastest sample: host clock-speed drift hits all modes instead of
//! whichever happened to run last, and the minimum is the standard
//! noise-robust wall-clock estimator (the runs are deterministic, so
//! every repetition does identical work). The closing JSON is also
//! written to `BENCH_sim_throughput.json` so successive PRs track the
//! simulator's own performance trajectory alongside the modelled one.

use std::fmt::Write as _;
use std::time::Instant;

use clr_memsim::migrate::RelocationConfig;
use clr_memsim::MemStats;
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::{PolicyConstraints, PolicySpec};
use clr_sim::experiment::policies::{
    contention_workloads, epoch_cycles, phase_workload, policy_cluster, policy_mem_config,
    DYNAMIC_BUDGET,
};
use clr_sim::policyrun::{run_policy_workloads, PolicyRunConfig};
use clr_sim::system::{run_workloads, RunConfig};
use clr_sim::Scale;
use clr_trace::synthetic::{SyntheticKind, SyntheticSpec};
use clr_trace::workload::Workload;

struct Sample {
    mode: &'static str,
    /// Worker threads the mode asked for.
    threads_requested: usize,
    /// Worker threads the walk ran with after the resolve-time clamp
    /// against the host's available parallelism.
    threads_effective: usize,
    wall_s: f64,
    loop_s: f64,
    /// Host seconds in epoch-boundary policy work (0 for policy-free
    /// runs).
    policy_s: f64,
    ipc: Vec<f64>,
    mem: MemStats,
}

impl Sample {
    fn requests(&self) -> u64 {
        self.mem.reads + self.mem.writes
    }

    fn cycles_per_sec(&self) -> f64 {
        self.mem.cycles as f64 / self.loop_s
    }

    fn requests_per_sec(&self) -> f64 {
        self.requests() as f64 / self.loop_s
    }
}

/// One scenario's mode ladder: `modes[0]` is always the per-cycle
/// reference; later entries are skip-ahead at increasing thread counts.
struct Scenario {
    name: &'static str,
    workload: String,
    modes: Vec<Sample>,
}

impl Scenario {
    /// Skip-ahead (serial) over the per-cycle reference.
    fn speedup(&self) -> f64 {
        self.modes[0].loop_s / self.modes[1].loop_s
    }

    /// The threaded mode's speedup over the per-cycle reference, when
    /// the scenario ran one.
    fn speedup_threaded(&self) -> Option<f64> {
        self.modes
            .iter()
            .find(|s| s.threads_requested > 1)
            .map(|s| self.modes[0].loop_s / s.loop_s)
    }

    /// Serial-skip over threaded-skip wall time (how much the worker
    /// pool itself buys at this event density).
    fn thread_scaling(&self) -> Option<f64> {
        self.modes
            .iter()
            .find(|s| s.threads_requested > 1)
            .map(|s| self.modes[1].loop_s / s.loop_s)
    }

    fn identical(&self) -> bool {
        self.modes[1..]
            .iter()
            .all(|s| s.ipc == self.modes[0].ipc && s.mem == self.modes[0].mem)
    }
}

/// The policy sweep's headline cell: hysteresis over the drifting hot
/// set — DRAM saturated, events every few cycles.
fn run_saturated(mode: &'static str, skip_ahead: bool, scale: Scale) -> Sample {
    let mut mem = policy_mem_config(0.0);
    mem.refresh_enabled = true;
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: scale.budget_insts(),
        warmup_insts: scale.warmup_insts(),
        seed: 42,
        skip_ahead,
        trace: None,
        metrics: None,
        threads: 1,
        clamp_threads: true,
        blame: false,
    };
    let cfg = PolicyRunConfig::new(
        base,
        PolicySpec::Hysteresis,
        PolicyConstraints::with_budget(DYNAMIC_BUDGET),
        epoch_cycles(scale),
    );
    let start = Instant::now();
    let r = run_policy_workloads(&[phase_workload(scale)], &cfg);
    Sample {
        mode,
        threads_requested: r.run.threads_requested,
        threads_effective: r.run.threads_effective,
        wall_s: start.elapsed().as_secs_f64(),
        loop_s: r.run.host_loop_s,
        policy_s: r.host_policy_s,
        ipc: r.run.ipc,
        mem: r.run.mem,
    }
}

/// A low-intensity synthetic on the paper system: long idle stretches on
/// both clock domains — the workload class skip-ahead exists for.
fn light_workload() -> Workload {
    Workload::Synthetic(SyntheticSpec {
        kind: SyntheticKind::Random,
        index: 12, // the suite's bubbles=159 random family
        bubbles: 159,
        footprint_mib: 64,
    })
}

fn run_light(mode: &'static str, skip_ahead: bool, scale: Scale) -> Sample {
    let mut cfg = RunConfig::paper(
        clr_sim::experiment::mem_config(Some(0.5), 64.0),
        scale.budget_insts(),
        scale.warmup_insts(),
        42,
    );
    cfg.skip_ahead = skip_ahead;
    let start = Instant::now();
    let r = run_workloads(&[light_workload()], &cfg);
    Sample {
        mode,
        threads_requested: r.threads_requested,
        threads_effective: r.threads_effective,
        wall_s: start.elapsed().as_secs_f64(),
        loop_s: r.host_loop_s,
        policy_s: 0.0,
        ipc: r.ipc,
        mem: r.mem,
    }
}

/// The 4-core × 2-channel contention cell (hysteresis policy,
/// demand-proportional budget split, paced background relocation) — the
/// smoke roster's headline cell and the threaded walk's target shape.
fn run_contention(mode: &'static str, skip_ahead: bool, threads: usize, scale: Scale) -> Sample {
    let mut mem = policy_mem_config(0.0);
    mem.geometry.channels = 2;
    mem.refresh_enabled = true;
    mem.relocation = RelocationConfig::background_paced();
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: scale.budget_insts(),
        warmup_insts: scale.warmup_insts(),
        seed: 42,
        skip_ahead,
        trace: None,
        metrics: None,
        threads,
        // The production clamp stays on: this lane is the bench's proof
        // that a thread request past the host's cores does not fan out.
        clamp_threads: true,
        blame: false,
    };
    let cfg = PolicyRunConfig::new(
        base,
        PolicySpec::Hysteresis,
        PolicyConstraints::with_budget(DYNAMIC_BUDGET),
        epoch_cycles(scale),
    )
    .with_budget_split(BudgetSplit::demand_proportional());
    let workloads = contention_workloads(scale, 4);
    let start = Instant::now();
    let r = run_policy_workloads(&workloads, &cfg);
    Sample {
        mode,
        threads_requested: r.run.threads_requested,
        threads_effective: r.run.threads_effective,
        wall_s: start.elapsed().as_secs_f64(),
        loop_s: r.run.host_loop_s,
        policy_s: r.host_policy_s,
        ipc: r.run.ipc,
        mem: r.run.mem,
    }
}

/// Worker count for the contention cell's threaded lane: `CLR_THREADS`
/// when it asks for real parallelism, else two (one worker per channel
/// shard). CI pins `CLR_THREADS=2` so the threaded path runs on every
/// push regardless of runner defaults.
fn threaded_workers() -> usize {
    std::env::var("CLR_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(2)
}

/// Runs a scenario's mode ladder `reps` times round-robin, keeping each
/// mode's minimum-`loop_s` sample. Interleaving spreads host frequency
/// drift across every mode; the min strips the remaining noise.
fn run_ladder(reps: usize, runners: &[&dyn Fn() -> Sample]) -> Vec<Sample> {
    let mut best: Vec<Option<Sample>> = runners.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (slot, run) in best.iter_mut().zip(runners) {
            let s = run();
            if slot.as_ref().is_none_or(|b| s.loop_s < b.loop_s) {
                *slot = Some(s);
            }
        }
    }
    best.into_iter().map(|s| s.expect("reps >= 1")).collect()
}

fn json_report(scale: Scale, scenarios: &[Scenario], host_parallelism: usize) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"clr-dram/sim-throughput/v4\",");
    let _ = writeln!(j, "  \"scale\": \"{}\",", scale.label());
    let _ = writeln!(j, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(j, "  \"scenarios\": [");
    for (i, sc) in scenarios.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", sc.name);
        let _ = writeln!(j, "      \"workload\": \"{}\",", sc.workload);
        let _ = writeln!(j, "      \"modes\": [");
        for (k, s) in sc.modes.iter().enumerate() {
            let _ = writeln!(
                j,
                "        {{\"mode\": \"{}\", \"threads_requested\": {}, \
                 \"threads_effective\": {}, \"wall_s\": {:.6}, \
                 \"loop_s\": {:.6}, \"policy_s\": {:.6}, \
                 \"dram_cycles\": {}, \"requests\": {}, \
                 \"sim_cycles_per_sec\": {:.1}, \"requests_per_sec\": {:.1}}}{}",
                s.mode,
                s.threads_requested,
                s.threads_effective,
                s.wall_s,
                s.loop_s,
                s.policy_s,
                s.mem.cycles,
                s.requests(),
                s.cycles_per_sec(),
                s.requests_per_sec(),
                if k + 1 == sc.modes.len() { "" } else { "," },
            );
        }
        let _ = writeln!(j, "      ],");
        // The walks are bit-identical, so one mode's histogram speaks
        // for the whole scenario's simulated latency tail.
        let _ = writeln!(
            j,
            "      \"read_latency_p99\": {},",
            sc.modes[0].mem.read_latency_hist.p99()
        );
        let _ = writeln!(j, "      \"speedup\": {:.4},", sc.speedup());
        if let Some(st) = sc.speedup_threaded() {
            let _ = writeln!(j, "      \"speedup_threaded\": {st:.4},");
            let _ = writeln!(
                j,
                "      \"thread_scaling\": {:.4},",
                sc.thread_scaling().unwrap()
            );
        }
        let _ = writeln!(j, "      \"bit_identical\": {}", sc.identical());
        let _ = writeln!(
            j,
            "    }}{}",
            if i + 1 == scenarios.len() { "" } else { "," }
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

fn main() {
    let scale = clr_bench::startup("simulation throughput (walk modes x threads)");
    let reps = match scale {
        Scale::Full => 2,
        _ => 3,
    };
    let scenarios = [
        Scenario {
            name: "policy-saturated",
            workload: phase_workload(scale).name(),
            modes: run_ladder(
                reps,
                &[&|| run_saturated("per-cycle", false, scale), &|| {
                    run_saturated("skip-ahead", true, scale)
                }],
            ),
        },
        Scenario {
            name: "light-intensity",
            workload: light_workload().name(),
            modes: run_ladder(
                reps,
                &[&|| run_light("per-cycle", false, scale), &|| {
                    run_light("skip-ahead", true, scale)
                }],
            ),
        },
        Scenario {
            name: "contention-4c2ch",
            workload: "4core/2ch:contention-mix".into(),
            modes: run_ladder(
                reps,
                &[
                    &|| run_contention("per-cycle", false, 1, scale),
                    &|| run_contention("skip-ahead", true, 1, scale),
                    // CI drives this lane with CLR_THREADS=2 explicitly;
                    // any larger env value widens the pool.
                    &|| run_contention("skip-ahead", true, threaded_workers(), scale),
                ],
            ),
        },
    ];

    for sc in &scenarios {
        println!("scenario: {} ({})", sc.name, sc.workload);
        println!(
            "  {:<11} {:>3} {:>9} {:>9} {:>8} {:>13} {:>15}",
            "mode", "thr", "wall(s)", "loop(s)", "policy", "DRAM cycles", "sim cycles/s"
        );
        for s in &sc.modes {
            println!(
                "  {:<11} {:>3} {:>9.3} {:>9.3} {:>8.3} {:>13} {:>15.0}",
                s.mode,
                s.threads_effective,
                s.wall_s,
                s.loop_s,
                s.policy_s,
                s.mem.cycles,
                s.cycles_per_sec(),
            );
        }
        print!("  speedup: {:.2}x", sc.speedup());
        if let Some(st) = sc.speedup_threaded() {
            print!(
                " | threaded: {:.2}x (walk scaling {:.2}x)",
                st,
                sc.thread_scaling().unwrap()
            );
        }
        println!(" | statistics bit-identical: {}\n", sc.identical());
        assert!(
            sc.identical(),
            "a walk mode diverged from the per-cycle reference — simulator bug"
        );
        if sc.name == "contention-4c2ch" {
            // Background-paced relocation must stay off the demand
            // critical path: zero stall cycles in every mode, serial or
            // threaded.
            for s in &sc.modes {
                assert_eq!(
                    s.mem.relocation_stall_cycles, 0,
                    "{} (threads={}) charged relocation stall cycles in the \
                     background-paced contention cell",
                    s.mode, s.threads_effective
                );
            }
        }
    }

    // The executor axis: every mode's effective thread count must be
    // the requested count clamped to the host's cores. On a 1-core host
    // the threaded lane therefore runs serial — the pool never fans out
    // past physical parallelism, which is the fix for the 2-thread
    // regression v2 measured (thread_scaling 0.92 with spawned workers
    // serializing on one core).
    let host_parallelism = clr_sim::host_parallelism();
    for sc in &scenarios {
        for s in &sc.modes {
            assert_eq!(
                s.threads_effective,
                s.threads_requested.min(host_parallelism),
                "{}/{}: resolve-time clamp not applied",
                sc.name,
                s.mode
            );
        }
    }

    let json = json_report(scale, &scenarios, host_parallelism);
    println!("--- machine-readable (clr-dram/sim-throughput/v4) ---");
    print!("{json}");
    let out = "BENCH_sim_throughput.json";
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
