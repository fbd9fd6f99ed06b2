//! Cross-channel capacity rebalancing, end to end: a 2-channel system
//! under a channel-skewed hot set, with and without the frame
//! rebalancer — per-channel load, capacity, and IPC before/after.
//!
//! Both cores pin their hot lines to channel 0, so channel 0's bus
//! saturates while channel 1 idles. Demand-proportional *budget*
//! rebalancing (the baseline) hands channel 0 most of the fast-row
//! budget but cannot move the traffic; the cross-channel placement mode
//! additionally evacuates hot overflow rows into channel 1's free
//! frames — whole-row background migration jobs, remapped through the
//! system's `RemapTable` so the rows stay addressable — and the load
//! follows the data.
//!
//! Run with `cargo run --release --example capacity_rebalance`.

use clr_dram::memsim::frames::DestinationPicker;
use clr_dram::memsim::migrate::RelocationConfig;
use clr_dram::policy::budget::BudgetSplit;
use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::sim::experiment::policies::{
    epoch_cycles, policy_cluster, policy_mem_config, skewed_workloads,
};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use clr_dram::sim::system::RunConfig;
use clr_dram::sim::Scale;

fn run(placement: DestinationPicker, scale: Scale) -> PolicyRunResult {
    let mut mem = policy_mem_config(0.0);
    mem.geometry.channels = 2;
    mem.relocation = RelocationConfig::background_paced();
    mem.placement = placement;
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: scale.budget_insts(),
        warmup_insts: scale.warmup_insts(),
        seed: 42,
        skip_ahead: true,
        trace: None,
        metrics: None,
        threads: 1,
        clamp_threads: true,
        blame: false,
    };
    let cfg = PolicyRunConfig::new(
        base,
        PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
        PolicyConstraints {
            max_hp_fraction: 0.25,
            max_transitions_per_epoch: 512,
        },
        epoch_cycles(scale),
    )
    .with_budget_split(BudgetSplit::demand_proportional());
    run_policy_workloads(&skewed_workloads(scale), &cfg)
}

fn report(label: &str, r: &PolicyRunResult) {
    println!("{label} ({})", r.policy);
    let total_cols: u64 = r
        .run
        .mem_per_channel
        .iter()
        .map(|s| s.reads + s.writes)
        .sum();
    for (ch, s) in r.run.mem_per_channel.iter().enumerate() {
        let share = (s.reads + s.writes) as f64 / total_cols.max(1) as f64;
        let (p50, p95, p99) = s.read_latency_percentiles();
        println!(
            "  channel {ch}: {:>5.1}% of column traffic | budget {:>5.1}% | \
             migration energy {:.3} mJ | read p50/p95/p99 {p50}/{p95}/{p99} cyc",
            share * 100.0,
            r.final_channel_budgets[ch] * 100.0,
            r.run.energy_per_channel[ch].migration_j * 1e3,
        );
    }
    println!(
        "  per-core IPC {} | frames moved {} | rows remapped {} | stall cycles {}",
        r.run
            .ipc
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" / "),
        r.run.mem.migration_fills,
        r.rows_remapped,
        r.run.mem.relocation_stall_cycles,
    );
}

fn main() {
    let scale = clr_bench::scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!(
        "capacity rebalancing on a channel-skewed hot set ({} scale)\n",
        scale.label()
    );
    let budget_only = run(DestinationPicker::SameBank, scale);
    report(
        "budget-only rebalancing (same-bank placement)",
        &budget_only,
    );
    println!();
    let frames = run(DestinationPicker::CrossChannel, scale);
    report("frame rebalancing (cross-channel placement)", &frames);

    let ipc = |r: &PolicyRunResult| r.run.ipc.iter().sum::<f64>() / r.run.ipc.len() as f64;
    println!(
        "\nmean IPC {:.4} → {:.4} ({:+.1}%) with {} whole-row frame moves landed",
        ipc(&budget_only),
        ipc(&frames),
        (ipc(&frames) / ipc(&budget_only) - 1.0) * 100.0,
        frames.run.mem.migration_fills,
    );
}
