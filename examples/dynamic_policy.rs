//! Dynamic capacity-latency trade-off, end to end: a hysteresis policy
//! tracks a drifting hot set and beats the static split that forfeits the
//! same capacity.
//!
//! Run with `cargo run --release --example dynamic_policy`.

use clr_dram::policy::policy::{PolicyConstraints, PolicySpec};
use clr_dram::sim::experiment::policies::{
    epoch_cycles, phase_workload, policy_cluster, policy_mem_config,
};
use clr_dram::sim::policyrun::{run_policy_workloads, PolicyRunConfig};
use clr_dram::sim::system::RunConfig;
use clr_dram::sim::Scale;

fn run(policy: PolicySpec, initial_fraction: f64, budget: f64, scale: Scale) {
    let base = RunConfig {
        mem: policy_mem_config(initial_fraction),
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
        policy,
        PolicyConstraints {
            max_hp_fraction: budget,
            max_transitions_per_epoch: 512,
        },
        epoch_cycles(scale),
    );
    let r = run_policy_workloads(&[phase_workload(scale)], &cfg);
    println!(
        "  {:<14} IPC {:.4} | energy {:.3} mJ | avg capacity loss {:>4.1}% | {} transitions",
        r.policy,
        r.run.ipc[0],
        r.run.energy.total_j() * 1e3,
        if matches!(policy, PolicySpec::StaticSplit { .. }) {
            initial_fraction / 2.0 * 100.0
        } else {
            r.avg_capacity_loss() * 100.0
        },
        r.policy_stats.transitions_applied,
    );
}

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!(
        "phase-shifting workload on the scaled-down policy system (scale: {}):\n",
        scale.label()
    );
    println!("static splits (the paper's fixed layouts):");
    run(PolicySpec::StaticSplit { fraction: 0.0 }, 0.0, 0.0, scale);
    run(
        PolicySpec::StaticSplit { fraction: 0.25 },
        0.25,
        0.25,
        scale,
    );
    println!("\ndynamic policies under a 25% row budget (≤ 12.5% capacity loss):");
    run(PolicySpec::Hysteresis, 0.0, 0.25, scale);
    run(PolicySpec::TopKHotness, 0.0, 0.25, scale);
    println!(
        "\nhysteresis should land near (or above) static-25's IPC while \
         forfeiting less capacity,\nand far above static-00 — the dynamic \
         trade-off of the paper's title."
    );
}
