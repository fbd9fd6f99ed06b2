//! Dynamic capacity-latency trade-off, end to end: a hysteresis policy
//! tracks a drifting hot set and beats the static split that forfeits the
//! same capacity.
//!
//! Run with `cargo run --release --example dynamic_policy`.

use clr_dram::memsim::migrate::RelocationConfig;
use clr_dram::policy::policy::PolicySpec;
use clr_dram::sim::experiment::policies::{phase_workload, CellSpec};
use clr_dram::sim::policyrun::run_policy_workloads;
use clr_dram::sim::Scale;

fn run(policy: PolicySpec, budget: f64, scale: Scale) {
    let cell = CellSpec {
        budget,
        reloc: RelocationConfig::default(),
        ..CellSpec::new(policy, vec![phase_workload(scale)], scale)
    };
    let mut cfg = cell.run_config(42, true);
    cfg.base.blame = false;
    let r = run_policy_workloads(&cell.workloads, &cfg);
    println!(
        "  {:<14} IPC {:.4} | energy {:.3} mJ | avg capacity loss {:>4.1}% | {} transitions",
        r.policy,
        r.run.ipc[0],
        r.run.energy.total_j() * 1e3,
        cell.capacity_loss(&r) * 100.0,
        r.policy_stats.transitions_applied,
    );
}

fn main() {
    let scale = clr_bench::scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!(
        "phase-shifting workload on the scaled-down policy system (scale: {}):\n",
        scale.label()
    );
    println!("static splits (the paper's fixed layouts):");
    run(PolicySpec::StaticSplit { fraction: 0.0 }, 0.0, scale);
    run(PolicySpec::StaticSplit { fraction: 0.25 }, 0.25, scale);
    println!("\ndynamic policies under a 25% row budget (≤ 12.5% capacity loss):");
    run(PolicySpec::Hysteresis, 0.25, scale);
    run(PolicySpec::TopKHotness, 0.25, scale);
    println!(
        "\nhysteresis should land near (or above) static-25's IPC while \
         forfeiting less capacity,\nand far above static-00 — the dynamic \
         trade-off of the paper's title."
    );
}
