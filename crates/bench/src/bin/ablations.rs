//! Runs four system-level ablations and prints their simulated impact:
//! early termination of charge restoration, the FR-FCFS cap, the timeout
//! row policy, and heterogeneous refresh of high-performance rows.

use clr_memsim::config::{ClrModeConfig, MemConfig};
use clr_sim::experiment::mem_config;
use clr_sim::system::{run_workloads, RunConfig};
use clr_trace::apps::by_name;
use clr_trace::workload::Workload;

fn ipc_of(mem: MemConfig, budget: u64) -> f64 {
    let w = Workload::App(*by_name("429.mcf").expect("mcf exists"));
    run_workloads(&[w], &RunConfig::paper(mem, budget, budget / 10, 77)).ipc[0]
}

fn main() {
    let scale = clr_bench::startup("Ablations");
    let budget = scale.budget_insts();
    let base = ipc_of(mem_config(None, 64.0), budget);

    println!("ablation: early termination of charge restoration (429.mcf, 100% HP)");
    for (label, et) in [("with E.T.   ", true), ("without E.T.", false)] {
        let mut cfg = mem_config(Some(1.0), 64.0);
        cfg.clr = ClrModeConfig::Clr {
            fraction_hp: 1.0,
            hp_refw_ms: 64.0,
            early_termination: et,
        };
        let ipc = ipc_of(cfg, budget);
        println!(
            "  {label}: IPC {:+.1}% vs baseline DDR4",
            (ipc / base - 1.0) * 100.0
        );
    }

    println!("\nablation: FR-FCFS cap (four-core H mix; the cap only matters under interference)");
    let mix = clr_trace::mix::build_mixes(clr_trace::mix::MixGroup::High, 1, 7).remove(0);
    let mix_ws: Vec<Workload> = mix.apps.iter().map(|a| Workload::App(**a)).collect();
    let mix_budget = budget / 4;
    let mix_ipc = |cap: u32| -> f64 {
        let mut cfg = mem_config(None, 64.0);
        cfg.scheduler.cap = cap;
        let r = run_workloads(
            &mix_ws,
            &RunConfig::paper(cfg, mix_budget, mix_budget / 10, 77),
        );
        r.ipc.iter().sum()
    };
    let cap4 = mix_ipc(4);
    for cap in [1u32, 2, 4, 8, 16] {
        let ipc = mix_ipc(cap);
        println!(
            "  cap {cap:>2}: throughput {:+.2}% vs cap 4 default",
            (ipc / cap4 - 1.0) * 100.0
        );
    }

    println!("\nablation: timeout row policy (baseline DDR4)");
    for timeout in [30.0f64, 60.0, 120.0, 240.0, 480.0] {
        let mut cfg = mem_config(None, 64.0);
        cfg.scheduler.row_timeout_ns = timeout;
        let ipc = ipc_of(cfg, budget);
        println!(
            "  {timeout:>4} ns: IPC {:+.2}% vs 120 ns default",
            (ipc / base - 1.0) * 100.0
        );
    }

    println!("\nablation: refresh heterogeneity (50% HP rows, 429.mcf)");
    for (label, refw) in [
        ("tRFC-only (64 ms window)", 64.0),
        ("tRFC + 3x window (194 ms)", 194.0),
    ] {
        let ipc = ipc_of(mem_config(Some(0.5), refw), budget);
        println!(
            "  {label}: IPC {:+.1}% vs baseline",
            (ipc / base - 1.0) * 100.0
        );
    }
}
