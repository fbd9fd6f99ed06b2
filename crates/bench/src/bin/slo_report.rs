//! SLO verdict for the CI smoke contention cell, with the telemetry
//! inertness contract re-proven on the way.
//!
//! Runs the 2-core × 2-channel util-threshold contention cell (the same
//! shape the smoke `policy_sweep` roster drives through the sharded
//! channel path) twice — once with continuous telemetry off, once on —
//! and asserts the simulated outcome is bit-identical (the telemetry
//! run also attributes wait causes, so the same differential proves the
//! blame ledger inert after zeroing its own fields). Then evaluates
//! the cell's [`cell_slo_spec`] against the fused system series, plus a
//! scalar objective holding the final high-performance fraction under
//! the policy budget, and writes the machine-checkable verdict
//! (`clr-dram/slo/v1`) to `BENCH_slo_report.json`. Exits nonzero if the
//! cell misses its SLO.

use clr_obs::{Json, MetricsConfig, ScalarObjective, SloReport};
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::{PolicyConstraints, PolicySpec};
use clr_sim::experiment::policies::{
    cell_slo_spec, contention_workloads, epoch_cycles, policy_cluster, policy_mem_config,
    DYNAMIC_BUDGET,
};
use clr_sim::policyrun::{run_policy_workloads, PolicyRunConfig, PolicyRunResult};
use clr_sim::scale::Scale;
use clr_sim::system::RunConfig;
use memsim::frames::DestinationPicker;
use memsim::migrate::RelocationConfig;

use clr_memsim as memsim;

const SEED: u64 = 42;

/// The smoke contention cell's exact shape: two cores (drifting +
/// stable hot sets) over two channels, util-threshold policy,
/// even budget split, background-paced relocation.
fn run(scale: Scale, metrics: Option<MetricsConfig>, blame: bool) -> PolicyRunResult {
    let mut mem = policy_mem_config(0.0);
    mem.geometry.channels = 2;
    mem.refresh_enabled = true;
    mem.relocation = RelocationConfig::background_paced();
    mem.placement = DestinationPicker::SameBank;
    let base = RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: scale.budget_insts(),
        warmup_insts: scale.warmup_insts(),
        seed: SEED,
        skip_ahead: std::env::var("CLR_FORCE_PER_CYCLE").is_err(),
        trace: None,
        metrics,
        threads: 1,
        clamp_threads: true,
        blame,
    };
    let cfg = PolicyRunConfig::new(
        base,
        PolicySpec::UtilizationThreshold { hot: 4, cold: 1 },
        PolicyConstraints {
            max_hp_fraction: DYNAMIC_BUDGET,
            max_transitions_per_epoch: 512,
        },
        epoch_cycles(scale),
    )
    .with_budget_split(BudgetSplit::EvenSplit);
    run_policy_workloads(&contention_workloads(scale, 2), &cfg)
}

/// Panics if the two runs' simulated outcomes differ anywhere — the
/// telemetry inertness contract, re-proven on every invocation.
fn assert_inert(off: &PolicyRunResult, on: &PolicyRunResult) {
    assert_eq!(off.run.ipc, on.run.ipc, "metrics changed IPC");
    assert_eq!(off.run.cpu_cycles, on.run.cpu_cycles);
    assert_eq!(off.run.dram_cycles, on.run.dram_cycles);
    // The telemetry run also attributed wait causes; zeroing only the
    // blame fields must make the statistics bit-identical — anything
    // else differing means attribution perturbed the simulation.
    let mut on_mem = on.run.mem.clone();
    on_mem.read_blame.clear();
    on_mem.write_blame.clear();
    assert_eq!(off.run.mem, on_mem, "metrics/blame changed DRAM statistics");
    let mut on_pc = on.run.mem_per_channel.clone();
    for m in &mut on_pc {
        m.read_blame.clear();
        m.write_blame.clear();
    }
    assert_eq!(off.run.mem_per_channel, on_pc);
    assert_eq!(off.rows_remapped, on.rows_remapped);
    assert_eq!(off.final_hp_fraction, on.final_hp_fraction);
    assert!(off.run.metrics.is_none() && on.run.metrics.is_some());
}

fn emit_json(scale: Scale, workload: &str, report: &SloReport, mem: &clr_memsim::MemStats) {
    let blame = mem.read_blame.summary_json(mem.read_latency_hist.sum());
    let doc = Json::Obj(vec![
        ("schema", "clr-dram/slo/v1".into()),
        ("scale", scale.label().into()),
        ("policy", "util-threshold".into()),
        ("workload", workload.into()),
        ("blame", blame),
        ("report", report.json()),
    ]);
    let json = format!("{doc}\n");
    let out = "BENCH_slo_report.json";
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: could not write {out}: {e}");
    } else {
        println!("\nverdict written to {out}");
    }
    println!("\n--- machine-readable (clr-dram/slo/v1) ---");
    print!("{json}");
}

fn main() {
    let scale =
        clr_bench::startup("SLO report (continuous telemetry on the smoke contention cell)");

    println!("running the 2core/2ch util-threshold cell, metrics off vs on ...");
    let off = run(scale, None, false);
    let on = run(
        scale,
        Some(MetricsConfig {
            interval_cycles: epoch_cycles(scale),
            capacity: 4_096,
        }),
        true,
    );
    assert_inert(&off, &on);
    println!("inertness: outcomes bit-identical with telemetry + attribution enabled");

    // The attribution exactness contract, re-proven end to end: the
    // per-cause budgets sum to exactly the measured latency mass.
    let mem = &on.run.mem;
    assert_eq!(
        mem.read_blame.total_cycles(),
        mem.read_latency_hist.sum(),
        "read blame budgets must sum to the read latency mass"
    );
    assert_eq!(
        mem.write_blame.total_cycles(),
        mem.write_latency_hist.sum(),
        "write blame budgets must sum to the write latency mass"
    );
    println!("attribution: per-cause budgets sum exactly to measured latency");
    println!("\nread wait anatomy (cycles, permille of total):");
    let total = mem.read_blame.total_cycles();
    for (cause, cycles) in mem.read_blame.dominant() {
        println!(
            "  {:<16} {:>12} {:>5}‰",
            cause.label(),
            cycles,
            cycles * 1000 / total.max(1)
        );
    }

    let system = on.run.metrics.as_ref().expect("metrics enabled").system();
    let mut spec = cell_slo_spec(true);
    spec.scalars.push(ScalarObjective {
        name: "final_hp_fraction_milli",
        value: (on.final_hp_fraction * 1000.0).round() as u64,
        max: (DYNAMIC_BUDGET * 1000.0).round() as u64,
        expected_fail: false,
    });
    let report = spec.evaluate(&system);

    let workload = {
        let names = contention_workloads(scale, 2)
            .iter()
            .map(|w| w.name().split('_').next().unwrap_or("w").to_string())
            .collect::<Vec<_>>()
            .join("+");
        format!("2core/2ch:{names}")
    };
    println!("\ncell {workload}: {} windows evaluated", report.windows);
    for o in &report.objectives {
        println!(
            "  {:<28} <= {:<6} budget {:>5.1}% | violations {}/{} (allowed {}) | worst {} @ window {} | burn alerts {} | {}",
            o.metric.label(),
            o.max,
            o.error_budget * 100.0,
            o.violations,
            o.windows,
            o.allowed,
            o.worst_value,
            o.worst_window,
            o.burn_alerts,
            if o.pass { "PASS" } else { "FAIL" },
        );
        if !o.top_causes.is_empty() {
            let causes = o
                .top_causes
                .iter()
                .map(|(c, p)| format!("{c} {p}‰"))
                .collect::<Vec<_>>()
                .join(", ");
            println!("    └─ blamed on: {causes}");
        }
    }
    for s in &report.scalars {
        println!(
            "  {:<28} <= {:<6} | value {} | {}",
            s.name,
            s.max,
            s.value,
            if s.pass { "PASS" } else { "FAIL" },
        );
    }

    emit_json(scale, &workload, &report, mem);

    assert!(
        report.pass(),
        "the smoke contention cell missed its SLO spec"
    );
    println!("\nSLO verdict: PASS");
}
