//! SLO verdict for the CI smoke contention cell, with the telemetry
//! inertness contract re-proven on the way.
//!
//! Runs the policy sweep's own 2-core × 2-channel util-threshold
//! contention cell (the even-split entry of its contention roster, as
//! `contention_cell` builds it for the sweep) twice — once with
//! continuous telemetry off, once on — and asserts the simulated
//! outcome is bit-identical (the telemetry run also attributes wait
//! causes, so the same differential proves the blame ledger inert after
//! zeroing its own fields). Then evaluates the cell's [`cell_slo_spec`]
//! against the fused system series, plus a scalar objective holding the
//! final high-performance fraction under the policy budget, and writes
//! the machine-checkable verdict (`clr-dram/slo/v1`) to
//! `BENCH_slo_report.json`. Exits nonzero if the roster lacks the cell
//! or the cell misses its SLO.

use clr_memsim::MemStats;
use clr_obs::{Json, ScalarObjective, SloReport};
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::PolicySpec;
use clr_sim::experiment::policies::{cell_slo_spec, contention_cell, contention_roster, CellSpec};
use clr_sim::policyrun::{run_policy_workloads, PolicyRunResult};
use clr_sim::scale::Scale;

const SEED: u64 = 42;

/// The certified cell and its sweep label: the 2-core × 2-channel
/// util-threshold even-split entry of the sweep's contention roster.
fn certified_cell(scale: Scale) -> Option<(String, CellSpec)> {
    contention_roster(scale)
        .iter()
        .find(|c| {
            c.cores == 2
                && c.channels == 2
                && c.split == BudgetSplit::EvenSplit
                && matches!(c.policy, PolicySpec::UtilizationThreshold { .. })
        })
        .map(|c| contention_cell(scale, c))
}

/// Runs `cell` at the report's seed, with continuous telemetry over the
/// sweep's window and wait-cause attribution both on or both off.
fn run(cell: &CellSpec, observed: bool) -> PolicyRunResult {
    let skip_ahead = std::env::var("CLR_FORCE_PER_CYCLE").is_err();
    let mut cfg = cell.run_config(SEED, skip_ahead);
    cfg.base.metrics = observed.then(|| cell.metrics_window());
    cfg.base.blame = observed;
    run_policy_workloads(&cell.workloads, &cfg)
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

fn emit_json(scale: Scale, cell: &CellSpec, workload: &str, report: &SloReport, mem: &MemStats) {
    let blame = mem.read_blame.summary_json(mem.read_latency_hist.sum());
    let doc = Json::Obj(vec![
        ("schema", "clr-dram/slo/v1".into()),
        ("scale", scale.label().into()),
        ("policy", cell.policy.label().as_str().into()),
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
    let Some((workload, cell)) = certified_cell(scale) else {
        eprintln!("slo_report: no 2core/2ch util-threshold even-split contention cell");
        std::process::exit(1);
    };

    println!("running the 2core/2ch util-threshold cell, metrics off vs on ...");
    let off = run(&cell, false);
    let on = run(&cell, true);
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
    let mut spec = cell_slo_spec(cell.reloc.is_background());
    spec.scalars.push(ScalarObjective {
        name: "final_hp_fraction_milli",
        value: (on.final_hp_fraction * 1000.0).round() as u64,
        max: (cell.budget * 1000.0).round() as u64,
        expected_fail: false,
    });
    let report = spec.evaluate(&system);

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

    emit_json(scale, &cell, &workload, &report, mem);

    assert!(
        report.pass(),
        "the smoke contention cell missed its SLO spec"
    );
    println!("\nSLO verdict: PASS");
}
