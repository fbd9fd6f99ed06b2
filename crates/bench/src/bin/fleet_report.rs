//! Fleet-scale batched simulation report (`clr-dram/fleet/v2`).
//!
//! Synthesizes a deterministic heterogeneous roster
//! ([`FleetSpec::synth`]), runs every instance as one whole-instance
//! task of a job-parallel batch, fuses the fleet
//! read-latency distribution / slowdowns / capacity / energy / blame
//! budgets / skip-ahead profile, and evaluates the relocation-aware
//! fleet SLO (background instances gated at the doubled fleet
//! slowdown bound; stall-mode instances reported against the sweep
//! bound but `expected_fail`-annotated — see `fleet_slo_spec`).
//! Writes the deterministic JSON to `BENCH_fleet.json`.
//!
//! Knobs:
//!
//! * `CLR_FLEET_N` — instance count (default 256);
//! * `CLR_THREADS` — pool threads requested (clamped to the host's
//!   available parallelism, default 1);
//! * `CLR_FLEET_CHECK=1` — re-run the fleet on a 1-lane pool and
//!   assert the JSON is byte-identical (the CI determinism gate).
//!
//! Host wall-clock and the process's peak RSS (the last line) go to
//! stdout only — the JSON is a pure function of `(roster, seed,
//! scale)`, so the determinism check is a string comparison.

use clr_bench::threads_from_env;
use clr_fleet::{run_fleet, FleetSpec};

const FLEET_SEED: u64 = 0xF1EE7;

fn main() {
    let scale = clr_bench::startup("fleet report (batched heterogeneous instances)");
    let n = std::env::var("CLR_FLEET_N")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(256);
    let pool_threads = threads_from_env();

    let spec = FleetSpec::synth(n, FLEET_SEED, scale);
    let t0 = std::time::Instant::now();
    let report = run_fleet(&spec, pool_threads);
    let host_s = t0.elapsed().as_secs_f64();
    let json = report.to_json();

    println!(
        "  fleet: {} instances, pool threads {} requested / {} effective, {:.2}s host",
        report.instances.len(),
        report.pool_threads_requested,
        report.pool_threads_effective,
        host_s,
    );
    let h = &report.fused_read_latency;
    println!(
        "  fused read latency: count {}, p50 {}, p95 {}, p99 {} DRAM cycles",
        h.count(),
        h.p50(),
        h.p95(),
        h.p99(),
    );
    println!(
        "  ipc geomean {:.4} | max tenant slowdown {:.3}x (background {:.3}x, stall {:.3}x) | \
         mean capacity forfeited {:.3} | migration energy {:.3e} J",
        report.ipc_geomean,
        report.max_tenant_slowdown,
        report.max_background_slowdown,
        report.max_stall_slowdown,
        report.mean_capacity_forfeited,
        report.total_migration_energy_j,
    );
    let total_wait = report.fused_read_blame.total_cycles();
    let anatomy = report
        .fused_read_blame
        .dominant()
        .into_iter()
        .take(4)
        .map(|(cause, cycles)| format!("{} {}%", cause.label(), cycles * 100 / total_wait.max(1)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("  fleet wait anatomy (top causes): {anatomy}");
    let sp = &report.fused_skip_profile;
    println!(
        "  fused skip profile: {:.1}% cycles skipped, {:.3} events/kcycle, jump p95 {}",
        sp.jump_coverage() * 100.0,
        sp.events_per_kilocycle(),
        sp.jumps.p95(),
    );
    println!(
        "  slo[{}]: {}",
        report.slo.spec,
        if report.slo.pass() { "PASS" } else { "FAIL" }
    );

    if std::env::var("CLR_FLEET_CHECK").is_ok() {
        let t1 = std::time::Instant::now();
        let serial = run_fleet(&spec, 1).to_json();
        assert_eq!(
            json, serial,
            "fleet JSON must be byte-identical across pool sizes"
        );
        println!(
            "  determinism check: pool={} == pool=1, byte-identical ({:.2}s host)",
            pool_threads,
            t1.elapsed().as_secs_f64(),
        );
    }

    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("\n  wrote BENCH_fleet.json ({} bytes)", json.len());
    if let Some(mib) = clr_bench::peak_rss_mib() {
        println!("  host peak RSS: {mib:.1} MiB");
    }
}
