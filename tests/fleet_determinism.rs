//! The fleet determinism contract, enforced end to end: the
//! `clr-dram/fleet/v2` JSON is a pure function of `(roster, seed,
//! scale)` — **byte-identical** for every executor lane count, because
//! instances are independent whole-instance tasks whose results come
//! back in roster order and the JSON carries no host wall-clock.
//!
//! Lane counts above 1 run on real threads (the caller plus scoped
//! threads claiming tasks in order), bypassing the host-parallelism
//! clamp so the contract is exercised even on 1-core CI hosts — the
//! fleet analogue of `tests/skip_ahead_differential.rs`'s threaded
//! lanes.

use clr_dram::fleet::{run_fleet, run_instance, FleetReport, FleetSpec};
use clr_dram::memsim::Executor;
use clr_dram::sim::Scale;

/// Runs `spec` on exactly `lanes` lanes, without the host-parallelism
/// clamp [`run_fleet`] applies.
fn run_with_forced_lanes(spec: &FleetSpec, lanes: usize) -> FleetReport {
    let pool = Executor::new(lanes);
    let tasks: Vec<_> = spec
        .instances
        .iter()
        .cloned()
        .map(|inst| move || run_instance(&inst))
        .collect();
    FleetReport::fuse(spec, pool.run_batch(tasks), lanes, lanes)
}

#[test]
fn fleet_json_is_byte_identical_across_pool_sizes() {
    let spec = FleetSpec::synth(24, 0xF1EE7, Scale::Smoke);
    let baseline = run_fleet(&spec, 1).to_json();
    for lanes in [2, 4] {
        let pooled = run_with_forced_lanes(&spec, lanes).to_json();
        assert_eq!(
            baseline, pooled,
            "fleet JSON diverged between pool sizes 1 and {lanes}"
        );
    }
}

#[test]
fn fleet_report_covers_a_heterogeneous_roster() {
    let spec = FleetSpec::synth(24, 0xF1EE7, Scale::Smoke);
    let report = run_fleet(&spec, 2);
    assert_eq!(report.instances.len(), 24);

    // The roster really is heterogeneous — the fleet is not 24 copies
    // of one system.
    let policies: std::collections::BTreeSet<_> = report
        .instances
        .iter()
        .map(|i| i.policy_label.clone())
        .collect();
    assert!(policies.len() >= 3, "policies: {policies:?}");
    let channels: std::collections::BTreeSet<_> =
        report.instances.iter().map(|i| i.channels).collect();
    assert_eq!(channels.len(), 2, "1- and 2-channel instances");
    assert!(
        report.instances.iter().any(|i| i.tenant_names.len() > 1),
        "multi-tenant instances present"
    );

    // The fused distribution is the exact bucket fold of the instance
    // histograms — counts add up and percentiles are ordered.
    let total_reads: u64 = report
        .instances
        .iter()
        .map(|i| i.mem.read_latency_hist.count())
        .sum();
    assert_eq!(report.fused_read_latency.count(), total_reads);
    let lat = &report.fused_read_latency;
    assert!(lat.p50() > 0 && lat.p50() <= lat.p95() && lat.p95() <= lat.p99());

    // The verdict evaluates both objective families, and the
    // relocation-aware scalars carry their gating semantics: the
    // background bound gates, the stall bound is expected-fail.
    assert_eq!(report.slo.windows, 24);
    assert!(report
        .slo
        .scalars
        .iter()
        .any(|s| s.name == "fleet_read_p99_cycles"));
    let background = report
        .slo
        .scalars
        .iter()
        .find(|s| s.name == "max_background_slowdown_milli")
        .expect("background scalar present");
    assert!(!background.expected_fail);
    let stall = report
        .slo
        .scalars
        .iter()
        .find(|s| s.name == "max_stall_slowdown_milli")
        .expect("stall scalar present");
    assert!(stall.expected_fail);

    // The fused blame distribution reconciles exactly with the fused
    // latency mass (the per-instance exactness contract folds).
    assert_eq!(
        report.fused_read_blame.total_cycles(),
        report.fused_read_latency.sum()
    );
    // The fused skip profile really aggregated the instances' walks.
    assert!(report.fused_skip_profile.ticked_cycles > 0);

    // And the JSON round-trips its own headline numbers.
    let json = report.to_json();
    assert!(json.starts_with("{\n  \"schema\": \"clr-dram/fleet/v2\""));
    assert!(json.contains(&format!("\"instances_n\": {}", report.instances.len())));
    assert!(json.contains(&format!("\"p99\": {}", lat.p99())));
    assert!(json.contains("\"max_background_slowdown\""));
    assert!(json.contains("\"blame\""));
    assert!(json.contains("\"skip_profile\""));
}
