//! Batched fleet execution on the workspace's job-parallel loop.
//!
//! [`run_fleet`] turns every [`InstanceSpec`] into one whole-instance
//! task of a single [`Executor`] batch. Tasks are self-contained (each
//! simulates its own system, plus alone-run baselines for multi-tenant
//! slowdowns) and [`Executor::run_batch`] returns results in task
//! order, so the fused report is bit-identical for any lane count —
//! lanes are a host-speed knob, exactly like the in-run channel walk's
//! `threads`.

use clr_memsim::migrate::RelocationConfig;
use clr_memsim::Executor;
use clr_policy::policy::PolicyConstraints;
use clr_sim::experiment::policies::{policy_cluster, policy_mem_config};
use clr_sim::{
    host_parallelism, per_core_seed, run_policy_workloads, run_workloads, PolicyRunConfig,
    RunConfig,
};

use crate::report::{FleetReport, InstanceResult};
use crate::spec::{FleetSpec, InstanceSpec};

/// The base run configuration for one instance: the policy sweep's
/// 16 MiB small-system cell, widened to the instance's channel count.
fn instance_run_config(spec: &InstanceSpec, tenant_budget: u64, seed: u64) -> RunConfig {
    let mut mem = policy_mem_config(spec.fraction_hp);
    mem.geometry.channels = spec.channels;
    mem.placement = spec.placement;
    if spec.background_relocation {
        mem.relocation = RelocationConfig::background();
    }
    RunConfig {
        mem,
        cluster: policy_cluster(),
        budget_insts: tenant_budget,
        warmup_insts: spec.warmup_insts,
        seed,
        skip_ahead: true,
        trace: None,
        metrics: None,
        // Instances are the unit of parallelism here; their internal
        // channel walk stays serial (1–2 channels, tiny windows).
        threads: 1,
        clamp_threads: true,
        // Attribution on for every instance: the fleet report fuses
        // per-cause blame distributions across the whole roster.
        blame: true,
    }
}

/// Runs one instance to completion: the shared run, then — for
/// multi-tenant instances — one alone run per tenant (same system,
/// seeded with [`per_core_seed`] so each tenant replays the identical
/// trace it saw in the shared run) to price contention as
/// `alone_ipc / shared_ipc` slowdowns.
pub fn run_instance(spec: &InstanceSpec) -> InstanceResult {
    let run_one = |tenants: &[clr_trace::workload::Workload], seed: u64| match &spec.policy {
        Some(policy) => {
            let cfg = PolicyRunConfig::new(
                instance_run_config(spec, spec.budget_insts, seed),
                *policy,
                // 512 matches the smoke contention cell: enough for
                // real adaptation, but one epoch's stall batch stays
                // bounded on churny policies.
                PolicyConstraints {
                    max_hp_fraction: spec.capacity_budget,
                    max_transitions_per_epoch: 512,
                },
                spec.epoch_dram_cycles,
            );
            let r = run_policy_workloads(tenants, &cfg);
            let (loss, hp) = (r.avg_capacity_loss(), r.final_hp_fraction);
            (r.run, loss, hp)
        }
        None => {
            let r = run_workloads(tenants, &instance_run_config(spec, spec.budget_insts, seed));
            // A static layout forfeits half of each high-performance
            // row's capacity for the whole run.
            (r, spec.fraction_hp / 2.0, spec.fraction_hp)
        }
    };

    let (shared, capacity_forfeited, final_hp_fraction) = run_one(&spec.tenants, spec.seed);
    let slowdowns: Vec<f64> = if spec.tenants.len() > 1 {
        spec.tenants
            .iter()
            .enumerate()
            .map(|(core, w)| {
                let (alone, _, _) =
                    run_one(std::slice::from_ref(w), per_core_seed(spec.seed, core));
                alone.ipc[0] / shared.ipc[core]
            })
            .collect()
    } else {
        vec![1.0]
    };

    InstanceResult {
        id: spec.id,
        seed: spec.seed,
        channels: spec.channels,
        tenant_names: spec.tenants.iter().map(|w| w.name()).collect(),
        policy_label: spec.policy_label(),
        relocation_label: spec.relocation_label(),
        budget_insts: spec.budget_insts,
        ipc: shared.ipc.clone(),
        slowdowns,
        dram_cycles: shared.dram_cycles,
        energy_j: shared.energy.total_j(),
        migration_energy_j: shared.energy.migration_j,
        capacity_forfeited,
        final_hp_fraction,
        skip_profile: shared.skip_profile.clone(),
        mem: shared.mem,
    }
}

/// Runs the whole fleet as one batch and fuses the report.
///
/// `pool_threads` is clamped to the host's available parallelism (the
/// same resolve-time clamp as [`RunConfig::clamp_threads`]) — on a
/// 1-core host every instance runs inline on the calling thread.
/// The returned report is byte-for-byte identical for every
/// `pool_threads` value: jobs are independent and results come back in
/// instance order.
pub fn run_fleet(spec: &FleetSpec, pool_threads: usize) -> FleetReport {
    let lanes = pool_threads.max(1).min(host_parallelism());
    let pool = Executor::new(lanes);
    let tasks: Vec<_> = spec
        .instances
        .iter()
        .map(|inst| move || run_instance(inst))
        .collect();
    let instances = pool.run_batch(tasks);
    FleetReport::fuse(spec, instances, pool_threads, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_sim::Scale;

    /// The determinism contract at crate level: the fused JSON is
    /// byte-identical whether instances run inline (1 lane) or on
    /// several threads. (The root-level `fleet_determinism` test covers
    /// larger rosters and more lane counts.)
    #[test]
    fn pool_size_does_not_change_the_report() {
        let spec = FleetSpec::synth(6, 11, Scale::Smoke);
        let a = run_fleet(&spec, 1);
        // Bypass the host clamp to force real threads even on a 1-core
        // host.
        let pool = Executor::new(3);
        let tasks: Vec<_> = spec
            .instances
            .iter()
            .map(|inst| move || run_instance(inst))
            .collect();
        let b = FleetReport::fuse(&spec, pool.run_batch(tasks), 3, 3);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn multi_tenant_instances_report_per_tenant_slowdowns() {
        let spec = FleetSpec::synth(24, 11, Scale::Smoke);
        let inst = spec
            .instances
            .iter()
            .find(|i| i.tenants.len() > 1)
            .expect("roster of 24 contains a multi-tenant instance");
        let r = run_instance(inst);
        assert_eq!(r.slowdowns.len(), inst.tenants.len());
        // Sharing a channel can only slow a tenant down (equality up to
        // small scheduling luck; allow a hair below 1.0).
        for &s in &r.slowdowns {
            assert!(s > 0.9, "slowdown {s} out of range");
        }
    }
}
