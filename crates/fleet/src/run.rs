//! Batched fleet execution on the workspace's job-parallel loop.
//!
//! [`run_fleet`] turns every [`InstanceSpec`] into one whole-instance
//! task of a single [`Executor`] batch. Tasks are self-contained (each
//! simulates its own system, plus alone-run baselines for multi-tenant
//! slowdowns) and [`Executor::run_batch`] returns results in task
//! order, so the fused report is bit-identical for any lane count —
//! lanes are a host-speed knob, exactly like the in-run channel walk's
//! `threads`.

use clr_core::capacity::capacity_loss_fraction;
use clr_memsim::Executor;
use clr_sim::experiment::policies::CellSpec;
use clr_sim::{host_parallelism, run_policy_workloads, run_workloads};

use crate::report::{FleetReport, InstanceResult};
use crate::spec::{FleetSpec, InstanceSpec};

/// Runs one instance to completion: the shared run of its
/// [`InstanceSpec::cell`], then — for multi-tenant instances — each
/// tenant's [`CellSpec::alone`] baseline, to price contention as
/// `alone_ipc / shared_ipc` slowdowns. Every run attributes wait
/// causes, which the fleet report fuses across the roster; instances
/// are the unit of parallelism here, so each run's channel walk stays
/// serial.
pub fn run_instance(spec: &InstanceSpec) -> InstanceResult {
    let run_one = |cell: &CellSpec, seed: u64| {
        let cfg = cell.run_config(seed, true);
        match spec.policy {
            Some(_) => {
                let r = run_policy_workloads(&cell.workloads, &cfg);
                let (loss, hp) = (r.avg_capacity_loss(), r.final_hp_fraction);
                (r.run, loss, hp)
            }
            // A static layout runs without a policy runtime and forfeits
            // half of each high-performance row's capacity for the whole
            // run.
            None => {
                let r = run_workloads(&cell.workloads, &cfg.base);
                let loss = capacity_loss_fraction(spec.fraction_hp);
                (r, loss, spec.fraction_hp)
            }
        }
    };

    let cell = spec.cell();
    let (shared, capacity_forfeited, final_hp_fraction) = run_one(&cell, spec.seed);
    let slowdowns: Vec<f64> = if spec.tenants.len() > 1 {
        cell.alone(spec.seed)
            .enumerate()
            .map(|(core, (alone, seed))| run_one(&alone, seed).0.ipc[0] / shared.ipc[core])
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
/// same resolve-time clamp as
/// [`RunConfig::clamp_threads`](clr_sim::RunConfig::clamp_threads)) — on a
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
