//! Deterministic synthesis of heterogeneous fleet rosters.
//!
//! [`FleetSpec::synth`] expands `(count, seed, scale)` into a
//! reproducible set of [`InstanceSpec`]s. Every per-instance choice —
//! channel count, tenant mix, workload shapes, policy, relocation
//! model, placement, budgets — is drawn from a [splitmix64] stream
//! keyed on `(seed, instance id)`, so the roster is a pure function of
//! its inputs: same triple ⇒ identical roster ⇒ (with the in-order
//! batched runner) byte-identical fleet report.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use clr_memsim::frames::DestinationPicker;
use clr_memsim::migrate::RelocationConfig;
use clr_policy::budget::BudgetSplit;
use clr_policy::policy::PolicySpec;
use clr_sim::experiment::policies::{CellSpec, DYNAMIC_BUDGET};
use clr_sim::Scale;
use clr_trace::phase::PhaseShiftSpec;
use clr_trace::synthetic::{SyntheticKind, SyntheticSpec};
use clr_trace::workload::Workload;

/// One instance of the fleet: a complete small CLR-DRAM system plus
/// the tenants sharing it.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Fleet-unique instance id (index in the roster).
    pub id: u32,
    /// Master seed for the instance's trace generation (and, via
    /// [`clr_sim::per_core_seed`], its alone-run baselines).
    pub seed: u64,
    /// DRAM channels (the sweep geometry's channel knob).
    pub channels: u32,
    /// One workload per tenant core sharing the instance.
    pub tenants: Vec<Workload>,
    /// Dynamic mode-management policy, or `None` for a static layout
    /// frozen at [`InstanceSpec::fraction_hp`].
    pub policy: Option<PolicySpec>,
    /// Whether policy transition batches go through the background
    /// migration engine instead of the stall-the-world apply.
    pub background_relocation: bool,
    /// Relocation destination placement.
    pub placement: DestinationPicker,
    /// Initial (and, without a policy, permanent) high-performance row
    /// fraction.
    pub fraction_hp: f64,
    /// Global capacity budget handed to the policy runtime.
    pub capacity_budget: f64,
    /// Policy epoch length in DRAM cycles.
    pub epoch_dram_cycles: u64,
    /// Instructions each tenant core retires in the measurement window.
    pub budget_insts: u64,
    /// Warmup instructions per tenant core.
    pub warmup_insts: u64,
}

impl InstanceSpec {
    /// Stable label for the instance's mode-management configuration:
    /// the policy's own label, or `layout-NN` for a static layout at
    /// NN% high-performance rows.
    pub fn policy_label(&self) -> String {
        match &self.policy {
            Some(p) => p.label(),
            None => format!("layout-{:02.0}", self.fraction_hp * 100.0),
        }
    }

    /// Stable label for the relocation model.
    pub fn relocation_label(&self) -> &'static str {
        if self.background_relocation {
            "background"
        } else {
            "stall"
        }
    }

    /// The instance's shared run on the policy sweep's small system. A
    /// static layout names itself a static split at
    /// [`InstanceSpec::fraction_hp`] so that its cell starts at that
    /// fraction, but that policy is never run:
    /// [`run_instance`](crate::run_instance) runs the layout without a
    /// policy runtime, while a `static-NN` policy instance with the same
    /// draws runs one and so the same cell simulates differently. Fleet
    /// runs must not be deduplicated by [`CellSpec`].
    pub fn cell(&self) -> CellSpec {
        let fraction = self.fraction_hp;
        CellSpec {
            policy: self.policy.unwrap_or(PolicySpec::StaticSplit { fraction }),
            budget: self.capacity_budget,
            workloads: self.tenants.clone(),
            reloc: if self.background_relocation {
                RelocationConfig::background()
            } else {
                RelocationConfig::default()
            },
            channels: self.channels,
            split: BudgetSplit::EvenSplit,
            placement: self.placement,
            budget_insts: self.budget_insts,
            warmup_insts: self.warmup_insts,
            epoch_cycles: self.epoch_dram_cycles,
        }
    }
}

/// A whole fleet: the synthesis inputs plus the expanded roster.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Fleet master seed.
    pub seed: u64,
    /// Scale the per-instance budgets were derived from.
    pub scale: Scale,
    /// The instance roster, id order.
    pub instances: Vec<InstanceSpec>,
}

/// splitmix64: the standard 64-bit finalizer-based stream generator —
/// deterministic, stateless between calls, good enough to decorrelate
/// roster dimensions.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The drifting-hot-set phase workload sized so roughly eight phases
/// fit in `budget_insts`.
fn phase_workload_for(budget_insts: u64) -> PhaseShiftSpec {
    let spec = PhaseShiftSpec::paper_default();
    let accesses = (budget_insts as f64 / (spec.bubbles as f64 + 1.0) / 8.0) as u64;
    PhaseShiftSpec {
        accesses_per_phase: accesses.max(300),
        ..spec
    }
}

impl FleetSpec {
    /// Expands `(n, seed, scale)` into a deterministic heterogeneous
    /// roster of `n` instances.
    ///
    /// Heterogeneity axes (all drawn per instance from the seeded
    /// stream): 1–2 channels, 1–2 tenants, five workload shapes
    /// (drifting hot set, stable hot set, channel-skewed hot set,
    /// uniform random, stream), six mode-management configurations
    /// (two static layouts and four dynamic policies), stall vs
    /// background relocation, three destination placements, and
    /// per-instance instruction budgets jittered to 50–150% of the
    /// scale-derived base.
    pub fn synth(n: usize, seed: u64, scale: Scale) -> FleetSpec {
        let base_budget = (scale.budget_insts() / 16).clamp(2_000, 50_000);
        let instances = (0..n as u32)
            .map(|id| {
                // Key the stream on (seed, id) so inserting or removing
                // instances never perturbs the others' draws.
                let mut s = seed ^ (u64::from(id).wrapping_mul(0xA24B_AED4_963E_E407));
                let budget_insts = base_budget / 2 + splitmix64(&mut s) % base_budget;
                let warmup_insts = budget_insts / 5;
                let channels = if splitmix64(&mut s).is_multiple_of(4) {
                    2
                } else {
                    1
                };
                let tenant_n = if splitmix64(&mut s).is_multiple_of(3) {
                    2
                } else {
                    1
                };
                let tenants = (0..tenant_n as u64)
                    .map(|t| {
                        let d = splitmix64(&mut s);
                        let phase = phase_workload_for(budget_insts);
                        match d % 5 {
                            0 => Workload::PhaseShift(phase),
                            1 => Workload::PhaseShift(PhaseShiftSpec {
                                drift_fraction: 0.0,
                                ..phase
                            }),
                            2 if channels > 1 => Workload::PhaseShift(phase.with_channel_skew(
                                u64::from(channels),
                                (t + u64::from(id)) % u64::from(channels),
                            )),
                            2 | 3 => Workload::Synthetic(SyntheticSpec {
                                kind: SyntheticKind::Random,
                                index: (d >> 8) as usize % 16,
                                bubbles: 3,
                                footprint_mib: 4,
                            }),
                            _ => Workload::Synthetic(SyntheticSpec {
                                kind: SyntheticKind::Stream,
                                index: (d >> 8) as usize % 16,
                                bubbles: 7,
                                footprint_mib: 2,
                            }),
                        }
                    })
                    .collect();
                let (policy, fraction_hp, capacity_budget) = match splitmix64(&mut s) % 6 {
                    0 => (None, 0.0, 0.0),
                    1 => (None, 0.25, 0.25),
                    // Static-split-as-policy starts with the table
                    // already matching its fraction (the sweep's
                    // convention): the runtime validates no-op epochs
                    // instead of relocating a quarter of the device in
                    // one stall batch.
                    2 => (Some(PolicySpec::StaticSplit { fraction: 0.25 }), 0.25, 0.25),
                    3 => (
                        Some(PolicySpec::UtilizationThreshold { hot: 4, cold: 1 }),
                        0.0,
                        DYNAMIC_BUDGET,
                    ),
                    4 => (Some(PolicySpec::TopKHotness), 0.0, DYNAMIC_BUDGET),
                    _ => (Some(PolicySpec::Hysteresis), 0.0, DYNAMIC_BUDGET),
                };
                let background_relocation = policy.is_some() && splitmix64(&mut s) % 2 == 1;
                let placement = if background_relocation && channels > 1 {
                    match splitmix64(&mut s) % 3 {
                        0 => DestinationPicker::SameBank,
                        1 => DestinationPicker::CrossBank,
                        _ => DestinationPicker::CrossChannel,
                    }
                } else {
                    DestinationPicker::SameBank
                };
                let epoch_dram_cycles = 2_000 + (splitmix64(&mut s) % 3) * 500;
                InstanceSpec {
                    id,
                    seed: splitmix64(&mut s),
                    channels,
                    tenants,
                    policy,
                    background_relocation,
                    placement,
                    fraction_hp,
                    capacity_budget,
                    epoch_dram_cycles,
                    budget_insts,
                    warmup_insts,
                }
            })
            .collect();
        FleetSpec {
            seed,
            scale,
            instances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let a = FleetSpec::synth(32, 7, Scale::Smoke);
        let b = FleetSpec::synth(32, 7, Scale::Smoke);
        for (x, y) in a.instances.iter().zip(&b.instances) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.channels, y.channels);
            assert_eq!(x.tenants, y.tenants);
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.budget_insts, y.budget_insts);
        }
    }

    #[test]
    fn roster_is_heterogeneous() {
        let fleet = FleetSpec::synth(64, 0xF1EE7, Scale::Smoke);
        let distinct = |f: &dyn Fn(&InstanceSpec) -> String| -> std::collections::BTreeSet<String> {
            fleet.instances.iter().map(f).collect()
        };
        assert!(distinct(&|i| i.policy_label()).len() >= 4, "policies");
        assert!(distinct(&|i| i.channels.to_string()).len() == 2, "channels");
        assert!(
            distinct(&|i| i.tenants.len().to_string()).len() == 2,
            "tenant counts"
        );
        assert!(
            distinct(&|i| i.relocation_label().to_string()).len() == 2,
            "relocation models"
        );
        assert!(
            distinct(&|i| i.tenants[0].name()).len() >= 4,
            "workload shapes"
        );
        // Budgets are jittered per instance.
        assert!(distinct(&|i| i.budget_insts.to_string()).len() >= 16);
    }

    #[test]
    fn every_instance_runs_its_own_cell() {
        for inst in FleetSpec::synth(64, 11, Scale::Smoke).instances {
            let cell = inst.cell();
            assert_eq!(cell.workloads, inst.tenants);
            assert_eq!(cell.channels, inst.channels);
            assert_eq!(cell.placement, inst.placement);
            assert_eq!(cell.fraction_hp(), inst.fraction_hp);
            assert_eq!(cell.budget, inst.capacity_budget);
            assert_eq!(cell.epoch_cycles, inst.epoch_dram_cycles);
            assert_eq!(cell.budget_insts, inst.budget_insts);
            assert_eq!(cell.warmup_insts, inst.warmup_insts);
            assert_eq!(cell.reloc.is_background(), inst.background_relocation);
            let fraction = inst.fraction_hp;
            let policy = inst.policy.unwrap_or(PolicySpec::StaticSplit { fraction });
            assert_eq!(cell.policy, policy);
        }
    }

    #[test]
    fn instance_draws_are_independent_of_roster_size() {
        let small = FleetSpec::synth(8, 42, Scale::Smoke);
        let large = FleetSpec::synth(24, 42, Scale::Smoke);
        for (x, y) in small.instances.iter().zip(&large.instances) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.tenants, y.tenants);
        }
    }
}
