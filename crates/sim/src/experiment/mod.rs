//! Experiment runners, one module per paper table/figure family.

pub mod circuit;
pub mod multi;
pub mod overheads;
pub mod policies;
pub mod refresh;
pub mod single;
pub mod sysconfig;
pub mod workloads;

use clr_core::par::parallel_map;
use clr_memsim::config::MemConfig;
use clr_power::EnergyBreakdown;
use clr_trace::workload::Workload;

use crate::scale::Scale;
use crate::system::{run_workloads, RunConfig};

/// The high-performance row fractions swept by Figures 12–14
/// (0 % = all rows max-capacity, still with CLR's modified timings).
pub const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Percentage labels matching [`FRACTIONS`].
pub const FRACTION_LABELS: [&str; 5] = ["0%", "25%", "50%", "75%", "100%"];

/// Memory configuration for one evaluation point.
///
/// `fraction = None` denotes the unmodified DDR4 baseline; `Some(f)` a
/// CLR-DRAM device with fraction `f` of rows in high-performance mode and
/// the given high-performance refresh window.
pub fn mem_config(fraction: Option<f64>, hp_refw_ms: f64) -> MemConfig {
    match fraction {
        None => MemConfig::paper_baseline(),
        Some(f) => {
            let mut cfg = MemConfig::paper_clr(f);
            cfg.clr = clr_memsim::config::ClrModeConfig::Clr {
                fraction_hp: f,
                hp_refw_ms,
                early_termination: true,
            };
            cfg
        }
    }
}

/// The memory configurations Figures 12–14 run per workload: the
/// baseline DDR4 system, then every [`FRACTIONS`] point.
pub(crate) fn baseline_and_fractions(hp_refw_ms: f64) -> impl Iterator<Item = MemConfig> {
    std::iter::once(None)
        .chain(FRACTIONS.map(Some))
        .map(move |f| mem_config(f, hp_refw_ms))
}

/// What the figure folds read from one run. A figure batch holds
/// hundreds of runs at once, so it keeps these instead of every run's
/// full statistics.
#[derive(Debug)]
pub(crate) struct RunPoint {
    /// Per-core IPC.
    pub(crate) ipc: Vec<f64>,
    /// DRAM energy over the window.
    pub(crate) energy: EnergyBreakdown,
    /// Average DRAM power over the window.
    pub(crate) avg_power_w: f64,
}

/// Runs one figure's independent (workloads, memory configuration) jobs
/// over the host's cores at the scale's paper budgets; the points come
/// back in job order, so the caller's folds are those of a serial loop.
pub(crate) fn run_batch(
    jobs: &[(&[Workload], MemConfig)],
    scale: Scale,
    seed: u64,
) -> Vec<RunPoint> {
    parallel_map(jobs.len(), |j| {
        let (workloads, mem) = &jobs[j];
        let cfg = RunConfig::paper(
            mem.clone(),
            scale.budget_insts(),
            scale.warmup_insts(),
            seed,
        );
        let r = run_workloads(workloads, &cfg);
        RunPoint {
            avg_power_w: r.avg_power_w(),
            ipc: r.ipc,
            energy: r.energy,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_and_clr_configs_differ() {
        let base = mem_config(None, 64.0);
        let clr = mem_config(Some(0.5), 114.0);
        assert_eq!(base.clr.fraction_hp(), 0.0);
        assert_eq!(clr.clr.fraction_hp(), 0.5);
    }
}
