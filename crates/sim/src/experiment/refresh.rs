//! Figure 15 — refresh interval vs. access latency trade-off (§8.5):
//! CLR-{64,114,124,184,194} × {25,50,75,100} % high-performance pages,
//! reporting normalized performance, DRAM energy, and refresh energy for
//! single- and multi-core workloads.

use clr_core::timing::RefreshVariant;
use clr_memsim::config::MemConfig;
use clr_trace::apps::top_mpki;
use clr_trace::mix::{build_mixes, MixGroup};
use clr_trace::workload::Workload;

use crate::experiment::{mem_config, run_batch};
use crate::metrics::geomean;
use crate::report::{ratio, Table};
use crate::scale::Scale;

/// Fractions swept by Figure 15 (the 0 % point is omitted: max-capacity
/// mode cannot extend tREFW).
pub const FIG15_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Results for one refresh variant.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// The refresh window variant.
    pub variant: RefreshVariant,
    /// Normalized performance (IPC or weighted-speedup proxy) per
    /// fraction.
    pub norm_perf: [f64; 4],
    /// Normalized DRAM energy per fraction.
    pub norm_energy: [f64; 4],
    /// Normalized refresh energy per fraction.
    pub norm_refresh_energy: [f64; 4],
}

/// The Figure 15 sweep for one workload population (single- or
/// multi-core).
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// One entry per refresh variant, in CLR-64..CLR-194 order.
    pub variants: Vec<VariantResult>,
    /// Whether this is the four-core variant of the figure.
    pub multi_core: bool,
    /// Scale the sweep ran at.
    pub scale: Scale,
}

/// Runs the single-core Figure 15 sweep (geomean over a set of
/// memory-intensive applications).
pub fn run_single(scale: Scale, seed: u64) -> RefreshReport {
    let apps: Vec<Workload> = top_mpki(match scale {
        Scale::Smoke => 3,
        Scale::Default => 8,
        Scale::Full => 17,
    })
    .into_iter()
    .map(|a| Workload::App(*a))
    .collect();
    let sets: Vec<Vec<Workload>> = apps.into_iter().map(|w| vec![w]).collect();
    run_over(scale, seed, &sets, false)
}

/// Runs the four-core Figure 15 sweep (geomean over H-group mixes).
pub fn run_multi(scale: Scale, seed: u64) -> RefreshReport {
    let count = match scale {
        Scale::Smoke => 2,
        Scale::Default => 4,
        Scale::Full => 10,
    };
    let sets: Vec<Vec<Workload>> = build_mixes(MixGroup::High, count, seed)
        .into_iter()
        .map(|m| m.apps.iter().map(|a| Workload::App(**a)).collect())
        .collect();
    run_over(scale, seed, &sets, true)
}

/// Runs every set's DDR4 baseline and every variant × fraction × set
/// point as one batch over the host's cores, then folds the points in
/// variant, fraction, set order.
fn run_over(scale: Scale, seed: u64, sets: &[Vec<Workload>], multi: bool) -> RefreshReport {
    let mut jobs: Vec<(&[Workload], MemConfig)> = sets
        .iter()
        .map(|ws| (ws.as_slice(), mem_config(None, 64.0)))
        .collect();
    for variant in RefreshVariant::ALL {
        for f in FIG15_FRACTIONS {
            for ws in sets {
                jobs.push((ws, mem_config(Some(f), variant.refw_ms())));
            }
        }
    }
    let runs = run_batch(&jobs, scale, seed);
    let (baselines, points) = runs.split_at(sets.len());

    let variants = RefreshVariant::ALL
        .iter()
        .zip(points.chunks(FIG15_FRACTIONS.len() * sets.len()))
        .map(|(&variant, points)| {
            let mut perf = [0.0; 4];
            let mut energy = [0.0; 4];
            let mut refresh = [0.0; 4];
            for (i, runs) in points.chunks(sets.len()).enumerate() {
                let mut perf_v = Vec::new();
                let mut en_v = Vec::new();
                let mut ref_v = Vec::new();
                for (r, base) in runs.iter().zip(baselines) {
                    // Aggregate performance: IPC for single core; the sum
                    // of per-core IPCs as a throughput proxy for mixes
                    // (weighted-speedup normalization is covered by
                    // Figure 13; both normalize identically at equal
                    // alone-IPC sets).
                    let perf_now: f64 = r.ipc.iter().sum();
                    let perf_base: f64 = base.ipc.iter().sum();
                    perf_v.push(perf_now / perf_base);
                    en_v.push(r.energy.total_j() / base.energy.total_j());
                    // Short smoke windows may see zero REF commands on one
                    // side; the epsilon keeps the ratio finite (and ≈ exact
                    // whenever refreshes did occur).
                    const EPS_J: f64 = 1e-12;
                    ref_v.push((r.energy.refresh_j + EPS_J) / (base.energy.refresh_j + EPS_J));
                }
                perf[i] = geomean(&perf_v);
                energy[i] = geomean(&en_v);
                refresh[i] = geomean(&ref_v);
            }
            VariantResult {
                variant,
                norm_perf: perf,
                norm_energy: energy,
                norm_refresh_energy: refresh,
            }
        })
        .collect();

    RefreshReport {
        variants,
        multi_core: multi,
        scale,
    }
}

/// Renders the Figure 15 tables.
pub fn render(report: &RefreshReport) -> String {
    let which = if report.multi_core {
        "b) multi-core"
    } else {
        "a) single-core"
    };
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 15 {which} — refresh interval sensitivity (scale: {})\n\n",
        report.scale.label()
    ));
    for (title, pick) in [
        (
            "normalized performance",
            (|v: &VariantResult| v.norm_perf) as fn(&VariantResult) -> [f64; 4],
        ),
        ("normalized DRAM energy", |v| v.norm_energy),
        ("normalized refresh energy", |v| v.norm_refresh_energy),
    ] {
        out.push_str(title);
        out.push('\n');
        let mut t = Table::new(vec!["variant", "25%", "50%", "75%", "100%"]);
        for v in &report.variants {
            t.row(
                std::iter::once(v.variant.label().to_string())
                    .chain(pick(v).iter().map(|x| ratio(*x)))
                    .collect(),
            );
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_energy_drops_with_window_extension() {
        let report = run_single(Scale::Smoke, 9);
        assert_eq!(report.variants.len(), 5);
        let clr64 = &report.variants[0];
        let clr194 = &report.variants[4];
        // All-HP: refresh energy far below baseline, and CLR-194 below
        // CLR-64 (the paper: −66 % and −87 %).
        assert!(
            clr64.norm_refresh_energy[3] < 0.7,
            "CLR-64 refresh {}",
            clr64.norm_refresh_energy[3]
        );
        // At smoke scale the measurement window holds only a handful of
        // REF commands, so allow quantization slack; the exact 0.447 vs
        // 0.147 stream ratios are asserted in clr-core's refresh tests.
        assert!(
            clr194.norm_refresh_energy[3] <= clr64.norm_refresh_energy[3] * 1.05 + 0.02,
            "extension must not increase refresh energy: CLR-194 {} vs CLR-64 {}",
            clr194.norm_refresh_energy[3],
            clr64.norm_refresh_energy[3]
        );
    }

    #[test]
    fn performance_stays_above_baseline() {
        let report = run_single(Scale::Smoke, 12);
        for v in &report.variants {
            assert!(
                v.norm_perf[3] > 0.98,
                "{} perf {}",
                v.variant.label(),
                v.norm_perf[3]
            );
        }
        let s = render(&report);
        assert!(s.contains("CLR-194"));
    }
}
