//! Figure 12 (single-core IPC + DRAM energy) and Figure 14a (single-core
//! DRAM power).

use clr_memsim::config::MemConfig;
use clr_trace::apps::top_mpki;
use clr_trace::workload::{single_core_suite, Workload};

use crate::experiment::{baseline_and_fractions, run_batch, FRACTIONS, FRACTION_LABELS};
use crate::metrics::geomean;
use crate::report::{ratio, Table};
use crate::scale::Scale;

/// Per-workload normalized results across the five HP-row fractions.
#[derive(Debug, Clone)]
pub struct SingleRow {
    /// Workload.
    pub workload: Workload,
    /// IPC normalized to baseline DDR4 per fraction.
    pub norm_ipc: [f64; 5],
    /// DRAM energy normalized to baseline per fraction.
    pub norm_energy: [f64; 5],
    /// DRAM power normalized to baseline per fraction.
    pub norm_power: [f64; 5],
}

/// The full single-core sweep.
#[derive(Debug, Clone)]
pub struct SingleReport {
    /// One row per evaluated workload.
    pub rows: Vec<SingleRow>,
    /// Scale the sweep ran at.
    pub scale: Scale,
}

impl SingleReport {
    fn gmean_over(
        &self,
        filter: impl Fn(&SingleRow) -> bool,
        pick: impl Fn(&SingleRow) -> [f64; 5],
    ) -> [f64; 5] {
        let selected: Vec<[f64; 5]> = self.rows.iter().filter(|r| filter(r)).map(pick).collect();
        let mut out = [1.0; 5];
        if selected.is_empty() {
            return out;
        }
        for (i, o) in out.iter_mut().enumerate() {
            let vals: Vec<f64> = selected.iter().map(|s| s[i]).collect();
            *o = geomean(&vals);
        }
        out
    }

    /// Geomean normalized IPC over the application workloads (the paper's
    /// GMEAN bar covers the 41 apps).
    pub fn gmean_ipc(&self) -> [f64; 5] {
        self.gmean_over(|r| matches!(r.workload, Workload::App(_)), |r| r.norm_ipc)
    }

    /// Geomean normalized IPC over the random synthetics.
    pub fn gmean_ipc_random(&self) -> [f64; 5] {
        self.gmean_over(|r| r.workload.is_random_synthetic(), |r| r.norm_ipc)
    }

    /// Geomean normalized IPC over the stream synthetics.
    pub fn gmean_ipc_stream(&self) -> [f64; 5] {
        self.gmean_over(|r| r.workload.is_stream_synthetic(), |r| r.norm_ipc)
    }

    /// Geomean normalized DRAM energy over the applications.
    pub fn gmean_energy(&self) -> [f64; 5] {
        self.gmean_over(
            |r| matches!(r.workload, Workload::App(_)),
            |r| r.norm_energy,
        )
    }

    /// Geomean normalized DRAM power over the applications.
    pub fn gmean_power(&self) -> [f64; 5] {
        self.gmean_over(|r| matches!(r.workload, Workload::App(_)), |r| r.norm_power)
    }

    /// Geomean normalized DRAM power over random synthetics.
    pub fn gmean_power_random(&self) -> [f64; 5] {
        self.gmean_over(|r| r.workload.is_random_synthetic(), |r| r.norm_power)
    }

    /// Geomean normalized DRAM power over stream synthetics.
    pub fn gmean_power_stream(&self) -> [f64; 5] {
        self.gmean_over(|r| r.workload.is_stream_synthetic(), |r| r.norm_power)
    }

    /// Best single-application speedup at 100 % (the paper: 429.mcf,
    /// +59.8 %). Synthetic traces are excluded, as in the paper's claim.
    pub fn best_speedup(&self) -> (String, f64) {
        self.rows
            .iter()
            .filter(|r| matches!(r.workload, Workload::App(_)))
            .map(|r| (r.workload.name(), r.norm_ipc[4] - 1.0))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .unwrap_or(("n/a".into(), 0.0))
    }
}

/// Runs the Figure 12 sweep, its independent runs spread over the
/// host's cores.
pub fn run(scale: Scale, seed: u64) -> SingleReport {
    let mut workloads = single_core_suite();
    if workloads.len() > scale.single_core_workloads() {
        // Smoke scale: a few memory-intensive apps + synthetics.
        let n = scale.single_core_workloads();
        let apps = n.saturating_sub(2);
        let mut w: Vec<Workload> = top_mpki(apps)
            .into_iter()
            .map(|a| Workload::App(*a))
            .collect();
        w.push(workloads[41]); // one random synthetic
        w.push(workloads[41 + 15]); // one stream synthetic
        workloads = w;
    }

    // One job per (workload, configuration), workload-major.
    let jobs: Vec<(&[Workload], MemConfig)> = workloads
        .iter()
        .flat_map(|w| baseline_and_fractions().map(move |mem| (std::slice::from_ref(w), mem)))
        .collect();
    let runs = run_batch(&jobs, scale, seed);

    let rows = workloads
        .iter()
        .zip(runs.chunks(FRACTIONS.len() + 1))
        .map(|(&w, runs)| {
            let (base, clr) = (&runs[0], &runs[1..]);
            let mut norm_ipc = [0.0; 5];
            let mut norm_energy = [0.0; 5];
            let mut norm_power = [0.0; 5];
            for (i, r) in clr.iter().enumerate() {
                norm_ipc[i] = r.ipc[0] / base.ipc[0];
                norm_energy[i] = r.energy.total_j() / base.energy.total_j();
                norm_power[i] = r.avg_power_w / base.avg_power_w;
            }
            SingleRow {
                workload: w,
                norm_ipc,
                norm_energy,
                norm_power,
            }
        })
        .collect();

    SingleReport { rows, scale }
}

/// Renders the Figure 12 table (top-17 MPKI apps + the three GMEAN bars).
pub fn render_fig12(report: &SingleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 12 — single-core normalized IPC and DRAM energy (scale: {})\n\n",
        report.scale.label()
    ));
    let mut header = vec!["workload".to_string(), "metric".to_string()];
    header.extend(FRACTION_LABELS.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    let top: Vec<String> = top_mpki(17).iter().map(|a| a.name.to_string()).collect();
    for row in &report.rows {
        if !top.contains(&row.workload.name()) {
            continue;
        }
        t.row(
            std::iter::once(row.workload.name())
                .chain(std::iter::once("IPC".to_string()))
                .chain(row.norm_ipc.iter().map(|v| ratio(*v)))
                .collect(),
        );
        t.row(
            std::iter::once(String::new())
                .chain(std::iter::once("energy".to_string()))
                .chain(row.norm_energy.iter().map(|v| ratio(*v)))
                .collect(),
        );
    }
    for (label, ipc, energy) in [
        ("GMEAN", report.gmean_ipc(), report.gmean_energy()),
        (
            "RANDOM-GMEAN",
            report.gmean_ipc_random(),
            report.gmean_over_energy_random(),
        ),
        (
            "STREAM-GMEAN",
            report.gmean_ipc_stream(),
            report.gmean_over_energy_stream(),
        ),
    ] {
        t.row(
            std::iter::once(label.to_string())
                .chain(std::iter::once("IPC".to_string()))
                .chain(ipc.iter().map(|v| ratio(*v)))
                .collect(),
        );
        t.row(
            std::iter::once(String::new())
                .chain(std::iter::once("energy".to_string()))
                .chain(energy.iter().map(|v| ratio(*v)))
                .collect(),
        );
    }
    out.push_str(&t.render());
    let (best_name, best) = report.best_speedup();
    out.push_str(&format!(
        "\nbest speedup at 100%: {best_name} {:+.1}% (paper: 429.mcf +59.8%)\n",
        best * 100.0
    ));
    out
}

impl SingleReport {
    /// Geomean normalized energy over random synthetics.
    pub fn gmean_over_energy_random(&self) -> [f64; 5] {
        self.gmean_over(|r| r.workload.is_random_synthetic(), |r| r.norm_energy)
    }

    /// Geomean normalized energy over stream synthetics.
    pub fn gmean_over_energy_stream(&self) -> [f64; 5] {
        self.gmean_over(|r| r.workload.is_stream_synthetic(), |r| r.norm_energy)
    }
}

/// Renders the Figure 14a table (single-core normalized DRAM power).
pub fn render_fig14a(report: &SingleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 14a — single-core normalized DRAM power (scale: {})\n\n",
        report.scale.label()
    ));
    let mut header = vec!["series".to_string()];
    header.extend(FRACTION_LABELS.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    for (label, power) in [
        ("GMEAN", report.gmean_power()),
        ("RANDOM-GMEAN", report.gmean_power_random()),
        ("STREAM-GMEAN", report.gmean_power_stream()),
    ] {
        t.row(
            std::iter::once(label.to_string())
                .chain(power.iter().map(|v| ratio(*v)))
                .collect(),
        );
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_has_paper_shape() {
        let report = run(Scale::Smoke, 11);
        assert!(!report.rows.is_empty());
        let g = report.gmean_ipc();
        // More high-performance rows → no slower, and 100 % beats 0 %.
        assert!(g[4] >= g[0] * 0.999, "IPC at 100% {} vs 0% {}", g[4], g[0]);
        assert!(g[4] > 1.0, "CLR must beat baseline, got {}", g[4]);
        let e = report.gmean_energy();
        assert!(e[4] < 1.0, "energy must drop, got {}", e[4]);
    }

    #[test]
    fn rendering_includes_gmeans() {
        let report = run(Scale::Smoke, 3);
        let fig12 = render_fig12(&report);
        assert!(fig12.contains("GMEAN"));
        assert!(fig12.contains("RANDOM-GMEAN"));
        let fig14 = render_fig14a(&report);
        assert!(fig14.contains("STREAM-GMEAN"));
    }
}
