//! Figure 13 (four-core weighted speedup + DRAM energy) and Figure 14b
//! (four-core DRAM power).

use std::collections::HashMap;

use clr_memsim::config::MemConfig;
use clr_trace::mix::{build_mixes, MixGroup};
use clr_trace::workload::Workload;

use crate::experiment::{
    baseline_and_fractions, mem_config, run_batch, RunPoint, FRACTIONS, FRACTION_LABELS,
};
use crate::metrics::{geomean, weighted_speedup};
use crate::report::{ratio, Table};
use crate::scale::Scale;

/// Normalized group-level results across the five fractions.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// Workload group (L/M/H).
    pub group: MixGroup,
    /// Geomean normalized weighted speedup per fraction.
    pub norm_ws: [f64; 5],
    /// Geomean normalized DRAM energy per fraction.
    pub norm_energy: [f64; 5],
    /// Geomean normalized DRAM power per fraction.
    pub norm_power: [f64; 5],
}

/// The full multiprogrammed sweep.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Per-group results in L, M, H order.
    pub groups: Vec<GroupResult>,
    /// Scale the sweep ran at.
    pub scale: Scale,
}

impl MultiReport {
    fn gmean_of(&self, pick: impl Fn(&GroupResult) -> [f64; 5]) -> [f64; 5] {
        let mut out = [1.0; 5];
        for (i, o) in out.iter_mut().enumerate() {
            let vals: Vec<f64> = self.groups.iter().map(|g| pick(g)[i]).collect();
            *o = geomean(&vals);
        }
        out
    }

    /// Geomean normalized weighted speedup over every mix.
    pub fn gmean_ws(&self) -> [f64; 5] {
        self.gmean_of(|g| g.norm_ws)
    }

    /// Geomean normalized DRAM energy over every mix.
    pub fn gmean_energy(&self) -> [f64; 5] {
        self.gmean_of(|g| g.norm_energy)
    }

    /// Geomean normalized DRAM power over every mix.
    pub fn gmean_power(&self) -> [f64; 5] {
        self.gmean_of(|g| g.norm_power)
    }

    /// The high-intensity group's results (the paper quotes +27.5 % at
    /// 100 %).
    pub fn high_group(&self) -> &GroupResult {
        self.groups
            .iter()
            .find(|g| g.group == MixGroup::High)
            .expect("H group always present")
    }
}

/// Alone-IPC cache key: the app name. Alone runs are measured once, on
/// the baseline DDR4 system, and reused for every configuration — the
/// standard memory-system methodology (the hardware changes between
/// configurations, so a fixed single-program reference keeps weighted
/// speedup comparable across them).
type AloneKey = String;

/// Runs the Figure 13 sweep at the given scale. Two batches spread over
/// the host's cores: every distinct app alone on the baseline, then
/// every mix under every configuration.
pub fn run(scale: Scale, seed: u64) -> MultiReport {
    let mixes: Vec<(MixGroup, Vec<Workload>)> = MixGroup::ALL
        .iter()
        .flat_map(|&group| build_mixes(group, scale.mixes_per_group(), seed))
        .map(|mix| {
            (
                mix.group,
                mix.apps.iter().map(|a| Workload::App(**a)).collect(),
            )
        })
        .collect();

    let mut apps: Vec<Workload> = Vec::new();
    for w in mixes.iter().flat_map(|(_, ws)| ws) {
        if !apps.iter().any(|a| a.name() == w.name()) {
            apps.push(*w);
        }
    }
    let alone_jobs: Vec<(&[Workload], MemConfig)> = apps
        .iter()
        .map(|w| (std::slice::from_ref(w), mem_config(None, 64.0)))
        .collect();
    let alone_ipc: HashMap<AloneKey, f64> = apps
        .iter()
        .map(Workload::name)
        .zip(
            run_batch(&alone_jobs, scale, seed)
                .into_iter()
                .map(|r| r.ipc[0]),
        )
        .collect();

    // One job per (mix, configuration), mix-major.
    let jobs: Vec<(&[Workload], MemConfig)> = mixes
        .iter()
        .flat_map(|(_, ws)| baseline_and_fractions().map(move |mem| (ws.as_slice(), mem)))
        .collect();
    let runs = run_batch(&jobs, scale, seed);
    let evaluated: Vec<(MixGroup, MixNorms)> = mixes
        .iter()
        .zip(runs.chunks(FRACTIONS.len() + 1))
        .map(|((group, ws), runs)| (*group, evaluate_mix(ws, runs, &alone_ipc)))
        .collect();

    let groups = MixGroup::ALL
        .iter()
        .map(|&group| {
            let mut ws_norm: Vec<[f64; 5]> = Vec::new();
            let mut en_norm: Vec<[f64; 5]> = Vec::new();
            let mut pw_norm: Vec<[f64; 5]> = Vec::new();
            for (_, (ws, en, pw)) in evaluated.iter().filter(|(g, _)| *g == group) {
                ws_norm.push(*ws);
                en_norm.push(*en);
                pw_norm.push(*pw);
            }
            let fold = |rows: &[[f64; 5]]| {
                let mut out = [1.0; 5];
                for (i, o) in out.iter_mut().enumerate() {
                    let vals: Vec<f64> = rows.iter().map(|r| r[i]).collect();
                    *o = geomean(&vals);
                }
                out
            };
            GroupResult {
                group,
                norm_ws: fold(&ws_norm),
                norm_energy: fold(&en_norm),
                norm_power: fold(&pw_norm),
            }
        })
        .collect();

    MultiReport { groups, scale }
}

/// One mix's normalized weighted speedup, DRAM energy and DRAM power per
/// fraction.
type MixNorms = ([f64; 5], [f64; 5], [f64; 5]);

/// Normalizes one mix's fraction runs (`runs[1..]`) to its baseline run
/// (`runs[0]`).
fn evaluate_mix(
    ws: &[Workload],
    runs: &[RunPoint],
    alone_ipc: &HashMap<AloneKey, f64>,
) -> MixNorms {
    let (base, clr) = (&runs[0], &runs[1..]);
    let alone: Vec<f64> = ws.iter().map(|w| alone_ipc[&w.name()]).collect();
    let base_ws = weighted_speedup(&base.ipc, &alone);

    let mut ws_norm = [0.0; 5];
    let mut en_norm = [0.0; 5];
    let mut pw_norm = [0.0; 5];
    for (i, r) in clr.iter().enumerate() {
        let speedup = weighted_speedup(&r.ipc, &alone);
        ws_norm[i] = speedup / base_ws;
        en_norm[i] = r.energy.total_j() / base.energy.total_j();
        pw_norm[i] = r.avg_power_w / base.avg_power_w;
    }
    (ws_norm, en_norm, pw_norm)
}

/// Renders the Figure 13 table.
pub fn render_fig13(report: &MultiReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 13 — four-core normalized weighted speedup and DRAM energy (scale: {})\n\n",
        report.scale.label()
    ));
    let mut header = vec!["group".to_string(), "metric".to_string()];
    header.extend(FRACTION_LABELS.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    for g in &report.groups {
        t.row(
            std::iter::once(g.group.label().to_string())
                .chain(std::iter::once("wspeedup".to_string()))
                .chain(g.norm_ws.iter().map(|v| ratio(*v)))
                .collect(),
        );
        t.row(
            std::iter::once(String::new())
                .chain(std::iter::once("energy".to_string()))
                .chain(g.norm_energy.iter().map(|v| ratio(*v)))
                .collect(),
        );
    }
    t.row(
        std::iter::once("GMEAN".to_string())
            .chain(std::iter::once("wspeedup".to_string()))
            .chain(report.gmean_ws().iter().map(|v| ratio(*v)))
            .collect(),
    );
    t.row(
        std::iter::once(String::new())
            .chain(std::iter::once("energy".to_string()))
            .chain(report.gmean_energy().iter().map(|v| ratio(*v)))
            .collect(),
    );
    out.push_str(&t.render());
    out
}

/// Renders the Figure 14b table (four-core normalized DRAM power).
pub fn render_fig14b(report: &MultiReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 14b — four-core normalized DRAM power (scale: {})\n\n",
        report.scale.label()
    ));
    let mut header = vec!["series".to_string()];
    header.extend(FRACTION_LABELS.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    t.row(
        std::iter::once("GMEAN".to_string())
            .chain(report.gmean_power().iter().map(|v| ratio(*v)))
            .collect(),
    );
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_multi_sweep_shape() {
        let report = run(Scale::Smoke, 5);
        assert_eq!(report.groups.len(), 3);
        let g = report.gmean_ws();
        assert!(g[4] > 1.0, "100% HP must beat baseline, got {}", g[4]);
        // H group benefits at least as much as L.
        let h = report.high_group().norm_ws[4];
        let l = report.groups[0].norm_ws[4];
        assert!(h >= l * 0.98, "H {} vs L {}", h, l);
        let e = report.gmean_energy();
        assert!(e[4] < 1.02, "energy should not grow, got {}", e[4]);
    }

    #[test]
    fn rendering_contains_groups() {
        let report = run(Scale::Smoke, 6);
        let s = render_fig13(&report);
        assert!(s.contains('L') && s.contains('M') && s.contains('H'));
        assert!(render_fig14b(&report).contains("GMEAN"));
    }
}
