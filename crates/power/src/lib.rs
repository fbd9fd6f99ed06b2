//! DRAM energy and power modelling for the CLR-DRAM evaluation.
//!
//! The paper feeds Ramulator's command traces into DRAMPower (§8.1); this
//! crate implements the same IDD/VDD command-energy methodology directly
//! over [`clr_memsim::MemStats`]:
//!
//! * ACT energy: `VDD · (IDD0 − IDD3N) · tRAS(mode)` per activate — the
//!   current above active standby while the row restores; CLR-DRAM's
//!   shorter high-performance tRAS directly shrinks it;
//! * PRE energy: `VDD · (IDD0 − IDD2N) · tRP(mode)` per precharge;
//! * RD/WR energy: `VDD · (IDD4R/W − IDD3N) · tBURST` per burst;
//! * REF energy: `VDD · (IDD5B − IDD3N) · tRFC(stream)` per refresh
//!   command — high-performance bundles pay the reduced tRFC;
//! * background: `VDD · (IDD3N · T_active + IDD2N · T_precharged)`.
//!
//! Energies are per device and multiplied by the devices in a rank. The
//! IDD values model a 16 Gb DDR4-2400 x8 device. CLR-DRAM is assumed to
//! draw the same currents as the baseline during (shorter) analog windows:
//! coupled operation drives two half-charged cells through two SAs, moving
//! approximately the same total charge per activation, so the first-order
//! saving comes from the shortened windows — matching the paper's use of
//! unmodified DRAMPower current classes with modified timings.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use clr_core::mode::RowMode;
use clr_core::timing::TimingParams;
use clr_memsim::config::{ClrModeConfig, MemConfig};
use clr_memsim::stats::MemStats;

/// IDD current classes and supply voltage of one DRAM device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IddParams {
    /// Core supply voltage (V).
    pub vdd: f64,
    /// One-bank ACT-PRE cycling current (mA).
    pub idd0_ma: f64,
    /// Precharged-standby current (mA).
    pub idd2n_ma: f64,
    /// Active-standby current (mA).
    pub idd3n_ma: f64,
    /// Read-burst current (mA).
    pub idd4r_ma: f64,
    /// Write-burst current (mA).
    pub idd4w_ma: f64,
    /// Burst-refresh current (mA).
    pub idd5b_ma: f64,
    /// Devices ganged per rank (8 for x8 on a 64-bit bus).
    pub devices_per_rank: u32,
}

impl IddParams {
    /// A 16 Gb DDR4-2400 x8 device (datasheet-class values).
    pub fn ddr4_16gb_x8() -> Self {
        IddParams {
            vdd: 1.2,
            idd0_ma: 60.0,
            idd2n_ma: 42.0,
            idd3n_ma: 55.0,
            idd4r_ma: 150.0,
            idd4w_ma: 140.0,
            idd5b_ma: 205.0,
            devices_per_rank: 8,
        }
    }
}

impl Default for IddParams {
    fn default() -> Self {
        Self::ddr4_16gb_x8()
    }
}

/// Energy of one run, split by component (joules, whole rank).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Activate energy.
    pub act_j: f64,
    /// Precharge energy.
    pub pre_j: f64,
    /// Read-burst energy.
    pub rd_j: f64,
    /// Write-burst energy.
    pub wr_j: f64,
    /// Refresh energy.
    pub refresh_j: f64,
    /// Background (standby) energy.
    pub background_j: f64,
    /// Row-migration energy: the ACT/PRE/RD/WR bursts issued by the
    /// background relocation engine, accounted separately from demand
    /// traffic so the cost of a mode-management policy's data movement is
    /// visible in the breakdown.
    pub migration_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.act_j
            + self.pre_j
            + self.rd_j
            + self.wr_j
            + self.refresh_j
            + self.background_j
            + self.migration_j
    }

    /// Average power in watts over `duration_ns`.
    pub fn avg_power_w(&self, duration_ns: f64) -> f64 {
        if duration_ns <= 0.0 {
            0.0
        } else {
            self.total_j() / (duration_ns * 1e-9)
        }
    }

    /// Regroups the command-type components by *traffic class*: who
    /// asked for the energy, rather than which command spent it. The
    /// classes partition the breakdown, so their sum equals
    /// [`EnergyBreakdown::total_j`] exactly.
    pub fn by_class(&self) -> ClassEnergy {
        ClassEnergy {
            demand_j: self.act_j + self.pre_j + self.rd_j + self.wr_j,
            migration_j: self.migration_j,
            refresh_j: self.refresh_j,
            background_j: self.background_j,
        }
    }
}

/// Energy attributed to traffic classes (joules, whole rank): demand
/// ACT/PRE/RD/WR serving CPU requests, the relocation engine's
/// migration bursts, refresh, and background standby. A reporting view
/// over [`EnergyBreakdown`] — the underlying model and its interfaces
/// are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassEnergy {
    /// Demand-traffic energy (ACT + PRE + RD + WR).
    pub demand_j: f64,
    /// Migration-traffic energy (the relocation engine's bursts).
    pub migration_j: f64,
    /// Refresh energy.
    pub refresh_j: f64,
    /// Background (standby) energy.
    pub background_j: f64,
}

impl ClassEnergy {
    /// Total energy in joules; equals the source breakdown's total.
    pub fn total_j(&self) -> f64 {
        self.demand_j + self.migration_j + self.refresh_j + self.background_j
    }

    /// Migration energy as a fraction of the total — the headline
    /// "what does mode management cost" number (0 when total is 0).
    pub fn migration_fraction(&self) -> f64 {
        let total = self.total_j();
        if total <= 0.0 {
            0.0
        } else {
            self.migration_j / total
        }
    }
}

/// The analog windows each operating mode pays energy over.
fn mode_params(cfg: &MemConfig) -> (TimingParams, TimingParams) {
    match cfg.clr {
        ClrModeConfig::BaselineDdr4 => (*cfg.timings.baseline(), *cfg.timings.baseline()),
        ClrModeConfig::Clr { .. } => (
            *cfg.timings.for_mode(RowMode::MaxCapacity),
            cfg.clr.hp_params(&cfg.timings),
        ),
    }
}

/// Computes the energy of a run from the controller's statistics.
///
/// `stats.cycles` must reflect the run duration; background energy uses
/// the active/precharged cycle split tracked by the controller.
pub fn energy_of_run(stats: &MemStats, cfg: &MemConfig, idd: &IddParams) -> EnergyBreakdown {
    let (mc, hp) = mode_params(cfg);
    let t_ck = cfg.interface.t_ck_ns;
    let burst_ns = cfg.interface.burst_cycles() as f64 * t_ck;
    let v = idd.vdd;
    // mA · V · ns = pJ.
    let pj = 1e-12 * idd.devices_per_rank as f64;

    let e_act = |p: &TimingParams| v * (idd.idd0_ma - idd.idd3n_ma).max(0.0) * p.t_ras_ns;
    let e_pre = |p: &TimingParams| v * (idd.idd0_ma - idd.idd2n_ma).max(0.0) * p.t_rp_ns;
    let e_ref = |p: &TimingParams| v * (idd.idd5b_ma - idd.idd3n_ma).max(0.0) * p.t_rfc_ns;
    let e_rd = v * (idd.idd4r_ma - idd.idd3n_ma).max(0.0) * burst_ns;
    let e_wr = v * (idd.idd4w_ma - idd.idd3n_ma).max(0.0) * burst_ns;

    EnergyBreakdown {
        act_j: pj
            * (stats.acts_max_capacity as f64 * e_act(&mc)
                + stats.acts_high_performance as f64 * e_act(&hp)),
        pre_j: pj
            * (stats.pres_max_capacity as f64 * e_pre(&mc)
                + stats.pres_high_performance as f64 * e_pre(&hp)),
        rd_j: pj * stats.reads as f64 * e_rd,
        wr_j: pj * stats.writes as f64 * e_wr,
        refresh_j: pj
            * (stats.refs_max_capacity as f64 * e_ref(&mc)
                + stats.refs_high_performance as f64 * e_ref(&hp)),
        background_j: pj
            * v
            * (idd.idd3n_ma * stats.rank_active_cycles as f64
                + idd.idd2n_ma * stats.rank_precharged_cycles as f64)
            * t_ck,
        migration_j: pj
            * (stats.migration_acts_max_capacity as f64 * e_act(&mc)
                + stats.migration_acts_high_performance as f64 * e_act(&hp)
                + stats.migration_pres_max_capacity as f64 * e_pre(&mc)
                + stats.migration_pres_high_performance as f64 * e_pre(&hp)
                + stats.migration_reads as f64 * e_rd
                + stats.migration_writes as f64 * e_wr),
    }
}

/// Per-channel energy breakdowns for a channel-sharded run: one
/// [`energy_of_run`] per channel's statistics delta. Channels share one
/// device configuration, so the per-channel and fused views are
/// consistent — summing the per-channel breakdowns component-wise
/// reproduces the fused breakdown exactly (the model is linear in the
/// counters).
pub fn energy_per_channel<'a>(
    stats: impl IntoIterator<Item = &'a MemStats>,
    cfg: &MemConfig,
    idd: &IddParams,
) -> Vec<EnergyBreakdown> {
    stats
        .into_iter()
        .map(|s| energy_of_run(s, cfg, idd))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(acts_hp: u64, acts_mc: u64) -> MemStats {
        MemStats {
            cycles: 100_000,
            acts_max_capacity: acts_mc,
            acts_high_performance: acts_hp,
            pres_max_capacity: acts_mc,
            pres_high_performance: acts_hp,
            reads: 2_000,
            writes: 500,
            refs_max_capacity: 10,
            refs_high_performance: 0,
            rank_active_cycles: 60_000,
            rank_precharged_cycles: 40_000,
            ..MemStats::new()
        }
    }

    #[test]
    fn hp_activations_cost_less_energy() {
        let idd = IddParams::default();
        let base_cfg = MemConfig::paper_baseline();
        let clr_cfg = MemConfig::paper_clr(1.0);
        // Same command counts, but one run activates HP rows.
        let e_base = energy_of_run(&stats_with(0, 1000), &base_cfg, &idd);
        let e_clr = energy_of_run(&stats_with(1000, 0), &clr_cfg, &idd);
        assert!(e_clr.act_j < 0.4 * e_base.act_j, "tRAS −64% must show");
        assert!(e_clr.pre_j < 0.6 * e_base.pre_j, "tRP −46% must show");
        assert_eq!(e_clr.rd_j, e_base.rd_j);
        assert_eq!(e_clr.background_j, e_base.background_j);
    }

    #[test]
    fn refresh_energy_tracks_stream_rfc() {
        let idd = IddParams::default();
        let clr_cfg = MemConfig::paper_clr(1.0);
        let mut s_mc = MemStats::new();
        s_mc.refs_max_capacity = 100;
        let mut s_hp = MemStats::new();
        s_hp.refs_high_performance = 100;
        let e_mc = energy_of_run(&s_mc, &clr_cfg, &idd);
        let e_hp = energy_of_run(&s_hp, &clr_cfg, &idd);
        // HP tRFC ≈ 0.447× → refresh energy likewise.
        let ratio = e_hp.refresh_j / e_mc.refresh_j;
        assert!((ratio - 0.447).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn background_power_is_plausible() {
        let idd = IddParams::default();
        let cfg = MemConfig::paper_baseline();
        let mut s = MemStats::new();
        s.cycles = 1_200_000; // 1 ms at 1.2 GHz
        s.rank_precharged_cycles = s.cycles;
        let e = energy_of_run(&s, &cfg, &idd);
        let duration_ns = s.cycles as f64 * cfg.interface.t_ck_ns;
        let p = e.avg_power_w(duration_ns);
        // 8 devices × 1.2 V × 42 mA ≈ 0.40 W precharged standby.
        assert!((p - 0.40).abs() < 0.02, "power {p}");
    }

    #[test]
    fn total_is_sum_of_components() {
        let idd = IddParams::default();
        let cfg = MemConfig::paper_baseline();
        let e = energy_of_run(&stats_with(10, 10), &cfg, &idd);
        let sum =
            e.act_j + e.pre_j + e.rd_j + e.wr_j + e.refresh_j + e.background_j + e.migration_j;
        assert!((e.total_j() - sum).abs() < 1e-18);
        assert!(e.total_j() > 0.0);
    }

    #[test]
    fn migration_bursts_show_up_as_their_own_component() {
        let idd = IddParams::default();
        let clr_cfg = MemConfig::paper_clr(1.0);
        let mut s = MemStats::new();
        s.migration_acts_max_capacity = 10;
        s.migration_acts_high_performance = 10;
        s.migration_pres_max_capacity = 10;
        s.migration_pres_high_performance = 10;
        s.migration_reads = 640;
        s.migration_writes = 640;
        let e = energy_of_run(&s, &clr_cfg, &idd);
        assert!(e.migration_j > 0.0);
        assert_eq!(e.act_j, 0.0, "demand components stay clean");
        assert_eq!(e.rd_j, 0.0);
        // The same command mix issued as demand costs the same energy:
        // the split is attribution, not a different model.
        let mut d = MemStats::new();
        d.acts_max_capacity = 10;
        d.acts_high_performance = 10;
        d.pres_max_capacity = 10;
        d.pres_high_performance = 10;
        d.reads = 640;
        d.writes = 640;
        let ed = energy_of_run(&d, &clr_cfg, &idd);
        let demand_sum = ed.act_j + ed.pre_j + ed.rd_j + ed.wr_j;
        assert!((e.migration_j - demand_sum).abs() < 1e-15);
    }

    #[test]
    fn zero_duration_power_is_zero() {
        let e = EnergyBreakdown::default();
        assert_eq!(e.avg_power_w(0.0), 0.0);
    }

    #[test]
    fn class_attribution_partitions_the_total() {
        let idd = IddParams::default();
        let cfg = MemConfig::paper_clr(0.5);
        let mut s = stats_with(100, 300);
        s.migration_reads = 128;
        s.migration_writes = 128;
        s.migration_acts_max_capacity = 2;
        s.migration_pres_max_capacity = 2;
        let e = energy_of_run(&s, &cfg, &idd);
        let c = e.by_class();
        assert!((c.total_j() - e.total_j()).abs() < 1e-15);
        assert!((c.demand_j - (e.act_j + e.pre_j + e.rd_j + e.wr_j)).abs() < 1e-18);
        assert_eq!(c.migration_j, e.migration_j);
        assert_eq!(c.refresh_j, e.refresh_j);
        assert_eq!(c.background_j, e.background_j);
        assert!(c.migration_fraction() > 0.0 && c.migration_fraction() < 1.0);
        assert_eq!(ClassEnergy::default().migration_fraction(), 0.0);
    }

    #[test]
    fn per_channel_energies_sum_to_the_fused_breakdown() {
        let idd = IddParams::default();
        let cfg = MemConfig::paper_clr(0.5);
        let mut a = stats_with(10, 50);
        a.migration_reads = 128;
        a.migration_writes = 128;
        a.migration_acts_max_capacity = 2;
        let mut b = stats_with(200, 5);
        b.migration_writes = 640;
        b.migration_pres_high_performance = 3;
        let per = energy_per_channel([&a, &b], &cfg, &idd);
        assert_eq!(per.len(), 2);
        let fused = energy_of_run(&MemStats::fused([&a, &b]), &cfg, &idd);
        let sum: f64 = per.iter().map(|e| e.total_j()).sum();
        assert!((fused.total_j() - sum).abs() < 1e-15);
        assert!(per[0].migration_j > 0.0 && per[1].migration_j > 0.0);
        assert!(
            (fused.migration_j - (per[0].migration_j + per[1].migration_j)).abs() < 1e-15,
            "migration energy is linear over channels"
        );
    }
}
