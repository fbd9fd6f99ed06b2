//! Table 1 extraction: the four timing parameters across the four
//! configurations.

use crate::dram::{build, Topology};
use crate::params::CircuitParams;
use crate::retention::initial_cell_voltage;
use crate::scenario::{run_act_pre, run_write_recovery, ActPreOptions};

/// tRCD/tRAS/tRP/tWR of one configuration (ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeTimings {
    /// ACT → ready-to-access.
    pub t_rcd_ns: f64,
    /// ACT → restoration complete.
    pub t_ras_ns: f64,
    /// PRE → ready for ACT.
    pub t_rp_ns: f64,
    /// Write recovery.
    pub t_wr_ns: f64,
}

/// The measured Table 1: all four columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Measurement {
    /// Conventional open-bitline baseline.
    pub baseline: ModeTimings,
    /// CLR-DRAM max-capacity mode.
    pub max_capacity: ModeTimings,
    /// High-performance mode without early termination.
    pub hp_no_et: ModeTimings,
    /// High-performance mode with early termination.
    pub hp_et: ModeTimings,
}

impl Table1Measurement {
    /// Reduction of the w/ E.T. configuration vs the baseline, as
    /// fractions `(tRCD, tRAS, tRP, tWR)`.
    pub fn reductions(&self) -> (f64, f64, f64, f64) {
        (
            1.0 - self.hp_et.t_rcd_ns / self.baseline.t_rcd_ns,
            1.0 - self.hp_et.t_ras_ns / self.baseline.t_ras_ns,
            1.0 - self.hp_et.t_rp_ns / self.baseline.t_rp_ns,
            1.0 - self.hp_et.t_wr_ns / self.baseline.t_wr_ns,
        )
    }
}

/// Measures one topology at the given stored-'1' level; `early_termination`
/// picks which restoration target defines tRAS/tWR.
///
/// # Panics
///
/// Panics if the cell fails to sense, or if a timing of either
/// restoration target is not finite — a phase hit the simulation limit
/// before its threshold. §7.1 requires every run to succeed.
pub fn measure_mode(topology: Topology, p: &CircuitParams, early_termination: bool) -> ModeTimings {
    let (full, et) = measure_targets(topology, p);
    if early_termination {
        et
    } else {
        full
    }
}

/// Measures one topology with one activate/precharge run and one
/// write-recovery run, and reads both restoration targets off them:
/// `(full restoration, early termination)`. The two differ only in tRAS
/// and tWR. Panics as [`measure_mode`] does.
pub(crate) fn measure_targets(topology: Topology, p: &CircuitParams) -> (ModeTimings, ModeTimings) {
    let v0 = initial_cell_voltage(p, 64.0);
    let sub = build(topology, p);
    let act = run_act_pre(&sub, p, ActPreOptions::nominal(v0));
    assert!(act.sense_correct, "{topology:?} failed to sense");
    let (wr_full, wr_et) = run_write_recovery(&sub, p, v0);
    let full = ModeTimings {
        t_rcd_ns: act.t_rcd_ns,
        t_ras_ns: act.t_ras_full_ns,
        t_rp_ns: act.t_rp_ns,
        t_wr_ns: wr_full,
    };
    let et = ModeTimings {
        t_ras_ns: act.t_ras_et_ns,
        t_wr_ns: wr_et,
        ..full
    };
    // A phase that never crossed its threshold leaves NaN.
    for m in [full, et] {
        let finite = [m.t_rcd_ns, m.t_ras_ns, m.t_rp_ns, m.t_wr_ns]
            .iter()
            .all(|t| t.is_finite());
        assert!(finite, "{topology:?} timed out before a threshold: {m:?}");
    }
    (full, et)
}

/// Measures the full Table 1 with nominal (non-Monte-Carlo) parameters.
/// The high-performance topology is simulated once for both of its
/// columns.
pub fn measure_table1(p: &CircuitParams) -> Table1Measurement {
    let baseline = measure_mode(Topology::OpenBitlineBaseline, p, false);
    let max_capacity = measure_mode(Topology::ClrMaxCapacity, p, false);
    let (hp_no_et, hp_et) = measure_targets(Topology::ClrHighPerformance, p);
    Table1Measurement {
        baseline,
        max_capacity,
        hp_no_et,
        hp_et,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let p = CircuitParams::default_22nm();
        let t = measure_table1(&p);
        let (rcd, ras, rp, wr) = t.reductions();
        // Paper: −60.1 %, −64.2 %, −46.4 %, −35.2 %. We require the same
        // ordering and magnitudes within generous tolerances — absolute
        // calibration is checked in the comparison test below.
        assert!(rcd > 0.35, "tRCD reduction {rcd}");
        assert!(ras > 0.40, "tRAS reduction {ras}");
        assert!(rp > 0.25, "tRP reduction {rp}");
        assert!(wr > 0.10, "tWR reduction {wr}");
        // Early termination reduces tRAS further, at similar tRCD.
        assert!(t.hp_et.t_ras_ns < t.hp_no_et.t_ras_ns);
        // Max-capacity: tRP drops, restoration slightly slower.
        assert!(t.max_capacity.t_rp_ns < t.baseline.t_rp_ns);
        assert!(t.max_capacity.t_ras_ns >= 0.95 * t.baseline.t_ras_ns);
    }

    #[test]
    fn baseline_calibration_is_in_ddr4_range() {
        let p = CircuitParams::default_22nm();
        let b = measure_mode(Topology::OpenBitlineBaseline, &p, false);
        // Within ±40 % of the paper's baseline (13.8 / 39.4 / 15.5 / 12.5).
        assert!((8.0..=20.0).contains(&b.t_rcd_ns), "tRCD {}", b.t_rcd_ns);
        assert!((24.0..=56.0).contains(&b.t_ras_ns), "tRAS {}", b.t_ras_ns);
        assert!((9.0..=22.0).contains(&b.t_rp_ns), "tRP {}", b.t_rp_ns);
        assert!((7.0..=18.0).contains(&b.t_wr_ns), "tWR {}", b.t_wr_ns);
    }
}
