//! DRAM timing parameters for each CLR-DRAM operating mode.
//!
//! Two kinds of timings are modelled:
//!
//! * **Cell-array timings** ([`TimingParams`]) — tRCD, tRAS, tRP, tWR,
//!   tRFC, tREFW. These are the analog quantities the paper derives from
//!   SPICE (Table 1) and the ones CLR-DRAM changes per operating mode.
//! * **Interface timings** ([`InterfaceTimings`]) — tCK, CL, CWL, burst
//!   length, tCCD/tRRD/tFAW/tWTR/tRTP and friends. These come from the
//!   DDR4 datasheet and are identical in every mode.
//!
//! [`ClrTimings`] bundles one [`TimingParams`] per mode plus the
//! early-termination and extended-refresh (Figure 11 / CLR-64..194)
//! variants.

use crate::mode::RowMode;

/// Analog cell-array timing parameters, in nanoseconds.
///
/// These are the four key latencies of Table 1 plus the refresh quantities
/// of §3.6. All values are *minimum* constraints the memory controller must
/// respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// ACT → RD/WR: time for the bitline to reach the ready-to-access level.
    pub t_rcd_ns: f64,
    /// ACT → PRE: charge-sharing plus charge-restoration latency.
    pub t_ras_ns: f64,
    /// PRE → ACT: bitline precharge/equalization latency.
    pub t_rp_ns: f64,
    /// End of write burst → PRE: write recovery latency.
    pub t_wr_ns: f64,
    /// Latency of one refresh command.
    pub t_rfc_ns: f64,
    /// Refresh window: every row must be refreshed once per this interval,
    /// in milliseconds.
    pub t_refw_ms: f64,
}

impl TimingParams {
    /// Scales every latency by `factor` (used in sensitivity studies).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        TimingParams {
            t_rcd_ns: self.t_rcd_ns * factor,
            t_ras_ns: self.t_ras_ns * factor,
            t_rp_ns: self.t_rp_ns * factor,
            t_wr_ns: self.t_wr_ns * factor,
            t_rfc_ns: self.t_rfc_ns * factor,
            t_refw_ms: self.t_refw_ms,
        }
    }
}

/// DDR4 interface timings shared by all operating modes.
///
/// Defaults model the paper's DDR4-2400 configuration (Table 2: 1200 MHz
/// bus) with a 16 Gb density per device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterfaceTimings {
    /// DRAM clock period in nanoseconds (0.833 ns at 1200 MHz).
    pub t_ck_ns: f64,
    /// CAS (read) latency in cycles.
    pub cl: u32,
    /// CAS write latency in cycles.
    pub cwl: u32,
    /// Burst length in beats (8 for DDR4), i.e. `bl/2` cycles of data bus.
    pub bl: u32,
    /// Column-to-column delay, same bank group, in cycles.
    pub t_ccd_s: u32,
    /// Column-to-column delay, different bank group, in cycles.
    pub t_ccd_l: u32,
    /// ACT-to-ACT delay, different bank group, in cycles.
    pub t_rrd_s: u32,
    /// ACT-to-ACT delay, same bank group, in cycles.
    pub t_rrd_l: u32,
    /// Four-activate window, in cycles.
    pub t_faw: u32,
    /// Write-to-read turnaround, different bank group, in cycles.
    pub t_wtr_s: u32,
    /// Write-to-read turnaround, same bank group, in cycles.
    pub t_wtr_l: u32,
    /// Read-to-precharge delay, in cycles.
    pub t_rtp: u32,
    /// Average refresh interval (tREFI) in nanoseconds at the base 64 ms
    /// window (7.8125 µs for 8192 refresh commands per window).
    pub t_refi_ns: f64,
}

impl InterfaceTimings {
    /// DDR4-2400 interface timings for a 16 Gb device (JESD79-4 speed bin).
    pub fn ddr4_2400() -> Self {
        InterfaceTimings {
            t_ck_ns: 1.0 / 1.2, // 1200 MHz
            cl: 16,
            cwl: 12,
            bl: 8,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 26,
            t_wtr_s: 3,
            t_wtr_l: 9,
            t_rtp: 9,
            t_refi_ns: 7812.5,
        }
    }

    /// Cycles occupied on the data bus by one burst (`bl / 2` for DDR).
    pub fn burst_cycles(&self) -> u32 {
        self.bl / 2
    }

    /// Converts a nanosecond quantity to a (ceiling) cycle count.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns / self.t_ck_ns).ceil() as u64
    }
}

impl Default for InterfaceTimings {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

/// Extended-refresh operating points evaluated in §8.5 (Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshVariant {
    /// Base 64 ms refresh window (CLR-64).
    Clr64,
    /// 114 ms window — the paper's best-performing point.
    Clr114,
    /// 124 ms window.
    Clr124,
    /// 184 ms window.
    Clr184,
    /// 194 ms window — maximum safe extension (≈ 3.03×).
    Clr194,
}

impl RefreshVariant {
    /// All variants in sweep order.
    pub const ALL: [RefreshVariant; 5] = [
        RefreshVariant::Clr64,
        RefreshVariant::Clr114,
        RefreshVariant::Clr124,
        RefreshVariant::Clr184,
        RefreshVariant::Clr194,
    ];

    /// The refresh window in milliseconds.
    pub fn refw_ms(self) -> f64 {
        match self {
            RefreshVariant::Clr64 => 64.0,
            RefreshVariant::Clr114 => 114.0,
            RefreshVariant::Clr124 => 124.0,
            RefreshVariant::Clr184 => 184.0,
            RefreshVariant::Clr194 => 194.0,
        }
    }

    /// Display label matching the paper ("CLR-64" ... "CLR-194").
    pub fn label(self) -> &'static str {
        match self {
            RefreshVariant::Clr64 => "CLR-64",
            RefreshVariant::Clr114 => "CLR-114",
            RefreshVariant::Clr124 => "CLR-124",
            RefreshVariant::Clr184 => "CLR-184",
            RefreshVariant::Clr194 => "CLR-194",
        }
    }
}

/// The complete CLR-DRAM timing model: one parameter set per operating mode
/// plus derived variants.
///
/// The canonical constructor is [`ClrTimings::from_circuit_defaults`], whose
/// values reproduce Table 1 of the paper and are cross-checked against the
/// `clr-circuit` transient simulator in that crate's tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ClrTimings {
    baseline: TimingParams,
    max_capacity: TimingParams,
    high_performance: TimingParams,
    high_performance_no_et: TimingParams,
}

/// Maximum refresh window before the coupled cell's residual charge is too
/// low to sense (the Figure 11 sweep stops at 204 ms; 194 ms is the last
/// safe evaluated point).
pub const MAX_SAFE_REFW_MS: f64 = 204.0;

impl ClrTimings {
    /// Timing sets matching the paper's circuit results (Table 1) for a
    /// DDR4-2400, 16 Gb-device system.
    ///
    /// * baseline: unmodified open-bitline array,
    /// * max-capacity: bitline mode select transistors inserted (slightly
    ///   better tRCD/tRP, slightly worse tRAS/tWR),
    /// * high-performance (with early termination, the paper's default),
    /// * high-performance without early termination (ablation).
    ///
    /// tRFC for high-performance rows is the DDR4 16 Gb tRFC scaled by the
    /// mean of the tRAS and tRP reductions, exactly as §8.1 prescribes.
    pub fn from_circuit_defaults() -> Self {
        let baseline = TimingParams {
            t_rcd_ns: 13.8,
            t_ras_ns: 39.4,
            t_rp_ns: 15.5,
            t_wr_ns: 12.5,
            t_rfc_ns: 550.0,
            t_refw_ms: 64.0,
        };
        // §8.1 scales tRFC only for high-performance rows; max-capacity rows
        // refresh with the stock DDR4 tRFC.
        let max_capacity = TimingParams {
            t_rcd_ns: 13.2,
            t_ras_ns: 40.3,
            t_rp_ns: 8.3,
            t_wr_ns: 13.3,
            t_rfc_ns: 550.0,
            t_refw_ms: 64.0,
        };
        let hp_et = TimingParams {
            t_rcd_ns: 5.5,
            t_ras_ns: 14.1,
            t_rp_ns: 8.3,
            t_wr_ns: 8.1,
            t_rfc_ns: Self::scaled_rfc(550.0, &baseline, 14.1, 8.3),
            t_refw_ms: 64.0,
        };
        let hp_no_et = TimingParams {
            t_rcd_ns: 5.4,
            t_ras_ns: 20.3,
            t_rp_ns: 8.3,
            t_wr_ns: 12.5,
            t_rfc_ns: Self::scaled_rfc(550.0, &baseline, 20.3, 8.3),
            t_refw_ms: 64.0,
        };
        ClrTimings {
            baseline,
            max_capacity,
            high_performance: hp_et,
            high_performance_no_et: hp_no_et,
        }
    }

    /// §8.1: tRFC for reconfigured rows is the baseline tRFC reduced by the
    /// average of the tRAS and tRP reductions.
    fn scaled_rfc(base_rfc: f64, baseline: &TimingParams, ras: f64, rp: f64) -> f64 {
        let ras_red = 1.0 - ras / baseline.t_ras_ns;
        let rp_red = 1.0 - rp / baseline.t_rp_ns;
        base_rfc * (1.0 - 0.5 * (ras_red + rp_red))
    }

    /// The unmodified open-bitline baseline timings.
    pub fn baseline(&self) -> &TimingParams {
        &self.baseline
    }

    /// Timings for a row operating in the given mode (early termination
    /// applied for high-performance rows, as in the paper's evaluation).
    pub fn for_mode(&self, mode: RowMode) -> &TimingParams {
        match mode {
            RowMode::MaxCapacity => &self.max_capacity,
            RowMode::HighPerformance => &self.high_performance,
        }
    }

    /// High-performance timings *without* early termination of charge
    /// restoration (Table 1's "w/o E.T." column) — used by ablations.
    pub fn high_performance_no_early_termination(&self) -> &TimingParams {
        &self.high_performance_no_et
    }

    /// High-performance timings at an extended refresh window, following
    /// the Figure 11 sensitivity sweep: tRCD and tRAS grow with the window
    /// because the cell holds less charge when activated late in the
    /// window.
    ///
    /// Returns `None` for windows beyond [`MAX_SAFE_REFW_MS`], where the
    /// worst-case cell can no longer be sensed reliably.
    ///
    /// The growth model linearly interpolates the paper's digitized
    /// endpoints: +3.24 ns tRCD and +3.04 ns tRAS when going from 64 ms to
    /// 194 ms. (The `clr-circuit` crate regenerates this curve from first
    /// principles; see `clr_circuit::retention`.)
    pub fn high_performance_at_refw(&self, refw_ms: f64) -> Option<TimingParams> {
        if !(refw_ms >= self.high_performance.t_refw_ms && refw_ms <= MAX_SAFE_REFW_MS) {
            return None;
        }
        let span = 194.0 - 64.0;
        let frac = (refw_ms - 64.0) / span;
        let hp = self.high_performance;
        Some(TimingParams {
            t_rcd_ns: hp.t_rcd_ns + 3.24 * frac,
            t_ras_ns: hp.t_ras_ns + 3.04 * frac,
            t_refw_ms: refw_ms,
            ..hp
        })
    }

    /// Timings for one of the named refresh variants of §8.5.
    pub fn refresh_variant(&self, v: RefreshVariant) -> TimingParams {
        self.high_performance_at_refw(v.refw_ms())
            .expect("named refresh variants are always within the safe window")
    }
}

impl Default for ClrTimings {
    fn default() -> Self {
        Self::from_circuit_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn table1_reductions_match_paper() {
        let t = ClrTimings::from_circuit_defaults();
        let b = t.baseline();
        let hp = t.for_mode(RowMode::HighPerformance);
        assert!(close(1.0 - hp.t_rcd_ns / b.t_rcd_ns, 0.601, 0.005));
        assert!(close(1.0 - hp.t_ras_ns / b.t_ras_ns, 0.642, 0.005));
        assert!(close(1.0 - hp.t_rp_ns / b.t_rp_ns, 0.464, 0.005));
        assert!(close(1.0 - hp.t_wr_ns / b.t_wr_ns, 0.352, 0.005));
    }

    #[test]
    fn max_capacity_mode_tradeoffs_match_paper() {
        let t = ClrTimings::from_circuit_defaults();
        let b = t.baseline();
        let mc = t.for_mode(RowMode::MaxCapacity);
        // tRCD slightly lower, tRAS/tWR slightly higher, tRP much lower.
        assert!(mc.t_rcd_ns < b.t_rcd_ns);
        assert!(mc.t_ras_ns > b.t_ras_ns);
        assert!(mc.t_wr_ns > b.t_wr_ns);
        assert!(close(1.0 - mc.t_rp_ns / b.t_rp_ns, 0.464, 0.005));
    }

    #[test]
    fn hp_rfc_uses_mean_of_ras_rp_reductions() {
        let t = ClrTimings::from_circuit_defaults();
        let hp = t.for_mode(RowMode::HighPerformance);
        // mean(64.2%, 46.4%) ≈ 55.3% reduction of 550 ns ≈ 246 ns.
        assert!(close(hp.t_rfc_ns, 550.0 * (1.0 - 0.553), 3.0));
    }

    #[test]
    fn refresh_window_extension_increases_latency() {
        let t = ClrTimings::from_circuit_defaults();
        let hp64 = t.refresh_variant(RefreshVariant::Clr64);
        let hp194 = t.refresh_variant(RefreshVariant::Clr194);
        assert!(close(hp194.t_rcd_ns - hp64.t_rcd_ns, 3.24, 0.01));
        assert!(close(hp194.t_ras_ns - hp64.t_ras_ns, 3.04, 0.01));
        // Paper: ×1.58 tRCD, ×1.21 tRAS at 194 ms.
        assert!(close(hp194.t_rcd_ns / hp64.t_rcd_ns, 1.58, 0.02));
        assert!(close(hp194.t_ras_ns / hp64.t_ras_ns, 1.21, 0.02));
    }

    #[test]
    fn unsafe_refresh_window_rejected() {
        let t = ClrTimings::from_circuit_defaults();
        assert!(t.high_performance_at_refw(230.0).is_none());
        assert!(t.high_performance_at_refw(32.0).is_none());
        assert!(t.high_performance_at_refw(204.0).is_some());
    }

    #[test]
    fn interface_timing_cycle_conversion_rounds_up() {
        let i = InterfaceTimings::ddr4_2400();
        assert_eq!(i.ns_to_cycles(0.0), 0);
        assert_eq!(i.ns_to_cycles(i.t_ck_ns), 1);
        assert_eq!(i.ns_to_cycles(i.t_ck_ns * 1.01), 2);
        assert_eq!(i.burst_cycles(), 4);
    }

    #[test]
    fn variant_labels_and_windows() {
        assert_eq!(RefreshVariant::Clr114.label(), "CLR-114");
        assert!(close(RefreshVariant::Clr194.refw_ms() / 64.0, 3.03, 0.01));
    }

    #[test]
    fn scaled_preserves_refw() {
        let t = ClrTimings::from_circuit_defaults();
        let s = t.baseline().scaled(2.0);
        assert!(close(s.t_rcd_ns, 27.6, 1e-9));
        assert!(close(s.t_refw_ms, 64.0, 1e-9));
    }
}
