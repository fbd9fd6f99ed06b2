//! Memory-system configuration.

use clr_core::addr::AddressMapping;
use clr_core::geometry::DramGeometry;
use clr_core::timing::{ClrTimings, InterfaceTimings, TimingParams};

use crate::frames::DestinationPicker;
use crate::migrate::RelocationConfig;

/// How the CLR-DRAM device is configured for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum ClrModeConfig {
    /// Unmodified DDR4 baseline: no isolation transistors, baseline analog
    /// timings everywhere, single refresh stream at 64 ms.
    BaselineDdr4,
    /// CLR-DRAM with a fraction of rows per bank configured as
    /// high-performance (the contiguous low-row prefix) and the rest in
    /// max-capacity mode.
    Clr {
        /// Fraction of rows per bank in high-performance mode (0.0..=1.0).
        fraction_hp: f64,
        /// Refresh window for high-performance rows in milliseconds
        /// (64.0 for CLR-64 up to 194.0 for CLR-194).
        hp_refw_ms: f64,
        /// Apply early termination of charge restoration (Table 1
        /// "w/ E.T."; the paper's default is `true`).
        early_termination: bool,
    },
}

impl ClrModeConfig {
    /// Convenience: CLR at the base 64 ms window with early termination.
    pub fn clr(fraction_hp: f64) -> Self {
        ClrModeConfig::Clr {
            fraction_hp,
            hp_refw_ms: 64.0,
            early_termination: true,
        }
    }

    /// The configured high-performance row fraction (0 for the baseline).
    pub fn fraction_hp(&self) -> f64 {
        match self {
            ClrModeConfig::BaselineDdr4 => 0.0,
            ClrModeConfig::Clr { fraction_hp, .. } => *fraction_hp,
        }
    }

    /// Resolves the high-performance analog timing set for this
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the refresh window is outside the safe range.
    pub fn hp_params(&self, timings: &ClrTimings) -> TimingParams {
        match self {
            ClrModeConfig::BaselineDdr4 => *timings.baseline(),
            ClrModeConfig::Clr {
                hp_refw_ms,
                early_termination,
                ..
            } => {
                let base = if *early_termination {
                    timings
                        .high_performance_at_refw(*hp_refw_ms)
                        .expect("refresh window outside the safe range")
                } else {
                    // Ablation: no early termination. The refresh-window
                    // growth applies on top of the non-ET set.
                    let et = timings
                        .high_performance_at_refw(*hp_refw_ms)
                        .expect("refresh window outside the safe range");
                    let no_et = timings.high_performance_no_early_termination();
                    TimingParams {
                        t_rcd_ns: no_et.t_rcd_ns
                            + (et.t_rcd_ns
                                - timings
                                    .for_mode(clr_core::mode::RowMode::HighPerformance)
                                    .t_rcd_ns),
                        t_ras_ns: no_et.t_ras_ns
                            + (et.t_ras_ns
                                - timings
                                    .for_mode(clr_core::mode::RowMode::HighPerformance)
                                    .t_ras_ns),
                        t_refw_ms: *hp_refw_ms,
                        ..*no_et
                    }
                };
                base
            }
        }
    }
}

/// Controller scheduling parameters: the knobs a caller varies. The rest
/// is fixed: Table 2's 64-entry read and write queues
/// ([`SchedulerConfig::READ_QUEUE`], [`SchedulerConfig::WRITE_QUEUE`]),
/// and the Ramulator-style write drain from
/// [`SchedulerConfig::WRITE_HIGH_WATERMARK`] queued writes down to
/// [`SchedulerConfig::WRITE_LOW_WATERMARK`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// FR-FCFS-Cap: maximum younger row hits served over an older request
    /// to the same bank before the scheduler reverts to oldest-first.
    pub cap: u32,
    /// The timeout row policy: an open row no queued request targets is
    /// closed once it has sat idle this long, in nanoseconds (the paper's
    /// 120 ns, Table 2 footnote; 0 closes it as soon as the bank allows).
    pub row_timeout_ns: f64,
}

impl SchedulerConfig {
    /// Read queue capacity (entries).
    pub const READ_QUEUE: usize = 64;
    /// Write queue capacity (entries).
    pub const WRITE_QUEUE: usize = 64;
    /// Writes start draining when this many are queued.
    pub const WRITE_HIGH_WATERMARK: usize = 48;
    /// A drain stops when the write queue falls to this many.
    pub const WRITE_LOW_WATERMARK: usize = 16;
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            cap: 4,
            row_timeout_ns: 120.0,
        }
    }
}

/// Complete memory-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// DRAM organization.
    pub geometry: DramGeometry,
    /// Physical-address interleaving.
    pub mapping: AddressMapping,
    /// DDR4 interface timings.
    pub interface: InterfaceTimings,
    /// Analog timing model (Table 1 sets).
    pub timings: ClrTimings,
    /// CLR operating configuration.
    pub clr: ClrModeConfig,
    /// Controller scheduling parameters.
    pub scheduler: SchedulerConfig,
    /// Enable periodic refresh (disable only in microbenchmarks).
    pub refresh_enabled: bool,
    /// How mode-transition data movement is realized (legacy
    /// stall-the-world by default; see [`crate::migrate`]).
    pub relocation: RelocationConfig,
    /// Where a coupling's displaced data is placed (legacy same-bank by
    /// default; see [`crate::frames`]).
    pub placement: DestinationPicker,
}

impl MemConfig {
    /// The paper's Table 2 system: DDR4-2400, 16 Gb chips, 4 bank groups ×
    /// 4 banks, FR-FCFS-Cap, 64-entry queues — in baseline DDR4 form.
    pub fn paper_baseline() -> Self {
        MemConfig {
            geometry: DramGeometry::ddr4_16gb_x8(),
            mapping: AddressMapping::RoBgBaRaCoCh,
            interface: InterfaceTimings::ddr4_2400(),
            timings: ClrTimings::from_circuit_defaults(),
            clr: ClrModeConfig::BaselineDdr4,
            scheduler: SchedulerConfig::default(),
            refresh_enabled: true,
            relocation: RelocationConfig::default(),
            placement: DestinationPicker::default(),
        }
    }

    /// The paper's system with CLR-DRAM configured at the given
    /// high-performance row fraction (64 ms window, early termination on).
    pub fn paper_clr(fraction_hp: f64) -> Self {
        MemConfig {
            clr: ClrModeConfig::clr(fraction_hp),
            ..Self::paper_baseline()
        }
    }

    /// Tiny geometry for fast unit tests (baseline DDR4 timing).
    pub fn paper_tiny() -> Self {
        MemConfig {
            geometry: DramGeometry::tiny(),
            ..Self::paper_baseline()
        }
    }

    /// Tiny geometry with CLR enabled.
    pub fn tiny_clr(fraction_hp: f64) -> Self {
        MemConfig {
            geometry: DramGeometry::tiny(),
            ..Self::paper_clr(fraction_hp)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_core::mode::RowMode;

    #[test]
    fn baseline_hp_params_equal_baseline() {
        let c = MemConfig::paper_baseline();
        assert_eq!(c.clr.hp_params(&c.timings), *c.timings.baseline());
    }

    #[test]
    fn clr_hp_params_track_refresh_window() {
        let t = ClrTimings::from_circuit_defaults();
        let base = ClrModeConfig::clr(1.0).hp_params(&t);
        let ext = ClrModeConfig::Clr {
            fraction_hp: 1.0,
            hp_refw_ms: 194.0,
            early_termination: true,
        }
        .hp_params(&t);
        assert!(ext.t_rcd_ns > base.t_rcd_ns);
        assert!((ext.t_rcd_ns - base.t_rcd_ns - 3.24).abs() < 0.01);
    }

    #[test]
    fn no_early_termination_ablation_uses_table1_column() {
        let t = ClrTimings::from_circuit_defaults();
        let no_et = ClrModeConfig::Clr {
            fraction_hp: 1.0,
            hp_refw_ms: 64.0,
            early_termination: false,
        }
        .hp_params(&t);
        let expect = t.high_performance_no_early_termination();
        assert!((no_et.t_ras_ns - expect.t_ras_ns).abs() < 1e-9);
        assert!((no_et.t_wr_ns - expect.t_wr_ns).abs() < 1e-9);
        // E.T. on: tRAS must be lower.
        let et = ClrModeConfig::clr(1.0).hp_params(&t);
        assert!(et.t_ras_ns < no_et.t_ras_ns);
    }

    #[test]
    fn fraction_accessor() {
        assert_eq!(ClrModeConfig::BaselineDdr4.fraction_hp(), 0.0);
        assert_eq!(ClrModeConfig::clr(0.75).fraction_hp(), 0.75);
        let _ = RowMode::HighPerformance; // silence unused import lint in cfg(test)
    }
}
