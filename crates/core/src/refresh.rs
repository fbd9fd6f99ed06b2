//! Heterogeneous refresh planning (§3.6, §5.2, §8.5).
//!
//! A DDR4 device refreshes the whole rank with 8192 REF commands per 64 ms
//! window, i.e. one REF every tREFI = 7.8125 µs, each lasting tRFC.
//! CLR-DRAM introduces heterogeneity: rows in high-performance mode refresh
//! with a smaller tRFC (faster activate + precharge) and may refresh less
//! often (larger tREFW, up to ≈ 3×). The controller therefore runs up to
//! two refresh *streams*, one per mode, each covering the row population of
//! that mode.

use crate::mode::RowMode;
use crate::timing::ClrTimings;

/// Number of REF commands a DDR4 device needs to cover a full refresh
/// window (JESD79-4; 8192 for all densities used here).
pub const REF_COMMANDS_PER_WINDOW: u64 = 8192;

/// One periodic refresh stream: a REF command of `t_rfc_ns` issued every
/// `interval_ns` covering the rows of one operating mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshStream {
    /// Operating mode of rows covered by this stream.
    pub mode: RowMode,
    /// Time between consecutive REF commands of this stream (its effective
    /// tREFI), in nanoseconds.
    pub interval_ns: f64,
    /// Duration of each REF command, in nanoseconds.
    pub t_rfc_ns: f64,
    /// Fraction of all rows covered by this stream.
    pub row_fraction: f64,
}

impl RefreshStream {
    /// Fraction of wall-clock time the rank is blocked by this stream.
    pub fn busy_fraction(&self) -> f64 {
        if self.interval_ns <= 0.0 {
            0.0
        } else {
            self.t_rfc_ns / self.interval_ns
        }
    }

    /// REF commands issued by this stream over `duration_ns`.
    pub fn commands_over(&self, duration_ns: f64) -> u64 {
        if self.interval_ns <= 0.0 {
            0
        } else {
            (duration_ns / self.interval_ns).floor() as u64
        }
    }
}

/// The refresh schedule for a rank with a mixed-mode row population.
///
/// # Example
///
/// ```
/// use clr_core::refresh::RefreshPlan;
/// use clr_core::timing::ClrTimings;
///
/// let t = ClrTimings::from_circuit_defaults();
/// // All rows high-performance, 64 ms window: one fast stream.
/// let plan = RefreshPlan::new(&t, 1.0, 64.0);
/// assert_eq!(plan.streams().len(), 1);
/// // Mixed population: two streams.
/// let plan = RefreshPlan::new(&t, 0.25, 114.0);
/// assert_eq!(plan.streams().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshPlan {
    streams: Vec<RefreshStream>,
}

impl RefreshPlan {
    /// Builds the refresh plan for a rank where `fraction_hp` of rows are
    /// high-performance and high-performance rows use a `hp_refw_ms`
    /// refresh window (64 ms for CLR-64 up to 194 ms for CLR-194).
    ///
    /// Each stream issues `REF_COMMANDS_PER_WINDOW × row_fraction` commands
    /// per its window, preserving the per-REF row coverage of the base
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if `fraction_hp` is outside `0.0..=1.0` or `hp_refw_ms` is
    /// outside the safe window (see
    /// [`ClrTimings::high_performance_at_refw`]).
    pub fn new(timings: &ClrTimings, fraction_hp: f64, hp_refw_ms: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction_hp), "invalid fraction");
        let hp = timings
            .high_performance_at_refw(hp_refw_ms)
            .expect("refresh window outside the safe range");
        let base = timings.for_mode(RowMode::MaxCapacity);
        let mut streams = Vec::new();
        let mc_fraction = 1.0 - fraction_hp;
        if mc_fraction > 0.0 {
            let cmds = REF_COMMANDS_PER_WINDOW as f64 * mc_fraction;
            streams.push(RefreshStream {
                mode: RowMode::MaxCapacity,
                interval_ns: base.t_refw_ms * 1e6 / cmds,
                t_rfc_ns: base.t_rfc_ns,
                row_fraction: mc_fraction,
            });
        }
        if fraction_hp > 0.0 {
            let cmds = REF_COMMANDS_PER_WINDOW as f64 * fraction_hp;
            streams.push(RefreshStream {
                mode: RowMode::HighPerformance,
                interval_ns: hp_refw_ms * 1e6 / cmds,
                t_rfc_ns: hp.t_rfc_ns,
                row_fraction: fraction_hp,
            });
        }
        RefreshPlan { streams }
    }

    /// The active refresh streams (1 for homogeneous populations, 2 for
    /// mixed).
    pub fn streams(&self) -> &[RefreshStream] {
        &self.streams
    }

    /// Total fraction of time the rank is blocked by refresh.
    pub fn total_busy_fraction(&self) -> f64 {
        self.streams.iter().map(RefreshStream::busy_fraction).sum()
    }

    /// Total refresh-command time (ns) accumulated over `duration_ns`,
    /// the quantity refresh energy is proportional to.
    pub fn refresh_time_over(&self, duration_ns: f64) -> f64 {
        self.streams
            .iter()
            .map(|s| s.commands_over(duration_ns) as f64 * s.t_rfc_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings() -> ClrTimings {
        ClrTimings::from_circuit_defaults()
    }

    #[test]
    fn baseline_plan_matches_ddr4() {
        let plan = RefreshPlan::new(&timings(), 0.0, 64.0);
        assert_eq!(plan.streams().len(), 1);
        let s = plan.streams()[0];
        assert_eq!(s.mode, RowMode::MaxCapacity);
        // tREFI = 64 ms / 8192 = 7812.5 ns.
        assert!((s.interval_ns - 7812.5).abs() < 1e-6);
        // Refresh busy fraction ≈ 550/7812.5 ≈ 7 %.
        assert!((plan.total_busy_fraction() - 0.0704).abs() < 0.001);
    }

    #[test]
    fn all_hp_plan_cuts_busy_fraction() {
        let plan = RefreshPlan::new(&timings(), 1.0, 64.0);
        assert_eq!(plan.streams().len(), 1);
        let s = plan.streams()[0];
        assert_eq!(s.mode, RowMode::HighPerformance);
        // Same command rate, smaller tRFC (≈ 0.447×).
        assert!((s.interval_ns - 7812.5).abs() < 1e-6);
        assert!(s.t_rfc_ns < 0.5 * 550.0);
    }

    #[test]
    fn extended_window_slows_hp_stream() {
        let p64 = RefreshPlan::new(&timings(), 1.0, 64.0);
        let p194 = RefreshPlan::new(&timings(), 1.0, 194.0);
        let r64 = p64.streams()[0];
        let r194 = p194.streams()[0];
        assert!((r194.interval_ns / r64.interval_ns - 194.0 / 64.0).abs() < 1e-9);
        // Refresh time over a fixed duration drops ~3× further.
        let d = 1e9; // 1 s
        let ratio = p194.refresh_time_over(d) / p64.refresh_time_over(d);
        assert!((ratio - 64.0 / 194.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn mixed_plan_covers_all_rows() {
        let plan = RefreshPlan::new(&timings(), 0.25, 114.0);
        let total: f64 = plan.streams().iter().map(|s| s.row_fraction).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // The max-capacity stream must still complete its window: commands
        // per window × interval = window.
        for s in plan.streams() {
            let window_ms = match s.mode {
                RowMode::MaxCapacity => 64.0,
                RowMode::HighPerformance => 114.0,
            };
            let cmds = REF_COMMANDS_PER_WINDOW as f64 * s.row_fraction;
            assert!((s.interval_ns * cmds - window_ms * 1e6).abs() < 1.0);
        }
    }

    #[test]
    fn refresh_energy_shape_matches_paper() {
        // §8.5: all-HP CLR-64 already saves ~55 % of refresh-command time
        // (energy savings grow to 66 % with runtime reduction); CLR-194
        // saves ~85 % of refresh-command time.
        let base = RefreshPlan::new(&timings(), 0.0, 64.0);
        let hp64 = RefreshPlan::new(&timings(), 1.0, 64.0);
        let hp194 = RefreshPlan::new(&timings(), 1.0, 194.0);
        let d = 1e9;
        let r64 = hp64.refresh_time_over(d) / base.refresh_time_over(d);
        let r194 = hp194.refresh_time_over(d) / base.refresh_time_over(d);
        assert!((r64 - 0.447).abs() < 0.02, "CLR-64 ratio {r64}");
        assert!((r194 - 0.147).abs() < 0.02, "CLR-194 ratio {r194}");
    }

    #[test]
    #[should_panic(expected = "safe range")]
    fn unsafe_window_panics() {
        RefreshPlan::new(&timings(), 1.0, 400.0);
    }
}
