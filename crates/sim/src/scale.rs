//! Experiment scaling knobs.
//!
//! The paper simulates 200 M instructions per core after 100 M of warmup.
//! Relative IPC/energy deltas in a trace-driven closed-loop model
//! stabilise at much smaller budgets; the scale selects the trade-off.

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// CI-sized: seconds per experiment.
    Smoke,
    /// Minutes per experiment — the default for the bench binaries.
    #[default]
    Default,
    /// Closest to paper scale (tens of minutes for the full sweeps).
    Full,
}

impl Scale {
    /// Every scale, smallest first.
    const ALL: [Scale; 3] = [Scale::Smoke, Scale::Default, Scale::Full];

    /// Parses a `CLR_SCALE` value: unset means `Default`, `smoke` /
    /// `default` / `full` name their scale, and anything else is an error
    /// naming the three values.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        let Some(value) = value else {
            return Ok(Scale::Default);
        };
        Self::ALL
            .into_iter()
            .find(|s| s.label() == value)
            .ok_or_else(|| format!("CLR_SCALE must be smoke, default or full, not {value:?}"))
    }

    /// Reads the scale from the `CLR_SCALE` environment variable (see
    /// [`Scale::parse`]). Binaries refuse an error rather than run the
    /// minutes-long default scale on a typo.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("CLR_SCALE");
        Self::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// Instructions each core must retire in the measurement window.
    pub fn budget_insts(self) -> u64 {
        match self {
            Scale::Smoke => 30_000,
            Scale::Default => 250_000,
            Scale::Full => 2_000_000,
        }
    }

    /// Warmup instructions per core before measurement.
    pub fn warmup_insts(self) -> u64 {
        match self {
            Scale::Smoke => 5_000,
            Scale::Default => 50_000,
            Scale::Full => 400_000,
        }
    }

    /// Multiprogrammed mixes per group (paper: 30).
    pub fn mixes_per_group(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 8,
            Scale::Full => 30,
        }
    }

    /// Workloads used in the single-core sweeps (paper: all 71).
    pub fn single_core_workloads(self) -> usize {
        match self {
            Scale::Smoke => 6,
            Scale::Default => 71,
            Scale::Full => 71,
        }
    }

    /// Monte-Carlo iterations for circuit experiments (paper: 10⁴).
    pub fn monte_carlo_iterations(self) -> usize {
        match self {
            Scale::Smoke => 20,
            Scale::Default => 200,
            Scale::Full => 10_000,
        }
    }

    /// Human-readable label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.budget_insts() < Scale::Default.budget_insts());
        assert!(Scale::Default.budget_insts() < Scale::Full.budget_insts());
        assert!(Scale::Full.mixes_per_group() == 30);
    }

    #[test]
    fn env_parsing_defaults_safely() {
        // The parsing alone: the test process's own CLR_SCALE (CI sets
        // one for the whole job) must not decide the outcome.
        assert_eq!(Scale::parse(None), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("smoke")), Ok(Scale::Smoke));
        assert_eq!(Scale::parse(Some("default")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for bad in ["Smoke", "", " smoke", "fast"] {
            let err = Scale::parse(Some(bad)).expect_err(bad);
            assert!(err.contains("smoke, default or full"), "{err}");
        }
    }
}
