//! Declarative service-level objectives over [`TimeSeries`] windows:
//! error-budget accounting, multi-window burn-rate alerts, and a
//! machine-checkable [`SloReport`] verdict.
//!
//! An [`SloSpec`] names a set of [`WindowedObjective`]s — per-window
//! bounds on a [`WindowMetric`] (windowed tail latency, stall cycles,
//! queue depth, migration-slot utilization) with an *error budget*: the
//! fraction of windows allowed to violate the bound before the
//! objective fails (`0.0` makes it a hard invariant). Scalar,
//! whole-run facts the series cannot see (weighted speedup, max
//! slowdown) ride along as [`ScalarObjective`]s supplied by the caller.
//! Budgeted objectives raise SRE-style burn-rate alerts when both a
//! short (5-window) and a long (30-window) trailing window consume
//! budget at ≥ 4× the sustainable rate — early warning that a passing
//! objective is trending toward failure.
//!
//! Evaluation is pure and deterministic: the same series always yields
//! the same report, so CI can assert `report.pass()` and trajectory
//! tooling can diff serialized reports across commits.

use crate::blame::BlameSet;
use crate::series::{TimeSeries, WindowSummary};

/// A per-window scalar a [`WindowedObjective`] can bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMetric {
    /// Windowed median demand-read latency, DRAM cycles.
    ReadP50,
    /// Windowed 95th-percentile demand-read latency, DRAM cycles.
    ReadP95,
    /// Windowed 99th-percentile demand-read latency, DRAM cycles.
    ReadP99,
    /// Cycles queue service was blocked by relocation work.
    StallCycles,
    /// Pending demand requests at the window boundary.
    QueueDepth,
    /// Migration jobs in flight at the window boundary.
    MigrationBacklog,
    /// Fraction of channel-cycles migration commands occupied a command
    /// bus, permille.
    MigrationSlotPermille,
}

impl WindowMetric {
    /// Stable snake_case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            WindowMetric::ReadP50 => "read_p50",
            WindowMetric::ReadP95 => "read_p95",
            WindowMetric::ReadP99 => "read_p99",
            WindowMetric::StallCycles => "stall_cycles",
            WindowMetric::QueueDepth => "queue_depth",
            WindowMetric::MigrationBacklog => "migration_backlog",
            WindowMetric::MigrationSlotPermille => "migration_slot_permille",
        }
    }

    /// Extracts this metric from a window.
    pub fn of(self, w: &WindowSummary) -> u64 {
        match self {
            WindowMetric::ReadP50 => w.read_p50(),
            WindowMetric::ReadP95 => w.read_p95(),
            WindowMetric::ReadP99 => w.read_p99(),
            WindowMetric::StallCycles => w.counters.stall_cycles,
            WindowMetric::QueueDepth => w.gauges.queue_depth,
            WindowMetric::MigrationBacklog => w.gauges.in_flight_migrations,
            WindowMetric::MigrationSlotPermille => w.migration_slot_permille(),
        }
    }
}

/// A per-window bound with an error budget.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedObjective {
    /// The metric bounded in every window.
    pub metric: WindowMetric,
    /// Inclusive upper bound: a window with `metric > max` violates.
    pub max: u64,
    /// Fraction of windows allowed to violate before the objective
    /// fails (`0.0` = hard invariant: a single violation fails).
    pub error_budget: f64,
}

impl WindowedObjective {
    /// A hard invariant (`error_budget = 0`).
    pub fn hard(metric: WindowMetric, max: u64) -> Self {
        WindowedObjective {
            metric,
            max,
            error_budget: 0.0,
        }
    }

    /// A budgeted objective allowing `error_budget` of windows to
    /// violate.
    pub fn budgeted(metric: WindowMetric, max: u64, error_budget: f64) -> Self {
        WindowedObjective {
            metric,
            max,
            error_budget,
        }
    }
}

/// A whole-run scalar bound supplied by the caller (the series cannot
/// compute it — e.g. `max_slowdown` needs alone-run baselines).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarObjective {
    /// Stable snake_case name used in reports and JSON.
    pub name: &'static str,
    /// The observed value, in milli-units (scaled by the caller so the
    /// report stays integer-exact, e.g. slowdown 1.37 → 1370).
    pub value: u64,
    /// Inclusive upper bound in the same milli-units.
    pub max: u64,
    /// Known-failing annotation: the outcome still reports `pass`
    /// honestly against `max`, but [`SloReport::pass`] does not gate on
    /// it. For objectives a configuration violates *by design* (e.g.
    /// stall-mode relocation vs a background fairness bound) — tracked,
    /// not red.
    pub expected_fail: bool,
}

/// Short trailing window of the burn-rate alert, in windows.
const BURN_SHORT_WINDOWS: usize = 5;
/// Long trailing window of the burn-rate alert, in windows.
const BURN_LONG_WINDOWS: usize = 30;
/// Burn-rate multiple of the sustainable rate that triggers an alert
/// when both trailing windows reach it (the classic fast-burn page
/// condition).
const BURN_FACTOR: f64 = 4.0;

/// A named set of objectives evaluated against one [`TimeSeries`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Spec name carried into the report.
    pub name: &'static str,
    /// Per-window bounds with error budgets.
    pub windowed: Vec<WindowedObjective>,
    /// Whole-run scalar bounds supplied by the caller.
    pub scalars: Vec<ScalarObjective>,
}

impl SloSpec {
    /// An empty spec.
    pub fn named(name: &'static str) -> Self {
        SloSpec {
            name,
            windowed: Vec::new(),
            scalars: Vec::new(),
        }
    }

    /// Evaluates the spec against `series`, producing a deterministic
    /// report.
    pub fn evaluate(&self, series: &TimeSeries) -> SloReport {
        let windows: Vec<&WindowSummary> = series.windows().collect();
        let n = windows.len();
        let objectives = self
            .windowed
            .iter()
            .map(|obj| {
                let mut violations = 0u64;
                let mut worst_value = 0u64;
                let mut worst_window = 0u64;
                let mut violating: Vec<bool> = Vec::with_capacity(n);
                let mut blame = BlameSet::default();
                for w in &windows {
                    let v = obj.metric.of(w);
                    if v > worst_value {
                        worst_value = v;
                        worst_window = w.index;
                    }
                    let violates = v > obj.max;
                    if violates {
                        // Violating windows pool their wait-cause
                        // budgets so the outcome names what the latency
                        // was spent on, not just that it was spent.
                        blame.merge(&w.read_blame);
                    }
                    violating.push(violates);
                }
                violations += violating.iter().filter(|&&v| v).count() as u64;
                // Budget math: a budget of b over n windows allows
                // floor(b * n) violating windows.
                let allowed = (obj.error_budget * n as f64).floor() as u64;
                let pass = violations <= allowed;
                let burn_alerts = if obj.error_budget > 0.0 {
                    burn_alerts(&violating, obj.error_budget)
                } else {
                    0
                };
                // Burn alerts on a still-passing objective fall back
                // to the whole series: the trend is the problem, so the
                // whole run's blame profile is the right annotation.
                if blame.is_empty() && burn_alerts > 0 {
                    for w in &windows {
                        blame.merge(&w.read_blame);
                    }
                }
                let total = blame.total_cycles();
                let top_causes = blame
                    .dominant()
                    .into_iter()
                    .map(|(c, cycles)| (c.label(), cycles * 1000 / total.max(1)))
                    .collect();
                ObjectiveOutcome {
                    metric: obj.metric,
                    max: obj.max,
                    error_budget: obj.error_budget,
                    windows: n as u64,
                    violations,
                    allowed,
                    pass,
                    worst_value,
                    worst_window,
                    burn_alerts,
                    top_causes,
                }
            })
            .collect();
        let scalars = self
            .scalars
            .iter()
            .map(|s| ScalarOutcome {
                name: s.name,
                value: s.value,
                max: s.max,
                pass: s.value <= s.max,
                expected_fail: s.expected_fail,
            })
            .collect();
        SloReport {
            spec: self.name,
            windows: n as u64,
            objectives,
            scalars,
        }
    }
}

/// Counts positions where both the short and the long trailing window
/// burn budget at ≥ `BURN_FACTOR`× the sustainable rate. Evaluation
/// starts once the long window is fully populated, so short-prefix
/// noise cannot alert.
fn burn_alerts(violating: &[bool], budget: f64) -> u64 {
    let trailing_rate = |end: usize, len: usize| -> f64 {
        let start = end.saturating_sub(len);
        let n = end - start;
        if n == 0 {
            return 0.0;
        }
        let bad = violating[start..end].iter().filter(|&&v| v).count();
        bad as f64 / n as f64
    };
    let mut alerts = 0;
    for end in BURN_LONG_WINDOWS..=violating.len() {
        let short = trailing_rate(end, BURN_SHORT_WINDOWS);
        let long = trailing_rate(end, BURN_LONG_WINDOWS);
        if short >= budget * BURN_FACTOR && long >= budget * BURN_FACTOR {
            alerts += 1;
        }
    }
    alerts
}

/// One windowed objective's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveOutcome {
    /// The bounded metric.
    pub metric: WindowMetric,
    /// The bound.
    pub max: u64,
    /// The error budget the spec granted.
    pub error_budget: f64,
    /// Windows evaluated.
    pub windows: u64,
    /// Windows that violated the bound.
    pub violations: u64,
    /// Violating windows the budget allowed.
    pub allowed: u64,
    /// Whether violations stayed within budget.
    pub pass: bool,
    /// Worst observed value across all windows.
    pub worst_value: u64,
    /// Index of the window holding the worst value.
    pub worst_window: u64,
    /// Positions where the multi-window burn-rate alert fired.
    pub burn_alerts: u64,
    /// Wait causes pooled over the violating windows (or, for a
    /// passing objective with burn alerts, over all windows), heaviest
    /// first as `(label, permille-of-pooled-wait)`. Empty when
    /// attribution was off or nothing violated.
    pub top_causes: Vec<(&'static str, u64)>,
}

/// One scalar objective's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarOutcome {
    /// The objective name.
    pub name: &'static str,
    /// The observed value (milli-units).
    pub value: u64,
    /// The bound (milli-units).
    pub max: u64,
    /// Whether the value stayed within the bound.
    pub pass: bool,
    /// Whether the spec declared this objective known-failing (the
    /// verdict does not gate on it; `pass` stays honest).
    pub expected_fail: bool,
}

/// The machine-checkable verdict of one [`SloSpec::evaluate`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Name of the evaluated spec.
    pub spec: &'static str,
    /// Windows evaluated.
    pub windows: u64,
    /// Per-window objective outcomes.
    pub objectives: Vec<ObjectiveOutcome>,
    /// Scalar objective outcomes.
    pub scalars: Vec<ScalarOutcome>,
}

impl SloReport {
    /// Whether every objective (windowed and scalar) passed —
    /// known-failing scalars are reported but not gated on.
    pub fn pass(&self) -> bool {
        self.objectives.iter().all(|o| o.pass)
            && self.scalars.iter().all(|s| s.pass || s.expected_fail)
    }

    /// Serializes the report as a JSON object (the schema wrapper —
    /// `clr-dram/slo/v1` — is added by the emitting binary).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"spec\": \"{}\",\n", self.spec));
        s.push_str(&format!("  \"windows\": {},\n", self.windows));
        s.push_str(&format!("  \"pass\": {},\n", self.pass()));
        s.push_str("  \"objectives\": [\n");
        for (i, o) in self.objectives.iter().enumerate() {
            let causes = o
                .top_causes
                .iter()
                .map(|(c, p)| format!("{{\"cause\": \"{c}\", \"permille\": {p}}}"))
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "    {{\"metric\": \"{}\", \"max\": {}, \"error_budget\": {:.4}, \
                 \"violations\": {}, \"allowed\": {}, \"worst_value\": {}, \
                 \"worst_window\": {}, \"burn_alerts\": {}, \"pass\": {}, \
                 \"top_causes\": [{}]}}{}\n",
                o.metric.label(),
                o.max,
                o.error_budget,
                o.violations,
                o.allowed,
                o.worst_value,
                o.worst_window,
                o.burn_alerts,
                o.pass,
                causes,
                if i + 1 < self.objectives.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"scalars\": [\n");
        for (i, o) in self.scalars.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {}, \"max\": {}, \"pass\": {}, \
                 \"expected_fail\": {}}}{}\n",
                o.name,
                o.value,
                o.max,
                o.pass,
                o.expected_fail,
                if i + 1 < self.scalars.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n");
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use crate::series::{SeriesCounters, SeriesGauges, WindowSummary};

    fn series_with_p99s(p99s: &[u64]) -> TimeSeries {
        let mut ts = TimeSeries::new(1024);
        for (i, &v) in p99s.iter().enumerate() {
            let mut read_latency = LatencyHistogram::new();
            read_latency.record_n(v, 100);
            ts.push(WindowSummary {
                index: i as u64,
                start_cycle: i as u64 * 10,
                end_cycle: (i as u64 + 1) * 10,
                sources: 1,
                counters: SeriesCounters::default(),
                gauges: SeriesGauges::default(),
                read_latency,
                read_blame: Default::default(),
            });
        }
        ts
    }

    #[test]
    fn hard_objective_fails_on_single_violation() {
        let ts = series_with_p99s(&[10, 10, 500, 10]);
        let mut spec = SloSpec::named("t");
        spec.windowed
            .push(WindowedObjective::hard(WindowMetric::ReadP99, 100));
        let r = spec.evaluate(&ts);
        assert!(!r.pass());
        assert_eq!(r.objectives[0].violations, 1);
        assert_eq!(r.objectives[0].allowed, 0);
        assert!(r.objectives[0].worst_value >= 500);
        assert_eq!(r.objectives[0].worst_window, 2);
    }

    #[test]
    fn error_budget_tolerates_violations_within_budget() {
        let ts = series_with_p99s(&[10, 500, 10, 10, 10, 10, 10, 10, 10, 10]);
        let mut spec = SloSpec::named("t");
        spec.windowed.push(WindowedObjective::budgeted(
            WindowMetric::ReadP99,
            100,
            0.10,
        ));
        let r = spec.evaluate(&ts);
        assert!(r.pass(), "1/10 violating windows is within a 10% budget");
        assert_eq!(r.objectives[0].allowed, 1);
    }

    #[test]
    fn burn_rate_alerts_on_clustered_violations() {
        // 30 good windows then 15 consecutive violations: the short (5)
        // and long (30) trailing burn rates both reach 4x a 10% budget.
        let mut vals = vec![10u64; 30];
        vals.extend(std::iter::repeat_n(500, 15));
        let ts = series_with_p99s(&vals);
        let mut spec = SloSpec::named("t");
        spec.windowed.push(WindowedObjective::budgeted(
            WindowMetric::ReadP99,
            100,
            0.10,
        ));
        let r = spec.evaluate(&ts);
        assert!(r.objectives[0].burn_alerts > 0, "clustered burn must alert");
        // The same total violations spread out evenly must not alert.
        let mut spread = Vec::new();
        for i in 0..45 {
            spread.push(if i % 3 == 0 { 500 } else { 10 });
        }
        let ts2 = series_with_p99s(&spread);
        let r2 = spec.evaluate(&ts2);
        assert!(r2.objectives[0].burn_alerts < r.objectives[0].burn_alerts);
    }

    #[test]
    fn violations_carry_top_blame_causes() {
        use crate::blame::WaitCause;
        // Two good windows, one violating window whose wait is mostly
        // row conflicts: the outcome must name the dominant cause.
        let mut ts = TimeSeries::new(16);
        for (i, &(p99, conflict)) in [(10u64, 0u64), (500, 900), (10, 0)].iter().enumerate() {
            let mut read_latency = LatencyHistogram::new();
            read_latency.record_n(p99, 100);
            let mut read_blame = BlameSet::default();
            if conflict > 0 {
                read_blame.record_cause(WaitCause::RowConflict, conflict);
                read_blame.record_cause(WaitCause::Refresh, 100);
            }
            ts.push(WindowSummary {
                index: i as u64,
                start_cycle: i as u64 * 10,
                end_cycle: (i as u64 + 1) * 10,
                sources: 1,
                counters: SeriesCounters::default(),
                gauges: SeriesGauges::default(),
                read_latency,
                read_blame,
            });
        }
        let mut spec = SloSpec::named("t");
        spec.windowed
            .push(WindowedObjective::hard(WindowMetric::ReadP99, 100));
        let r = spec.evaluate(&ts);
        assert!(!r.pass());
        let top = &r.objectives[0].top_causes;
        assert_eq!(top[0], ("row_conflict", 900));
        assert_eq!(top[1], ("refresh", 100));
        let json = r.to_json();
        assert!(json.contains("\"top_causes\": [{\"cause\": \"row_conflict\", \"permille\": 900}"));
        // A passing objective over blame-free windows stays unannotated.
        let clean = SloSpec::named("t").evaluate(&series_with_p99s(&[10, 10]));
        assert!(clean.pass());
    }

    #[test]
    fn scalar_objectives_and_json() {
        let ts = series_with_p99s(&[10, 10]);
        let mut spec = SloSpec::named("cell");
        spec.windowed
            .push(WindowedObjective::hard(WindowMetric::StallCycles, 0));
        spec.scalars.push(ScalarObjective {
            name: "max_slowdown_milli",
            value: 1_370,
            max: 1_600,
            expected_fail: false,
        });
        let r = spec.evaluate(&ts);
        assert!(r.pass());
        let json = r.to_json();
        assert!(json.contains("\"spec\": \"cell\""));
        assert!(json.contains("\"stall_cycles\""));
        assert!(json.contains("\"max_slowdown_milli\""));
        assert!(json.contains("\"pass\": true"));
    }
}
