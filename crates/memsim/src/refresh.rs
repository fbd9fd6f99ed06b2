//! The controller-side refresh scheduler: up to two heterogeneous refresh
//! streams (§3.6, §5.2).
//!
//! Each stream issues REF commands at its own effective tREFI covering the
//! row population of one operating mode; high-performance bundles complete
//! in a smaller tRFC and (with extended windows) arrive less often.

use clr_core::mode::RowMode;
use clr_core::refresh::RefreshPlan;

/// State of one refresh stream.
#[derive(Debug, Clone)]
struct StreamState {
    mode: RowMode,
    interval_cycles: f64,
    next_due: f64,
}

/// Tracks when each refresh stream's next REF command is due.
#[derive(Debug, Clone)]
pub struct RefreshScheduler {
    streams: Vec<StreamState>,
    issued: [u64; 2],
}

impl RefreshScheduler {
    /// Builds the scheduler from a [`RefreshPlan`] and the DRAM clock
    /// period.
    pub fn new(plan: &RefreshPlan, t_ck_ns: f64) -> Self {
        Self::new_at(plan, t_ck_ns, 0)
    }

    /// Builds the scheduler with its first REF of each stream due one
    /// interval after `start_cycle`.
    pub fn new_at(plan: &RefreshPlan, t_ck_ns: f64, start_cycle: u64) -> Self {
        let streams = plan
            .streams()
            .iter()
            .map(|s| {
                let interval_cycles = s.interval_ns / t_ck_ns;
                StreamState {
                    mode: s.mode,
                    interval_cycles,
                    next_due: start_cycle as f64 + interval_cycles,
                }
            })
            .collect();
        RefreshScheduler {
            streams,
            issued: [0, 0],
        }
    }

    /// Rebuilds this scheduler for a retuned refresh plan (the mode
    /// population changed mid-run), **preserving each surviving stream's
    /// due time and issue counts**. A stream whose mode also existed
    /// before keeps its old `next_due` (clamped to at most one new
    /// interval out, in case the interval shrank); a newly appearing
    /// stream starts one interval after `now`. Without the carry-over, a
    /// retune every policy epoch would push refresh forever into the
    /// future and silently starve it.
    pub fn retuned(&self, plan: &RefreshPlan, t_ck_ns: f64, now: u64) -> Self {
        let streams = plan
            .streams()
            .iter()
            .map(|s| {
                let interval_cycles = s.interval_ns / t_ck_ns;
                let fresh_due = now as f64 + interval_cycles;
                let next_due = match self.streams.iter().find(|o| o.mode == s.mode) {
                    Some(old) => old.next_due.min(fresh_due),
                    // A newly appearing stream anchors to the absolute
                    // tREFI grid (hardware refresh counters free-run), so
                    // *when* it is created does not shift its phase — a
                    // mode population that reaches a given state via a
                    // stall apply and via background migration sees the
                    // same refresh train, instead of diverging on an
                    // arbitrary creation-cycle offset.
                    None => ((now as f64 / interval_cycles).floor() + 1.0) * interval_cycles,
                };
                StreamState {
                    mode: s.mode,
                    interval_cycles,
                    next_due,
                }
            })
            .collect();
        RefreshScheduler {
            streams,
            issued: self.issued,
        }
    }

    /// A scheduler that never issues refreshes (for microbenchmarks).
    pub fn disabled() -> Self {
        RefreshScheduler {
            streams: Vec::new(),
            issued: [0, 0],
        }
    }

    /// The first cycle at which any stream's next REF becomes due, or
    /// `None` when refresh is disabled. This is the refresh stream's
    /// contribution to the controller's next-event computation: for every
    /// cycle strictly before it, [`RefreshScheduler::due`] returns `None`.
    pub fn next_due_cycle(&self) -> Option<u64> {
        self.streams
            .iter()
            .map(|s| s.next_due.max(0.0).ceil() as u64)
            .min()
    }

    /// The mode of the stream whose REF is due at `now`, if any. When
    /// both streams are due the more overdue one wins.
    pub fn due(&self, now: u64) -> Option<RowMode> {
        self.streams
            .iter()
            .filter(|s| s.next_due <= now as f64)
            .max_by(|a, b| {
                let oa = now as f64 - a.next_due;
                let ob = now as f64 - b.next_due;
                oa.partial_cmp(&ob).expect("refresh overdue is finite")
            })
            .map(|s| s.mode)
    }

    /// Marks the due REF of `mode` as issued, scheduling the next one.
    ///
    /// If no stream of that mode exists — the plan was retuned while this
    /// REF was pending and the mode's population dropped to zero — the
    /// issue is still counted but nothing is rescheduled.
    pub fn mark_issued(&mut self, mode: RowMode) {
        if let Some(s) = self.streams.iter_mut().find(|s| s.mode == mode) {
            s.next_due += s.interval_cycles;
        }
        match mode {
            RowMode::MaxCapacity => self.issued[0] += 1,
            RowMode::HighPerformance => self.issued[1] += 1,
        }
    }

    /// REF commands issued so far as `(max_capacity, high_performance)`.
    pub fn issued(&self) -> (u64, u64) {
        (self.issued[0], self.issued[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_core::timing::ClrTimings;

    fn plan(fraction_hp: f64, refw: f64) -> RefreshPlan {
        RefreshPlan::new(&ClrTimings::from_circuit_defaults(), fraction_hp, refw)
    }

    #[test]
    fn baseline_stream_fires_every_trefi() {
        let t_ck = 1.0 / 1.2;
        let mut rs = RefreshScheduler::new(&plan(0.0, 64.0), t_ck);
        // tREFI = 7812.5 ns ≈ 9375 cycles.
        assert!(rs.due(0).is_none());
        assert!(rs.due(9374).is_none());
        let mode = rs.due(9375).expect("due at tREFI");
        assert_eq!(mode, RowMode::MaxCapacity);
        rs.mark_issued(mode);
        assert!(rs.due(9376).is_none());
        assert!(rs.due(2 * 9375).is_some());
    }

    #[test]
    fn mixed_population_runs_two_streams() {
        let t_ck = 1.0 / 1.2;
        let mut rs = RefreshScheduler::new(&plan(0.5, 194.0), t_ck);
        // Drain a long horizon; both streams must fire, MC more often per
        // window-row than HP because HP's window is 3× longer.
        let mut now = 0u64;
        for _ in 0..200 {
            while let Some(mode) = rs.due(now) {
                rs.mark_issued(mode);
            }
            now += 10_000;
        }
        let (mc, hp) = rs.issued();
        assert!(mc > 0 && hp > 0);
        // MC covers half the rows at 64 ms; HP half at 194 ms → ratio ≈ 3.03.
        let ratio = mc as f64 / hp as f64;
        assert!((ratio - 194.0 / 64.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn disabled_scheduler_never_fires() {
        let rs = RefreshScheduler::disabled();
        assert!(rs.due(u64::MAX / 2).is_none());
        assert!(rs.next_due_cycle().is_none());
    }

    #[test]
    fn next_due_cycle_is_tight() {
        let t_ck = 1.0 / 1.2;
        let mut rs = RefreshScheduler::new(&plan(0.0, 64.0), t_ck);
        let due = rs.next_due_cycle().expect("one stream");
        assert!(rs.due(due - 1).is_none(), "due one cycle early");
        assert!(rs.due(due).is_some(), "not due at the predicted cycle");
        rs.mark_issued(RowMode::MaxCapacity);
        let due2 = rs.next_due_cycle().expect("rescheduled");
        assert!(due2 > due);
        assert!(rs.due(due2 - 1).is_none());
        assert!(rs.due(due2).is_some());
    }
}
