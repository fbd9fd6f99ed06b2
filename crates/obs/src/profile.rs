//! Host-side skip-ahead profiling: where the event-driven fast path
//! spends its jumps and which event sources bound them.
//!
//! A [`SkipProfile`] is *host-side observability, not simulation
//! state*: per-cycle and skip-ahead walks of the same run produce
//! identical `MemStats` but very different profiles (the per-cycle walk
//! never jumps), so the profile lives outside the statistics the
//! differential tests compare. It answers the questions the
//! parallel-execution roadmap needs answered: how long are dead
//! windows ([`SkipProfile::jumps`]), which of the controller's six
//! event sources ends them ([`SkipProfile::triggers`]), and how dense
//! events are per simulated kilocycle
//! ([`SkipProfile::events_per_kilocycle`]).

use crate::hist::LatencyHistogram;

/// The controller's next-event sources — each dead-window jump is
/// attributed to the source that produced the binding (minimum) bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// An in-flight read completion delivery.
    Completion,
    /// Refresh becoming due, or a pending refresh's next PRE/REF.
    Refresh,
    /// A relocation (stall-mode) window expiring.
    RelocationStall,
    /// The earliest issuable queued demand command (including bounds
    /// merged at enqueue time).
    QueueReady,
    /// A timeout-policy background row close.
    TimeoutClose,
    /// The earliest issuable background-migration command.
    Migration,
}

impl EventSource {
    /// All sources, in a fixed order matching
    /// [`SkipProfile::triggers`].
    pub const ALL: [EventSource; 6] = [
        EventSource::Completion,
        EventSource::Refresh,
        EventSource::RelocationStall,
        EventSource::QueueReady,
        EventSource::TimeoutClose,
        EventSource::Migration,
    ];

    /// Number of sources.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EventSource::Completion => "completion",
            EventSource::Refresh => "refresh",
            EventSource::RelocationStall => "relocation_stall",
            EventSource::QueueReady => "queue_ready",
            EventSource::TimeoutClose => "timeout_close",
            EventSource::Migration => "migration",
        }
    }

    /// The source's index into [`SkipProfile::triggers`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Profiling counters for the event-driven skip-ahead walk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkipProfile {
    /// Histogram of dead-window jump lengths in cycles.
    pub jumps: LatencyHistogram,
    /// Jumps attributed to each [`EventSource`] (indexed by
    /// [`EventSource::index`]): which source's bound ended the window.
    pub triggers: [u64; EventSource::COUNT],
    /// Cycles advanced by ordinary per-cycle ticks.
    pub ticked_cycles: u64,
    /// Cycles advanced by dead-window jumps.
    pub skipped_cycles: u64,
}

impl SkipProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one dead-window jump of `len` cycles bounded by `src`.
    #[inline]
    pub fn record_jump(&mut self, len: u64, src: EventSource) {
        self.jumps.record(len);
        self.triggers[src.index()] += 1;
        self.skipped_cycles += len;
    }

    /// Records `n` dead-window jumps of one cycle each, all bounded by
    /// `src` — exactly what `n` single-cycle [`SkipProfile::record_jump`]
    /// calls record.
    #[inline]
    pub fn record_unit_jumps(&mut self, n: u64, src: EventSource) {
        self.jumps.record_n(1, n);
        self.triggers[src.index()] += n;
        self.skipped_cycles += n;
    }

    /// Records one ordinary tick.
    #[inline]
    pub fn record_tick(&mut self) {
        self.ticked_cycles += 1;
    }

    /// Total cycles the profiled walk advanced.
    pub fn total_cycles(&self) -> u64 {
        self.ticked_cycles + self.skipped_cycles
    }

    /// Event density: ordinary (non-jumped) ticks per simulated
    /// kilocycle — the skip-ahead payoff metric (1000.0 means every
    /// cycle ticked; near 0 means almost everything was jumped).
    pub fn events_per_kilocycle(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.ticked_cycles as f64 * 1000.0 / total as f64
        }
    }

    /// Fraction of advanced cycles covered by jumps.
    pub fn jump_coverage(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }

    /// Counter-wise sum (fusing per-channel profiles).
    pub fn merge(&mut self, other: &SkipProfile) {
        self.jumps.merge(&other.jumps);
        for (t, &o) in self.triggers.iter_mut().zip(other.triggers.iter()) {
            *t += o;
        }
        self.ticked_cycles += other.ticked_cycles;
        self.skipped_cycles += other.skipped_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field set from `seed`, no `..Default` — adding a
    /// `SkipProfile` field breaks this at compile time, forcing `merge`
    /// to be revisited (the same drift guard `MemStats` uses).
    fn all_fields(seed: u64) -> SkipProfile {
        let mut jumps = LatencyHistogram::new();
        jumps.record(seed + 1);
        jumps.record(seed * 2 + 7);
        SkipProfile {
            jumps,
            triggers: [seed, seed + 1, seed + 2, seed + 3, seed + 4, seed + 5],
            ticked_cycles: seed + 6,
            skipped_cycles: seed + 7,
        }
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = all_fields(100);
        let b = all_fields(5_000);
        let mut fused = a.clone();
        fused.merge(&b);
        let mut jumps = a.jumps.clone();
        jumps.merge(&b.jumps);
        let expected = SkipProfile {
            jumps,
            triggers: [5_100, 5_102, 5_104, 5_106, 5_108, 5_110],
            ticked_cycles: 5_112,
            skipped_cycles: 5_114,
        };
        assert_eq!(fused, expected);
    }

    #[test]
    fn density_math() {
        let mut p = SkipProfile::new();
        for _ in 0..10 {
            p.record_tick();
        }
        p.record_jump(990, EventSource::Completion);
        assert_eq!(p.total_cycles(), 1_000);
        assert!((p.events_per_kilocycle() - 10.0).abs() < 1e-12);
        assert!((p.jump_coverage() - 0.99).abs() < 1e-12);
        assert_eq!(p.triggers[EventSource::Completion.index()], 1);
        assert_eq!(p.jumps.count(), 1);
    }

    #[test]
    fn source_indexing_is_stable() {
        for (i, s) in EventSource::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(EventSource::COUNT, 6);
    }
}
