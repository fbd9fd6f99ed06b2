//! Memory-system statistics consumed by the metrics and power models.

use clr_core::mode::RowMode;
use clr_obs::{BlameSet, LatencyHistogram, SeriesCounters};

/// Counters accumulated by the controller over a run.
///
/// Command counts are split per operating mode where the mode changes the
/// command's analog behaviour (ACT/PRE/REF); column bursts are
/// mode-independent at the interface.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStats {
    /// DRAM cycles elapsed.
    pub cycles: u64,
    /// ACT commands to max-capacity rows.
    pub acts_max_capacity: u64,
    /// ACT commands to high-performance rows.
    pub acts_high_performance: u64,
    /// PRE commands closing max-capacity rows.
    pub pres_max_capacity: u64,
    /// PRE commands closing high-performance rows.
    pub pres_high_performance: u64,
    /// RD bursts.
    pub reads: u64,
    /// WR bursts.
    pub writes: u64,
    /// REF commands of the max-capacity stream.
    pub refs_max_capacity: u64,
    /// REF commands of the high-performance stream.
    pub refs_high_performance: u64,
    /// Requests that found their row open.
    pub row_hits: u64,
    /// Requests that found their bank closed.
    pub row_misses: u64,
    /// Requests that found a different row open.
    pub row_conflicts: u64,
    /// Sum of read service latencies in DRAM cycles (arrival → last beat).
    pub read_latency_sum: u64,
    /// Reads completed (denominator for the average latency).
    pub reads_completed: u64,
    /// Reads served directly from the write queue.
    pub forwarded_reads: u64,
    /// Cycles with at least one bank open in the rank.
    pub rank_active_cycles: u64,
    /// Cycles with every bank precharged.
    pub rank_precharged_cycles: u64,
    /// Cycles the rank was blocked executing REF commands.
    pub refresh_busy_cycles: u64,
    /// Enqueue attempts rejected because a queue was full.
    pub queue_rejections: u64,
    /// Row-mode transitions applied to the mode table at runtime.
    pub mode_transitions: u64,
    /// Cycles queue service was blocked by relocation (mode-migration)
    /// work.
    pub relocation_stall_cycles: u64,
    /// Background-migration ACT commands in max-capacity mode (read-out
    /// phase activations).
    pub migration_acts_max_capacity: u64,
    /// Background-migration ACT commands in high-performance mode
    /// (write-back phase activations).
    pub migration_acts_high_performance: u64,
    /// Background-migration PRE commands closing max-capacity rows.
    pub migration_pres_max_capacity: u64,
    /// Background-migration PRE commands closing high-performance rows.
    pub migration_pres_high_performance: u64,
    /// Background-migration RD bursts (read-out data movement).
    pub migration_reads: u64,
    /// Background-migration WR bursts (write-back data movement).
    pub migration_writes: u64,
    /// Cycles in which a background-migration command occupied the
    /// command bus — the migration-slot utilization numerator.
    pub migration_slot_cycles: u64,
    /// Row-migration jobs completed (read-out + couple + write-back).
    pub migration_jobs_completed: u64,
    /// Completed couplings whose destination frame lived in a different
    /// bank (the overlapped two-bank execution).
    pub migration_cross_bank_jobs: u64,
    /// Whole-row frame evacuations completed on this channel: the
    /// read-out halves of cross-channel frame moves.
    pub migration_evacuations: u64,
    /// Whole-row frame fills completed on this channel (the write-back
    /// halves of cross-channel moves).
    pub migration_fills: u64,
    /// Frames entering the capacity directory as known-free (their
    /// contents were evacuated elsewhere).
    pub frames_freed: u64,
    /// Known-free frames handed back out by the destination pickers.
    pub frames_reused: u64,
    /// Distribution of demand-read service latencies in DRAM cycles
    /// (arrival → last beat), recorded at issue alongside
    /// `read_latency_sum` — the tail-latency view (p50/p95/p99/p999)
    /// behind every per-channel and fused report.
    pub read_latency_hist: LatencyHistogram,
    /// Distribution of demand-write service latencies in DRAM cycles
    /// (arrival → WR issue; writes are posted, so issue is completion
    /// from the requester's view).
    pub write_latency_hist: LatencyHistogram,
    /// Distribution of background-migration job latencies in DRAM
    /// cycles (dispatch → terminal step) — the migration request class,
    /// reported separately from demand traffic.
    pub migration_latency_hist: LatencyHistogram,
    /// Per-cause wait attribution for completed demand reads: when
    /// blame is enabled, `read_blame.total_cycles()` equals
    /// `read_latency_hist.sum()` exactly (the exactness contract);
    /// empty otherwise.
    pub read_blame: BlameSet,
    /// Per-cause wait attribution for completed demand writes
    /// (arrival → WR issue), with the same exactness contract against
    /// `write_latency_hist`.
    pub write_blame: BlameSet,
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total ACT commands.
    pub fn acts(&self) -> u64 {
        self.acts_max_capacity + self.acts_high_performance
    }

    /// The counters a telemetry window reports, read off these
    /// statistics (a window's delta, or a whole run's totals).
    pub fn series_counters(&self) -> SeriesCounters {
        SeriesCounters {
            acts: self.acts(),
            reads: self.reads,
            writes: self.writes,
            mode_transitions: self.mode_transitions,
            migration_jobs: self.migration_jobs_completed,
            frames_moved: self.migration_fills,
            stall_cycles: self.relocation_stall_cycles,
            migration_slot_cycles: self.migration_slot_cycles,
        }
    }

    /// Total PRE commands.
    pub fn pres(&self) -> u64 {
        self.pres_max_capacity + self.pres_high_performance
    }

    /// Total REF commands.
    pub fn refs(&self) -> u64 {
        self.refs_max_capacity + self.refs_high_performance
    }

    /// Records an ACT per mode.
    pub fn record_act(&mut self, mode: RowMode) {
        match mode {
            RowMode::MaxCapacity => self.acts_max_capacity += 1,
            RowMode::HighPerformance => self.acts_high_performance += 1,
        }
    }

    /// Records a PRE per mode of the closed row.
    pub fn record_pre(&mut self, mode: RowMode) {
        match mode {
            RowMode::MaxCapacity => self.pres_max_capacity += 1,
            RowMode::HighPerformance => self.pres_high_performance += 1,
        }
    }

    /// Records a REF per stream mode.
    pub fn record_ref(&mut self, mode: RowMode) {
        match mode {
            RowMode::MaxCapacity => self.refs_max_capacity += 1,
            RowMode::HighPerformance => self.refs_high_performance += 1,
        }
    }

    /// Records a background-migration ACT per mode.
    pub fn record_migration_act(&mut self, mode: RowMode) {
        match mode {
            RowMode::MaxCapacity => self.migration_acts_max_capacity += 1,
            RowMode::HighPerformance => self.migration_acts_high_performance += 1,
        }
    }

    /// Records a background-migration PRE per mode of the closed row.
    pub fn record_migration_pre(&mut self, mode: RowMode) {
        match mode {
            RowMode::MaxCapacity => self.migration_pres_max_capacity += 1,
            RowMode::HighPerformance => self.migration_pres_high_performance += 1,
        }
    }

    /// Fraction of all cycles in which a migration command occupied the
    /// command bus (the migration-slot utilization).
    pub fn migration_slot_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.migration_slot_cycles as f64 / self.cycles as f64
        }
    }

    /// Read-latency percentiles `(p50, p95, p99)` in DRAM cycles — the
    /// tail-latency summary every report prints alongside (or instead
    /// of) the average.
    pub fn read_latency_percentiles(&self) -> (u64, u64, u64) {
        let h = &self.read_latency_hist;
        (h.p50(), h.p95(), h.p99())
    }

    /// Counter-wise difference `self − earlier` (for excluding warmup from
    /// measurement windows).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier (any
    /// counter would underflow).
    #[must_use]
    pub fn delta_since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            cycles: self.cycles - earlier.cycles,
            acts_max_capacity: self.acts_max_capacity - earlier.acts_max_capacity,
            acts_high_performance: self.acts_high_performance - earlier.acts_high_performance,
            pres_max_capacity: self.pres_max_capacity - earlier.pres_max_capacity,
            pres_high_performance: self.pres_high_performance - earlier.pres_high_performance,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            refs_max_capacity: self.refs_max_capacity - earlier.refs_max_capacity,
            refs_high_performance: self.refs_high_performance - earlier.refs_high_performance,
            row_hits: self.row_hits - earlier.row_hits,
            row_misses: self.row_misses - earlier.row_misses,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            read_latency_sum: self.read_latency_sum - earlier.read_latency_sum,
            reads_completed: self.reads_completed - earlier.reads_completed,
            forwarded_reads: self.forwarded_reads - earlier.forwarded_reads,
            rank_active_cycles: self.rank_active_cycles - earlier.rank_active_cycles,
            rank_precharged_cycles: self.rank_precharged_cycles - earlier.rank_precharged_cycles,
            refresh_busy_cycles: self.refresh_busy_cycles - earlier.refresh_busy_cycles,
            queue_rejections: self.queue_rejections - earlier.queue_rejections,
            mode_transitions: self.mode_transitions - earlier.mode_transitions,
            relocation_stall_cycles: self.relocation_stall_cycles - earlier.relocation_stall_cycles,
            migration_acts_max_capacity: self.migration_acts_max_capacity
                - earlier.migration_acts_max_capacity,
            migration_acts_high_performance: self.migration_acts_high_performance
                - earlier.migration_acts_high_performance,
            migration_pres_max_capacity: self.migration_pres_max_capacity
                - earlier.migration_pres_max_capacity,
            migration_pres_high_performance: self.migration_pres_high_performance
                - earlier.migration_pres_high_performance,
            migration_reads: self.migration_reads - earlier.migration_reads,
            migration_writes: self.migration_writes - earlier.migration_writes,
            migration_slot_cycles: self.migration_slot_cycles - earlier.migration_slot_cycles,
            migration_jobs_completed: self.migration_jobs_completed
                - earlier.migration_jobs_completed,
            migration_cross_bank_jobs: self.migration_cross_bank_jobs
                - earlier.migration_cross_bank_jobs,
            migration_evacuations: self.migration_evacuations - earlier.migration_evacuations,
            migration_fills: self.migration_fills - earlier.migration_fills,
            frames_freed: self.frames_freed - earlier.frames_freed,
            frames_reused: self.frames_reused - earlier.frames_reused,
            read_latency_hist: self
                .read_latency_hist
                .delta_since(&earlier.read_latency_hist),
            write_latency_hist: self
                .write_latency_hist
                .delta_since(&earlier.write_latency_hist),
            migration_latency_hist: self
                .migration_latency_hist
                .delta_since(&earlier.migration_latency_hist),
            read_blame: self.read_blame.delta_since(&earlier.read_blame),
            write_blame: self.write_blame.delta_since(&earlier.write_blame),
        }
    }

    /// Counter-wise sum `self + other` — the aggregation a channel-sharded
    /// memory system uses to fuse per-channel statistics into one view.
    ///
    /// Every field is summed, *including* `cycles`: channels run in
    /// lockstep, so the fused `cycles` counts channel-cycles (N channels ×
    /// wall cycles) and derived rates (`row_hit_rate`,
    /// `migration_slot_utilization`) recompute from
    /// the summed numerators and denominators — they are traffic-weighted
    /// averages over channels, never a drifting copy of per-channel
    /// values.
    pub fn merge(&mut self, other: &MemStats) {
        self.cycles += other.cycles;
        self.acts_max_capacity += other.acts_max_capacity;
        self.acts_high_performance += other.acts_high_performance;
        self.pres_max_capacity += other.pres_max_capacity;
        self.pres_high_performance += other.pres_high_performance;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refs_max_capacity += other.refs_max_capacity;
        self.refs_high_performance += other.refs_high_performance;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.read_latency_sum += other.read_latency_sum;
        self.reads_completed += other.reads_completed;
        self.forwarded_reads += other.forwarded_reads;
        self.rank_active_cycles += other.rank_active_cycles;
        self.rank_precharged_cycles += other.rank_precharged_cycles;
        self.refresh_busy_cycles += other.refresh_busy_cycles;
        self.queue_rejections += other.queue_rejections;
        self.mode_transitions += other.mode_transitions;
        self.relocation_stall_cycles += other.relocation_stall_cycles;
        self.migration_acts_max_capacity += other.migration_acts_max_capacity;
        self.migration_acts_high_performance += other.migration_acts_high_performance;
        self.migration_pres_max_capacity += other.migration_pres_max_capacity;
        self.migration_pres_high_performance += other.migration_pres_high_performance;
        self.migration_reads += other.migration_reads;
        self.migration_writes += other.migration_writes;
        self.migration_slot_cycles += other.migration_slot_cycles;
        self.migration_jobs_completed += other.migration_jobs_completed;
        self.migration_cross_bank_jobs += other.migration_cross_bank_jobs;
        self.migration_evacuations += other.migration_evacuations;
        self.migration_fills += other.migration_fills;
        self.frames_freed += other.frames_freed;
        self.frames_reused += other.frames_reused;
        self.read_latency_hist.merge(&other.read_latency_hist);
        self.write_latency_hist.merge(&other.write_latency_hist);
        self.migration_latency_hist
            .merge(&other.migration_latency_hist);
        self.read_blame.merge(&other.read_blame);
        self.write_blame.merge(&other.write_blame);
    }

    /// The counter-wise sum of `stats` (see [`MemStats::merge`]).
    pub fn fused<'a>(stats: impl IntoIterator<Item = &'a MemStats>) -> MemStats {
        let mut out = MemStats::new();
        for s in stats {
            out.merge(s);
        }
        out
    }

    /// Row-buffer hit rate over classified requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_mode_recording() {
        let mut s = MemStats::new();
        s.record_act(RowMode::MaxCapacity);
        s.record_act(RowMode::HighPerformance);
        s.record_pre(RowMode::HighPerformance);
        s.record_ref(RowMode::MaxCapacity);
        assert_eq!(s.acts(), 2);
        assert_eq!(s.pres(), 1);
        assert_eq!(s.refs(), 1);
        assert_eq!(s.acts_high_performance, 1);
    }

    #[test]
    fn derived_rates_handle_zero() {
        let s = MemStats::new();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.migration_slot_utilization(), 0.0);
    }

    /// Every field set, no `..Default` — adding a `MemStats` field breaks
    /// this constructor at compile time, forcing [`MemStats::merge`] and
    /// [`MemStats::delta_since`] to be revisited so per-channel and fused
    /// views cannot silently drift.
    /// Seed-derived histogram so the merge/delta inverse check below
    /// exercises the bucket-wise algebra, not just empty histograms.
    fn hist(seed: u64) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        h.record(seed);
        h.record(seed * 7 + 3);
        h.record(seed.wrapping_mul(131) % 100_000);
        h
    }

    /// Seed-derived blame set touching several causes so the inverse
    /// check exercises the per-cause histogram algebra.
    fn blame(seed: u64) -> BlameSet {
        use clr_obs::WaitCause;
        let mut b = BlameSet::new();
        b.record_cause(WaitCause::RowConflict, seed);
        b.record_cause(WaitCause::Refresh, seed * 3 + 1);
        b.record_cause(WaitCause::Service, seed % 500 + 1);
        b
    }

    fn all_fields(seed: u64) -> MemStats {
        MemStats {
            cycles: seed,
            acts_max_capacity: seed + 1,
            acts_high_performance: seed + 2,
            pres_max_capacity: seed + 3,
            pres_high_performance: seed + 4,
            reads: seed + 5,
            writes: seed + 6,
            refs_max_capacity: seed + 7,
            refs_high_performance: seed + 8,
            row_hits: seed + 9,
            row_misses: seed + 10,
            row_conflicts: seed + 11,
            read_latency_sum: seed + 12,
            reads_completed: seed + 13,
            forwarded_reads: seed + 14,
            rank_active_cycles: seed + 15,
            rank_precharged_cycles: seed + 16,
            refresh_busy_cycles: seed + 17,
            queue_rejections: seed + 18,
            mode_transitions: seed + 19,
            relocation_stall_cycles: seed + 20,
            migration_acts_max_capacity: seed + 21,
            migration_acts_high_performance: seed + 22,
            migration_pres_max_capacity: seed + 23,
            migration_pres_high_performance: seed + 24,
            migration_reads: seed + 25,
            migration_writes: seed + 26,
            migration_slot_cycles: seed + 27,
            migration_jobs_completed: seed + 28,
            migration_cross_bank_jobs: seed + 29,
            migration_evacuations: seed + 30,
            migration_fills: seed + 31,
            frames_freed: seed + 32,
            frames_reused: seed + 33,
            read_latency_hist: hist(seed + 34),
            write_latency_hist: hist(seed + 35),
            migration_latency_hist: hist(seed + 36),
            read_blame: blame(seed + 37),
            write_blame: blame(seed + 38),
        }
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = all_fields(100);
        let b = all_fields(1_000);
        let mut fused = a.clone();
        fused.merge(&b);
        // merge and delta_since are inverses field-by-field: subtracting
        // one addend back out must recover the other exactly. A counter
        // summed by merge but skipped by delta_since (or vice versa)
        // fails here.
        assert_eq!(fused.delta_since(&a), b);
        assert_eq!(fused.delta_since(&b), a);
        // Spot-check the sum itself.
        assert_eq!(fused.cycles, 1_100);
        assert_eq!(fused.migration_jobs_completed, 128 + 1_028);
        // Histograms fuse as multiset unions with exact counts/sums.
        assert_eq!(
            fused.read_latency_hist.count(),
            a.read_latency_hist.count() + b.read_latency_hist.count()
        );
        assert_eq!(
            fused.read_latency_hist.sum(),
            a.read_latency_hist.sum() + b.read_latency_hist.sum()
        );
    }

    #[test]
    fn fused_recomputes_derived_rates_from_sums() {
        let a = MemStats {
            cycles: 100,
            row_hits: 9,
            row_misses: 1,
            read_latency_sum: 200,
            reads_completed: 10,
            migration_slot_cycles: 30,
            ..MemStats::new()
        };
        let b = MemStats {
            cycles: 100,
            row_hits: 0,
            row_misses: 10,
            read_latency_sum: 100,
            reads_completed: 2,
            migration_slot_cycles: 10,
            ..MemStats::new()
        };
        let fused = MemStats::fused([&a, &b]);
        // Traffic-weighted, not the mean of per-channel rates.
        assert!((fused.row_hit_rate() - 9.0 / 20.0).abs() < 1e-12);
        assert_eq!((fused.read_latency_sum, fused.reads_completed), (300, 12));
        assert!((fused.migration_slot_utilization() - 40.0 / 200.0).abs() < 1e-12);
        // Identity: fusing one set of stats changes nothing.
        assert_eq!(MemStats::fused([&a]), a);
        assert_eq!(MemStats::fused(std::iter::empty()), MemStats::new());
    }

    #[test]
    fn hit_rate_math() {
        let s = MemStats {
            row_hits: 3,
            row_misses: 1,
            row_conflicts: 0,
            ..MemStats::new()
        };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
