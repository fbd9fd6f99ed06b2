//! Cycle-domain time-series metrics: fixed-interval windows of exact
//! counter deltas, gauges, and windowed latency histograms.
//!
//! A [`MetricsRecorder`] closes a window every `interval_cycles` of
//! *simulated* time. The caller (the full-system run loop) computes each
//! channel's window payload from its statistics block's exact
//! `delta_since` inverse and commits one [`ChannelSample`] per channel;
//! the recorder turns them into [`WindowSummary`]s inside bounded
//! ring-buffer [`TimeSeries`] — one series per channel, fused into a
//! system view with the exact bucket-wise [`TimeSeries::merge`].
//!
//! Windows are closed at **exact** simulated cycles: the sampling
//! boundary is an event source the skip-ahead walk never jumps past
//! (exactly like policy epochs), so the series a per-cycle walk, a
//! skip-ahead walk, and the threaded channel walk produce are
//! bit-identical — enforced by the workspace metrics differential test.
//! Like tracing, metrics are *inert*: recording them changes no
//! simulated outcome.
//!
//! Metrics are configured per run via [`MetricsConfig`]; binaries
//! resolve it from the `CLR_METRICS` environment variable (in
//! `clr-bench`): `CLR_METRICS=1` samples at the default interval,
//! `CLR_METRICS=<cycles>` at that interval, unset/`0` disables the
//! layer entirely (no snapshots are taken at all).

use std::collections::VecDeque;

use crate::blame::BlameSet;
use crate::hist::LatencyHistogram;
use crate::trace::{TraceCategory, TraceEvent};

/// Default sampling interval in DRAM cycles (`CLR_METRICS=1`).
pub const DEFAULT_INTERVAL_CYCLES: u64 = 10_000;

/// Default ring-buffer capacity in windows per series.
pub const DEFAULT_CAPACITY: usize = 4_096;

/// Per-run metrics configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Window length in simulated DRAM cycles.
    pub interval_cycles: u64,
    /// Ring-buffer capacity per series, in windows (oldest windows are
    /// evicted beyond it and only counted —
    /// [`TimeSeries::evicted_windows`]).
    pub capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            interval_cycles: DEFAULT_INTERVAL_CYCLES,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

impl MetricsConfig {
    /// A configuration sampling every `interval_cycles`.
    pub fn every(interval_cycles: u64) -> Self {
        MetricsConfig {
            interval_cycles: interval_cycles.max(1),
            ..MetricsConfig::default()
        }
    }
}

/// Per-window counters: exact deltas of monotone statistics over the
/// window, fused field-wise by [`SeriesCounters::merge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesCounters {
    /// ACT commands (demand, both modes).
    pub acts: u64,
    /// RD bursts.
    pub reads: u64,
    /// WR bursts.
    pub writes: u64,
    /// Row-mode transitions applied.
    pub mode_transitions: u64,
    /// Background-migration jobs completed.
    pub migration_jobs: u64,
    /// Whole-row frame fills that landed (cross-channel moves).
    pub frames_moved: u64,
    /// Cycles queue service was blocked by relocation work.
    pub stall_cycles: u64,
    /// Cycles a migration command occupied the command bus.
    pub migration_slot_cycles: u64,
}

impl SeriesCounters {
    /// Field-wise sum `self + other`. The exhaustive destructuring (no
    /// `..`) is a compile-time drift guard, as in `MemStats::reset`.
    pub fn merge(&mut self, other: &SeriesCounters) {
        let SeriesCounters {
            acts,
            reads,
            writes,
            mode_transitions,
            migration_jobs,
            frames_moved,
            stall_cycles,
            migration_slot_cycles,
        } = self;
        *acts += other.acts;
        *reads += other.reads;
        *writes += other.writes;
        *mode_transitions += other.mode_transitions;
        *migration_jobs += other.migration_jobs;
        *frames_moved += other.frames_moved;
        *stall_cycles += other.stall_cycles;
        *migration_slot_cycles += other.migration_slot_cycles;
    }
}

/// Per-window gauges: point samples taken at the window's closing
/// boundary. Merging sums field-wise; the [`WindowSummary::sources`]
/// weight recovers per-channel means on a fused series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesGauges {
    /// Pending demand requests (read + write queues) at the boundary.
    pub queue_depth: u64,
    /// Migration jobs in flight at the boundary.
    pub in_flight_migrations: u64,
    /// High-performance row fraction, permille.
    pub hp_permille: u64,
    /// Capacity-budget fraction assigned to the channel, permille (0
    /// when no policy runtime is managing budgets).
    pub budget_permille: u64,
}

impl SeriesGauges {
    /// Field-wise sum (see [`WindowSummary::merge`] for the weighting
    /// contract).
    pub fn merge(&mut self, other: &SeriesGauges) {
        let SeriesGauges {
            queue_depth,
            in_flight_migrations,
            hp_permille,
            budget_permille,
        } = self;
        *queue_depth += other.queue_depth;
        *in_flight_migrations += other.in_flight_migrations;
        *hp_permille += other.hp_permille;
        *budget_permille += other.budget_permille;
    }
}

/// One channel's payload for one window commit (see
/// [`MetricsRecorder::commit`]).
#[derive(Debug, Clone, Default)]
pub struct ChannelSample {
    /// Exact counter deltas over the window.
    pub counters: SeriesCounters,
    /// Gauges sampled at the closing boundary.
    pub gauges: SeriesGauges,
    /// Demand-read service latencies recorded inside the window (the
    /// histogram delta), for windowed p50/p95/p99.
    pub read_latency: LatencyHistogram,
    /// Per-cause read wait budgets recorded inside the window (the
    /// blame delta). Empty when attribution is off.
    pub read_blame: BlameSet,
}

/// One closed window: counters, gauges, and the windowed read-latency
/// histogram over `[start_cycle, end_cycle)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Window ordinal (0 = first window of the run).
    pub index: u64,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// One past the last cycle of the window (the sampling boundary).
    pub end_cycle: u64,
    /// How many per-channel windows were fused into this one (1 for a
    /// raw channel window). Gauge sums divide by it to recover means.
    pub sources: u64,
    /// Exact counter deltas.
    pub counters: SeriesCounters,
    /// Boundary gauge samples (summed over `sources`).
    pub gauges: SeriesGauges,
    /// Windowed demand-read latency distribution.
    pub read_latency: LatencyHistogram,
    /// Windowed per-cause read wait budgets (empty when attribution is
    /// off). The budgets sum to exactly the cycles in `read_latency`.
    pub read_blame: BlameSet,
}

impl WindowSummary {
    /// Window length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Windowed median read latency.
    pub fn read_p50(&self) -> u64 {
        self.read_latency.p50()
    }

    /// Windowed 95th-percentile read latency.
    pub fn read_p95(&self) -> u64 {
        self.read_latency.p95()
    }

    /// Windowed 99th-percentile read latency.
    pub fn read_p99(&self) -> u64 {
        self.read_latency.p99()
    }

    /// Mean high-performance fraction over fused sources, permille.
    pub fn hp_permille(&self) -> u64 {
        self.gauges.hp_permille / self.sources.max(1)
    }

    /// Mean capacity-budget fraction over fused sources, permille.
    pub fn budget_permille(&self) -> u64 {
        self.gauges.budget_permille / self.sources.max(1)
    }

    /// Fraction of window channel-cycles a migration command occupied a
    /// command bus, permille.
    pub fn migration_slot_permille(&self) -> u64 {
        let denom = self.cycles() * self.sources.max(1);
        (self.counters.migration_slot_cycles * 1000)
            .checked_div(denom)
            .unwrap_or(0)
    }

    /// Fuses `other` into `self`: counters, gauges, and latency buckets
    /// sum exactly; `sources` accumulates the weight. Exact — fusing
    /// per-channel windows equals having recorded one system window.
    ///
    /// # Panics
    ///
    /// Panics if the windows are not aligned (same index and cycle
    /// bounds) — channels advance in lockstep, so their windows align by
    /// construction.
    pub fn merge(&mut self, other: &WindowSummary) {
        assert!(
            self.index == other.index
                && self.start_cycle == other.start_cycle
                && self.end_cycle == other.end_cycle,
            "merging misaligned windows: {}@[{}, {}) vs {}@[{}, {})",
            self.index,
            self.start_cycle,
            self.end_cycle,
            other.index,
            other.start_cycle,
            other.end_cycle,
        );
        self.sources += other.sources;
        self.counters.merge(&other.counters);
        self.gauges.merge(&other.gauges);
        self.read_latency.merge(&other.read_latency);
        self.read_blame.merge(&other.read_blame);
    }
}

/// A bounded ring buffer of [`WindowSummary`]s that counts the windows
/// it evicts.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    windows: VecDeque<WindowSummary>,
    /// Windows evicted to the ring bound.
    evicted: u64,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` live windows.
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Appends a window, evicting the oldest once the ring is full.
    pub fn push(&mut self, w: WindowSummary) {
        if self.windows.len() >= self.capacity {
            self.windows.pop_front();
            self.evicted += 1;
        }
        self.windows.push_back(w);
    }

    /// Live windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowSummary> {
        self.windows.iter()
    }

    /// Number of live windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window is live.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The most recent window, if any.
    pub fn last(&self) -> Option<&WindowSummary> {
        self.windows.back()
    }

    /// Windows evicted to the ring bound.
    pub fn evicted_windows(&self) -> u64 {
        self.evicted
    }

    /// Fuses `other` into `self` window by window (exact bucket-wise
    /// sums) — the per-channel→system fusion.
    ///
    /// # Panics
    ///
    /// Panics if the series are not aligned: same live length, same
    /// eviction count, and pairwise-aligned windows.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.windows.len(), other.windows.len(), "series length");
        assert_eq!(self.evicted, other.evicted, "series eviction count");
        for (a, b) in self.windows.iter_mut().zip(other.windows.iter()) {
            a.merge(b);
        }
    }

    /// The window-wise fusion of `series` (see [`TimeSeries::merge`]).
    /// Returns an empty series for an empty iterator.
    pub fn fused<'a>(series: impl IntoIterator<Item = &'a TimeSeries>) -> TimeSeries {
        let mut it = series.into_iter();
        let Some(first) = it.next() else {
            return TimeSeries::new(DEFAULT_CAPACITY);
        };
        let mut out = first.clone();
        for s in it {
            out.merge(s);
        }
        out
    }

    /// Chrome trace-event **counter** events (`ph: "C"`) for this
    /// series, one set of tracks per window at the window's closing
    /// boundary, owned by process `pid`: `traffic` (acts/reads/writes),
    /// `queue` (demand backlog), `migration` (backlog and landed work),
    /// `read_latency_cycles` (windowed p50/p95/p99), and
    /// `capacity_permille` (hp fraction and budget). Append them to a
    /// [`TraceLog`](crate::TraceLog) to render latency/backlog curves
    /// next to the migration spans in Perfetto.
    pub fn counter_events(&self, pid: u32) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.windows.len() * 5);
        for w in self.windows.iter() {
            let ts = w.end_cycle;
            let mut counter = |name: &'static str, args: Vec<(&'static str, u64)>| {
                out.push(TraceEvent {
                    ts,
                    dur: 0,
                    category: TraceCategory::Metrics,
                    name,
                    pid,
                    counter: true,
                    flow_id: None,
                    args,
                });
            };
            counter(
                "traffic",
                vec![
                    ("acts", w.counters.acts),
                    ("reads", w.counters.reads),
                    ("writes", w.counters.writes),
                ],
            );
            counter("queue", vec![("depth", w.gauges.queue_depth)]);
            counter(
                "migration",
                vec![
                    ("in_flight", w.gauges.in_flight_migrations),
                    ("jobs_completed", w.counters.migration_jobs),
                    ("frames_moved", w.counters.frames_moved),
                ],
            );
            counter(
                "read_latency_cycles",
                vec![
                    ("p50", w.read_p50()),
                    ("p95", w.read_p95()),
                    ("p99", w.read_p99()),
                ],
            );
            counter(
                "capacity_permille",
                vec![("hp", w.hp_permille()), ("budget", w.budget_permille())],
            );
            // Attribution track: per-cause share of the window's read
            // wait, permille. Only present when attribution is on.
            let blame = w.read_blame.top_blame();
            if !blame.is_empty() {
                counter("blame_permille", blame);
            }
        }
        out
    }
}

/// The window clock plus one [`TimeSeries`] per channel: the run loop
/// asks [`MetricsRecorder::next_boundary`] (an event source its
/// skip-ahead jumps are clamped to), and at each boundary commits one
/// [`ChannelSample`] per channel computed from exact statistics deltas.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    interval: u64,
    next_boundary: u64,
    last_boundary: u64,
    window_index: u64,
    channels: Vec<TimeSeries>,
}

impl MetricsRecorder {
    /// A recorder for `channels` series under `cfg`, with the first
    /// boundary one interval in.
    pub fn new(cfg: &MetricsConfig, channels: usize) -> Self {
        let interval = cfg.interval_cycles.max(1);
        MetricsRecorder {
            interval,
            next_boundary: interval,
            last_boundary: 0,
            window_index: 0,
            channels: (0..channels.max(1))
                .map(|_| TimeSeries::new(cfg.capacity))
                .collect(),
        }
    }

    /// Window length in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The next cycle a window must close at — an exact-cycle event
    /// source: skip-ahead jumps are clamped to it, so windows close at
    /// the same cycle in every walk.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Whether the window ending at `now` is due.
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_boundary
    }

    /// Closes the window `[last_boundary, now)` with one sample per
    /// channel and schedules the next boundary one interval after `now`.
    /// Also used for the final partial window at run end (`now` below
    /// the boundary is fine as long as the window is nonempty).
    ///
    /// # Panics
    ///
    /// Panics if `samples` does not yield exactly one sample per channel
    /// or if `now` does not advance past the previous boundary.
    pub fn commit(&mut self, now: u64, samples: impl IntoIterator<Item = ChannelSample>) {
        assert!(now > self.last_boundary, "window must be nonempty");
        let mut n = 0;
        for (ch, s) in samples.into_iter().enumerate() {
            self.channels[ch].push(WindowSummary {
                index: self.window_index,
                start_cycle: self.last_boundary,
                end_cycle: now,
                sources: 1,
                counters: s.counters,
                gauges: s.gauges,
                read_latency: s.read_latency,
                read_blame: s.read_blame,
            });
            n += 1;
        }
        assert_eq!(n, self.channels.len(), "one sample per channel");
        self.window_index += 1;
        self.last_boundary = now;
        self.next_boundary = now + self.interval;
    }

    /// The cycle the last window closed at (0 before the first commit).
    pub fn last_boundary(&self) -> u64 {
        self.last_boundary
    }

    /// Per-channel series, channel 0 first.
    pub fn series(&self) -> &[TimeSeries] {
        &self.channels
    }

    /// Consumes the recorder, returning the per-channel series.
    pub fn into_series(self) -> Vec<TimeSeries> {
        self.channels
    }

    /// The system-level fusion of every channel's series.
    pub fn fused(&self) -> TimeSeries {
        TimeSeries::fused(self.channels.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> ChannelSample {
        let mut read_latency = LatencyHistogram::new();
        read_latency.record(seed + 10);
        read_latency.record(seed * 3 + 100);
        ChannelSample {
            counters: SeriesCounters {
                acts: seed,
                reads: seed + 1,
                writes: seed + 2,
                mode_transitions: seed + 3,
                migration_jobs: seed + 4,
                frames_moved: seed + 5,
                stall_cycles: seed + 6,
                migration_slot_cycles: seed + 7,
            },
            gauges: SeriesGauges {
                queue_depth: seed + 8,
                in_flight_migrations: seed + 9,
                hp_permille: 100 + seed,
                budget_permille: 250,
            },
            read_latency,
            read_blame: BlameSet::default(),
        }
    }

    #[test]
    fn env_parsing() {
        assert_eq!(MetricsConfig::every(0).interval_cycles, 1);
        let d = MetricsConfig::default();
        assert_eq!(d.interval_cycles, DEFAULT_INTERVAL_CYCLES);
        assert_eq!(d.capacity, DEFAULT_CAPACITY);
    }

    #[test]
    fn recorder_windows_tile_the_run() {
        let cfg = MetricsConfig {
            interval_cycles: 100,
            capacity: 16,
        };
        let mut r = MetricsRecorder::new(&cfg, 2);
        assert_eq!(r.next_boundary(), 100);
        r.commit(100, vec![sample(1), sample(2)]);
        assert_eq!(r.next_boundary(), 200);
        r.commit(200, vec![sample(3), sample(4)]);
        // Final partial window.
        r.commit(230, vec![sample(5), sample(6)]);
        let s = r.series();
        assert_eq!(s.len(), 2);
        let bounds: Vec<(u64, u64)> = s[0]
            .windows()
            .map(|w| (w.start_cycle, w.end_cycle))
            .collect();
        assert_eq!(bounds, vec![(0, 100), (100, 200), (200, 230)]);
        // Fusion sums channel windows exactly.
        let fused = r.fused();
        let w0 = fused.windows().next().unwrap();
        assert_eq!(w0.sources, 2);
        assert_eq!(w0.counters.reads, 2 + 3);
        assert_eq!(w0.read_latency.count(), 4);
    }

    #[test]
    fn eviction_keeps_totals() {
        let mut ts = TimeSeries::new(2);
        let mk = |i: u64| WindowSummary {
            index: i,
            start_cycle: i * 10,
            end_cycle: (i + 1) * 10,
            sources: 1,
            counters: SeriesCounters {
                reads: i + 1,
                ..SeriesCounters::default()
            },
            gauges: SeriesGauges::default(),
            read_latency: LatencyHistogram::new(),
            read_blame: BlameSet::default(),
        };
        for i in 0..5 {
            ts.push(mk(i));
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.evicted_windows(), 3);
        // The newest windows stay live, oldest first.
        let live: Vec<u64> = ts.windows().map(|w| w.counters.reads).collect();
        assert_eq!(live, vec![4, 5]);
    }

    #[test]
    fn blame_windows_fuse_and_rank() {
        use crate::blame::WaitCause;
        let cfg = MetricsConfig {
            interval_cycles: 50,
            capacity: 8,
        };
        let mut r = MetricsRecorder::new(&cfg, 2);
        let with_blame = |seed: u64, conflict: u64, refresh: u64| {
            let mut s = sample(seed);
            s.read_blame.record_cause(WaitCause::RowConflict, conflict);
            s.read_blame.record_cause(WaitCause::Refresh, refresh);
            s
        };
        r.commit(50, vec![with_blame(1, 300, 20), with_blame(2, 500, 80)]);
        let fused = r.fused();
        let w = fused.windows().next().unwrap();
        // Fusion sums per-cause budgets exactly.
        assert_eq!(w.read_blame.of(WaitCause::RowConflict).sum(), 800);
        assert_eq!(w.read_blame.of(WaitCause::Refresh).sum(), 100);
        // Top-blame vector is heaviest-first with permille shares.
        let top = w.read_blame.top_blame();
        assert_eq!(top[0], ("row_conflict", 888));
        assert_eq!(top[1], ("refresh", 111));
        // The attribution counter track appears exactly once per window.
        let events = fused.counter_events(3);
        let blame_tracks: Vec<_> = events
            .iter()
            .filter(|e| e.name == "blame_permille")
            .collect();
        assert_eq!(blame_tracks.len(), 1);
        assert_eq!(blame_tracks[0].args[0], ("row_conflict", 888));
    }

    #[test]
    fn counter_events_cover_every_window() {
        let cfg = MetricsConfig {
            interval_cycles: 50,
            capacity: 8,
        };
        let mut r = MetricsRecorder::new(&cfg, 1);
        r.commit(50, vec![sample(1)]);
        r.commit(100, vec![sample(2)]);
        let events = r.fused().counter_events(7);
        assert_eq!(events.len(), 2 * 5);
        assert!(events.iter().all(|e| e.counter));
        assert!(events.iter().all(|e| e.pid == 7));
        assert!(events.iter().all(|e| e.category == TraceCategory::Metrics));
        assert!(events.iter().any(|e| e.name == "read_latency_cycles"));
        assert_eq!(events[0].ts, 50);
    }
}
