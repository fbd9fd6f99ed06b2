//! Structured event tracing with Chrome trace-event JSON export.
//!
//! A [`TraceSink`] is a bounded ring buffer of [`TraceEvent`]s filtered
//! by [`TraceCategory`]. The memory controller, memory system, and
//! policy runtime each record into a sink only when one is installed
//! (the hot paths pay a single pointer test otherwise), and a run's
//! sinks serialize together into one Chrome trace-event JSON document
//! ([`TraceLog::to_chrome_json`]) that opens directly in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Timestamps are
//! DRAM cycles (rendered as microseconds by the viewers — 1 "µs" on
//! screen is 1 DRAM cycle); each channel renders as its own process
//! (`pid` = channel index), system-level events under the
//! [`SYSTEM_PID`] pseudo-process.
//!
//! Tracing is configured per run via [`TraceConfig`]; binaries resolve
//! it from the `CLR_TRACE` environment variable (in `clr-bench`):
//! `CLR_TRACE=1` (or `all`) enables every category,
//! `CLR_TRACE=commands,migration` a subset ([`CategorySet::parse`]),
//! unset/`0` disables tracing entirely. Instrumentation is *inert*: enabling a
//! sink changes no simulated outcome (cycle counts, statistics, command
//! streams — enforced by the workspace tracing differential test).

use std::collections::VecDeque;

/// `pid` used for system-level events (placement pumps, remap installs,
/// policy-epoch decisions) in the exported trace, distinguishing them
/// from per-channel controller events (whose `pid` is the channel
/// index).
pub const SYSTEM_PID: u32 = u32::MAX;

/// What kind of simulator activity an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCategory {
    /// DRAM commands on the command bus (ACT/PRE/RD/WR/REF), demand and
    /// migration alike.
    Commands,
    /// Migration-job lifecycle transitions: dispatch, couple points,
    /// completions, evacuations, staged read-outs, fills.
    Migration,
    /// Policy-epoch decisions: transitions applied, budgets assigned.
    Policy,
    /// Frame moves and remap-table installs (the capacity directory).
    Placement,
    /// Continuous-telemetry counter tracks (windowed traffic, queue
    /// depth, migration backlog, tail latency, capacity fractions).
    Metrics,
    /// Sampled tail-request async flow spans (`ph:"b"/"e"`): one span
    /// per slow demand read, arrival → last data beat, carrying the
    /// request's per-cause blame budget.
    Requests,
}

impl TraceCategory {
    /// All categories, in a fixed order.
    pub const ALL: [TraceCategory; 6] = [
        TraceCategory::Commands,
        TraceCategory::Migration,
        TraceCategory::Policy,
        TraceCategory::Placement,
        TraceCategory::Metrics,
        TraceCategory::Requests,
    ];

    /// The category's stable lowercase label (used in the JSON `cat`
    /// field and in `CLR_TRACE` filters).
    pub fn label(self) -> &'static str {
        match self {
            TraceCategory::Commands => "commands",
            TraceCategory::Migration => "migration",
            TraceCategory::Policy => "policy",
            TraceCategory::Placement => "placement",
            TraceCategory::Metrics => "metrics",
            TraceCategory::Requests => "requests",
        }
    }

    fn bit(self) -> u8 {
        match self {
            TraceCategory::Commands => 1 << 0,
            TraceCategory::Migration => 1 << 1,
            TraceCategory::Policy => 1 << 2,
            TraceCategory::Placement => 1 << 3,
            TraceCategory::Metrics => 1 << 4,
            TraceCategory::Requests => 1 << 5,
        }
    }
}

/// A set of enabled [`TraceCategory`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CategorySet(u8);

impl CategorySet {
    /// The empty set.
    pub fn none() -> Self {
        CategorySet(0)
    }

    /// Every category.
    pub fn all() -> Self {
        let mut s = CategorySet(0);
        for c in TraceCategory::ALL {
            s = s.with(c);
        }
        s
    }

    /// This set plus `cat`.
    #[must_use]
    pub fn with(self, cat: TraceCategory) -> Self {
        CategorySet(self.0 | cat.bit())
    }

    /// Whether `cat` is enabled.
    pub fn contains(self, cat: TraceCategory) -> bool {
        self.0 & cat.bit() != 0
    }

    /// Whether no category is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated category list (`"commands,migration"`);
    /// `"1"`, `"all"`, and `"on"` mean every category. Unknown names are
    /// ignored; an all-unknown list yields the empty set.
    pub fn parse(s: &str) -> Self {
        match s.trim() {
            "1" | "all" | "on" | "true" => return CategorySet::all(),
            "" | "0" | "off" | "false" => return CategorySet::none(),
            _ => {}
        }
        let mut set = CategorySet::none();
        for part in s.split(',') {
            let part = part.trim();
            for c in TraceCategory::ALL {
                if part == c.label() {
                    set = set.with(c);
                }
            }
        }
        set
    }
}

/// Per-run tracing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Which categories to record.
    pub categories: CategorySet,
    /// Ring-buffer capacity per sink (oldest events are dropped beyond
    /// it; the drop count is reported in the export).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            categories: CategorySet::all(),
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {}

/// One recorded event. `counter` exports as a Chrome counter sample
/// (`ph: "C"` — every `args` key becomes a counter-track series);
/// `flow_id` exports as an async flow-span pair (`ph: "b"` at `ts` and
/// `ph: "e"` at `ts + dur`, both carrying the id); otherwise `dur == 0`
/// exports as an instant event (`ph: "i"`) and `dur > 0` as a complete
/// span (`ph: "X"`) starting at `ts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start cycle.
    pub ts: u64,
    /// Span length in cycles (0 = instant).
    pub dur: u64,
    /// The event's category.
    pub category: TraceCategory,
    /// Stable event name (the Chrome `name` field).
    pub name: &'static str,
    /// Owning process in the export: channel index, or [`SYSTEM_PID`].
    pub pid: u32,
    /// Whether this is a counter sample (`ph: "C"`).
    pub counter: bool,
    /// Async flow-span id (`ph: "b"/"e"` pair on export) — the request
    /// id for tail-request spans. `None` for every other event shape.
    pub flow_id: Option<u64>,
    /// Key/value payload (the Chrome `args` object; for a counter
    /// event, the sampled series values).
    pub args: Vec<(&'static str, u64)>,
}

/// A bounded, category-filtered ring buffer of trace events.
#[derive(Debug, Clone)]
pub struct TraceSink {
    categories: CategorySet,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    pid: u32,
}

impl TraceSink {
    /// A sink recording `cfg.categories` for process `pid`.
    pub fn new(cfg: &TraceConfig, pid: u32) -> Self {
        TraceSink {
            categories: cfg.categories,
            capacity: cfg.capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
            pid,
        }
    }

    /// Whether `cat` is being recorded — gate any argument construction
    /// on this so disabled categories cost one branch.
    #[inline]
    pub fn wants(&self, cat: TraceCategory) -> bool {
        self.categories.contains(cat)
    }

    /// Records an instant event (no-op if the category is filtered).
    #[inline]
    pub fn instant(
        &mut self,
        cat: TraceCategory,
        name: &'static str,
        ts: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        self.span(cat, name, ts, 0, args);
    }

    /// Records a complete span `[ts, ts + dur)` (no-op if the category
    /// is filtered). The oldest event is dropped once the ring is full.
    pub fn span(
        &mut self,
        cat: TraceCategory,
        name: &'static str,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.categories.contains(cat) {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            ts,
            dur,
            category: cat,
            name,
            pid: self.pid,
            counter: false,
            flow_id: None,
            args,
        });
    }

    /// Records an async flow span `[ts, ts + dur)` with identity `id`
    /// (no-op if the category is filtered): one buffered event,
    /// exported as a `ph:"b"`/`ph:"e"` pair so the span renders on its
    /// own async track in Perfetto even though it overlaps other
    /// requests' spans.
    pub fn flow(
        &mut self,
        cat: TraceCategory,
        name: &'static str,
        id: u64,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.categories.contains(cat) {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            ts,
            dur,
            category: cat,
            name,
            pid: self.pid,
            counter: false,
            flow_id: Some(id),
            args,
        });
    }

    /// Events currently buffered (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events dropped to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Moves the buffered events out (oldest first), leaving the sink
    /// empty but still recording.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

/// A run's merged trace: every sink's events, sorted by `(ts, pid)`.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// The merged events, sorted by `(ts, pid)`.
    pub events: Vec<TraceEvent>,
    /// Total events dropped across sinks (ring-bound overflow).
    pub dropped: u64,
}

impl TraceLog {
    /// Merges `sinks` (draining each) into one sorted log.
    pub fn collect<'a>(sinks: impl IntoIterator<Item = &'a mut TraceSink>) -> TraceLog {
        let mut events = Vec::new();
        let mut dropped = 0;
        for s in sinks {
            dropped += s.dropped();
            events.extend(s.drain());
        }
        events.sort_by_key(|e| (e.ts, e.pid));
        TraceLog { events, dropped }
    }

    /// How many events carry category `cat`.
    pub fn count(&self, cat: TraceCategory) -> usize {
        self.events.iter().filter(|e| e.category == cat).count()
    }

    /// Appends `events` (e.g. metrics counter tracks) and restores the
    /// `(ts, pid)` sort order.
    pub fn append(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        self.events.extend(events);
        self.events.sort_by_key(|e| (e.ts, e.pid));
    }

    /// Serializes to Chrome trace-event JSON (the object form, with a
    /// `traceEvents` array) — open the output in Perfetto or
    /// `chrome://tracing`. Timestamps are DRAM cycles.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(id) = e.flow_id {
                // An async flow span serializes as its begin/end pair.
                for (ph, ts, args) in [("b", e.ts, &e.args[..]), ("e", e.ts + e.dur, &[][..])] {
                    if ph == "e" {
                        out.push(',');
                    }
                    out.push_str("{\"name\":\"");
                    out.push_str(e.name);
                    out.push_str("\",\"cat\":\"");
                    out.push_str(e.category.label());
                    out.push_str("\",\"ph\":\"");
                    out.push_str(ph);
                    out.push_str("\",\"id\":");
                    out.push_str(&id.to_string());
                    out.push_str(",\"ts\":");
                    out.push_str(&ts.to_string());
                    out.push_str(",\"pid\":");
                    out.push_str(&e.pid.to_string());
                    out.push_str(",\"tid\":0,\"args\":{");
                    for (j, (k, v)) in args.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push('"');
                        out.push_str(k);
                        out.push_str("\":");
                        out.push_str(&v.to_string());
                    }
                    out.push_str("}}");
                }
                continue;
            }
            out.push_str("{\"name\":\"");
            out.push_str(e.name);
            out.push_str("\",\"cat\":\"");
            out.push_str(e.category.label());
            if e.counter {
                out.push_str("\",\"ph\":\"C");
            } else if e.dur == 0 {
                out.push_str("\",\"ph\":\"i\",\"s\":\"t");
            } else {
                out.push_str("\",\"ph\":\"X");
            }
            out.push_str("\",\"ts\":");
            out.push_str(&e.ts.to_string());
            if e.dur > 0 {
                out.push_str(",\"dur\":");
                out.push_str(&e.dur.to_string());
            }
            out.push_str(",\"pid\":");
            out.push_str(&e.pid.to_string());
            out.push_str(",\"tid\":0,\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":");
                out.push_str(&v.to_string());
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":\"");
        out.push_str(&self.dropped.to_string());
        out.push_str("\"}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cap: usize) -> TraceConfig {
        TraceConfig {
            categories: CategorySet::all(),
            capacity: cap,
        }
    }

    #[test]
    fn category_parsing() {
        assert_eq!(CategorySet::parse("1"), CategorySet::all());
        assert_eq!(CategorySet::parse("all"), CategorySet::all());
        assert_eq!(CategorySet::parse("0"), CategorySet::none());
        let s = CategorySet::parse("commands, migration");
        assert!(s.contains(TraceCategory::Commands));
        assert!(s.contains(TraceCategory::Migration));
        assert!(!s.contains(TraceCategory::Policy));
        assert!(CategorySet::parse("bogus").is_empty());
    }

    #[test]
    fn ring_bound_drops_oldest() {
        let mut sink = TraceSink::new(&cfg(2), 0);
        for ts in 0..5u64 {
            sink.instant(TraceCategory::Commands, "act", ts, vec![]);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let ts: Vec<u64> = sink.events().map(|e| e.ts).collect();
        assert_eq!(ts, vec![3, 4]);
    }

    #[test]
    fn filtered_categories_record_nothing() {
        let mut sink = TraceSink::new(
            &TraceConfig {
                categories: CategorySet::none().with(TraceCategory::Policy),
                capacity: 16,
            },
            0,
        );
        sink.instant(TraceCategory::Commands, "act", 1, vec![]);
        assert!(sink.is_empty());
        assert!(!sink.wants(TraceCategory::Commands));
        sink.instant(TraceCategory::Policy, "epoch", 2, vec![("applied", 3)]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn chrome_json_shape() {
        let mut a = TraceSink::new(&cfg(16), 0);
        let mut b = TraceSink::new(&cfg(16), 1);
        a.span(TraceCategory::Migration, "couple", 10, 25, vec![("row", 7)]);
        b.instant(TraceCategory::Commands, "act", 5, vec![("bank", 2)]);
        let log = TraceLog::collect([&mut a, &mut b]);
        assert_eq!(log.events.len(), 2);
        // Sorted by ts: the channel-1 instant first.
        assert_eq!(log.events[0].ts, 5);
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":25"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cat\":\"migration\""));
        assert!(json.contains("\"bank\":2"));
        assert!(json.ends_with("}}"));
        // Sinks are drained by collection.
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn counter_events_serialize_as_counter_samples() {
        let mut log = TraceLog::default();
        log.append([TraceEvent {
            ts: 100,
            dur: 0,
            category: TraceCategory::Metrics,
            name: "queue",
            pid: 1,
            counter: true,
            flow_id: None,
            args: vec![("depth", 9)],
        }]);
        let json = log.to_chrome_json();
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"cat\":\"metrics\""));
        assert!(json.contains("\"depth\":9"));
        assert!(!json.contains("\"s\":\"t\""));
    }

    #[test]
    fn flow_spans_serialize_as_async_pairs() {
        let mut sink = TraceSink::new(&cfg(16), 0);
        sink.flow(
            TraceCategory::Requests,
            "slow_read",
            77,
            100,
            40,
            vec![("row_conflict", 25), ("service", 15)],
        );
        let log = TraceLog::collect([&mut sink]);
        assert_eq!(log.events.len(), 1);
        let json = log.to_chrome_json();
        assert!(json.contains("\"ph\":\"b\",\"id\":77,\"ts\":100"));
        assert!(json.contains("\"ph\":\"e\",\"id\":77,\"ts\":140"));
        assert!(json.contains("\"cat\":\"requests\""));
        // The blame budget rides the begin event only.
        assert!(json.contains("\"row_conflict\":25"));
        assert_eq!(json.matches("\"row_conflict\"").count(), 1);
    }

    #[test]
    fn append_restores_sort_order() {
        let mut sink = TraceSink::new(&cfg(16), 0);
        sink.instant(TraceCategory::Commands, "act", 50, vec![]);
        let mut log = TraceLog::collect([&mut sink]);
        log.append([TraceEvent {
            ts: 10,
            dur: 0,
            category: TraceCategory::Metrics,
            name: "queue",
            pid: 2,
            counter: true,
            flow_id: None,
            args: vec![],
        }]);
        let ts: Vec<u64> = log.events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![10, 50]);
    }
}
