//! In-memory spans and aggregated call timers for the traced replay.
//!
//! Coarse boundaries (a batch, a run, an instance, a policy epoch, a
//! Monte-Carlo sample and its circuit phases) are [`Span`]s with a name,
//! start, end, parent and group id; the spans of one run, instance or
//! sample share a group. Per-call hot paths (`tick`, `try_enqueue`,
//! `next_item`, ...) are aggregated as a count plus summed time. A name's
//! layer is its prefix before the first `.`.
//!
//! Self time: a span's duration minus its child spans and the aggregated
//! calls recorded while it was the innermost open span; an aggregate's
//! total minus the aggregates declared nested inside it. Every nanosecond
//! of a root span therefore lands in exactly one layer's self time.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name; the prefix is the layer.
    pub name: &'static str,
    /// Run, instance or sample id the span belongs to.
    pub group: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (equals `start_ns` while open).
    pub end_ns: u64,
    /// Time of child spans and top-level aggregated calls directly inside.
    child_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration not covered by children.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// An aggregated call site: calls made and their summed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls recorded.
    pub count: u64,
    /// Summed inclusive time, nanoseconds.
    pub ns: u64,
    /// Part of `ns` spent in aggregates declared nested in this one.
    pub nested_ns: u64,
}

impl Agg {
    /// Time not spent in nested aggregates.
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.nested_ns)
    }
}

/// Layer of a dotted name.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Records spans, aggregates and plain counters for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
    aggs: BTreeMap<&'static str, Agg>,
    /// Aggregated time recorded while no span was open.
    root_agg_ns: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
            aggs: BTreeMap::new(),
            root_agg_ns: 0,
            counters: BTreeMap::new(),
        }
    }

    /// The instant timestamps count from (shared by every lane's recorder).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the group id spans opened from now on carry.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.open_at(name, now)
    }

    fn open_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.close_at(id, now);
    }

    fn close_at(&mut self, id: usize, end_ns: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns.max(span.start_ns);
        let dur = span.duration_ns();
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += dur;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Adds `count` calls totalling `ns` to the aggregate `name`, charged
    /// to the innermost open span (or to the root total when none is open).
    pub fn add(&mut self, name: &'static str, count: u64, ns: u64) {
        let agg = self.aggs.entry(name).or_default();
        agg.count += count;
        agg.ns += ns;
        match self.open.last() {
            Some(&top) => self.spans[top].child_ns += ns,
            None => self.root_agg_ns += ns,
        }
    }

    /// Adds `count` calls totalling `ns` to the aggregate `name`, whose
    /// calls all ran inside calls of the aggregate `inside`.
    pub fn add_nested(&mut self, name: &'static str, inside: &'static str, count: u64, ns: u64) {
        let agg = self.aggs.entry(name).or_default();
        agg.count += count;
        agg.ns += ns;
        self.aggs.entry(inside).or_default().nested_ns += ns;
    }

    /// Times one call of `f` into the aggregate `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, 1, t.elapsed().as_nanos() as u64);
        out
    }

    /// Adds `n` to the plain counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Every span recorded, in open order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The aggregate `name` (zero if never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// The plain counter `name` (zero if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Durations of every span named `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Time the recorder accounts for: spans without a parent plus
    /// aggregated calls recorded while no span was open. The per-layer
    /// self times sum to exactly this.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum::<u64>()
            + self.root_agg_ns
    }

    /// Self time per layer: span self times plus aggregate self times.
    pub fn self_ns_by_layer(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(layer_of(s.name).to_string()).or_default() += s.self_ns();
        }
        for (name, a) in &self.aggs {
            *out.entry(layer_of(name).to_string()).or_default() += a.self_ns();
        }
        out
    }

    /// Folds a recorder from another lane (same origin) in. Its root
    /// spans stay roots — they ran on their own lane, so no span here
    /// covers their time — and its aggregates and counters are summed.
    ///
    /// # Panics
    ///
    /// Panics if `other` still has open spans.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed recorder has open spans");
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        self.root_agg_ns += other.root_agg_ns;
        for (name, a) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += a.count;
            mine.ns += a.ns;
            mine.nested_ns += a.nested_ns;
        }
        for (name, n) in other.counters {
            *self.counters.entry(name).or_default() += n;
        }
    }

    /// Serializes spans, aggregates and counters as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                sp.name, sp.group, sp.start_ns, sp.end_ns
            ));
        }
        s.push_str("], \"aggregates\": {");
        for (i, (name, a)) in self.aggs.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{name}\": {{\"count\": {}, \"ns\": {}, \"nested_ns\": {}}}",
                a.count, a.ns, a.nested_ns
            ));
        }
        s.push_str("}, \"counters\": {");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{name}\": {n}"));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed timestamps, so the arithmetic is
    /// checked exactly.
    fn manual() -> Tracer {
        Tracer::new(Instant::now())
    }

    #[test]
    fn nested_span_self_times_telescope_to_the_root() {
        let mut t = manual();
        let run = t.open_at("sim.run", 0);
        let epoch = t.open_at("policy.epoch", 100);
        t.add("migrate.dispatch", 1, 30);
        t.close_at(epoch, 180);
        t.add("cpu.tick", 10, 400);
        t.add_nested("trace.next_item", "cpu.tick", 5, 150);
        t.close_at(run, 1_000);

        let spans = t.spans();
        assert_eq!(spans[epoch].duration_ns(), 80);
        assert_eq!(spans[epoch].self_ns(), 50, "epoch minus its dispatch call");
        // Run: 1000 − epoch 80 − tick 400.
        assert_eq!(spans[run].self_ns(), 520);
        assert_eq!(t.agg("cpu.tick").self_ns(), 250, "tick minus next_item");

        let by_layer = t.self_ns_by_layer();
        assert_eq!(by_layer["sim"], 520);
        assert_eq!(by_layer["policy"], 50);
        assert_eq!(by_layer["migrate"], 30);
        assert_eq!(by_layer["cpu"], 250);
        assert_eq!(by_layer["trace"], 150);
        assert_eq!(by_layer.values().sum::<u64>(), t.root_ns());
    }

    #[test]
    fn sibling_spans_and_groups() {
        let mut t = manual();
        let batch = t.open_at("sim.batch", 0);
        for (g, (a, b)) in [(0u64, 10u64), (50, 90)].into_iter().enumerate() {
            t.set_group(g as u64 + 1);
            let run = t.open_at("sim.run", a);
            t.close_at(run, b);
        }
        t.close_at(batch, 100);
        assert_eq!(t.spans()[batch].self_ns(), 100 - 10 - 40);
        assert_eq!(t.durations("sim.run"), vec![10, 40]);
        let groups: Vec<u64> = t.spans().iter().map(|s| s.group).collect();
        assert_eq!(groups, vec![0, 1, 2]);
        assert_eq!(t.root_ns(), 100);
    }

    #[test]
    fn absorbed_lanes_and_root_aggregates_add_lane_time() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let mut lanes = Vec::new();
        for (start, end) in [(0u64, 90u64), (5, 100)] {
            let mut lane = Tracer::new(origin);
            let inst = lane.open_at("fleet.instance", start);
            lane.add("cpu.tick", 3, 60);
            lane.close_at(inst, end);
            lane.count("cpu.ticks", 3);
            lanes.push(lane);
        }
        for lane in lanes {
            main.absorb(lane);
        }
        // Two lanes over a 100 ns batch: 200 lane-ns, 185 busy.
        main.add("fleet.pool_idle", 1, 15);

        let spans = main.spans();
        assert!(spans.iter().all(|s| s.parent.is_none()));
        assert_eq!(spans[1].self_ns(), 95 - 60);
        assert_eq!(main.agg("cpu.tick").count, 6);
        assert_eq!(main.counter("cpu.ticks"), 6);
        let by_layer = main.self_ns_by_layer();
        assert_eq!(by_layer["cpu"], 120);
        assert_eq!(by_layer["fleet"], 30 + 35 + 15);
        assert_eq!(main.root_ns(), 200);
        assert_eq!(by_layer.values().sum::<u64>(), main.root_ns());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = manual();
        let a = t.open_at("sim.run", 0);
        let _b = t.open_at("policy.epoch", 1);
        t.close_at(a, 2);
    }
}
