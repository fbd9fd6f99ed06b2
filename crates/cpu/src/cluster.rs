//! The CPU cluster: cores + shared LLC, with the memory-side interface.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub use crate::cache::OutboundRequest;
use crate::cache::{CacheConfig, Llc};
use crate::core::{Core, Lane};
use crate::trace::TraceSource;

/// Cluster-wide configuration (Table 2 processor parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Instruction-window depth per core.
    pub window_depth: usize,
    /// Dispatch/retire width per core.
    pub width: usize,
    /// Shared LLC parameters.
    pub cache: CacheConfig,
}

impl ClusterConfig {
    /// The paper's processor: 4-wide, 128-entry window, 8 MiB LLC,
    /// 8 MSHRs per core.
    pub fn paper() -> Self {
        ClusterConfig {
            window_depth: 128,
            width: 4,
            cache: CacheConfig::paper_llc(),
        }
    }

    /// Small configuration for unit tests.
    pub fn tiny() -> Self {
        ClusterConfig {
            window_depth: 8,
            width: 4,
            cache: CacheConfig::tiny(),
        }
    }
}

/// How a compute stretch ([`CpuCluster::stream`]) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stretch {
    /// No tick ran: the next one is not pure, or the cluster is already
    /// stalled on memory or draining bubbles. The caller ticks instead.
    Declined,
    /// Stopped before a tick the stretch cannot cover, which the caller
    /// must tick next. The cluster is not stalled:
    /// [`CpuCluster::stalled_until`] is `None`.
    Blocked,
    /// Stopped after a tick that left every core stalled on memory or
    /// draining bubbles: [`CpuCluster::stalled_until`] is `Some` of
    /// this cycle.
    Settled(u64),
    /// Stopped after a tick whose memory cycles produced a completion,
    /// which the caller delivers.
    Completed,
}

/// Cores sharing one LLC, clocked in the CPU domain.
#[derive(Debug)]
pub struct CpuCluster {
    cores: Vec<Core>,
    llc: Llc,
    cycle: u64,
    hit_wakeups: BinaryHeap<Reverse<(u64, u64)>>,
    scratch: Vec<(u64, u64)>,
    /// The cores as counters during a compute stretch (kept to reuse
    /// the allocation).
    lanes: Vec<Lane>,
}

impl CpuCluster {
    /// Builds a cluster with one core per trace.
    pub fn new(cfg: ClusterConfig, traces: Vec<Box<dyn TraceSource + Send>>) -> Self {
        let n = traces.len();
        let line = cfg.cache.line_bytes;
        CpuCluster {
            cores: traces
                .into_iter()
                .enumerate()
                .map(|(i, t)| Core::new(i, cfg.window_depth, cfg.width, line, t))
                .collect(),
            llc: Llc::new(cfg.cache, n),
            cycle: 0,
            hit_wakeups: BinaryHeap::new(),
            scratch: Vec::new(),
            lanes: Vec::with_capacity(n),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Current CPU cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The shared LLC (for statistics).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Instructions retired by `core`.
    pub fn retired(&self, core: usize) -> u64 {
        self.cores[core].retired()
    }

    /// IPC of `core` so far.
    pub fn ipc(&self, core: usize) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.cores[core].retired() as f64 / self.cycle as f64
        }
    }

    /// Whether every core has retired at least `budget` instructions (or
    /// exhausted its trace).
    pub fn all_reached(&self, budget: u64) -> bool {
        self.cores
            .iter()
            .all(|c| c.retired() >= budget || c.is_done())
    }

    /// Executes one CPU cycle.
    pub fn tick(&mut self) {
        // Deliver due LLC-hit wakeups.
        while let Some(&Reverse((at, line))) = self.hit_wakeups.peek() {
            if at > self.cycle {
                break;
            }
            self.hit_wakeups.pop();
            for c in &mut self.cores {
                c.wake(line);
            }
        }
        let now = self.cycle;
        self.scratch.clear();
        for c in &mut self.cores {
            c.tick(&mut self.llc, now, &mut self.scratch);
        }
        for &(at, line) in &self.scratch {
            self.hit_wakeups.push(Reverse((at, line)));
        }
        self.cycle += 1;
    }

    /// Drains outbound memory requests through `try_send`, which returns
    /// `false` on backpressure (the request stays queued).
    pub fn drain_mem_requests(&mut self, mut try_send: impl FnMut(OutboundRequest) -> bool) {
        while let Some(req) = self.llc.outbox_front() {
            if try_send(req) {
                self.llc.outbox_pop();
            } else {
                break;
            }
        }
    }

    /// Completes the memory read for LLC MSHR `id`, waking waiting loads.
    pub fn complete_read(&mut self, id: u64) {
        let line = self.llc.fill(id);
        for c in &mut self.cores {
            c.wake(line);
        }
    }

    /// The earliest scheduled LLC-hit wakeup (`u64::MAX` if none): the
    /// first cycle whose tick delivers one.
    fn next_wakeup(&self) -> u64 {
        self.hit_wakeups
            .peek()
            .map_or(u64::MAX, |&Reverse((at, _))| at)
    }

    /// If the cluster can advance without ticking on its own — every
    /// core stalled on memory or draining bubbles behind a blocked head
    /// (see [`CpuCluster::skip_to`]), and no outbound request awaiting
    /// injection — returns the next CPU cycle at which its state can
    /// change on its own: the earliest scheduled LLC-hit wakeup, or
    /// `u64::MAX` when only an external memory completion can unblock
    /// it. A caller may jump to any cycle up to the returned one with
    /// [`CpuCluster::skip_to`]. Returns `None` while any core can make
    /// observable progress (retire, or LLC traffic); such a cluster
    /// advances without ticking only through [`CpuCluster::stream`].
    pub fn stalled_until(&self) -> Option<u64> {
        if self.llc.outbox_len() > 0 {
            return None;
        }
        if !self.cores.iter().all(|c| c.settled(&self.llc)) {
            return None;
        }
        Some(self.next_wakeup())
    }

    /// Advances the cluster clock to `cycle` without ticking, the first
    /// of the two ways the cluster advances on counters (the other is
    /// [`CpuCluster::stream`]): a stalled core stays put, and a core
    /// draining bubbles dispatches them until its window is full, so
    /// the landing state is bit-identical to ticking. Sound only when
    /// [`CpuCluster::stalled_until`] returned `Some(t)` with
    /// `t >= cycle` and no memory completion was delivered in between.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `cycle` is in the past.
    pub fn skip_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.cycle, "cluster clock cannot go backwards");
        let elapsed = cycle - self.cycle;
        for c in &mut self.cores {
            c.drain(elapsed);
        }
        self.cycle = cycle;
    }

    /// Runs a compute stretch: the second way the cluster advances
    /// without ticking. While every core's next tick is pure — it only
    /// retires ready entries and dispatches bubbles, touching neither
    /// the LLC nor the trace — the cores advance as counters, and each
    /// window is written once when the stretch ends.
    ///
    /// `memory(target)` advances the memory side through the CPU ticks
    /// up to cycle `target`, exactly as it follows ticks of
    /// [`CpuCluster::tick`], but stops after the first tick whose memory
    /// cycles produce a completion and returns `Some` of the cycle that
    /// tick ends at; `None` means it reached `target` without one. The
    /// caller delivers completions after the stretch returns.
    ///
    /// The stretch stops *before* any tick that would touch the LLC or
    /// the trace, deliver a hit wakeup, run at or past cycle `until`, or
    /// leave core `i`'s retired count at `retire_caps[i]` or beyond (a
    /// caller passes the counts at which it must look, such as a
    /// warm-up or a budget; a core already there blocks the stretch).
    /// It stops *after* any tick whose memory cycles produced a
    /// completion, or that leaves the cluster stalled on memory or
    /// draining bubbles ([`CpuCluster::stalled_until`]), so a caller's
    /// jump path sees exactly the cycles it sees when ticking. The
    /// returned [`Stretch`] says which way it stopped;
    /// [`Stretch::Declined`] leaves the cluster untouched.
    ///
    /// # Panics
    ///
    /// Panics if `retire_caps` does not hold one cap per core.
    pub fn stream(
        &mut self,
        retire_caps: &[u64],
        until: u64,
        mut memory: impl FnMut(u64) -> Option<u64>,
    ) -> Stretch {
        assert_eq!(retire_caps.len(), self.cores.len(), "one cap per core");
        let wake = self.next_wakeup();
        let limit = until.min(wake);
        if self.cycle >= limit || self.llc.outbox_len() > 0 {
            return Stretch::Declined;
        }
        self.lanes.clear();
        for c in &self.cores {
            let lane = c.lane(&self.llc);
            if !lane.pure_next() {
                return Stretch::Declined;
            }
            self.lanes.push(lane);
        }
        if self.lanes.iter().all(Lane::settled) {
            return Stretch::Declined;
        }
        let start = self.cycle;
        let mut end = Stretch::Blocked;
        while self.cycle < limit {
            // The ticks every lane can take in one shape at once, within
            // its cap; 0 when some lane needs a single checked tick.
            let mut run = limit - self.cycle;
            for (lane, &cap) in self.lanes.iter().zip(retire_caps) {
                let (ticks, per_tick) = lane.run();
                let below_cap = match per_tick {
                    0 => u64::MAX,
                    r => cap.saturating_sub(lane.retired + 1) / r,
                };
                run = run.min(ticks).min(below_cap);
            }
            let single = run == 0;
            if single {
                let clear = self.lanes.iter().zip(retire_caps).all(|(lane, &cap)| {
                    lane.pure_next() && lane.retired + lane.next_retire() < cap
                });
                if !clear {
                    break;
                }
                run = 1;
            }
            let completed = memory(self.cycle + run);
            let reached = completed.unwrap_or(self.cycle + run);
            debug_assert!(reached > self.cycle && reached <= self.cycle + run);
            let ticks = reached - self.cycle;
            for lane in &mut self.lanes {
                if single {
                    lane.step();
                } else {
                    lane.advance(ticks);
                }
            }
            self.cycle = reached;
            if completed.is_some() {
                end = Stretch::Completed;
                break;
            }
            if self.lanes.iter().all(Lane::settled) {
                end = Stretch::Settled(wake);
                break;
            }
        }
        if self.cycle == start {
            return Stretch::Declined;
        }
        for (c, lane) in self.cores.iter_mut().zip(&self.lanes) {
            c.land(lane);
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceItem, VecTrace};
    use clr_core::addr::PhysAddr;

    fn boxed(items: Vec<TraceItem>) -> Box<dyn TraceSource + Send> {
        Box::new(VecTrace::new(items))
    }

    #[test]
    fn cluster_completes_memory_bound_trace() {
        let items = vec![
            TraceItem::load(2, PhysAddr(0x000)),
            TraceItem::load(2, PhysAddr(0x400)),
        ];
        let mut cl = CpuCluster::new(ClusterConfig::tiny(), vec![boxed(items)]);
        // A trivial "perfect memory": complete reads instantly.
        let mut pending = Vec::new();
        for _ in 0..200 {
            cl.tick();
            cl.drain_mem_requests(|r| {
                if !r.write {
                    pending.push(r.id);
                }
                true
            });
            for id in pending.drain(..) {
                cl.complete_read(id);
            }
            if cl.all_reached(6) {
                break;
            }
        }
        assert_eq!(cl.retired(0), 6);
        assert!(cl.ipc(0) > 0.0);
    }

    #[test]
    fn backpressure_keeps_requests_queued() {
        let items = vec![TraceItem::load(0, PhysAddr(0))];
        let mut cl = CpuCluster::new(ClusterConfig::tiny(), vec![boxed(items)]);
        cl.tick();
        cl.drain_mem_requests(|_| false);
        assert_eq!(cl.llc().outbox_len(), 1);
        cl.drain_mem_requests(|_| true);
        assert_eq!(cl.llc().outbox_len(), 0);
    }

    #[test]
    fn stalled_until_detects_memory_waits_and_skip_is_noop() {
        let items = vec![TraceItem::load(0, PhysAddr(0x40))];
        let mut cl = CpuCluster::new(ClusterConfig::tiny(), vec![boxed(items)]);
        // Dispatching: not stalled.
        assert_eq!(cl.stalled_until(), None);
        cl.tick();
        // The miss is queued outbound: still not skippable.
        assert_eq!(cl.stalled_until(), None);
        let mut pending = Vec::new();
        cl.drain_mem_requests(|r| {
            pending.push(r.id);
            true
        });
        cl.tick();
        // Trace exhausted, window blocked on the load, outbox empty: only
        // a memory completion can unblock the cluster.
        assert_eq!(cl.stalled_until(), Some(u64::MAX));
        // Per-cycle ticks across the stall are no-ops except the clock —
        // so a skip must land in the identical state.
        let retired_before = cl.retired(0);
        cl.skip_to(cl.cycle() + 500);
        cl.tick();
        assert_eq!(cl.retired(0), retired_before);
        assert_eq!(cl.stalled_until(), Some(u64::MAX));
        // The completion unblocks it at any later cycle.
        for id in pending.drain(..) {
            cl.complete_read(id);
        }
        assert_eq!(cl.stalled_until(), None, "woken loads can retire");
        cl.tick();
        assert_eq!(cl.retired(0), 1);
    }

    #[test]
    fn stalled_until_reports_next_hit_wakeup() {
        // Two loads to one line, separated by enough bubbles that the
        // second dispatches only after the first's fill: it hits and
        // schedules a wakeup `hit_latency` ahead.
        let items = vec![
            TraceItem::load(0, PhysAddr(0x40)),
            TraceItem::load(12, PhysAddr(0x40)),
        ];
        let mut cl = CpuCluster::new(ClusterConfig::tiny(), vec![boxed(items)]);
        let mut pending = Vec::new();
        let mut wake_seen = None;
        for _ in 0..50 {
            cl.tick();
            cl.drain_mem_requests(|r| {
                pending.push(r.id);
                true
            });
            for id in pending.drain(..) {
                cl.complete_read(id);
            }
            if let Some(at) = cl.stalled_until() {
                if at != u64::MAX {
                    wake_seen = Some((cl.cycle(), at));
                    break;
                }
            }
        }
        let (now, at) = wake_seen.expect("a scheduled hit wakeup surfaces");
        assert!(at > now, "wakeup strictly ahead: {at} vs {now}");
        // Skipping to the wakeup cycle and ticking delivers it; the whole
        // trace (two loads + 12 bubbles) then retires.
        cl.skip_to(at);
        cl.tick();
        cl.tick();
        assert_eq!(cl.retired(0), 14);
    }

    #[test]
    fn bubble_drain_skip_matches_per_cycle_ticking() {
        // A blocked head miss followed by an item with more bubbles than
        // the tiny window holds: the drain stretch must be replayable in
        // closed form, landing bit-identical to per-cycle ticking.
        let items = || {
            vec![
                TraceItem::load(0, PhysAddr(0x40)),
                TraceItem::load(100, PhysAddr(0x1000)),
            ]
        };
        let mut ticked = CpuCluster::new(ClusterConfig::tiny(), vec![boxed(items())]);
        let mut skipped = CpuCluster::new(ClusterConfig::tiny(), vec![boxed(items())]);
        let mut ids_t = Vec::new();
        let mut ids_s = Vec::new();
        ticked.tick();
        skipped.tick();
        ticked.drain_mem_requests(|r| {
            ids_t.push(r.id);
            true
        });
        skipped.drain_mem_requests(|r| {
            ids_s.push(r.id);
            true
        });
        // Head blocked on the outstanding miss, dispatch mid-bubble:
        // without drain awareness this state was unskippable.
        assert_eq!(skipped.stalled_until(), Some(u64::MAX));
        for _ in 0..64 {
            ticked.tick();
        }
        let target = skipped.cycle() + 64;
        skipped.skip_to(target);
        assert_eq!(ticked.cycle(), skipped.cycle());
        for id in ids_t.drain(..) {
            ticked.complete_read(id);
        }
        for id in ids_s.drain(..) {
            skipped.complete_read(id);
        }
        // From the fill on, the two walks must stay in lockstep.
        for step in 0..200 {
            assert_eq!(ticked.retired(0), skipped.retired(0), "step {step}");
            assert_eq!(
                ticked.stalled_until(),
                skipped.stalled_until(),
                "step {step}"
            );
            ticked.tick();
            skipped.tick();
            ticked.drain_mem_requests(|r| {
                ids_t.push(r.id);
                true
            });
            skipped.drain_mem_requests(|r| {
                ids_s.push(r.id);
                true
            });
            for id in ids_t.drain(..) {
                ticked.complete_read(id);
            }
            for id in ids_s.drain(..) {
                skipped.complete_read(id);
            }
        }
        // 2 loads + 100 bubbles.
        assert_eq!(ticked.retired(0), 102);
        assert_eq!(skipped.retired(0), 102);
    }

    #[test]
    fn bubbles_that_exactly_fill_the_window_drain() {
        // The tiny window holds 8. After the first tick the head load
        // waits on memory, 3 of the next item's 7 bubbles are in, and the
        // 4 left exactly fill the 4 free entries: a drain, so the cluster
        // can jump, and the jump fills the window as ticking does.
        let items = vec![
            TraceItem::load(0, PhysAddr(0x40)),
            TraceItem::load(7, PhysAddr(0x1000)),
        ];
        let mut cl = CpuCluster::new(ClusterConfig::tiny(), vec![boxed(items)]);
        cl.tick();
        cl.drain_mem_requests(|_| true);
        assert_eq!(cl.stalled_until(), Some(u64::MAX));
        cl.skip_to(cl.cycle() + 5);
        assert_eq!(cl.stalled_until(), Some(u64::MAX));
        assert_eq!(cl.retired(0), 0);
    }

    #[test]
    fn two_cores_progress_independently() {
        let a = boxed(vec![TraceItem::load(10, PhysAddr(0x1000))]);
        let b = boxed(vec![TraceItem::load(10, PhysAddr(0x2000))]);
        let mut cl = CpuCluster::new(ClusterConfig::tiny(), vec![a, b]);
        let mut ids = Vec::new();
        for _ in 0..300 {
            cl.tick();
            cl.drain_mem_requests(|r| {
                if !r.write {
                    ids.push(r.id);
                }
                true
            });
            for id in ids.drain(..) {
                cl.complete_read(id);
            }
        }
        assert_eq!(cl.retired(0), 11);
        assert_eq!(cl.retired(1), 11);
    }
}
