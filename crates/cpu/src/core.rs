//! One trace-driven out-of-order core (a port of Ramulator's `Core`).

use clr_core::addr::PhysAddr;

use crate::cache::{AccessKind, AccessResult, Llc};
use crate::trace::{TraceItem, TraceSource};
use crate::window::Window;

/// Dispatch phase of the current trace item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Emitting the item's non-memory bubbles.
    Bubbles(u32),
    /// Issuing the load.
    Load,
    /// Issuing the optional store.
    Store,
}

/// A simplified out-of-order core: 4-wide dispatch/retire over a 128-entry
/// window; loads occupy window slots until their line arrives; stores are
/// posted.
#[derive(Debug)]
pub struct Core {
    id: usize,
    window: Window,
    dispatch_width: usize,
    trace: Box<dyn TraceSource + Send>,
    current: Option<(TraceItem, Phase)>,
    retired: u64,
    trace_done: bool,
    /// Scheduled-hit wakeups are handled by the cluster; the core only
    /// tracks how many loads it has in flight for diagnostics.
    line_bytes: u64,
}

impl std::fmt::Debug for dyn TraceSource + Send {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSource")
    }
}

impl Core {
    /// Creates a core reading from `trace`.
    pub fn new(
        id: usize,
        window_depth: usize,
        width: usize,
        line_bytes: u64,
        trace: Box<dyn TraceSource + Send>,
    ) -> Self {
        Core {
            id,
            window: Window::new(window_depth, width),
            dispatch_width: width,
            trace,
            current: None,
            retired: 0,
            trace_done: false,
            line_bytes,
        }
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the trace is exhausted *and* the window has drained.
    pub fn is_done(&self) -> bool {
        self.trace_done && self.window.is_empty()
    }

    /// Marks loads waiting on `line_addr` ready.
    pub fn wake(&mut self, line_addr: u64) {
        self.window.set_ready(line_addr);
    }

    /// This core reduced to the counters a *pure* tick changes — one
    /// that neither touches the LLC nor pulls from the trace (see
    /// [`Lane`]). `llc` answers, once, whether the access dispatch would
    /// meet next is refused for want of an MSHR; that cannot change
    /// while ticks stay pure, since only an access or a fill moves the
    /// LLC.
    pub(crate) fn lane(&self, llc: &Llc) -> Lane {
        self.lane_with(|addr| llc.would_stall(self.id, addr))
    }

    /// [`Core::lane`] with `refused` answering whether the LLC refuses
    /// an access to an address.
    fn lane_with(&self, refused: impl Fn(PhysAddr) -> bool) -> Lane {
        let (bubbles, gate) = match self.current {
            None => (0, Gate::Pull),
            Some((item, phase)) => match phase {
                Phase::Bubbles(n) => (n, Gate::Load(refused(item.read))),
                Phase::Load => (0, Gate::Load(refused(item.read))),
                Phase::Store => {
                    let addr = item.write.expect("store phase implies a write");
                    (0, Gate::Store(refused(addr)))
                }
            },
        };
        Lane {
            ready: self.window.ready_prefix(),
            occupancy: self.window.occupancy(),
            bubbles,
            gate,
            trace_done: self.trace_done,
            retired: self.retired,
            inserted: 0,
            retired_here: 0,
            depth: self.window.depth(),
            width: self.dispatch_width,
        }
    }

    /// Whether this core is stalled on memory or draining bubbles
    /// ([`Lane::settled`]). The LLC is asked only when the answer turns
    /// on it: not while the window head can retire, nor while bubbles
    /// are left.
    pub(crate) fn settled(&self, llc: &Llc) -> bool {
        if self.window.head_ready() {
            return false;
        }
        match self.current {
            Some((_, Phase::Bubbles(_))) => self.lane_with(|_| false).settled(),
            _ => self.lane(llc).settled(),
        }
    }

    /// Runs `ticks` ticks of a core that is stalled on memory or
    /// draining bubbles ([`Lane::drain`]); only a drain, mid-bubbles
    /// with room in the window, changes anything, and it never reaches
    /// the LLC.
    pub(crate) fn drain(&mut self, ticks: u64) {
        if matches!(self.current, Some((_, Phase::Bubbles(_)))) && !self.window.is_full() {
            let mut lane = self.lane_with(|_| false);
            lane.drain(ticks);
            self.land(&lane);
        }
    }

    /// Writes back a lane taken by [`Core::lane`] and advanced by pure
    /// ticks: the window once, then the retired count and the bubbles
    /// left — the state the same ticks through [`Core::tick`] leave.
    pub(crate) fn land(&mut self, lane: &Lane) {
        self.window.advance(lane.retired_here, lane.inserted);
        self.retired = lane.retired;
        if let Some((item, Phase::Bubbles(_))) = self.current {
            let phase = if lane.bubbles > 0 {
                Phase::Bubbles(lane.bubbles)
            } else {
                Phase::Load
            };
            self.current = Some((item, phase));
        }
    }

    /// Executes one CPU cycle: retire, then dispatch up to the width.
    ///
    /// `hit_wakeups` receives `(ready_cycle, line_addr)` events for LLC
    /// hits, which the cluster replays into [`Core::wake`] at the right
    /// time.
    pub fn tick(&mut self, llc: &mut Llc, now: u64, hit_wakeups: &mut Vec<(u64, u64)>) {
        self.retired += self.window.retire() as u64;
        let mut slots = self.dispatch_width;
        while slots > 0 {
            if self.current.is_none() {
                match self.trace.next_item() {
                    Some(item) => {
                        let phase = if item.bubbles > 0 {
                            Phase::Bubbles(item.bubbles)
                        } else {
                            Phase::Load
                        };
                        self.current = Some((item, phase));
                    }
                    None => {
                        self.trace_done = true;
                        return;
                    }
                }
            }
            let (item, phase) = self.current.expect("current item was just set");
            match phase {
                Phase::Bubbles(n) => {
                    if self.window.is_full() {
                        return;
                    }
                    self.window.insert(true, 0);
                    slots -= 1;
                    self.current = Some((
                        item,
                        if n > 1 {
                            Phase::Bubbles(n - 1)
                        } else {
                            Phase::Load
                        },
                    ));
                }
                Phase::Load => {
                    if self.window.is_full() {
                        return;
                    }
                    let line = item.read.line(self.line_bytes) * self.line_bytes;
                    match llc.access(self.id, AccessKind::Load, item.read, now) {
                        AccessResult::Hit { ready_at } => {
                            self.window.insert(false, line);
                            hit_wakeups.push((ready_at, line));
                        }
                        AccessResult::Miss => {
                            self.window.insert(false, line);
                        }
                        AccessResult::MshrFull => return, // stall this cycle
                    }
                    slots -= 1;
                    if item.write.is_some() {
                        self.current = Some((item, Phase::Store));
                    } else {
                        self.current = None;
                    }
                }
                Phase::Store => {
                    let addr: PhysAddr = item.write.expect("store phase implies a write");
                    match llc.access(self.id, AccessKind::Store, addr, now) {
                        AccessResult::Hit { .. } | AccessResult::Miss => {
                            self.current = None; // posted; no window slot
                        }
                        AccessResult::MshrFull => return,
                    }
                }
            }
        }
    }
}

/// What dispatch meets once the current item's bubbles are out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// The item's load; `true` when the LLC refuses it (no free MSHR),
    /// which changes nothing.
    Load(bool),
    /// The item's store, likewise.
    Store(bool),
    /// No current item: dispatch pulls from the trace.
    Pull,
}

/// A core as counters: the ready prefix of its window, its occupancy,
/// the bubbles left in its current item and its retired count.
///
/// A *pure* tick — one that touches neither the LLC nor the trace —
/// only retires ready entries from the window's oldest end and
/// dispatches ready bubbles, and that moves nothing else. So the
/// cluster advances lanes instead of cores through compute stretches
/// (every core pure) and memory-stall jumps (every core stalled or
/// draining bubbles), and writes each window once when the lanes land
/// ([`Core::land`]). Entries waiting on memory stay waiting: no wakeup
/// is delivered while ticks are pure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lane {
    /// Ready entries at the window's oldest end, before the first one
    /// waiting on memory (all of them when none waits). Bubbles join
    /// the prefix only while it spans the whole window.
    ready: usize,
    occupancy: usize,
    bubbles: u32,
    gate: Gate,
    trace_done: bool,
    /// Instructions retired, in total.
    pub(crate) retired: u64,
    /// Bubbles dispatched and entries retired since the lane was taken.
    inserted: u64,
    retired_here: u64,
    depth: usize,
    width: usize,
}

impl Lane {
    /// Entries the next tick retires.
    pub(crate) fn next_retire(&self) -> u64 {
        self.ready.min(self.width) as u64
    }

    /// Whether the next tick is pure: it dispatches no access the LLC
    /// accepts and pulls nothing from the trace.
    pub(crate) fn pure_next(&self) -> bool {
        let room = self.depth - self.occupancy + self.ready.min(self.width);
        if self.bubbles > 0 {
            let k = (self.bubbles as usize).min(self.width).min(room);
            // Still inside the bubbles, or the load that follows them
            // finds no dispatch slot, no window entry, or no MSHR.
            return k < self.bubbles as usize
                || k == self.width
                || k == room
                || self.gate == Gate::Load(true);
        }
        match self.gate {
            Gate::Load(refused) => refused || room == 0,
            Gate::Store(refused) => refused,
            Gate::Pull => false,
        }
    }

    /// Runs one pure tick: retire, then dispatch bubbles.
    pub(crate) fn step(&mut self) {
        let r = self.ready.min(self.width);
        self.ready -= r;
        self.occupancy -= r;
        self.retired += r as u64;
        self.retired_here += r as u64;
        let k = (self.bubbles as usize)
            .min(self.width)
            .min(self.depth - self.occupancy);
        if self.ready == self.occupancy {
            self.ready += k;
        }
        self.occupancy += k;
        self.bubbles -= k as u32;
        self.inserted += k as u64;
    }

    /// Whether the core is stalled on memory — its tick is a no-op —
    /// or drains bubbles behind a blocked head into a window they are
    /// enough to fill ([`CpuCluster::stalled_until`]'s per-core test).
    /// Once true it stays true through pure ticks.
    ///
    /// [`CpuCluster::stalled_until`]: crate::cluster::CpuCluster::stalled_until
    pub(crate) fn settled(&self) -> bool {
        if self.ready > 0 {
            return false;
        }
        if self.bubbles > 0 {
            return self.occupancy > 0 && self.bubbles as usize >= self.depth - self.occupancy;
        }
        match self.gate {
            Gate::Load(refused) => refused || self.occupancy == self.depth,
            Gate::Store(refused) => refused,
            Gate::Pull => self.trace_done,
        }
    }

    /// The ticks from here that repeat one shape, so [`Lane::advance`]
    /// can take any number of them at once: `(ticks, retired per tick)`.
    /// Each such tick dispatches a full width of bubbles, and retires
    /// either a full width from a ready prefix at least that long or
    /// nothing behind a blocked head. A lane pure ticks leave unchanged
    /// (nothing to retire, nothing to dispatch) gives `(u64::MAX, 0)`;
    /// a next tick of another shape, or an impure one, gives 0 ticks.
    pub(crate) fn run(&self) -> (u64, u64) {
        if !self.pure_next() {
            return (0, 0);
        }
        if self.ready == 0 && (self.bubbles == 0 || self.occupancy == self.depth) {
            return (u64::MAX, 0);
        }
        let width = self.width as u64;
        let bubbles = u64::from(self.bubbles);
        if self.ready >= self.width {
            // Bubbles join an all-ready window's prefix, which then
            // never shrinks; behind a blocked entry the prefix runs out.
            let limit = if self.ready == self.occupancy {
                bubbles
            } else {
                bubbles.min(self.ready as u64)
            };
            (limit / width, width)
        } else if self.ready == 0 && self.occupancy > 0 {
            // Behind a blocked head: bubbles fill the window, none retire.
            let room = (self.depth - self.occupancy) as u64;
            (bubbles.min(room) / width, 0)
        } else {
            (0, 0)
        }
    }

    /// Takes `ticks` pure ticks of the shape [`Lane::run`] reports, which
    /// must cover them, in closed form.
    pub(crate) fn advance(&mut self, ticks: u64) {
        let (cover, per_tick) = self.run();
        debug_assert!(ticks <= cover);
        if cover == u64::MAX {
            return;
        }
        let retire = (ticks * per_tick) as usize;
        let dispatch = ticks * self.width as u64;
        let all_ready = self.ready == self.occupancy;
        self.occupancy = self.occupancy + dispatch as usize - retire;
        if all_ready {
            self.ready = self.occupancy;
        } else {
            self.ready -= retire;
        }
        self.retired += retire as u64;
        self.retired_here += retire as u64;
        self.inserted += dispatch;
        self.bubbles -= dispatch as u32;
    }

    /// Runs `ticks` ticks of a lane that is stalled on memory or
    /// draining bubbles ([`Lane::settled`]) in closed form: a stalled
    /// lane stays put, and a draining one retires nothing and dispatches
    /// bubbles until its window is full.
    pub(crate) fn drain(&mut self, ticks: u64) {
        debug_assert!(self.settled());
        if self.bubbles == 0 {
            return;
        }
        let free = (self.depth - self.occupancy) as u64;
        let k = free.min(ticks.saturating_mul(self.width as u64));
        self.occupancy += k as usize;
        self.bubbles -= k as u32;
        self.inserted += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::trace::VecTrace;

    fn mk_core(items: Vec<TraceItem>) -> (Core, Llc) {
        let llc = Llc::new(CacheConfig::tiny(), 1);
        let core = Core::new(0, 8, 4, 64, Box::new(VecTrace::new(items)));
        (core, llc)
    }

    #[test]
    fn bubbles_retire_at_full_width() {
        let (mut core, mut llc) = mk_core(vec![TraceItem::load(7, PhysAddr(0))]);
        let mut wake = Vec::new();
        // Cycle 0: dispatch 4 bubbles. Cycle 1: retire 4, dispatch 3 + load.
        core.tick(&mut llc, 0, &mut wake);
        assert_eq!(core.retired(), 0);
        core.tick(&mut llc, 1, &mut wake);
        assert_eq!(core.retired(), 4);
    }

    #[test]
    fn load_miss_blocks_until_fill() {
        let (mut core, mut llc) = mk_core(vec![TraceItem::load(0, PhysAddr(0x40))]);
        let mut wake = Vec::new();
        core.tick(&mut llc, 0, &mut wake);
        // The load is in the window, unfinished.
        for t in 1..10 {
            core.tick(&mut llc, t, &mut wake);
        }
        assert_eq!(core.retired(), 0);
        assert!(!core.is_done());
        // Fill from memory.
        let req = llc.outbox_front().unwrap();
        llc.outbox_pop();
        let line = llc.fill(req.id);
        core.wake(line);
        core.tick(&mut llc, 11, &mut wake);
        assert_eq!(core.retired(), 1);
        assert!(core.is_done());
    }

    #[test]
    fn mshr_full_stalls_dispatch_but_not_retire() {
        // Tiny LLC has 2 MSHRs/core; a third distinct-line load stalls.
        let (mut core, mut llc) = mk_core(vec![
            TraceItem::load(1, PhysAddr(0x0000)),
            TraceItem::load(0, PhysAddr(0x4000)),
            TraceItem::load(0, PhysAddr(0x8000)),
        ]);
        let mut wake = Vec::new();
        for t in 0..6 {
            core.tick(&mut llc, t, &mut wake);
        }
        // Two misses outstanding, the third load stalled.
        assert_eq!(llc.mshrs_in_use(0), 2);
        // The bubble before the first load retires even while stalled.
        assert_eq!(core.retired(), 1);
        // Draining one fill unblocks the stalled load.
        let req = llc.outbox_front().unwrap();
        llc.outbox_pop();
        core.wake(llc.fill(req.id));
        for t in 6..12 {
            core.tick(&mut llc, t, &mut wake);
        }
        assert_eq!(llc.mshrs_in_use(0), 2, "third load now occupies the slot");
    }

    #[test]
    fn store_is_posted_without_window_slot() {
        let (mut core, mut llc) = mk_core(vec![TraceItem::load_store(
            0,
            PhysAddr(0x40),
            PhysAddr(0x40),
        )]);
        let mut wake = Vec::new();
        core.tick(&mut llc, 0, &mut wake);
        // Load missed; store merged into the same MSHR.
        assert_eq!(llc.outbox_len(), 1);
        let req = llc.outbox_front().unwrap();
        llc.outbox_pop();
        let line = llc.fill(req.id);
        core.wake(line);
        core.tick(&mut llc, 1, &mut wake);
        assert_eq!(core.retired(), 1);
        assert!(core.is_done());
    }

    /// Every small lane state: a closed-form run of any length the
    /// shape covers equals that many single pure steps, and a lane pure
    /// ticks leave unchanged stays put.
    #[test]
    fn lane_runs_equal_single_steps() {
        let gates = [Gate::Load(false), Gate::Load(true), Gate::Store(true)];
        let mut runs = 0;
        for depth in 1..=10 {
            for width in 1..=5 {
                for occupancy in 0..=depth {
                    for ready in 0..=occupancy {
                        for bubbles in 0..=24 {
                            for gate in gates {
                                // Bubbles always precede a load.
                                if bubbles > 0 && matches!(gate, Gate::Store(_)) {
                                    continue;
                                }
                                let lane = Lane {
                                    ready,
                                    occupancy,
                                    bubbles,
                                    gate,
                                    trace_done: false,
                                    retired: 0,
                                    inserted: 0,
                                    retired_here: 0,
                                    depth,
                                    width,
                                };
                                let (cover, _) = lane.run();
                                for ticks in 1..=cover.min(12) {
                                    let mut stepped = lane;
                                    for _ in 0..ticks {
                                        assert!(stepped.pure_next(), "{lane:?}");
                                        stepped.step();
                                    }
                                    let mut ran = lane;
                                    ran.advance(ticks);
                                    assert_eq!(ran, stepped, "{ticks} ticks from {lane:?}");
                                    if cover == u64::MAX {
                                        assert_eq!(ran, lane, "{lane:?} is not frozen");
                                    }
                                    runs += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(runs > 10_000, "{runs}");
    }

    #[test]
    fn hit_wakeup_is_scheduled() {
        let (mut core, mut llc) = mk_core(vec![TraceItem::load(0, PhysAddr(0x40))]);
        // Prime the line into the LLC so the core's load hits.
        use crate::cache::{AccessKind, AccessResult};
        assert_eq!(
            llc.access(0, AccessKind::Load, PhysAddr(0x40), 0),
            AccessResult::Miss
        );
        let req = llc.outbox_front().unwrap();
        llc.outbox_pop();
        llc.fill(req.id);

        let mut wake = Vec::new();
        core.tick(&mut llc, 5, &mut wake);
        assert_eq!(wake.len(), 1);
        let (ready_at, line) = wake[0];
        assert_eq!(ready_at, 5 + llc.config().hit_latency);
        assert_eq!(line, 0x40);
    }
}
