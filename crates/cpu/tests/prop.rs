//! Property-based tests of the window, LLC, and core models.

use std::collections::VecDeque;

use clr_core::addr::PhysAddr;
use clr_cpu::cache::{AccessKind, AccessResult, CacheConfig, CacheStats, Llc, OutboundRequest};
use clr_cpu::cluster::{ClusterConfig, CpuCluster, Stretch};
use clr_cpu::trace::{TraceItem, TraceSource, VecTrace};
use clr_cpu::window::Window;
use proptest::prelude::*;

proptest! {
    /// The window never exceeds its depth, never retires more than its
    /// width per cycle, and retires exactly as many instructions as were
    /// inserted.
    #[test]
    fn window_conserves_instructions(
        ops in proptest::collection::vec(any::<bool>(), 1..300),
        depth in 1usize..32,
        width in 1usize..8,
    ) {
        let mut w = Window::new(depth, width);
        let mut inserted = 0u64;
        let mut retired = 0u64;
        let mut pending: Vec<u64> = Vec::new();
        let mut next_line = 0u64;
        for ready in ops {
            if w.is_full() {
                // Wake everything, then drain.
                for line in pending.drain(..) {
                    w.set_ready(line);
                }
                while !w.is_empty() {
                    let r = w.retire();
                    prop_assert!(r <= width);
                    retired += r as u64;
                }
            }
            if ready {
                w.insert(true, 0);
            } else {
                next_line += 64;
                w.insert(false, next_line);
                pending.push(next_line);
            }
            inserted += 1;
            prop_assert!(w.occupancy() <= depth);
            retired += w.retire() as u64;
        }
        for line in pending.drain(..) {
            w.set_ready(line);
        }
        while !w.is_empty() {
            retired += w.retire() as u64;
        }
        prop_assert_eq!(inserted, retired);
    }

    /// LLC invariants under random access streams: hits + misses equals
    /// accesses; per-core MSHR occupancy never exceeds the limit; every
    /// fill releases exactly one MSHR.
    #[test]
    fn llc_accounting(
        accesses in proptest::collection::vec((0u64..(1 << 16), any::<bool>()), 1..300),
    ) {
        let cfg = CacheConfig::tiny();
        let mut llc = Llc::new(cfg, 1);
        let mut issued = 0u64;
        for (i, &(line, store)) in accesses.iter().enumerate() {
            let kind = if store { AccessKind::Store } else { AccessKind::Load };
            match llc.access(0, kind, PhysAddr(line * 64), i as u64) {
                AccessResult::MshrFull => {
                    // Drain one fill to make room.
                    if let Some(req) = llc.outbox_front() {
                        if !req.write {
                            llc.outbox_pop();
                            llc.fill(req.id);
                        } else {
                            llc.outbox_pop();
                        }
                    }
                }
                _ => issued += 1,
            }
            prop_assert!(llc.mshrs_in_use(0) <= cfg.mshrs_per_core);
        }
        let s = llc.stats();
        prop_assert_eq!(s.hits[0] + s.misses[0], issued);
    }

    /// A core driven by a perfect (instant) memory retires its whole
    /// trace, and its IPC never exceeds the machine width.
    #[test]
    fn core_retires_trace_with_instant_memory(
        items in proptest::collection::vec(
            (0u32..6, 0u64..(1 << 18), any::<bool>()),
            1..60
        ),
    ) {
        let trace: Vec<TraceItem> = items
            .iter()
            .map(|&(bubbles, line, has_store)| TraceItem {
                bubbles,
                read: PhysAddr(line * 64),
                write: has_store.then_some(PhysAddr(line * 64)),
            })
            .collect();
        let expect: u64 = trace.iter().map(|t| t.instructions()).sum();
        let boxed: Box<dyn TraceSource + Send> = Box::new(VecTrace::new(trace));
        let mut cl = CpuCluster::new(ClusterConfig::tiny(), vec![boxed]);
        let mut ids = Vec::new();
        for _ in 0..200_000 {
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
            if cl.all_reached(expect) {
                break;
            }
        }
        prop_assert_eq!(cl.retired(0), expect);
        prop_assert!(cl.ipc(0) <= 4.0 + 1e-9);
    }
}

/// A memory for the CPU-side twins: each read completes a per-request
/// delay (in CPU cycles) after it is accepted, at most `capacity` reads
/// are in flight (more back up in the LLC outbox), and writes are
/// accepted and dropped.
struct FakeMemory {
    delays: Vec<u64>,
    capacity: usize,
    /// Every accepted request, in order.
    sent: Vec<OutboundRequest>,
    /// In-flight reads: (ready cycle, arrival sequence, MSHR id).
    pending: Vec<(u64, usize, u64)>,
}

impl FakeMemory {
    fn new(delays: &[u64], capacity: usize) -> Self {
        FakeMemory {
            delays: delays.to_vec(),
            capacity,
            sent: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn accept(&mut self, req: OutboundRequest, now: u64) -> bool {
        if !req.write && self.pending.len() >= self.capacity {
            return false;
        }
        let seq = self.sent.len();
        self.sent.push(req);
        if !req.write {
            let delay = self.delays[seq % self.delays.len()];
            self.pending.push((now + delay, seq, req.id));
        }
        true
    }

    /// The reads ready by cycle `now`, in completion order.
    fn due(&mut self, now: u64) -> Vec<u64> {
        self.pending.sort_unstable();
        let k = self.pending.partition_point(|p| p.0 <= now);
        self.pending.drain(..k).map(|p| p.2).collect()
    }

    fn next_ready(&self) -> Option<u64> {
        self.pending.iter().map(|p| p.0).min()
    }
}

/// One ordinary tick, then the memory side of it: drain the outbox and
/// deliver the reads due at the new cycle.
fn tick_with(cl: &mut CpuCluster, mem: &mut FakeMemory) {
    cl.tick();
    let now = cl.cycle();
    cl.drain_mem_requests(|r| mem.accept(r, now));
    for id in mem.due(now) {
        cl.complete_read(id);
    }
}

fn twin_traces(items: &[Vec<TraceItem>]) -> Vec<Box<dyn TraceSource + Send>> {
    items
        .iter()
        .map(|t| Box::new(VecTrace::new(t.clone())) as Box<dyn TraceSource + Send>)
        .collect()
}

/// One core's random trace: 0–300 bubbles per item, loads and stores
/// over a small line pool (so some loads hit and sets evict).
fn core_trace() -> impl Strategy<Value = Vec<TraceItem>> {
    proptest::collection::vec(
        (0u32..300, 0u64..96, any::<bool>(), 0u64..96, 0u32..4),
        1..30,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(bubbles, line, store, wline, short)| TraceItem {
                // A quarter of the items carry only a few bubbles.
                bubbles: if short == 0 { bubbles % 6 } else { bubbles },
                read: PhysAddr(line * 64),
                write: store.then_some(PhysAddr(wline * 64)),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A cluster driven tick by tick and a twin driven by compute
    /// stretches (and memory-stall jumps) land in the same state: at
    /// every landing they agree on the cycle, retired counts,
    /// `stalled_until`, the outbound request sequence and the LLC
    /// statistics, and a stretch never leaves a core at its retire cap.
    #[test]
    fn stream_matches_ticking(
        traces in proptest::collection::vec(core_trace(), 1..5),
        depth in 1usize..33,
        width in 1usize..9,
        delays in proptest::collection::vec(1u64..80, 1..12),
        capacity in 1usize..10,
        thresholds in proptest::collection::vec(1u64..4000, 0..6),
    ) {
        let cfg = ClusterConfig {
            window_depth: depth,
            width,
            cache: CacheConfig::tiny(),
        };
        let mut ticked = CpuCluster::new(cfg, twin_traces(&traces));
        let mut streamed = CpuCluster::new(cfg, twin_traces(&traces));
        let mut mem_t = FakeMemory::new(&delays, capacity);
        let mut mem_s = FakeMemory::new(&delays, capacity);
        let cores = traces.len();
        let mut caps = vec![u64::MAX; cores];
        for _ in 0..200_000 {
            if streamed.all_reached(u64::MAX) && mem_s.pending.is_empty() {
                break;
            }
            // Each core's next threshold above its retired count.
            for (i, cap) in caps.iter_mut().enumerate() {
                let retired = streamed.retired(i);
                *cap = thresholds.iter().copied().filter(|&t| t > retired).min().unwrap_or(u64::MAX);
            }
            let mut at = streamed.cycle();
            let next = mem_s.next_ready();
            let stretch = streamed.stream(&caps, u64::MAX, |target| {
                let first = next.map(|r| r.max(at + 1)).filter(|&c| c <= target);
                at = first.unwrap_or(target);
                first
            });
            for id in mem_s.due(streamed.cycle()) {
                streamed.complete_read(id);
            }
            if stretch != Stretch::Declined {
                for (i, &cap) in caps.iter().enumerate() {
                    prop_assert!(streamed.retired(i) < cap, "core {} reached its cap {}", i, cap);
                }
            }
            match stretch {
                Stretch::Completed => {}
                Stretch::Blocked => {
                    prop_assert_eq!(streamed.stalled_until(), None);
                    tick_with(&mut streamed, &mut mem_s);
                }
                Stretch::Settled(_) | Stretch::Declined => {
                    if let Stretch::Settled(wake) = stretch {
                        prop_assert_eq!(streamed.stalled_until(), Some(wake));
                    }
                    // The jump path: skip to just before the next
                    // delivery or wakeup, as the run loop's skip-ahead does.
                    let target = streamed.stalled_until().map(|wake| {
                        wake.min(mem_s.next_ready().map_or(u64::MAX, |r| r - 1))
                            .min(streamed.cycle() + 100_000)
                    });
                    match target {
                        Some(t) if t > streamed.cycle() => streamed.skip_to(t),
                        _ => tick_with(&mut streamed, &mut mem_s),
                    }
                }
            }
            while ticked.cycle() < streamed.cycle() {
                tick_with(&mut ticked, &mut mem_t);
            }
            prop_assert_eq!(ticked.cycle(), streamed.cycle());
            for i in 0..cores {
                prop_assert_eq!(ticked.retired(i), streamed.retired(i), "core {}", i);
            }
            prop_assert_eq!(ticked.stalled_until(), streamed.stalled_until());
            prop_assert_eq!(&mem_t.sent, &mem_s.sent);
            prop_assert_eq!(ticked.llc().outbox_len(), streamed.llc().outbox_len());
            prop_assert_eq!(ticked.llc().stats(), streamed.llc().stats());
        }
        prop_assert!(streamed.all_reached(u64::MAX), "the twins ran out of cycles");
    }
}

/// A stretch covers compute: one core, a blocked head and long bubble
/// runs, driven only by stretches and jumps, reaches the end of its
/// trace with every kind of landing on the way.
#[test]
fn stretches_cover_compute_and_land_every_way() {
    let items: Vec<TraceItem> = (0..40u64)
        .map(|i| TraceItem::load(40 + (i % 7) as u32 * 50, PhysAddr((i % 9) * 0x1000)))
        .collect();
    let mut cl = CpuCluster::new(ClusterConfig::paper(), twin_traces(&[items]));
    let mut mem = FakeMemory::new(&[90, 15, 200, 40], 8);
    let mut seen = [0u32; 4];
    while !cl.all_reached(u64::MAX) || !mem.pending.is_empty() {
        let mut at = cl.cycle();
        let next = mem.next_ready();
        let stretch = cl.stream(&[u64::MAX], u64::MAX, |target| {
            let first = next.map(|r| r.max(at + 1)).filter(|&c| c <= target);
            at = first.unwrap_or(target);
            first
        });
        for id in mem.due(cl.cycle()) {
            cl.complete_read(id);
        }
        let kind = match stretch {
            Stretch::Declined => 0,
            Stretch::Blocked => 1,
            Stretch::Settled(_) => 2,
            Stretch::Completed => 3,
        };
        seen[kind] += 1;
        match (stretch, cl.stalled_until()) {
            (Stretch::Completed, _) => {}
            (_, Some(wake)) => {
                let t = wake.min(mem.next_ready().map_or(u64::MAX, |r| r - 1));
                if t > cl.cycle() {
                    cl.skip_to(t);
                } else {
                    tick_with(&mut cl, &mut mem);
                }
            }
            (_, None) => tick_with(&mut cl, &mut mem),
        }
        assert!(cl.cycle() < 1_000_000, "no forward progress");
    }
    let expect: u64 = (0..40u64).map(|i| 41 + (i % 7) * 50).sum();
    assert_eq!(cl.retired(0), expect);
    assert!(seen.iter().all(|&n| n > 0), "landings by kind: {seen:?}");
}

/// The LLC as it was kept before the flat array: one `VecDeque` of
/// `(tag, dirty)` per set, most recent first, with the same MSHR and
/// outbox rules.
struct RefLlc {
    cfg: CacheConfig,
    sets: Vec<VecDeque<(u64, bool)>>,
    /// (line, core, store, valid) per MSHR slot.
    mshrs: Vec<(u64, usize, bool, bool)>,
    per_core: Vec<usize>,
    outbox: VecDeque<OutboundRequest>,
    stats: CacheStats,
}

impl RefLlc {
    fn new(cfg: CacheConfig, cores: usize) -> Self {
        RefLlc {
            cfg,
            sets: vec![VecDeque::new(); cfg.sets()],
            mshrs: Vec::new(),
            per_core: vec![0; cores],
            outbox: VecDeque::new(),
            stats: CacheStats {
                hits: vec![0; cores],
                misses: vec![0; cores],
                ..CacheStats::default()
            },
        }
    }

    fn split(&self, line: u64) -> (usize, u64) {
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn access(&mut self, core: usize, kind: AccessKind, addr: PhysAddr, now: u64) -> AccessResult {
        let line = addr.line(self.cfg.line_bytes);
        let (set, tag) = self.split(line);
        if let Some(pos) = self.sets[set].iter().position(|l| l.0 == tag) {
            let mut entry = self.sets[set].remove(pos).unwrap();
            entry.1 |= kind == AccessKind::Store;
            self.sets[set].push_front(entry);
            self.stats.hits[core] += 1;
            return AccessResult::Hit {
                ready_at: now + self.cfg.hit_latency,
            };
        }
        if let Some(e) = self.mshrs.iter_mut().find(|e| e.3 && e.0 == line) {
            e.2 |= kind == AccessKind::Store;
            self.stats.misses[core] += 1;
            self.stats.mshr_merges += 1;
            return AccessResult::Miss;
        }
        if self.per_core[core] >= self.cfg.mshrs_per_core {
            return AccessResult::MshrFull;
        }
        let entry = (line, core, kind == AccessKind::Store, true);
        let slot = match self.mshrs.iter().position(|e| !e.3) {
            Some(s) => {
                self.mshrs[s] = entry;
                s
            }
            None => {
                self.mshrs.push(entry);
                self.mshrs.len() - 1
            }
        };
        self.per_core[core] += 1;
        self.stats.misses[core] += 1;
        self.outbox.push_back(OutboundRequest {
            id: slot as u64,
            line_addr: line * self.cfg.line_bytes,
            write: false,
        });
        AccessResult::Miss
    }

    fn fill(&mut self, id: u64) -> u64 {
        let (line, core, store, _) = self.mshrs[id as usize];
        self.mshrs[id as usize].3 = false;
        self.per_core[core] -= 1;
        let (set, tag) = self.split(line);
        let sets = self.sets.len() as u64;
        self.sets[set].push_front((tag, store));
        if self.sets[set].len() > self.cfg.associativity {
            let (victim, dirty) = self.sets[set].pop_back().unwrap();
            if dirty {
                self.outbox.push_back(OutboundRequest {
                    id: u64::MAX,
                    line_addr: (victim * sets + set as u64) * self.cfg.line_bytes,
                    write: true,
                });
                self.stats.writebacks += 1;
            }
        }
        line * self.cfg.line_bytes
    }

    fn would_stall(&self, core: usize, addr: PhysAddr) -> bool {
        if self.per_core[core] < self.cfg.mshrs_per_core {
            return false;
        }
        let line = addr.line(self.cfg.line_bytes);
        let (set, tag) = self.split(line);
        !self.sets[set].iter().any(|l| l.0 == tag) && !self.mshrs.iter().any(|e| e.3 && e.0 == line)
    }
}

proptest! {
    /// The flat LLC matches the `VecDeque` reference on random loads,
    /// stores, outbox drains and fills — evictions and dirty writebacks
    /// included — access by access: results, the outbox stream, fill
    /// addresses, `would_stall` and statistics. Both a power-of-two set
    /// count (split by mask) and five sets (split by division) run.
    #[test]
    fn flat_llc_matches_deque_reference(
        ops in proptest::collection::vec((0u8..5, 0usize..3, 0u64..160), 1..400),
        five_sets in any::<bool>(),
    ) {
        let cfg = if five_sets {
            CacheConfig {
                size_bytes: 64 * 5 * 3,
                associativity: 3,
                line_bytes: 64,
                hit_latency: 4,
                mshrs_per_core: 2,
            }
        } else {
            CacheConfig::tiny()
        };
        let mut llc = Llc::new(cfg, 3);
        let mut reference = RefLlc::new(cfg, 3);
        let mut in_flight: VecDeque<u64> = VecDeque::new();
        for (now, &(op, core, line)) in ops.iter().enumerate() {
            let addr = PhysAddr(line * 64 + line % 64);
            match op {
                0 | 1 => {
                    let kind = if op == 0 { AccessKind::Load } else { AccessKind::Store };
                    let got = llc.access(core, kind, addr, now as u64);
                    prop_assert_eq!(got, reference.access(core, kind, addr, now as u64));
                }
                2 => {
                    // Drain the outbox: reads go in flight, writes leave.
                    while let Some(req) = llc.outbox_front() {
                        prop_assert_eq!(Some(req), reference.outbox.pop_front());
                        llc.outbox_pop();
                        if !req.write {
                            in_flight.push_back(req.id);
                        }
                    }
                    prop_assert!(reference.outbox.is_empty());
                }
                _ => {
                    // Fill the oldest (op 3) or newest (op 4) read in flight.
                    let id = if op == 3 { in_flight.pop_front() } else { in_flight.pop_back() };
                    if let Some(id) = id {
                        prop_assert_eq!(llc.fill(id), reference.fill(id));
                    }
                }
            }
            prop_assert_eq!(llc.would_stall(core, addr), reference.would_stall(core, addr));
            prop_assert_eq!(llc.outbox_len(), reference.outbox.len());
            prop_assert_eq!(llc.mshrs_in_use(core), reference.per_core[core]);
            prop_assert_eq!(llc.stats(), &reference.stats);
        }
    }
}
