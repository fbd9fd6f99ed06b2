//! The shared last-level cache with per-core MSHRs.
//!
//! Table 2: 8 MiB, 8-way, 64 B lines, 8 MSHRs per core. The LLC is the
//! only cache level modelled (the paper's private L1/L2 behaviour is
//! folded into the traces' miss streams, which are generated at LLC-access
//! granularity).

use std::collections::VecDeque;

use clr_core::addr::PhysAddr;

/// LLC geometry and behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Load-to-use latency of a hit, in CPU cycles.
    pub hit_latency: u64,
    /// Outstanding-miss registers per core.
    pub mshrs_per_core: usize,
}

impl CacheConfig {
    /// The paper's LLC: 8 MiB, 8-way, 64 B lines, 8 MSHRs/core.
    pub fn paper_llc() -> Self {
        CacheConfig {
            size_bytes: 8 << 20,
            associativity: 8,
            line_bytes: 64,
            hit_latency: 31,
            mshrs_per_core: 8,
        }
    }

    /// A small LLC for unit tests (4 KiB, 2-way).
    pub fn tiny() -> Self {
        CacheConfig {
            size_bytes: 4096,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 4,
            mshrs_per_core: 2,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.associativity as u64) as usize
    }
}

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load (a window entry waits on it).
    Load,
    /// Store (posted; allocates on miss, marks dirty).
    Store,
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Hit: data ready at the given CPU cycle.
    Hit {
        /// CPU cycle at which the data is available.
        ready_at: u64,
    },
    /// Miss: an MSHR tracks the line; a fill will wake waiters.
    Miss,
    /// The core has no free MSHR; the access must retry (core stalls).
    MshrFull,
}

/// A memory request leaving the LLC toward the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutboundRequest {
    /// MSHR identifier for reads; `u64::MAX` for posted writebacks.
    pub id: u64,
    /// Line-aligned physical address.
    pub line_addr: u64,
    /// Whether this is a writeback.
    pub write: bool,
}

#[derive(Debug, Clone)]
struct MshrEntry {
    line: u64,
    core: usize,
    store: bool,
    valid: bool,
}

/// Per-core and aggregate LLC statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits per core.
    pub hits: Vec<u64>,
    /// Misses per core (MSHR allocations + merges).
    pub misses: Vec<u64>,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Accesses merged into an existing MSHR.
    pub mshr_merges: u64,
}

/// The shared last-level cache.
///
/// Every set is `associativity` consecutive words of one flat,
/// zero-initialised array, most recently used first, so replacement is
/// exact LRU: a hit moves its way to the front and a fill shifts the set
/// back by one, evicting the last way. A word holds a line as
/// `(tag + 1) << 1 | dirty`; 0 is an empty way, and a set's lines always
/// form a prefix of its ways.
#[derive(Debug)]
pub struct Llc {
    cfg: CacheConfig,
    lines: Vec<u64>,
    sets: u64,
    /// `log2(sets)` when the set count is a power of two: lines then
    /// split into set and tag by mask and shift instead of a division.
    set_shift: Option<u32>,
    mshrs: Vec<MshrEntry>,
    per_core_mshr: Vec<usize>,
    outbox: VecDeque<OutboundRequest>,
    stats: CacheStats,
}

impl Llc {
    /// Creates an empty LLC shared by `cores` cores.
    pub fn new(cfg: CacheConfig, cores: usize) -> Self {
        let sets = cfg.sets() as u64;
        Llc {
            lines: vec![0; cfg.sets() * cfg.associativity],
            sets,
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            mshrs: Vec::new(),
            per_core_mshr: vec![0; cores],
            outbox: VecDeque::new(),
            stats: CacheStats {
                hits: vec![0; cores],
                misses: vec![0; cores],
                ..CacheStats::default()
            },
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set `line` maps to and the word it is stored as there
    /// (clean).
    fn split(&self, line: u64) -> (usize, u64) {
        let (set, tag) = match self.set_shift {
            Some(shift) => (line & (self.sets - 1), line >> shift),
            None => (line % self.sets, line / self.sets),
        };
        (set as usize, (tag + 1) << 1)
    }

    /// The ways of set `set`, most recent first.
    fn ways(&mut self, set: usize) -> &mut [u64] {
        let assoc = self.cfg.associativity;
        &mut self.lines[set * assoc..(set + 1) * assoc]
    }

    /// Whether set `set` holds the line stored as `word`, clean or dirty.
    fn holds(&self, set: usize, word: u64) -> bool {
        let assoc = self.cfg.associativity;
        self.lines[set * assoc..(set + 1) * assoc]
            .iter()
            .any(|&w| w & !1 == word)
    }

    /// Performs a load/store access for `core` at CPU cycle `now`.
    pub fn access(
        &mut self,
        core: usize,
        kind: AccessKind,
        addr: PhysAddr,
        now: u64,
    ) -> AccessResult {
        let line = addr.line(self.cfg.line_bytes);
        let (set, word) = self.split(line);
        let ways = self.ways(set);
        if let Some(pos) = ways.iter().position(|&w| w & !1 == word) {
            let hit = ways[pos] | u64::from(kind == AccessKind::Store);
            ways.copy_within(0..pos, 1);
            ways[0] = hit;
            self.stats.hits[core] += 1;
            return AccessResult::Hit {
                ready_at: now + self.cfg.hit_latency,
            };
        }
        // Miss: merge into an existing MSHR if one tracks this line.
        if let Some(e) = self.mshrs.iter_mut().find(|e| e.valid && e.line == line) {
            if kind == AccessKind::Store {
                e.store = true;
            }
            self.stats.misses[core] += 1;
            self.stats.mshr_merges += 1;
            return AccessResult::Miss;
        }
        if self.per_core_mshr[core] >= self.cfg.mshrs_per_core {
            return AccessResult::MshrFull;
        }
        let slot = match self.mshrs.iter().position(|e| !e.valid) {
            Some(s) => s,
            None => {
                self.mshrs.push(MshrEntry {
                    line: 0,
                    core: 0,
                    store: false,
                    valid: false,
                });
                self.mshrs.len() - 1
            }
        };
        self.mshrs[slot] = MshrEntry {
            line,
            core,
            store: kind == AccessKind::Store,
            valid: true,
        };
        self.per_core_mshr[core] += 1;
        self.stats.misses[core] += 1;
        self.outbox.push_back(OutboundRequest {
            id: slot as u64,
            line_addr: line * self.cfg.line_bytes,
            write: false,
        });
        AccessResult::Miss
    }

    /// Completes the memory read for MSHR `id`, inserting the line and
    /// returning its line-aligned address (for window wakeup).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a valid in-flight MSHR.
    pub fn fill(&mut self, id: u64) -> u64 {
        let slot = id as usize;
        assert!(
            slot < self.mshrs.len() && self.mshrs[slot].valid,
            "fill for unknown mshr {id}"
        );
        let entry = self.mshrs[slot].clone();
        self.mshrs[slot].valid = false;
        self.per_core_mshr[entry.core] -= 1;
        let (set, word) = self.split(entry.line);
        let ways = self.ways(set);
        let victim = ways[ways.len() - 1];
        ways.copy_within(0..ways.len() - 1, 1);
        ways[0] = word | u64::from(entry.store);
        // An empty last way (0) is no victim; a clean one leaves silently.
        if victim & 1 == 1 {
            let victim_line = ((victim >> 1) - 1) * self.sets + set as u64;
            self.outbox.push_back(OutboundRequest {
                id: u64::MAX,
                line_addr: victim_line * self.cfg.line_bytes,
                write: true,
            });
            self.stats.writebacks += 1;
        }
        entry.line * self.cfg.line_bytes
    }

    /// Read-only peek: would an access to `addr` by `core` return
    /// [`AccessResult::MshrFull`] this cycle? Mirrors the decision chain
    /// of [`Llc::access`] (hit → MSHR merge → MSHR allocation) without
    /// mutating LRU order, MSHRs, or statistics — the predicate the
    /// skip-ahead engine uses to prove a stalled core's tick is a no-op.
    pub fn would_stall(&self, core: usize, addr: PhysAddr) -> bool {
        if self.per_core_mshr[core] < self.cfg.mshrs_per_core {
            return false;
        }
        let line = addr.line(self.cfg.line_bytes);
        let (set, word) = self.split(line);
        if self.holds(set, word) {
            return false; // would hit
        }
        // Blocked unless the miss can merge into an in-flight MSHR.
        !self.mshrs.iter().any(|e| e.valid && e.line == line)
    }

    /// The oldest pending outbound request, if any.
    pub fn outbox_front(&self) -> Option<OutboundRequest> {
        self.outbox.front().copied()
    }

    /// Removes the oldest outbound request after a successful send.
    pub fn outbox_pop(&mut self) {
        self.outbox.pop_front();
    }

    /// Number of queued outbound requests.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Outstanding misses for `core`.
    pub fn mshrs_in_use(&self, core: usize) -> usize {
        self.per_core_mshr[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Llc::new(CacheConfig::tiny(), 1);
        let a = PhysAddr(0x1000);
        assert_eq!(c.access(0, AccessKind::Load, a, 0), AccessResult::Miss);
        let req = c.outbox_front().unwrap();
        assert!(!req.write);
        c.outbox_pop();
        let line = c.fill(req.id);
        assert_eq!(line, 0x1000);
        assert!(matches!(
            c.access(0, AccessKind::Load, a, 10),
            AccessResult::Hit { ready_at: 14 }
        ));
        assert_eq!(c.stats().hits[0], 1);
        assert_eq!(c.stats().misses[0], 1);
    }

    #[test]
    fn mshr_limit_stalls_core() {
        let mut c = Llc::new(CacheConfig::tiny(), 1);
        assert_eq!(
            c.access(0, AccessKind::Load, PhysAddr(0x0000), 0),
            AccessResult::Miss
        );
        assert_eq!(
            c.access(0, AccessKind::Load, PhysAddr(0x4000), 0),
            AccessResult::Miss
        );
        assert_eq!(
            c.access(0, AccessKind::Load, PhysAddr(0x8000), 0),
            AccessResult::MshrFull
        );
        assert_eq!(c.mshrs_in_use(0), 2);
    }

    #[test]
    fn merged_misses_share_one_request() {
        let mut c = Llc::new(CacheConfig::tiny(), 2);
        assert_eq!(
            c.access(0, AccessKind::Load, PhysAddr(0x40), 0),
            AccessResult::Miss
        );
        assert_eq!(
            c.access(1, AccessKind::Load, PhysAddr(0x40), 0),
            AccessResult::Miss
        );
        assert_eq!(c.outbox_len(), 1);
        assert_eq!(c.stats().mshr_merges, 1);
        // Only the allocating core's MSHR is consumed.
        assert_eq!(c.mshrs_in_use(0), 1);
        assert_eq!(c.mshrs_in_use(1), 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = CacheConfig::tiny(); // 2-way, 32 sets
        let mut c = Llc::new(cfg, 1);
        let sets = cfg.sets() as u64;
        // Three lines in the same set; first is dirtied by a store.
        let mk = |way: u64| PhysAddr(way * sets * cfg.line_bytes);
        for way in 0..3u64 {
            let kind = if way == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            match c.access(0, kind, mk(way), 0) {
                AccessResult::Miss => {
                    let req = c.outbox_front().unwrap();
                    c.outbox_pop();
                    c.fill(req.id);
                }
                r => panic!("expected miss, got {r:?}"),
            }
        }
        // The store-allocated line (way 0, LRU by now) was evicted dirty.
        let wb = c.outbox_front().expect("writeback queued");
        assert!(wb.write);
        assert_eq!(wb.line_addr, 0);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty_and_writes_back_on_eviction() {
        let cfg = CacheConfig::tiny();
        let mut c = Llc::new(cfg, 1);
        let sets = cfg.sets() as u64;
        let mk = |way: u64| PhysAddr(way * sets * cfg.line_bytes);
        // Fill way 0 clean, then dirty it with a store hit.
        assert_eq!(c.access(0, AccessKind::Load, mk(0), 0), AccessResult::Miss);
        let req = c.outbox_front().unwrap();
        c.outbox_pop();
        c.fill(req.id);
        assert!(matches!(
            c.access(0, AccessKind::Store, mk(0), 1),
            AccessResult::Hit { .. }
        ));
        // Evict it with two more fills.
        for way in 1..3u64 {
            assert_eq!(
                c.access(0, AccessKind::Load, mk(way), 2),
                AccessResult::Miss
            );
            let req = c.outbox_front().unwrap();
            c.outbox_pop();
            c.fill(req.id);
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn paper_llc_geometry() {
        let cfg = CacheConfig::paper_llc();
        assert_eq!(cfg.sets(), 16384);
    }
}
