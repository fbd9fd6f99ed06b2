//! The channel-sharded memory system: N independent per-channel
//! controllers behind one request-routing front end.
//!
//! A DDR channel is the natural shard boundary of a memory system: each
//! channel has its own command/data bus, its own controller queues, its
//! own refresh streams — nothing is shared except the physical address
//! space. [`MemorySystem`] exploits exactly that: it owns one
//! [`MemoryController`] per channel (each running the channel-slice
//! geometry, with its own [`ModeTable`](clr_core::mode::ModeTable),
//! refresh scheduler, migration engine, and scheduler lanes — no
//! cross-channel locking or shared mutable state), routes every request
//! through the configured [`AddressMapping`](clr_core::addr::AddressMapping)'s
//! bijective channel split ([`route`](clr_core::addr::AddressMapping::route)),
//! and fuses the per-channel event bounds and statistics back into one
//! system-level view.
//!
//! # Sharding contract
//!
//! * **Lockstep clocks** — all channels advance together; `tick`,
//!   `tick_fast`, and `tick_until` keep every channel at the same cycle.
//! * **Exact fused events** — [`MemorySystem::next_event_cycle`] is the
//!   minimum over channels of each controller's exact bound, so a
//!   full-system driver can co-jump the CPU domain across a dead window
//!   of the *whole* memory system and stay bit-identical to per-cycle
//!   stepping (the workspace differential test enforces this at the
//!   2-channel system level).
//! * **Deterministic completion order** — the per-cycle reference ticks
//!   channels in index order, so completions within one cycle are
//!   delivered channel 0 first; `tick_until` reproduces that order by
//!   merging per-channel completion streams on `(finish_cycle, channel)`.
//! * **Degenerate case is free** — a 1-channel `MemorySystem` is the
//!   single controller plus an identity route: it produces bit-identical
//!   command logs, completions, and statistics to driving the controller
//!   directly.

use std::collections::HashMap;

use clr_core::addr::{DramAddr, PhysAddr};
use clr_core::geometry::DramGeometry;
use clr_obs::{SkipProfile, TraceCategory, TraceConfig, TraceLog, TraceSink, SYSTEM_PID};

use crate::config::MemConfig;
use crate::controller::MemoryController;
use crate::executor::Executor;
use crate::migrate::{JobKind, PlacementEvent};
use crate::request::{Completion, MemRequest};
use crate::stats::MemStats;

/// Minimum `tick_until` window (in DRAM cycles) worth fanning out to
/// the worker pool. Fan-out on the persistent [`Executor`] costs a
/// queue push + condvar wake (~1 µs) instead of the tens of µs a scoped
/// thread spawn used to cost, so the break-even window is 4× lower than
/// the old spawn-per-window cutover of 4096. Short windows still run
/// serially — an invisible cutover, since the serial and pooled walks
/// are bit-identical.
pub const PARALLEL_MIN_WINDOW: u64 = 1024;

/// Identity of one DRAM row in the sharded system: channel, channel-local
/// flat bank, row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowKey {
    /// Channel index.
    pub channel: u32,
    /// Flat bank index within the channel (rank × bank-group × bank).
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
}

impl RowKey {
    /// Convenience constructor.
    pub fn new(channel: u32, bank: u32, row: u32) -> Self {
        RowKey { channel, bank, row }
    }
}

/// Row-granular address indirection applied *after*
/// [`AddressMapping::route`](clr_core::addr::AddressMapping::route): the
/// capacity directory's record of rows whose contents were written back
/// into another bank or channel, so they remain addressable at their
/// original physical addresses.
///
/// Every completed frame move installs a **swap** (a transposition of
/// the two rows' identities): the evacuated row's logical identity now
/// resolves to the destination frame, and the destination frame's old
/// identity resolves to the vacated row (which the directory hands out
/// as fresh capacity). Because each install composes the current mapping
/// with a transposition, the table is a permutation of the row space
/// under *arbitrary* install sequences — so `remap ∘ route` stays a
/// bijection (property-tested in the workspace `tests/` directory) and
/// [`RemapTable::invert`] is an exact inverse for unrouting.
///
/// Only non-identity entries are stored; an empty table costs one branch
/// on the request path.
#[derive(Debug, Clone, Default)]
pub struct RemapTable {
    fwd: HashMap<RowKey, RowKey>,
    inv: HashMap<RowKey, RowKey>,
    installs: u64,
}

impl RemapTable {
    /// An identity table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the table is the identity.
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }

    /// Non-identity entries currently installed.
    pub fn len(&self) -> usize {
        self.fwd.len()
    }

    /// Swaps installed over the table's lifetime.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Where the row addressed as `logical` physically lives now.
    pub fn resolve(&self, logical: RowKey) -> RowKey {
        self.fwd.get(&logical).copied().unwrap_or(logical)
    }

    /// The exact inverse of [`RemapTable::resolve`]: which logical row
    /// currently lives in the physical row `physical`.
    pub fn invert(&self, physical: RowKey) -> RowKey {
        self.inv.get(&physical).copied().unwrap_or(physical)
    }

    /// Records that the contents of physical row `a` and physical row
    /// `b` exchanged places (a completed frame move: the evacuated
    /// data went `a → b`, and `b`'s free-frame identity now names `a`).
    /// Composing the permutation with a transposition keeps it a
    /// permutation, whatever the install history.
    pub fn install_swap(&mut self, a: RowKey, b: RowKey) {
        if a == b {
            return;
        }
        let la = self.inv.remove(&a).unwrap_or(a);
        let lb = self.inv.remove(&b).unwrap_or(b);
        if la == b {
            self.fwd.remove(&la);
        } else {
            self.fwd.insert(la, b);
            self.inv.insert(b, la);
        }
        if lb == a {
            self.fwd.remove(&lb);
        } else {
            self.fwd.insert(lb, a);
            self.inv.insert(a, lb);
        }
        self.installs += 1;
    }
}

/// A channel-sharded memory system (see the module docs).
#[derive(Debug)]
pub struct MemorySystem {
    config: MemConfig,
    channels: Vec<MemoryController>,
    /// Mask folding tagged/out-of-range physical addresses into the
    /// global capacity (capacity is a power of two).
    addr_mask: u64,
    /// Per-channel completion scratch for the `tick_until` merge.
    scratch: Vec<Vec<Completion>>,
    /// Per-channel cursors for the k-way completion merge (reused across
    /// calls so the merge allocates nothing).
    merge_idx: Vec<usize>,
    /// Worker threads for the `tick_until` channel walk (1 = serial).
    /// Parallelism is a host-speed knob only: the threaded walk is
    /// bit-identical to the serial one (see [`MemorySystem::tick_until`]).
    threads: usize,
    /// The persistent worker pool the threaded walk fans out on —
    /// created lazily by [`MemorySystem::set_threads`] (threads > 1).
    /// `None` while the walk is serial.
    executor: Option<Executor>,
    /// Minimum walk window (DRAM cycles) that fans out to workers;
    /// defaults to [`PARALLEL_MIN_WINDOW`]. A tuning knob: tests drop it
    /// to force the threaded path onto every window, and hosts with
    /// cheaper or pricier thread spawns can move the break-even point.
    parallel_cutover: u64,
    /// One channel's slice of the geometry (identical for every
    /// channel), cached for the remap decode on the request path.
    slice: DramGeometry,
    /// The capacity directory's row indirection (see [`RemapTable`]).
    remap: RemapTable,
    /// Scheduled cross-channel moves whose read-out half is still in
    /// flight: source row → reserved destination frame.
    moves: HashMap<RowKey, RowKey>,
    /// Dispatched fill halves still in flight: destination frame →
    /// source row (released and remapped when the fill lands).
    fills: HashMap<RowKey, RowKey>,
    /// Scratch buffer for placement-event drains.
    placement_scratch: Vec<PlacementEvent>,
    /// Rotating hint for import-frame picks, so successive imports
    /// spread across the destination channel's banks.
    import_cursor: usize,
    /// The system's own trace sink (pid = [`SYSTEM_PID`]): placement
    /// pumps, remap installs, cross-channel move lifecycle. Per-channel
    /// command/migration events live in each controller's sink.
    trace: Option<Box<TraceSink>>,
}

impl MemorySystem {
    /// Builds one controller per channel of `config.geometry`.
    ///
    /// Each per-channel controller runs the *channel slice* of the
    /// geometry (`channels = 1`, everything below identical) with the
    /// same timing, scheduling, CLR, and relocation configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (as
    /// [`MemoryController::new`]).
    pub fn new(config: MemConfig) -> Self {
        config.geometry.validate().expect("invalid geometry");
        let n = config.geometry.channels as usize;
        let channel_cfg = MemConfig {
            geometry: config.geometry.channel_slice(),
            ..config.clone()
        };
        let channels = (0..n)
            .map(|_| MemoryController::new(channel_cfg.clone()))
            .collect();
        MemorySystem {
            addr_mask: config.geometry.capacity_bytes() - 1,
            channels,
            scratch: vec![Vec::new(); n],
            merge_idx: vec![0; n],
            threads: 1,
            executor: None,
            parallel_cutover: PARALLEL_MIN_WINDOW,
            slice: config.geometry.channel_slice(),
            remap: RemapTable::new(),
            moves: HashMap::new(),
            fills: HashMap::new(),
            placement_scratch: Vec::new(),
            import_cursor: 0,
            trace: None,
            config,
        }
    }

    /// The system-wide configuration (the per-channel controllers hold
    /// the channel slice).
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The per-channel controller (telemetry drains, mode tables, and
    /// migration feeds are per-channel state, accessed through here).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel(&self, channel: usize) -> &MemoryController {
        &self.channels[channel]
    }

    /// Mutable access to one channel's controller (see
    /// [`MemorySystem::channel`]).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_mut(&mut self, channel: usize) -> &mut MemoryController {
        &mut self.channels[channel]
    }

    /// Routes a physical address to `(channel, channel-local address)`
    /// under the configured mapping, after folding it into the global
    /// capacity, then applies the capacity directory's [`RemapTable`] —
    /// a request to a row whose contents were moved to another bank or
    /// channel lands where the data actually lives.
    pub fn route(&self, addr: PhysAddr) -> (usize, PhysAddr) {
        let masked = PhysAddr(addr.0 & self.addr_mask);
        let (ch, local) = if self.channels.len() == 1 {
            (0u32, masked)
        } else {
            self.config
                .mapping
                .route(masked, &self.config.geometry)
                .expect("masked address is always in range")
        };
        if self.remap.is_empty() {
            return (ch as usize, local);
        }
        let d = self
            .config
            .mapping
            .map(local, &self.slice)
            .expect("channel-local address is always in range");
        let key = RowKey::new(ch, d.flat_bank(&self.slice) as u32, d.row);
        let r = self.remap.resolve(key);
        if r == key {
            return (ch as usize, local);
        }
        let nd = Self::bank_coords(&self.slice, r.bank, r.row, d.column);
        let nlocal = self
            .config
            .mapping
            .unmap(&nd, &self.slice)
            .expect("remapped coordinates are always in range");
        let offset = local.0 & (self.slice.bytes_per_column() - 1);
        (r.channel as usize, PhysAddr(nlocal.0 | offset))
    }

    /// The exact inverse of [`MemorySystem::route`]: re-encodes a
    /// physical `(channel, channel-local address)` back into the
    /// system-wide address that routes to it, undoing the remap first.
    pub fn unroute(&self, channel: usize, local: PhysAddr) -> PhysAddr {
        let (lch, llocal) = if self.remap.is_empty() {
            (channel as u32, local)
        } else {
            let d = self
                .config
                .mapping
                .map(local, &self.slice)
                .expect("channel-local address is always in range");
            let key = RowKey::new(channel as u32, d.flat_bank(&self.slice) as u32, d.row);
            let l = self.remap.invert(key);
            if l == key {
                (channel as u32, local)
            } else {
                let nd = Self::bank_coords(&self.slice, l.bank, l.row, d.column);
                let nlocal = self
                    .config
                    .mapping
                    .unmap(&nd, &self.slice)
                    .expect("remapped coordinates are always in range");
                let offset = local.0 & (self.slice.bytes_per_column() - 1);
                (l.channel, PhysAddr(nlocal.0 | offset))
            }
        };
        if self.channels.len() == 1 {
            return llocal;
        }
        self.config
            .mapping
            .unroute(lch, llocal, &self.config.geometry)
            .expect("channel-local address is always in range")
    }

    /// Splits a channel-local flat bank index back into DRAM
    /// coordinates.
    fn bank_coords(g: &DramGeometry, flat: u32, row: u32, column: u32) -> DramAddr {
        let bpg = g.banks_per_group;
        let bgs = g.bank_groups;
        DramAddr {
            channel: 0,
            rank: flat / (bgs * bpg),
            bank_group: (flat / bpg) % bgs,
            bank: flat % bpg,
            row,
            column,
        }
    }

    /// The capacity directory's row indirection.
    pub fn remap_table(&self) -> &RemapTable {
        &self.remap
    }

    /// Mutable access to the remap table (tests and external placement
    /// drivers installing swaps directly).
    pub fn remap_table_mut(&mut self) -> &mut RemapTable {
        &mut self.remap
    }

    /// Cross-channel frame moves currently staged (read-out or fill half
    /// still in flight).
    pub fn moves_in_flight(&self) -> usize {
        self.moves.len() + self.fills.len()
    }

    /// Schedules a cross-channel whole-row frame move: the contents of
    /// the row `(src_channel, bank, row)` relocate into a free frame
    /// that the destination channel's capacity directory chooses and
    /// reserves, after which the two rows' identities swap in the
    /// [`RemapTable`]. The read-out is staged on the source channel now
    /// and the fill on the destination channel at the next
    /// [`MemorySystem::pump_placement`] after the read-out lands.
    /// Returns the reserved frame, or `None` (changing nothing) if the
    /// channels coincide, no frame was available, or the source row is
    /// unavailable (not max-capacity, or already migrating).
    pub fn schedule_row_export(
        &mut self,
        src_channel: usize,
        bank: usize,
        row: u32,
        dest_channel: usize,
    ) -> Option<RowKey> {
        if src_channel == dest_channel {
            return None;
        }
        let hint = self.import_cursor;
        let (db, dr) = self.channels[dest_channel].reserve_import_frame(hint)?;
        self.import_cursor = self.import_cursor.wrapping_add(1);
        if !self.channels[src_channel].begin_evacuation_out(bank, row) {
            self.channels[dest_channel].release_frame(db, dr);
            return None;
        }
        let dest = RowKey::new(dest_channel as u32, db as u32, dr);
        self.moves
            .insert(RowKey::new(src_channel as u32, bank as u32, row), dest);
        Some(dest)
    }

    /// Advances staged placement work: drains every channel's completed
    /// placement events, installs [`RemapTable`] swaps for landed moves,
    /// dispatches the fill half of cross-channel moves whose read-out
    /// finished, and releases vacated frames into their channel's
    /// capacity directory.
    ///
    /// Determinism contract: the pump mutates routing state, so drivers
    /// must call it at cycle points that are identical across per-cycle
    /// and skip-ahead walks — epoch boundaries in the policy runtime,
    /// fixed cycles in tests. It is deliberately *not* called from
    /// `tick`/`tick_until`.
    pub fn pump_placement(&mut self) {
        let n = self.channels.len();
        let now = self.cycle();
        for ch in 0..n {
            let mut events = std::mem::take(&mut self.placement_scratch);
            self.channels[ch].drain_placement_events_into(&mut events);
            for ev in &events {
                if let Some(sink) = self.trace.as_deref_mut() {
                    if sink.wants(TraceCategory::Placement) {
                        sink.instant(
                            TraceCategory::Placement,
                            match ev.kind {
                                JobKind::Couple => "couple_placed",
                                JobKind::EvacuateOut => "staged_out",
                                JobKind::FillIn => "fill_landed",
                            },
                            now,
                            vec![
                                ("channel", ch as u64),
                                ("bank", ev.bank as u64),
                                ("row", ev.row as u64),
                                ("dest_bank", ev.dest_bank as u64),
                                ("dest", ev.dest as u64),
                            ],
                        );
                    }
                }
                match ev.kind {
                    JobKind::Couple => {
                        // Cross-bank couplings need no remap: the coupled
                        // row keeps its (hot) identity; the displaced
                        // half-row's movement is placement-priced only.
                    }
                    JobKind::EvacuateOut => {
                        let src = RowKey::new(ch as u32, ev.bank, ev.row);
                        if let Some(dest) = self.moves.remove(&src) {
                            if self.channels[dest.channel as usize]
                                .begin_fill(dest.bank as usize, dest.row)
                            {
                                self.fills.insert(dest, src);
                            } else {
                                // The reservation vanished (cannot happen
                                // through this API); abort the move,
                                // releasing both rows.
                                self.channels[dest.channel as usize]
                                    .release_frame(dest.bank as usize, dest.row);
                                self.channels[ch].release_frame(ev.bank as usize, ev.row);
                            }
                        }
                    }
                    JobKind::FillIn => {
                        let dest = RowKey::new(ch as u32, ev.dest_bank, ev.dest);
                        if let Some(src) = self.fills.remove(&dest) {
                            self.remap.install_swap(src, dest);
                            self.channels[src.channel as usize]
                                .note_frame_freed(src.bank as usize, src.row);
                            self.trace_remap_install(now, src.channel, src.bank, src.row);
                        }
                    }
                }
            }
            events.clear();
            self.placement_scratch = events;
        }
    }

    /// Emits a remap-table install instant event (Placement category)
    /// when tracing is enabled.
    fn trace_remap_install(&mut self, now: u64, channel: u32, bank: u32, row: u32) {
        if let Some(sink) = self.trace.as_deref_mut() {
            if sink.wants(TraceCategory::Placement) {
                sink.instant(
                    TraceCategory::Placement,
                    "remap_install",
                    now,
                    vec![
                        ("channel", channel as u64),
                        ("bank", bank as u64),
                        ("row", row as u64),
                        ("installs", self.remap.installs()),
                    ],
                );
            }
        }
    }

    /// Attempts to enqueue a request on its channel, returning it back on
    /// queue-full (callers retry next cycle — backpressure is per
    /// channel). Read forwarding against queued writes happens inside the
    /// owning channel; a line always routes to one channel, so
    /// cross-channel forwarding cannot arise.
    pub fn try_enqueue(&mut self, request: MemRequest) -> Result<(), MemRequest> {
        let (ch, local) = self.route(request.addr);
        self.channels[ch]
            .try_enqueue(MemRequest {
                addr: local,
                ..request
            })
            .map_err(|_| request)
    }

    /// Current DRAM cycle (channels run in lockstep).
    pub fn cycle(&self) -> u64 {
        debug_assert!(
            self.channels
                .iter()
                .all(|c| c.cycle() == self.channels[0].cycle()),
            "channels must stay in lockstep"
        );
        self.channels[0].cycle()
    }

    /// Advances every channel one DRAM cycle, pushing finished reads into
    /// `completions` in channel order — the per-cycle reference
    /// semantics.
    pub fn tick(&mut self, completions: &mut Vec<Completion>) {
        for ch in &mut self.channels {
            ch.tick(completions);
        }
    }

    /// [`MemorySystem::tick`] with each channel shortcutting its provably
    /// dead cycles (see [`MemoryController::tick_fast`]). Bit-identical
    /// to `tick`.
    #[inline]
    pub fn tick_fast(&mut self, completions: &mut Vec<Completion>) {
        for ch in &mut self.channels {
            ch.tick_fast(completions);
        }
    }

    /// The cycle through which [`MemorySystem::tick_fast`] would only
    /// pass dead cycles on every channel (`cycle()` when its next call
    /// ticks some channel).
    #[inline]
    pub fn fast_dead_until(&self) -> u64 {
        self.channels
            .iter()
            .map(MemoryController::fast_dead_until)
            .min()
            .expect("at least one channel")
    }

    /// Exactly `to - cycle()` calls of [`MemorySystem::tick_fast`] over
    /// dead cycles, made at once and recorded as one-cycle jumps, as
    /// those calls record them. `to` must not pass
    /// [`MemorySystem::fast_dead_until`].
    #[inline]
    pub fn tick_fast_dead(&mut self, to: u64) {
        for ch in &mut self.channels {
            ch.tick_fast_dead(to);
        }
    }

    /// Sets the worker-thread count for [`MemorySystem::tick_until`]'s
    /// channel walk (clamped to ≥ 1; 1 = the serial path). With
    /// threads > 1 a persistent [`Executor`] is built once and reused
    /// across every subsequent window — fan-out is a queue push, not a
    /// thread spawn. Purely a host-speed knob: thread count never
    /// changes a simulated outcome.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        self.threads = threads;
        if threads == 1 {
            self.executor = None;
        } else if self.executor.as_ref().map(|e| e.lanes()) != Some(threads) {
            self.executor = Some(Executor::new(threads));
        }
    }

    /// Overrides the minimum window fanned out to worker threads
    /// (default [`PARALLEL_MIN_WINDOW`]). Purely a host-speed knob —
    /// the cutover is invisible in every simulated outcome — but
    /// differential tests drop it to `1` so the pooled walk runs
    /// on every window instead of only the long ones.
    pub fn set_parallel_cutover(&mut self, window: u64) {
        self.parallel_cutover = window.max(1);
    }

    /// Advances every channel to DRAM cycle `target`, jumping dead
    /// windows per channel and merging completions back into the
    /// per-cycle delivery order (`finish_cycle`, then channel index).
    /// Bit-identical to calling [`MemorySystem::tick`] in a loop.
    ///
    /// With [`MemorySystem::set_threads`] > 1, channels walk as one job
    /// each on the persistent [`Executor`] — sound because channels
    /// share no mutable state (each controller owns its mode table,
    /// refresh streams, migration engine, scheduler lanes, trace sink,
    /// and skip profile, and is *moved* into its job and back out
    /// through its result slot, so there is no sharing to reason about
    /// at all), and bit-identical because results return in channel
    /// order and the deterministic `(finish_cycle, channel)` merge
    /// erases completion arrival order. Each channel's completion
    /// scratch `Vec` rides through its job and back, so steady-state
    /// windows reallocate nothing. Short windows stay serial: even a
    /// queue hand-off would dominate a walk of a few cycles, and the
    /// serial and pooled walks agree exactly, so the cutover is
    /// invisible.
    pub fn tick_until(&mut self, target: u64, completions: &mut Vec<Completion>) {
        if self.channels.len() == 1 {
            self.channels[0].tick_until(target, completions);
            return;
        }
        let window = target.saturating_sub(self.cycle());
        if self.threads > 1 && window >= self.parallel_cutover {
            let exec = self
                .executor
                .get_or_insert_with(|| Executor::new(self.threads));
            // Move each controller (and its completion scratch) into a
            // pool job; reinstate both from the in-order result slots.
            // The outer Vecs are kept and refilled, so the steady state
            // allocates only the per-job boxes.
            let mut channels = std::mem::take(&mut self.channels);
            let mut scratch = std::mem::take(&mut self.scratch);
            let tasks: Vec<_> = channels
                .drain(..)
                .zip(scratch.drain(..))
                .map(|(mut ch, mut out)| {
                    move || {
                        out.clear();
                        ch.tick_until(target, &mut out);
                        (ch, out)
                    }
                })
                .collect();
            for (ch, out) in exec.run_batch(tasks) {
                channels.push(ch);
                scratch.push(out);
            }
            self.channels = channels;
            self.scratch = scratch;
        } else {
            for (ch, out) in self.channels.iter_mut().zip(&mut self.scratch) {
                out.clear();
                ch.tick_until(target, out);
            }
        }
        // K-way merge on (finish_cycle, channel): each channel's stream
        // is already nondecreasing in finish_cycle, and the per-cycle
        // reference delivers equal-cycle completions in channel order.
        let scratch = &self.scratch;
        let idx = &mut self.merge_idx;
        idx.iter_mut().for_each(|i| *i = 0);
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (c, (done, i)) in scratch.iter().zip(idx.iter()).enumerate() {
                if let Some(comp) = done.get(*i) {
                    if best.is_none_or(|b| (comp.finish_cycle, c) < b) {
                        best = Some((comp.finish_cycle, c));
                    }
                }
            }
            let Some((_, c)) = best else { break };
            completions.push(scratch[c][idx[c]]);
            idx[c] += 1;
        }
    }

    /// The earliest cycle at which *any* channel has an event — the fused
    /// skip-ahead bound. Exact because each channel's bound is exact and
    /// channels share no state: nothing can happen system-wide strictly
    /// before the minimum.
    pub fn next_event_cycle(&mut self) -> u64 {
        self.channels
            .iter_mut()
            .map(|c| c.next_event_cycle())
            .min()
            .expect("at least one channel")
    }

    /// A lower bound on the next cycle any channel can deliver a read
    /// completion (the min over channels of
    /// [`MemoryController::next_completion_bound`]) — the co-jump cap for
    /// a full-system driver.
    pub fn next_completion_bound(&mut self) -> u64 {
        self.channels
            .iter_mut()
            .map(|c| c.next_completion_bound())
            .min()
            .expect("at least one channel")
    }

    /// Counter-wise sum of every channel's statistics (see
    /// [`MemStats::merge`] for the rate semantics).
    pub fn fused_stats(&self) -> MemStats {
        MemStats::fused(self.channels.iter().map(|c| c.stats()))
    }

    /// One channel's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_stats(&self, channel: usize) -> &MemStats {
        self.channels[channel].stats()
    }

    /// Whether every channel's queues and in-flight buffers are empty.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    /// Queued reads across all channels.
    pub fn pending_reads(&self) -> usize {
        self.channels.iter().map(|c| c.pending_reads()).sum()
    }

    /// Queued writes across all channels.
    pub fn pending_writes(&self) -> usize {
        self.channels.iter().map(|c| c.pending_writes()).sum()
    }

    /// Migration jobs dispatched but not yet complete, across all
    /// channels.
    pub fn pending_migrations(&self) -> usize {
        self.channels.iter().map(|c| c.pending_migrations()).sum()
    }

    /// Switches on per-row telemetry collection on every channel (the
    /// drains stay per-channel: [`MemoryController::drain_row_telemetry_into`]
    /// via [`MemorySystem::channel_mut`]).
    pub fn enable_row_telemetry(&mut self) {
        for ch in &mut self.channels {
            ch.enable_row_telemetry();
        }
    }

    /// Switches on per-request wait-cause attribution on every channel
    /// (see [`MemoryController::enable_blame`]): completed demand
    /// requests' exact per-cause latency budgets accumulate into each
    /// channel's [`MemStats::read_blame`]/[`MemStats::write_blame`] and
    /// fuse through [`MemorySystem::fused_stats`] like every other
    /// statistic. Inert: simulated outcomes are bit-identical with or
    /// without it (the workspace `blame_inertness` differential
    /// enforces this).
    pub fn enable_blame(&mut self) {
        for ch in &mut self.channels {
            ch.enable_blame();
        }
    }

    /// Starts command logging on every channel (logs stay per-channel:
    /// [`MemorySystem::command_log`]).
    pub fn enable_command_log(&mut self) {
        for ch in &mut self.channels {
            ch.enable_command_log();
        }
    }

    /// Installs structured event tracing: one sink per channel (pid =
    /// channel index) for command and migration events, plus a
    /// system-level sink (pid = [`SYSTEM_PID`]) for placement and remap
    /// events. Tracing is inert — every simulated outcome is
    /// bit-identical with or without it (the workspace tracing
    /// differential test enforces this).
    pub fn enable_tracing(&mut self, cfg: &TraceConfig) {
        for (pid, ch) in self.channels.iter_mut().enumerate() {
            ch.enable_tracing(cfg, pid as u32);
        }
        self.trace = Some(Box::new(TraceSink::new(cfg, SYSTEM_PID)));
    }

    /// Drains every sink (per-channel and system) into one merged
    /// [`TraceLog`], sorted by `(ts, pid)`. Returns an empty log when
    /// tracing was never enabled.
    pub fn collect_trace(&mut self) -> TraceLog {
        let mut sinks: Vec<&mut TraceSink> = self
            .channels
            .iter_mut()
            .filter_map(|c| c.trace_sink_mut())
            .collect();
        if let Some(own) = self.trace.as_deref_mut() {
            sinks.push(own);
        }
        TraceLog::collect(sinks)
    }

    /// Whether a trace sink is installed.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The system-level sink (pid = [`SYSTEM_PID`]), if tracing is
    /// enabled — drivers above the memory system (the policy-epoch loop)
    /// record their decisions here so they land in the same merged
    /// trace.
    pub fn system_trace_sink_mut(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_deref_mut()
    }

    /// Merged skip-ahead profile across every channel: jump-length
    /// histogram, per-source trigger counts, ticked/skipped cycle
    /// totals. Lives outside [`MemStats`] because jump shapes
    /// legitimately differ between per-cycle and skip-ahead walks.
    pub fn fused_skip_profile(&self) -> SkipProfile {
        let mut fused = SkipProfile::default();
        for ch in &self.channels {
            fused.merge(ch.skip_profile());
        }
        fused
    }

    /// One channel's recorded command log, if enabled.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn command_log(&self, channel: usize) -> Option<&[crate::command::IssuedCommand]> {
        self.channels[channel].command_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use clr_core::geometry::DramGeometry;

    fn two_channel_cfg() -> MemConfig {
        let mut cfg = MemConfig::paper_tiny();
        cfg.geometry.channels = 2;
        cfg
    }

    fn line_requests(n: u64, stride: u64) -> Vec<MemRequest> {
        (0..n)
            .map(|i| MemRequest::new(i, PhysAddr(i * stride), RequestKind::Read, 0))
            .collect()
    }

    #[test]
    fn one_channel_system_is_bit_identical_to_bare_controller() {
        let cfg = MemConfig::paper_tiny();
        let mut sys = MemorySystem::new(cfg.clone());
        let mut mc = MemoryController::new(cfg);
        sys.enable_command_log();
        mc.enable_command_log();
        let (mut done_sys, mut done_mc) = (Vec::new(), Vec::new());
        for req in line_requests(32, 64) {
            sys.try_enqueue(req).unwrap();
            mc.try_enqueue(req).unwrap();
        }
        sys.tick_until(20_000, &mut done_sys);
        while mc.cycle() < 20_000 {
            mc.tick(&mut done_mc);
        }
        assert_eq!(done_sys, done_mc);
        assert_eq!(sys.command_log(0).unwrap(), mc.command_log().unwrap());
        assert_eq!(sys.fused_stats(), *mc.stats());
    }

    #[test]
    fn requests_spread_across_channels() {
        let mut sys = MemorySystem::new(two_channel_cfg());
        // Consecutive lines alternate channels under the default
        // mapping (channel bits sit just above the burst).
        for req in line_requests(16, 64) {
            sys.try_enqueue(req).unwrap();
        }
        assert!(sys.channel(0).pending_reads() > 0);
        assert!(sys.channel(1).pending_reads() > 0);
        assert_eq!(sys.pending_reads(), 16);
        let mut done = Vec::new();
        sys.tick_until(30_000, &mut done);
        assert_eq!(done.len(), 16);
        assert_eq!(sys.cycle(), 30_000);
        let fused = sys.fused_stats();
        assert_eq!(fused.reads_completed, 16);
        assert_eq!(
            fused.reads,
            sys.channel_stats(0).reads + sys.channel_stats(1).reads
        );
        assert!(sys.is_idle());
    }

    #[test]
    fn routing_matches_the_mapping_and_masks_tags() {
        let cfg = two_channel_cfg();
        let sys = MemorySystem::new(cfg.clone());
        let g = &cfg.geometry;
        for addr in [0u64, 64, 128, 4096, g.capacity_bytes() - 64] {
            let (ch, local) = sys.route(PhysAddr(addr));
            let (ech, elocal) = cfg.mapping.route(PhysAddr(addr), g).unwrap();
            assert_eq!(ch, ech as usize);
            assert_eq!(local, elocal);
            // Core-tagged (out-of-range) addresses fold into capacity.
            let tagged = addr + g.capacity_bytes() * 3;
            assert_eq!(sys.route(PhysAddr(tagged)), (ch, local));
        }
    }

    #[test]
    fn completion_merge_preserves_cycle_then_channel_order() {
        let cfg = two_channel_cfg();
        let mut per_cycle = MemorySystem::new(cfg.clone());
        let mut jumped = MemorySystem::new(cfg);
        let reqs = line_requests(40, 64);
        for sys in [&mut per_cycle, &mut jumped] {
            for &req in &reqs {
                sys.try_enqueue(req).unwrap();
            }
        }
        let (mut done_a, mut done_b) = (Vec::new(), Vec::new());
        while per_cycle.cycle() < 25_000 {
            per_cycle.tick(&mut done_a);
        }
        jumped.tick_until(25_000, &mut done_b);
        assert_eq!(done_a, done_b);
        assert_eq!(per_cycle.fused_stats(), jumped.fused_stats());
    }

    #[test]
    fn threaded_walk_is_bit_identical_to_serial() {
        use crate::migrate::RelocationConfig;
        let run = |threads: usize| {
            let mut cfg = two_channel_cfg();
            cfg.geometry.channels = 4;
            cfg.relocation = RelocationConfig::background();
            let mut sys = MemorySystem::new(cfg);
            sys.set_threads(threads);
            // Fan out every window, not just cutover-sized ones.
            sys.set_parallel_cutover(1);
            sys.enable_command_log();
            for req in line_requests(64, 64) {
                sys.try_enqueue(req).unwrap();
            }
            sys.schedule_row_export(0, 0, 5, 1);
            let mut done = Vec::new();
            sys.tick_until(20_000, &mut done);
            sys.pump_placement();
            sys.tick_until(40_000, &mut done);
            sys.pump_placement();
            let logs: Vec<_> = (0..4)
                .map(|c| sys.command_log(c).unwrap().to_vec())
                .collect();
            (
                logs,
                done,
                sys.fused_stats(),
                sys.fused_skip_profile(),
                sys.remap_table().installs(),
            )
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            let threaded = run(threads);
            assert_eq!(
                serial.0, threaded.0,
                "command logs diverge at threads={threads}"
            );
            assert_eq!(
                serial.1, threaded.1,
                "completions diverge at threads={threads}"
            );
            assert_eq!(
                serial.2, threaded.2,
                "statistics diverge at threads={threads}"
            );
            assert_eq!(
                serial.3, threaded.3,
                "skip profiles diverge at threads={threads}"
            );
            assert_eq!(serial.4, threaded.4);
        }
    }

    #[test]
    fn parallel_cutover_default_is_at_most_1024() {
        // The persistent pool makes fan-out cheap enough to engage on
        // epoch-sized windows; the issue pins the ceiling.
        const { assert!(PARALLEL_MIN_WINDOW <= 1024) };
        let mut sys = MemorySystem::new(two_channel_cfg());
        sys.set_threads(2);
        assert_eq!(sys.threads, 2);
        assert!(sys.executor.is_some());
        sys.set_threads(1);
        assert!(sys.executor.is_none(), "serial walk drops the pool");
    }

    #[test]
    fn fused_event_bound_is_min_over_channels() {
        let mut sys = MemorySystem::new(two_channel_cfg());
        // Idle system with refresh: the bound is the earliest refresh
        // due time, identical on both channels.
        let fused = sys.next_event_cycle();
        let per_ch: Vec<u64> = (0..2)
            .map(|c| sys.channel_mut(c).next_event_cycle())
            .collect();
        assert_eq!(fused, *per_ch.iter().min().unwrap());
    }

    #[test]
    fn remap_swaps_compose_into_a_permutation() {
        let mut t = RemapTable::new();
        let a = RowKey::new(0, 0, 5);
        let b = RowKey::new(1, 2, 9);
        let c = RowKey::new(1, 0, 1);
        assert!(t.is_empty());
        t.install_swap(a, b);
        assert_eq!(t.resolve(a), b);
        assert_eq!(t.resolve(b), a);
        assert_eq!(t.invert(b), a);
        assert_eq!(t.len(), 2);
        // Chained: a's data moves on from b to c.
        t.install_swap(b, c);
        assert_eq!(t.resolve(a), c, "a's data is at c now");
        assert_eq!(t.invert(c), a);
        // Swapping back to identity prunes entries.
        t.install_swap(c, a); // a's data returns home: a ↦ a
        assert_eq!(t.resolve(a), a);
        t.install_swap(b, c); // b's and c's data return home too
        assert_eq!(t.resolve(b), b);
        assert_eq!(t.resolve(c), c);
        assert!(t.is_empty(), "identity entries are pruned");
        assert_eq!(t.installs(), 4);
        // Self-swap is a no-op.
        t.install_swap(a, a);
        assert_eq!(t.installs(), 4);
    }

    #[test]
    fn cross_channel_move_stages_fills_and_remaps() {
        use crate::migrate::RelocationConfig;
        let mut cfg = two_channel_cfg();
        cfg.refresh_enabled = false;
        cfg.relocation = RelocationConfig::background();
        let g = cfg.geometry.clone();
        let mut sys = MemorySystem::new(cfg.clone());
        // Every dispatched job is pending or counted once at its end.
        let accounted = |sys: &MemorySystem, dispatched: u64| {
            let dispatched_now: u64 = (0..sys.channels())
                .map(|c| sys.channel(c).migration_jobs_dispatched())
                .sum();
            let s = sys.fused_stats();
            let ended = s.migration_jobs_completed + s.migration_evacuations + s.migration_fills;
            assert_eq!(dispatched_now, dispatched);
            assert_eq!(dispatched_now, ended + sys.pending_migrations() as u64);
        };
        let dest = sys.schedule_row_export(0, 0, 5, 1).expect("frame reserved");
        assert_eq!(dest.channel, 1);
        assert_eq!(sys.moves_in_flight(), 1);
        accounted(&sys, 1);
        assert!(
            sys.channel(1)
                .is_row_migrating(dest.bank as usize, dest.row),
            "destination frame reserved on the target channel"
        );
        let mut done = Vec::new();
        sys.tick_until(30_000, &mut done);
        assert_eq!(sys.pending_migrations(), 0, "read-out half finished");
        accounted(&sys, 1);
        sys.pump_placement(); // dispatches the fill on channel 1
        assert_eq!(sys.moves_in_flight(), 1, "fill half in flight");
        assert!(sys.remap_table().is_empty(), "no remap before the landing");
        accounted(&sys, 2);
        sys.tick_until(60_000, &mut done);
        accounted(&sys, 2);
        sys.pump_placement(); // fill landed → swap installed
        assert_eq!(sys.moves_in_flight(), 0);
        assert_eq!(sys.remap_table().installs(), 1);
        assert!(
            sys.channel(0).frame_directory().is_free(0, 5),
            "vacated source row is a free frame on channel 0"
        );
        assert_eq!(sys.fused_stats().migration_evacuations, 1);
        assert_eq!(sys.fused_stats().migration_fills, 1);

        // Addresses that decoded to (ch 0, bank 0, row 5) now route to
        // the destination frame on channel 1 — and unroute restores the
        // original address exactly.
        use clr_core::addr::DramAddr;
        let global = cfg
            .mapping
            .unmap(
                &DramAddr {
                    channel: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 0,
                    row: 5,
                    column: 3,
                },
                &g,
            )
            .unwrap();
        let (ch, local) = sys.route(global);
        assert_eq!(ch, 1, "moved row routes to its new channel");
        let d = cfg.mapping.map(local, &g.channel_slice()).unwrap();
        assert_eq!(d.row, dest.row);
        assert_eq!(d.flat_bank(&g.channel_slice()) as u32, dest.bank);
        assert_eq!(d.column, 3, "column preserved through the remap");
        assert_eq!(sys.unroute(ch, local), global, "unroute is the inverse");
        // The displaced free-frame identity resolves back to the vacated
        // row (the swap's other leg).
        let back = cfg
            .mapping
            .unmap(
                &DramAddr {
                    channel: 1,
                    rank: (dest.bank / (g.bank_groups * g.banks_per_group)),
                    bank_group: (dest.bank / g.banks_per_group) % g.bank_groups,
                    bank: dest.bank % g.banks_per_group,
                    row: dest.row,
                    column: 0,
                },
                &g,
            )
            .unwrap();
        let (bch, blocal) = sys.route(back);
        assert_eq!(bch, 0);
        let bd = cfg.mapping.map(blocal, &g.channel_slice()).unwrap();
        assert_eq!((bd.flat_bank(&g.channel_slice()), bd.row), (0, 5));
    }

    #[test]
    fn refused_exports_and_fills_leave_no_reservation_behind() {
        use crate::migrate::RelocationConfig;
        use clr_core::mode::RowMode;
        // Rows below the HP prefix are high-performance on every bank.
        let mut cfg = MemConfig::tiny_clr(0.25);
        cfg.geometry.channels = 2;
        cfg.relocation = RelocationConfig::background();
        let mut sys = MemorySystem::new(cfg);
        let reserved = |sys: &MemorySystem, ch: usize| -> Vec<(usize, u32)> {
            let g = sys.channel(ch).config().geometry.clone();
            (0..g.banks_total() as usize)
                .flat_map(|b| (0..g.rows).map(move |r| (b, r)))
                .filter(|&(b, r)| sys.channel(ch).is_row_migrating(b, r))
                .collect()
        };
        let unchanged = |sys: &MemorySystem, before: &[Vec<(usize, u32)>], what: &str| {
            for (ch, want) in before.iter().enumerate() {
                assert_eq!(&reserved(sys, ch), want, "{what}: channel {ch}");
            }
        };
        assert_eq!(sys.channel(0).mode_of_row(0, 0), RowMode::HighPerformance);

        assert_eq!(sys.schedule_row_export(0, 0, 5, 0), None, "same channel");
        unchanged(&sys, &[vec![], vec![]], "same channel");
        assert_eq!(sys.schedule_row_export(0, 0, 0, 1), None, "HP source");
        unchanged(&sys, &[vec![], vec![]], "HP source");
        assert_eq!((sys.moves_in_flight(), sys.pending_migrations()), (0, 0));

        let dest = sys
            .schedule_row_export(0, 0, 40, 1)
            .expect("frame reserved");
        let before = [vec![(0, 40)], vec![(dest.bank as usize, dest.row)]];
        unchanged(&sys, &before, "accepted export");
        assert_eq!((sys.moves_in_flight(), sys.pending_migrations()), (1, 1));
        assert_eq!(
            sys.schedule_row_export(0, 0, 40, 1),
            None,
            "source already migrating"
        );
        unchanged(&sys, &before, "source already migrating");
        let (b, r) = (dest.bank as usize, dest.row + 1);
        assert!(!sys.channel_mut(1).begin_fill(b, r), "unreserved frame");
        unchanged(&sys, &before, "unreserved fill");
        assert_eq!((sys.moves_in_flight(), sys.pending_migrations()), (1, 1));
    }

    #[test]
    fn pump_at_fixed_cycles_is_bit_identical_under_skip_ahead() {
        use crate::migrate::RelocationConfig;
        let run = |skip: bool| {
            let mut cfg = two_channel_cfg();
            cfg.refresh_enabled = true;
            cfg.relocation = RelocationConfig::background();
            let mut sys = MemorySystem::new(cfg);
            sys.enable_command_log();
            for req in line_requests(24, 64) {
                sys.try_enqueue(req).unwrap();
            }
            let mut done = Vec::new();
            let step_to = |sys: &mut MemorySystem, done: &mut Vec<Completion>, to: u64| {
                if skip {
                    sys.tick_until(to, done);
                } else {
                    while sys.cycle() < to {
                        sys.tick(done);
                    }
                }
            };
            sys.schedule_row_export(0, 0, 5, 1);
            sys.schedule_row_export(1, 1, 7, 0);
            step_to(&mut sys, &mut done, 20_000);
            sys.pump_placement();
            step_to(&mut sys, &mut done, 40_000);
            sys.pump_placement();
            step_to(&mut sys, &mut done, 60_000);
            sys.pump_placement();
            (
                sys.command_log(0).unwrap().to_vec(),
                sys.command_log(1).unwrap().to_vec(),
                done,
                sys.fused_stats(),
                sys.remap_table().installs(),
            )
        };
        let (l0a, l1a, done_a, stats_a, inst_a) = run(false);
        let (l0b, l1b, done_b, stats_b, inst_b) = run(true);
        assert_eq!(l0a, l0b, "channel-0 command logs diverge");
        assert_eq!(l1a, l1b, "channel-1 command logs diverge");
        assert_eq!(done_a, done_b, "completions diverge");
        assert_eq!(stats_a, stats_b, "statistics diverge");
        assert_eq!(inst_a, inst_b);
        assert_eq!(inst_a, 2, "both moves landed in the horizon");
    }

    #[test]
    fn channel_slice_geometry_shares_everything_below_the_channel() {
        let g = DramGeometry {
            channels: 4,
            ..DramGeometry::tiny()
        };
        let s = g.channel_slice();
        assert_eq!(s.channels, 1);
        assert_eq!(s.ranks, g.ranks);
        assert_eq!(s.banks_total(), g.banks_total());
        assert_eq!(s.capacity_bytes() * 4, g.capacity_bytes());
    }
}
