//! The reorder/instruction window (a port of Ramulator's `Window`).

/// A circular instruction window with in-order retire.
///
/// Entries are either *ready* (non-memory instructions, cache hits whose
/// data arrived) or *pending* on a memory line address. Up to
/// `retire_width` ready entries retire per cycle, strictly in order.
#[derive(Debug, Clone)]
pub struct Window {
    ready: Vec<bool>,
    addr: Vec<u64>,
    /// Slot indices of entries still pending on a memory line
    /// (`addr[slot] != NO_ADDR`), unordered. Wakes scan only these —
    /// the pending set is bounded by outstanding misses, far below the
    /// window depth — instead of walking the whole ring.
    waiting: Vec<usize>,
    depth: usize,
    retire_width: usize,
    load: usize,
    head: usize,
    tail: usize,
}

/// Sentinel line address for entries that never wait on memory.
const NO_ADDR: u64 = u64::MAX;

impl Window {
    /// Creates a window of `depth` entries retiring `retire_width` per
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `retire_width` is zero.
    pub fn new(depth: usize, retire_width: usize) -> Self {
        assert!(depth > 0 && retire_width > 0);
        Window {
            ready: vec![false; depth],
            addr: vec![NO_ADDR; depth],
            waiting: Vec::new(),
            depth,
            retire_width,
            load: 0,
            head: 0,
            tail: 0,
        }
    }

    /// Whether no more instructions can be dispatched.
    pub fn is_full(&self) -> bool {
        self.load == self.depth
    }

    /// Whether the window holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.load == 0
    }

    /// Occupied entries.
    pub fn occupancy(&self) -> usize {
        self.load
    }

    /// Total entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Ready entries at the oldest end, before the first entry still
    /// waiting on memory (the whole occupancy when none waits): what
    /// [`Window::retire`] can retire without a wakeup.
    pub fn ready_prefix(&self) -> usize {
        self.waiting
            .iter()
            .map(|&s| {
                if s >= self.tail {
                    s - self.tail
                } else {
                    s + self.depth - self.tail
                }
            })
            .min()
            .unwrap_or(self.load)
    }

    /// Whether the oldest entry could retire this cycle — i.e. whether
    /// [`Window::retire`] would make progress. `false` for an empty
    /// window or one blocked on a pending load at its head.
    pub fn head_ready(&self) -> bool {
        self.load > 0 && self.ready[self.tail]
    }

    /// Dispatches one instruction. `ready = true` for non-memory work,
    /// `false` with the memory line address for loads awaiting data.
    ///
    /// # Panics
    ///
    /// Panics if the window is full (callers must check
    /// [`Window::is_full`]).
    pub fn insert(&mut self, ready: bool, line_addr: u64) {
        assert!(!self.is_full(), "window overflow");
        self.ready[self.head] = ready;
        self.addr[self.head] = if ready { NO_ADDR } else { line_addr };
        if !ready {
            self.waiting.push(self.head);
        }
        self.head = self.next_slot(self.head);
        self.load += 1;
    }

    /// Retires up to `retire_width` ready instructions in order, returning
    /// the count retired this cycle.
    pub fn retire(&mut self) -> usize {
        let mut n = 0;
        while n < self.retire_width && self.load > 0 && self.ready[self.tail] {
            self.ready[self.tail] = false;
            self.addr[self.tail] = NO_ADDR;
            self.tail = self.next_slot(self.tail);
            self.load -= 1;
            n += 1;
        }
        n
    }

    /// Applies, in one write, what a run of cycles did that only
    /// retired ready entries (`retired` in total) and dispatched ready
    /// instructions (`inserted`), interleaved in any order that kept
    /// the occupancy within the depth. The newest `min(inserted,
    /// occupancy)` entries are the dispatched ones; entries waiting on
    /// memory keep their slots. Slots left unoccupied keep stale
    /// contents, which nothing reads.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the run would retire more entries than
    /// it had.
    pub fn advance(&mut self, retired: u64, inserted: u64) {
        debug_assert!(self.load as u64 + inserted >= retired);
        self.load = (self.load as u64 + inserted - retired) as usize;
        self.tail = self.slot_after(self.tail, retired);
        self.head = self.slot_after(self.head, inserted);
        // The dispatched entries end at the head, wrapping at most once.
        let fresh = inserted.min(self.load as u64) as usize;
        let (wrapped, straight) = (fresh.saturating_sub(self.head), fresh.min(self.head));
        for range in [
            self.head - straight..self.head,
            self.depth - wrapped..self.depth,
        ] {
            self.ready[range.clone()].fill(true);
            self.addr[range].fill(NO_ADDR);
        }
    }

    /// The ring slot `steps` after `slot`; a division only for a lap or
    /// more.
    fn slot_after(&self, slot: usize, steps: u64) -> usize {
        let steps = if steps < self.depth as u64 {
            steps as usize
        } else {
            (steps % self.depth as u64) as usize
        };
        let s = slot + steps;
        if s >= self.depth {
            s - self.depth
        } else {
            s
        }
    }

    /// The ring slot after `slot`, wrapped by a comparison rather than a
    /// division (one per dispatch and per retire).
    fn next_slot(&self, slot: usize) -> usize {
        let next = slot + 1;
        if next == self.depth {
            0
        } else {
            next
        }
    }

    /// Marks every entry waiting on `line_addr` as ready (a cache line
    /// fill serves all loads to that line).
    pub fn set_ready(&mut self, line_addr: u64) {
        let mut i = 0;
        while i < self.waiting.len() {
            let s = self.waiting[i];
            if self.addr[s] == line_addr {
                self.ready[s] = true;
                self.addr[s] = NO_ADDR;
                self.waiting.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retires_in_order_up_to_width() {
        let mut w = Window::new(8, 4);
        for _ in 0..6 {
            w.insert(true, 0);
        }
        assert_eq!(w.retire(), 4);
        assert_eq!(w.retire(), 2);
        assert!(w.is_empty());
    }

    #[test]
    fn pending_load_blocks_retire() {
        let mut w = Window::new(8, 4);
        w.insert(true, 0);
        w.insert(false, 0x40); // load
        w.insert(true, 0);
        assert_eq!(w.retire(), 1); // only the first bubble
        assert_eq!(w.retire(), 0); // blocked on the load
        w.set_ready(0x40);
        assert_eq!(w.retire(), 2); // load + following bubble
    }

    #[test]
    fn set_ready_wakes_all_waiters_on_line() {
        let mut w = Window::new(8, 8);
        w.insert(false, 0x40);
        w.insert(false, 0x40);
        w.insert(false, 0x80);
        w.set_ready(0x40);
        assert_eq!(w.retire(), 2);
        assert_eq!(w.occupancy(), 1);
    }

    #[test]
    fn full_window_reports_full() {
        let mut w = Window::new(2, 1);
        w.insert(true, 0);
        w.insert(false, 0x40);
        assert!(w.is_full());
    }

    #[test]
    #[should_panic(expected = "window overflow")]
    fn overflow_panics() {
        let mut w = Window::new(1, 1);
        w.insert(true, 0);
        w.insert(true, 0);
    }

    #[test]
    fn wraparound_at_a_depth_that_is_not_a_power_of_two() {
        // Depth 3: head and tail wrap past slot 2 on every third
        // dispatch and retire; occupancy and retire order must survive
        // many laps at every fill level.
        let mut w = Window::new(3, 3);
        for lap in 0..12u64 {
            let fill = 1 + (lap % 3) as usize;
            for k in 0..fill {
                w.insert(false, 0x1000 + lap * 8 + k as u64);
            }
            assert_eq!(w.occupancy(), fill);
            assert_eq!(w.is_full(), fill == 3, "lap {lap}");
            // Wake the youngest first: nothing retires until the
            // oldest is ready, then all of them retire in order.
            for k in (0..fill).rev() {
                assert_eq!(w.retire(), 0, "lap {lap}: head still pending");
                w.set_ready(0x1000 + lap * 8 + k as u64);
            }
            assert_eq!(w.retire(), fill, "lap {lap}");
            assert!(w.is_empty());
        }
    }

    #[test]
    fn wraparound_at_depth_one() {
        let mut w = Window::new(1, 4);
        for round in 0..5 {
            assert_eq!(w.occupancy(), 0);
            w.insert(false, 0x40 + round);
            assert!(w.is_full() && !w.head_ready());
            w.set_ready(0x40 + round);
            assert!(w.head_ready());
            assert_eq!(w.retire(), 1, "round {round}");
            assert!(w.is_empty());
        }
    }

    #[test]
    fn wraparound_is_sound() {
        let mut w = Window::new(4, 2);
        for round in 0..10 {
            w.insert(false, 0x100 + round);
            w.insert(true, 0);
            w.set_ready(0x100 + round);
            assert_eq!(w.retire(), 2, "round {round}");
        }
        assert!(w.is_empty());
    }
}
