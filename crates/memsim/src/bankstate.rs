//! Per-bank row-buffer state.

use clr_core::mode::RowMode;

/// State of one DRAM bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<u32>,
    /// Operating mode of the open row (meaningless when closed).
    pub open_mode: RowMode,
    /// Cycle of the last ACT/RD/WR touching this bank (drives the
    /// timeout-based row policy).
    pub last_use_cycle: u64,
}

impl BankState {
    /// A closed, idle bank.
    pub fn new() -> Self {
        BankState {
            open_row: None,
            open_mode: RowMode::MaxCapacity,
            last_use_cycle: 0,
        }
    }

    /// Records a row activation.
    pub fn activate(&mut self, row: u32, mode: RowMode, cycle: u64) {
        self.open_row = Some(row);
        self.open_mode = mode;
        self.last_use_cycle = cycle;
    }

    /// Records a precharge, returning the mode of the row that was closed.
    ///
    /// # Panics
    ///
    /// Panics if the bank is already closed (protocol violation).
    pub fn precharge(&mut self) -> RowMode {
        assert!(self.open_row.is_some(), "precharge of a closed bank");
        self.open_row = None;
        self.open_mode
    }

    /// Records a column access.
    pub fn access(&mut self, cycle: u64) {
        debug_assert!(self.open_row.is_some(), "column access to a closed bank");
        self.last_use_cycle = cycle;
    }

    /// Whether `row` is currently open in this bank.
    pub fn is_open(&self, row: u32) -> bool {
        self.open_row == Some(row)
    }
}

impl Default for BankState {
    fn default() -> Self {
        Self::new()
    }
}

/// A set of one channel's flat bank indices, kept as a 64-bit mask.
///
/// The controller drives its per-tick scans from these sets (banks with
/// an open row, banks with migration work, banks a migration holds,
/// banks with queued demand), so a tick visits only the banks that can
/// act. Every index must be below [`BankSet::CAPACITY`]: the owners'
/// constructors call [`BankSet::assert_fits`], so no shift ever wraps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankSet(u64);

impl BankSet {
    /// The most banks one set can hold.
    pub const CAPACITY: usize = 64;

    /// Panics unless indices `0..banks` fit a set.
    pub fn assert_fits(banks: usize) {
        assert!(
            banks <= Self::CAPACITY,
            "{banks} banks behind one controller exceed the {}-bank limit of its bank sets",
            Self::CAPACITY
        );
    }

    /// Adds `bank`.
    pub fn insert(&mut self, bank: usize) {
        self.0 |= 1 << bank;
    }

    /// Removes `bank`.
    pub fn remove(&mut self, bank: usize) {
        self.0 &= !(1 << bank);
    }

    /// Adds `bank` if `member`, else removes it.
    pub fn set(&mut self, bank: usize, member: bool) {
        if member {
            self.insert(bank);
        } else {
            self.remove(bank);
        }
    }

    /// Whether `bank` is in the set.
    pub fn contains(self, bank: usize) -> bool {
        self.0 >> bank & 1 != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest bank in the set.
    pub fn first(self) -> Option<usize> {
        self.iter().next()
    }

    /// The banks in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut mask = self.0;
        std::iter::from_fn(move || {
            let bank = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
            mask &= mask - 1;
            Some(bank)
        })
    }

    /// The banks in round-robin order from `start`: `start` and above
    /// ascending, then the banks below `start`.
    pub fn iter_from(self, start: usize) -> impl Iterator<Item = usize> {
        let high = !0u64 << start;
        BankSet(self.0 & high)
            .iter()
            .chain(BankSet(self.0 & !high).iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activate_access_precharge_cycle() {
        let mut b = BankState::new();
        assert_eq!(b.open_row, None);
        b.activate(42, RowMode::HighPerformance, 10);
        assert!(b.is_open(42));
        assert!(!b.is_open(43));
        b.access(15);
        assert_eq!(b.last_use_cycle, 15);
        assert_eq!(b.precharge(), RowMode::HighPerformance);
        assert_eq!(b.open_row, None);
    }

    #[test]
    fn bank_set_iterates_in_order_and_round_robin() {
        let mut s = BankSet::default();
        assert!(s.is_empty() && s.first().is_none());
        for b in [63, 0, 5, 17] {
            s.insert(b);
        }
        s.set(17, false);
        s.set(9, true);
        assert!(s.contains(63) && s.contains(9) && !s.contains(17));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 9, 63]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(s.iter_from(6).collect::<Vec<_>>(), vec![9, 63, 0, 5]);
        assert_eq!(s.iter_from(0).collect::<Vec<_>>(), vec![0, 5, 9, 63]);
        s.remove(0);
        assert_eq!(s.iter_from(63).collect::<Vec<_>>(), vec![63, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "exceed the 64-bank limit")]
    fn bank_set_refuses_more_banks_than_bits() {
        BankSet::assert_fits(65);
    }

    #[test]
    #[should_panic(expected = "closed bank")]
    fn double_precharge_panics() {
        let mut b = BankState::new();
        b.activate(1, RowMode::MaxCapacity, 0);
        let _ = b.precharge();
        let _ = b.precharge();
    }
}
