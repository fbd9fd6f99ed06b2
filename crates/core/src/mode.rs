//! Per-row operating-mode state kept by the memory controller (§6.2).
//!
//! CLR-DRAM reconfigures rows at activation time, so the controller must
//! know each row's mode to apply the correct timing parameters and refresh
//! schedule. [`ModeTable`] is that structure: conceptually one bit per row
//! per bank (the paper notes it can be compressed when the reconfiguration
//! granularity exceeds one row).

use std::sync::Arc;

use crate::geometry::DramGeometry;

/// Operating mode of a single DRAM row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowMode {
    /// Every cell/SA operates individually: full density, baseline-like
    /// latency (Figure 1b).
    #[default]
    MaxCapacity,
    /// Adjacent cell pairs and their two SAs couple into low-latency
    /// logical cells: half density, reduced tRCD/tRAS/tRP/tWR and cheaper
    /// refresh (Figure 1c).
    HighPerformance,
}

impl RowMode {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RowMode::MaxCapacity => "max-capacity",
            RowMode::HighPerformance => "high-performance",
        }
    }
}

impl std::fmt::Display for RowMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-bank, per-row operating-mode table.
///
/// Storage is one bit per row (a `u64` bitmap chunked per bank), matching
/// the unoptimized controller cost the paper quotes in §6.2. Rows default
/// to [`RowMode::MaxCapacity`].
///
/// # Copy-on-write
///
/// Each bank's bitmap lives behind an [`Arc`], so `Clone` is O(banks)
/// reference-count bumps instead of a bitmap copy — taking a snapshot of
/// the live table (tests mirroring the controller, sweep reporting,
/// policy baselines) is effectively free. The first [`ModeTable::set`]
/// that lands on a bank whose bitmap is still shared re-materialises just
/// that bank's words; unshared tables mutate in place with no overhead.
///
/// # Example
///
/// ```
/// use clr_core::geometry::DramGeometry;
/// use clr_core::mode::{ModeTable, RowMode};
///
/// let g = DramGeometry::tiny();
/// let mut t = ModeTable::new(&g);
/// t.set(0, 3, RowMode::HighPerformance);
/// assert_eq!(t.mode_of(0, 3), RowMode::HighPerformance);
/// assert_eq!(t.mode_of(0, 4), RowMode::MaxCapacity);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeTable {
    rows_per_bank: u32,
    banks: u32,
    /// One copy-on-write bitmap per flat bank; bit set = high-performance.
    bitmaps: Vec<Arc<Vec<u64>>>,
    hp_count: u64,
}

impl ModeTable {
    /// Creates a table for the given geometry with every row in
    /// max-capacity mode.
    pub fn new(geometry: &DramGeometry) -> Self {
        let banks = geometry.channels * geometry.ranks * geometry.banks_total();
        let words = geometry.rows.div_ceil(64) as usize;
        // Sharing one all-zero bitmap across every bank is deliberate:
        // copy-on-write splits a bank off on its first real mode flip.
        #[allow(clippy::rc_clone_in_vec_init)]
        let bitmaps = vec![Arc::new(vec![0u64; words]); banks as usize];
        ModeTable {
            rows_per_bank: geometry.rows,
            banks,
            bitmaps,
            hp_count: 0,
        }
    }

    /// Number of rows tracked per bank.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// Number of flat banks tracked.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Returns the mode of `row` in `flat_bank`.
    ///
    /// # Panics
    ///
    /// Panics if `flat_bank` or `row` is out of range.
    pub fn mode_of(&self, flat_bank: usize, row: u32) -> RowMode {
        assert!(row < self.rows_per_bank, "row {row} out of range");
        let word = self.bitmaps[flat_bank][(row / 64) as usize];
        if word >> (row % 64) & 1 == 1 {
            RowMode::HighPerformance
        } else {
            RowMode::MaxCapacity
        }
    }

    /// Sets the mode of `row` in `flat_bank`, returning the previous mode.
    ///
    /// # Panics
    ///
    /// Panics if `flat_bank` or `row` is out of range.
    pub fn set(&mut self, flat_bank: usize, row: u32, mode: RowMode) -> RowMode {
        assert!(row < self.rows_per_bank, "row {row} out of range");
        let bit = 1u64 << (row % 64);
        let word_idx = (row / 64) as usize;
        let was_hp = self.bitmaps[flat_bank][word_idx] & bit != 0;
        // Copy-on-write: only materialise a private bitmap if the mode
        // actually flips (the common no-op `set` stays allocation-free
        // even on shared storage).
        match mode {
            RowMode::HighPerformance => {
                if !was_hp {
                    Arc::make_mut(&mut self.bitmaps[flat_bank])[word_idx] |= bit;
                    self.hp_count += 1;
                }
            }
            RowMode::MaxCapacity => {
                if was_hp {
                    Arc::make_mut(&mut self.bitmaps[flat_bank])[word_idx] &= !bit;
                    self.hp_count -= 1;
                }
            }
        }
        if was_hp {
            RowMode::HighPerformance
        } else {
            RowMode::MaxCapacity
        }
    }

    /// Configures the first `fraction` of each bank's rows as
    /// high-performance and the rest as max-capacity — the contiguous
    /// low-latency region layout used by the paper's profile-guided data
    /// mapping (§8.1).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `0.0..=1.0`.
    pub fn set_fraction_high_performance(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction {fraction} not within 0.0..=1.0"
        );
        let hp_rows = (self.rows_per_bank as f64 * fraction).round() as u32;
        // Every bank gets the identical prefix bitmap: build it once and
        // share it across all banks (copy-on-write splits later setters).
        let words = self.bitmaps.first().map_or(0, |b| b.len());
        let mut prefix = vec![0u64; words];
        for row in 0..hp_rows {
            prefix[(row / 64) as usize] |= 1u64 << (row % 64);
        }
        let prefix = Arc::new(prefix);
        for bank in self.bitmaps.iter_mut() {
            *bank = Arc::clone(&prefix);
        }
        self.hp_count = hp_rows as u64 * self.banks as u64;
    }

    /// Total high-performance rows across all banks.
    pub fn high_performance_rows(&self) -> u64 {
        self.hp_count
    }

    /// Fraction of all rows currently in high-performance mode.
    pub fn fraction_high_performance(&self) -> f64 {
        self.hp_count as f64 / (self.rows_per_bank as u64 * self.banks as u64) as f64
    }

    /// Storage cost of the unoptimized table in bits (§6.2): one bit per
    /// row per bank.
    pub fn storage_bits(&self) -> u64 {
        self.rows_per_bank as u64 * self.banks as u64
    }

    /// Whether `self` and `other` currently share bank `bank`'s bitmap
    /// storage — a copy-on-write diagnostic (cloned tables share until
    /// one side's mode actually flips).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn shares_bank_storage(&self, other: &ModeTable, bank: usize) -> bool {
        Arc::ptr_eq(&self.bitmaps[bank], &other.bitmaps[bank])
    }

    /// Iterates every high-performance row as `(flat_bank, row)`, in
    /// `(bank, row)` order. Runs over the bitmap words, so cost is
    /// proportional to table size ÷ 64 plus the number of set rows —
    /// cheap enough for a policy runtime to call every epoch.
    pub fn iter_high_performance(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.bitmaps
            .iter()
            .enumerate()
            .flat_map(move |(bank, words)| {
                let rows = self.rows_per_bank;
                words.iter().enumerate().flat_map(move |(wi, &w)| {
                    let mut w = w;
                    std::iter::from_fn(move || {
                        if w == 0 {
                            return None;
                        }
                        let bit = w.trailing_zeros();
                        w &= w - 1;
                        Some(wi as u32 * 64 + bit)
                    })
                    .filter(move |&row| row < rows)
                    .map(move |row| (bank, row))
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_max_capacity() {
        let t = ModeTable::new(&DramGeometry::tiny());
        assert_eq!(t.high_performance_rows(), 0);
        assert_eq!(t.mode_of(0, 0), RowMode::MaxCapacity);
        assert_eq!(t.fraction_high_performance(), 0.0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let g = DramGeometry::tiny();
        let mut t = ModeTable::new(&g);
        assert_eq!(t.set(2, 63, RowMode::HighPerformance), RowMode::MaxCapacity);
        assert_eq!(t.mode_of(2, 63), RowMode::HighPerformance);
        assert_eq!(t.high_performance_rows(), 1);
        // Setting the same mode twice is idempotent.
        assert_eq!(
            t.set(2, 63, RowMode::HighPerformance),
            RowMode::HighPerformance
        );
        assert_eq!(t.high_performance_rows(), 1);
        assert_eq!(t.set(2, 63, RowMode::MaxCapacity), RowMode::HighPerformance);
        assert_eq!(t.high_performance_rows(), 0);
    }

    #[test]
    fn fraction_layout_is_contiguous_prefix() {
        let g = DramGeometry::tiny();
        let mut t = ModeTable::new(&g);
        t.set_fraction_high_performance(0.25);
        let hp_rows = (g.rows as f64 * 0.25).round() as u32;
        for bank in 0..t.banks() as usize {
            for row in 0..g.rows {
                let expect = if row < hp_rows {
                    RowMode::HighPerformance
                } else {
                    RowMode::MaxCapacity
                };
                assert_eq!(t.mode_of(bank, row), expect, "bank {bank} row {row}");
            }
        }
        assert!((t.fraction_high_performance() - 0.25).abs() < 1e-6);
        assert_eq!(t.high_performance_rows(), hp_rows as u64 * t.banks() as u64);
    }

    #[test]
    fn fraction_reconfiguration_replaces_previous_layout() {
        let g = DramGeometry::tiny();
        let mut t = ModeTable::new(&g);
        t.set_fraction_high_performance(1.0);
        assert!((t.fraction_high_performance() - 1.0).abs() < 1e-9);
        t.set_fraction_high_performance(0.0);
        assert_eq!(t.high_performance_rows(), 0);
    }

    #[test]
    fn storage_cost_matches_one_bit_per_row() {
        let g = DramGeometry::ddr4_16gb_x8();
        let t = ModeTable::new(&g);
        assert_eq!(t.storage_bits(), g.rows as u64 * g.banks_total() as u64);
        // 128 K rows × 16 banks = 2 Mbit = 256 KiB of controller state.
        assert_eq!(t.storage_bits(), 2 * 1024 * 1024);
    }

    #[test]
    fn hp_iterator_matches_lookups() {
        let g = DramGeometry::tiny();
        let mut t = ModeTable::new(&g);
        t.set(0, 0, RowMode::HighPerformance);
        t.set(1, 63, RowMode::HighPerformance);
        t.set(3, 17, RowMode::HighPerformance);
        let got: Vec<(usize, u32)> = t.iter_high_performance().collect();
        assert_eq!(got, vec![(0, 0), (1, 63), (3, 17)]);
        assert_eq!(got.len() as u64, t.high_performance_rows());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let g = DramGeometry::tiny();
        let mut t = ModeTable::new(&g);
        t.set_fraction_high_performance(0.5);
        let snapshot = t.clone();
        // The clone shares every bank's storage until a write diverges.
        for b in 0..t.banks() as usize {
            assert!(t.shares_bank_storage(&snapshot, b), "bank {b} shared");
        }
        // A no-op set (same mode) must not materialise a private bitmap.
        t.set(1, 0, RowMode::HighPerformance);
        assert!(
            t.shares_bank_storage(&snapshot, 1),
            "no-op set keeps sharing"
        );
        // A real flip splits exactly the touched bank.
        t.set(1, 0, RowMode::MaxCapacity);
        assert!(!t.shares_bank_storage(&snapshot, 1), "bank 1 diverged");
        assert!(t.shares_bank_storage(&snapshot, 0), "bank 0 still shared");
        // Contents stay independent: the snapshot kept the old layout.
        assert_eq!(t.mode_of(1, 0), RowMode::MaxCapacity);
        assert_eq!(snapshot.mode_of(1, 0), RowMode::HighPerformance);
        assert_eq!(
            snapshot.high_performance_rows(),
            t.high_performance_rows() + 1
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let t = ModeTable::new(&DramGeometry::tiny());
        let _ = t.mode_of(0, 64);
    }
}
