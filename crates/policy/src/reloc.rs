//! The relocation engine: models the data-movement cost of coupling and
//! decoupling rows at runtime.
//!
//! Switching a row from max-capacity to high-performance mode halves its
//! usable capacity: the data held by the cells that will be coupled away
//! must first migrate elsewhere — half a row of reads plus half a row of
//! writes behind an activate/precharge pair, overlapped across banks.
//! Switching *back* is free at the device level: a coupled logical cell
//! drives both physical cells, so after decoupling each cell still holds
//! the stored bit and the regained half-row is simply handed to the OS as
//! a fresh (zero-fill-on-demand) frame. Coupling is therefore the only
//! priced direction.
//!
//! The engine turns a transition batch into a [`RelocationCost`] the
//! simulator charges as controller stall cycles, and the hysteresis policy
//! consults to decide whether a promotion pays for itself.

use crate::policy::RowTransition;

/// Where the migration engine places a coupling's destination frame —
/// the policy-side mirror of the memory system's destination picker,
/// so the relocation cost model prices what the engine actually does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DestinationSpread {
    /// Destination frames share the source's bank: the read-out and
    /// write-back serialize on one row buffer, paying both row-overhead
    /// windows back to back.
    #[default]
    SameBank,
    /// Destination frames sit in other banks of the same channel: the
    /// write-back's ACT/tRCD window hides under the read-out's burst
    /// train, so each coupling pays one row-overhead window instead of
    /// two.
    CrossBank,
    /// Cross-bank couplings plus the system-level cross-channel frame
    /// rebalancer. Coupling costs price as cross-bank; the rebalancer's
    /// whole-row moves are separately metered background traffic.
    CrossChannel,
}

impl DestinationSpread {
    /// Whether the write-back overlaps the read-out (any non-same-bank
    /// spread).
    pub fn overlaps_phases(&self) -> bool {
        !matches!(self, DestinationSpread::SameBank)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DestinationSpread::SameBank => "same-bank",
            DestinationSpread::CrossBank => "cross-bank",
            DestinationSpread::CrossChannel => "cross-channel",
        }
    }
}

/// Cost parameters of one row relocation, in DRAM cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationParams {
    /// Bytes per DRAM row (per bank).
    pub row_bytes: u64,
    /// Bytes transferred per column burst.
    pub burst_bytes: u64,
    /// DRAM cycles per column burst (column-to-column cadence).
    pub cycles_per_burst: u64,
    /// Fixed activate + precharge overhead per row touched.
    pub row_overhead_cycles: u64,
    /// How much of the movement hides behind bank-level parallelism: the
    /// controller relocates across idle banks, so the *channel-blocking*
    /// cost is `cycles_per_row / bank_parallelism`. 1 = fully serialized.
    pub bank_parallelism: u64,
    /// Destination placement the engine runs under (see
    /// [`DestinationSpread`]): cross-bank overlap halves the per-row
    /// row-overhead term.
    pub spread: DestinationSpread,
}

impl RelocationParams {
    /// Paper-configuration defaults: 8 KiB rows, 64 B bursts at 4-cycle
    /// cadence (tCCD_L at DDR4-2400), ~60 cycles of ACT/PRE overhead.
    pub fn ddr4_default() -> Self {
        RelocationParams {
            row_bytes: 8 * 1024,
            burst_bytes: 64,
            cycles_per_burst: 4,
            row_overhead_cycles: 60,
            bank_parallelism: 16,
            spread: DestinationSpread::SameBank,
        }
    }

    /// Parameters for a given row/burst size, keeping default cadences.
    pub fn for_geometry(row_bytes: u64, burst_bytes: u64) -> Self {
        RelocationParams {
            row_bytes,
            burst_bytes: burst_bytes.max(1),
            ..Self::ddr4_default()
        }
    }

    /// The same parameters re-priced for a destination placement.
    #[must_use]
    pub fn with_spread(mut self, spread: DestinationSpread) -> Self {
        self.spread = spread;
        self
    }

    /// Column bursts needed per migration phase: the half-row a single
    /// coupling displaces, at one burst per column access. This is the
    /// unit the background relocation engine's per-row jobs are generated
    /// from — each job streams `bursts_per_row()` RDs out and the same
    /// number of WRs back (`clr_memsim::migrate` sizes its jobs with the
    /// same formula).
    pub fn bursts_per_row(&self) -> u64 {
        (self.row_bytes / 2).div_ceil(self.burst_bytes)
    }

    /// Raw DRAM cycles to relocate the half-row a single transition
    /// moves, before bank-parallel overlap.
    pub fn cycles_per_row(&self) -> u64 {
        // Data is read from the reconfigured row and written to its new
        // frame: two bursts of bus time per chunk plus row overhead on
        // both ends — or on *one* end under cross-bank placement, where
        // the destination's ACT/tRCD window hides under the read-out
        // burst train and the write bursts chase the reads with no
        // inter-phase gap (measured behavior of the two-bank engine).
        let overhead_windows = if self.spread.overlaps_phases() { 1 } else { 2 };
        self.row_overhead_cycles * overhead_windows
            + self.bursts_per_row() * self.cycles_per_burst * 2
    }

    /// Channel (data-bus) cycles one relocated row's bursts occupy: the
    /// half-row crosses the channel once out and once back, and column
    /// bursts serialize channel-wide at the burst cadence (tCCD) no
    /// matter how many banks work in parallel.
    pub fn bus_cycles_per_row(&self) -> u64 {
        self.bursts_per_row() * self.cycles_per_burst * 2
    }

    /// Marginal channel-blocking cycles per relocated row when a full
    /// bank-parallel wave is in flight — the cost a policy weighs one
    /// more promotion against. Bank parallelism hides the ACT/PRE
    /// row-overhead windows behind other banks' bursts, but the burst
    /// traffic itself serializes on the channel, so the marginal row can
    /// never cost less than [`RelocationParams::bus_cycles_per_row`].
    /// Batch totals are priced by [`RelocationEngine::cost_of`]; a lone
    /// row still pays [`RelocationParams::cycles_per_row`] in full.
    pub fn effective_cycles_per_row(&self) -> u64 {
        (self.cycles_per_row() / self.bank_parallelism.max(1))
            .max(self.bus_cycles_per_row())
            .max(1)
    }

    /// Bank-parallel waves needed to couple `total` rows of which at
    /// most `max_in_one_bank` share a single bank. Rows in the same bank
    /// serialize (a bank cannot overlap with itself); across banks the
    /// channel bounds throughput at `bank_parallelism` rows per wave.
    pub fn coupling_waves(&self, total: u64, max_in_one_bank: u64) -> u64 {
        max_in_one_bank.max(total.div_ceil(self.bank_parallelism.max(1)))
    }

    /// Total channel-blocking cycles to couple `total` rows with at most
    /// `max_in_one_bank` in a single bank: the row-overhead windows
    /// overlap across banks (wave-priced), but every burst still crosses
    /// the one channel — whichever bound binds is the cost. This is the
    /// command-accurate price the background migration engine's real
    /// command stream converges to, so stall-mode runs charged with it
    /// are an honest baseline for the stall-vs-background comparison.
    pub fn batch_cycles(&self, total: u64, max_in_one_bank: u64) -> u64 {
        if total == 0 {
            return 0;
        }
        let waves = self.coupling_waves(total, max_in_one_bank);
        (waves * self.cycles_per_row()).max(total * self.bus_cycles_per_row())
    }
}

/// Aggregate cost of a transition batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelocationCost {
    /// Rows switched max-capacity → high-performance.
    pub rows_coupled: u64,
    /// Rows switched high-performance → max-capacity.
    pub rows_decoupled: u64,
    /// Bytes of data migrated.
    pub bytes_moved: u64,
    /// Total DRAM cycles of relocation work.
    pub dram_cycles: u64,
}

impl RelocationCost {
    /// Component-wise sum.
    #[must_use]
    pub fn merged(&self, other: &RelocationCost) -> RelocationCost {
        RelocationCost {
            rows_coupled: self.rows_coupled + other.rows_coupled,
            rows_decoupled: self.rows_decoupled + other.rows_decoupled,
            bytes_moved: self.bytes_moved + other.bytes_moved,
            dram_cycles: self.dram_cycles + other.dram_cycles,
        }
    }
}

/// Computes relocation costs for transition batches.
#[derive(Debug, Clone, Copy)]
pub struct RelocationEngine {
    params: RelocationParams,
}

impl RelocationEngine {
    /// An engine with the given cost parameters.
    pub fn new(params: RelocationParams) -> Self {
        RelocationEngine { params }
    }

    /// The cost parameters in use.
    pub fn params(&self) -> &RelocationParams {
        &self.params
    }

    /// Cost of applying `transitions` (each assumed to be a real mode
    /// change; no-ops must be filtered by the caller).
    pub fn cost_of(&self, transitions: &[RowTransition]) -> RelocationCost {
        use clr_core::mode::RowMode;
        let mut per_bank: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let mut coupled = 0u64;
        for t in transitions {
            if t.to == RowMode::HighPerformance {
                coupled += 1;
                *per_bank.entry(t.row.bank).or_insert(0) += 1;
            }
        }
        let decoupled = transitions.len() as u64 - coupled;
        // Only coupling moves data; decoupling is bookkeeping (see the
        // module docs). Row overheads overlap across *distinct* banks
        // (wave-priced; same-bank rows serialize, and a batch smaller
        // than one wave still pays a full serialized row), but burst
        // traffic serializes on the channel regardless of banking.
        let max_in_one_bank = per_bank.values().copied().max().unwrap_or(0);
        RelocationCost {
            rows_coupled: coupled,
            rows_decoupled: decoupled,
            bytes_moved: coupled * (self.params.row_bytes / 2),
            dram_cycles: self.params.batch_cycles(coupled, max_in_one_bank),
        }
    }
}

impl Default for RelocationEngine {
    fn default() -> Self {
        RelocationEngine::new(RelocationParams::ddr4_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RowId;
    use clr_core::mode::RowMode;

    #[test]
    fn cost_scales_linearly_with_rows() {
        let e = RelocationEngine::default();
        let up = RowTransition {
            row: RowId::new(0, 0),
            to: RowMode::HighPerformance,
        };
        let down = RowTransition {
            row: RowId::new(0, 1),
            to: RowMode::MaxCapacity,
        };
        let up_other_bank = RowTransition {
            row: RowId::new(1, 0),
            to: RowMode::HighPerformance,
        };
        let one = e.cost_of(&[up]);
        let three = e.cost_of(&[up, down, up_other_bank]);
        assert_eq!((one.rows_coupled, one.rows_decoupled), (1, 0));
        assert_eq!(three.rows_coupled, 2);
        assert_eq!(three.rows_decoupled, 1);
        // Decoupling is free; a lone coupling pays the full serialized
        // row cost (the overhead windows have nothing to hide behind).
        assert_eq!(one.dram_cycles, e.params().cycles_per_row());
        // Two couplings in distinct banks overlap their row overheads,
        // but both half-rows still cross the one channel.
        assert_eq!(three.dram_cycles, 2 * e.params().bus_cycles_per_row());
        assert_eq!(three.bytes_moved, 2 * one.bytes_moved);
        assert_eq!(e.cost_of(&[down]).dram_cycles, 0);
        // Rows in one bank cannot overlap with themselves: 33 couplings
        // of the same bank serialize into 33 waves (which dominates the
        // channel bound).
        let same_bank: Vec<RowTransition> = (0..33)
            .map(|r| RowTransition {
                row: RowId::new(0, r),
                to: RowMode::HighPerformance,
            })
            .collect();
        assert_eq!(
            e.cost_of(&same_bank).dram_cycles,
            33 * e.params().cycles_per_row()
        );
        // Spread evenly over 16 banks, 32 rows need only two waves of
        // row overhead — the channel's burst serialization is what binds.
        let spread: Vec<RowTransition> = (0..32)
            .map(|r| RowTransition {
                row: RowId::new(r % 16, r),
                to: RowMode::HighPerformance,
            })
            .collect();
        assert_eq!(
            e.cost_of(&spread).dram_cycles,
            32 * e.params().bus_cycles_per_row()
        );
    }

    #[test]
    fn half_row_of_bursts_plus_overhead() {
        let p = RelocationParams::ddr4_default();
        // 4 KiB to move at 64 B per burst = 64 bursts; ×4 cycles ×2 (rd+wr).
        assert_eq!(p.bursts_per_row(), 64);
        assert_eq!(p.cycles_per_row(), 120 + 64 * 4 * 2);
        assert_eq!(p.bus_cycles_per_row(), 64 * 4 * 2);
        // The marginal row is channel-bound: overheads hide behind other
        // banks, burst time does not.
        assert_eq!(p.effective_cycles_per_row(), p.bus_cycles_per_row());
        let serial = RelocationParams {
            bank_parallelism: 1,
            ..p
        };
        assert_eq!(serial.effective_cycles_per_row(), serial.cycles_per_row());
        // batch_cycles: zero rows cost nothing; the two bounds cross over
        // as banking stops helping.
        assert_eq!(p.batch_cycles(0, 0), 0);
        assert_eq!(p.batch_cycles(1, 1), p.cycles_per_row());
        assert_eq!(p.batch_cycles(16, 1), 16 * p.bus_cycles_per_row());
    }

    #[test]
    fn cross_bank_spread_pays_one_overhead_window() {
        let same = RelocationParams::ddr4_default();
        let cross = same.with_spread(DestinationSpread::CrossBank);
        // The burst traffic is identical; only the serialized ACT/PRE
        // windows collapse from two to one.
        assert_eq!(
            same.cycles_per_row() - cross.cycles_per_row(),
            same.row_overhead_cycles
        );
        assert_eq!(same.bus_cycles_per_row(), cross.bus_cycles_per_row());
        // Cross-channel couplings price like cross-bank (the rebalancer's
        // frame moves are metered separately).
        let xc = same.with_spread(DestinationSpread::CrossChannel);
        assert_eq!(xc.cycles_per_row(), cross.cycles_per_row());
        // A serialized (1-bank) engine still feels the full win per row.
        let serial_same = RelocationParams {
            bank_parallelism: 1,
            ..same
        };
        let serial_cross = RelocationParams {
            bank_parallelism: 1,
            ..cross
        };
        assert!(serial_cross.effective_cycles_per_row() < serial_same.effective_cycles_per_row());
        // Wave pricing inherits the cheaper rows: a same-bank-source
        // batch of 33 rows saves 33 overhead windows.
        assert_eq!(
            same.batch_cycles(33, 33) - cross.batch_cycles(33, 33),
            33 * same.row_overhead_cycles
        );
        assert_eq!(DestinationSpread::default(), DestinationSpread::SameBank);
        assert_eq!(DestinationSpread::CrossChannel.label(), "cross-channel");
        assert!(!DestinationSpread::SameBank.overlaps_phases());
    }
}
