//! The DDR4 timing-constraint engine.
//!
//! Ramulator encodes inter-command constraints as static per-command
//! timing tables. CLR-DRAM needs *per-row* analog timings, so this engine
//! instead keeps explicit "earliest issue cycle" registers at bank, bank
//! group, rank, and channel scope, updated as commands issue with the
//! timing set of the target row's operating mode. The covered constraints
//! are the full single-rank DDR4 set used by the paper's configuration:
//!
//! | constraint | scope |
//! |---|---|
//! | tRCD, tRAS, tRP, tRC, tRTP, write recovery (tWR), refresh (tRFC) | bank |
//! | tCCD_L, tWTR_L | bank group |
//! | tRRD_S/L, tFAW, tWTR_S, REF blocking | rank |
//! | tCCD_S, read↔write bus turnaround | channel |

use clr_core::mode::RowMode;

use crate::bankstate::BankSet;
use crate::command::Command;
use crate::cycletimings::CycleTimings;

/// Coordinates a command targets, pre-flattened for indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Flat bank index (unique across the whole system).
    pub bank: usize,
    /// Flat bank-group index.
    pub bank_group: usize,
    /// Flat rank index.
    pub rank: usize,
    /// Channel index.
    pub channel: usize,
    /// Operating mode of the targeted row.
    pub mode: RowMode,
}

/// The registers issued commands moved since the last
/// [`TimingEngine::take_touched`]: the banks whose own registers moved,
/// and the command classes (one [`Command::index`] bit each) whose
/// shared registers moved for every bank. A queued request priced for
/// `cmd` on `bank` may wait a different time only if
/// [`Touched::covers`] says so.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Touched {
    /// Banks whose own registers moved.
    pub banks: BankSet,
    /// Command classes whose shared registers moved on every bank.
    pub commands: u8,
}

impl Touched {
    /// `cmd`'s bit in [`Touched::commands`].
    pub fn bit(cmd: Command) -> u8 {
        1 << cmd.index()
    }

    /// Whether `cmd` on `bank` may have moved, given as its
    /// [`Touched::bit`] (0 for a wait no register moves).
    pub fn covers(self, bank: usize, bit: u8) -> bool {
        self.banks.contains(bank) || self.commands & bit != 0
    }
}

/// Earliest-issue-time registers for every command scope.
#[derive(Debug, Clone)]
pub struct TimingEngine {
    timings: CycleTimings,
    banks_per_group_total: Vec<usize>, // flat bank -> flat bank group
    bank_to_rank: Vec<usize>,          // flat bank -> flat rank
    bank_to_channel: Vec<usize>,       // flat bank -> channel
    /// earliest[bank][command]
    bank_earliest: Vec<[u64; Command::COUNT]>,
    /// earliest[rank][command]
    rank_earliest: Vec<[u64; Command::COUNT]>,
    /// tCCD_L / tWTR_L anchors per flat bank group.
    bg_col_earliest: Vec<u64>,
    bg_rd_earliest: Vec<u64>,
    /// tCCD_S anchor per channel (any column command).
    chan_col_earliest: Vec<u64>,
    /// Read→write turnaround anchor per channel.
    chan_wr_earliest: Vec<u64>,
    /// Sliding window of the last 4 ACT cycles per rank (tFAW).
    faw_window: Vec<Vec<u64>>,
    /// Commands issued so far (see [`TimingEngine::issued`]).
    issued: u64,
    /// What issues moved since the last [`TimingEngine::take_touched`].
    touched: Touched,
}

impl TimingEngine {
    /// Creates an engine for `banks` flat banks distributed over
    /// `bank_groups` flat bank groups, `ranks` flat ranks and `channels`
    /// channels; `layout(bank) = (bank_group, rank)` must be provided
    /// via the layout closure (ranks are split evenly over channels).
    ///
    /// # Panics
    ///
    /// Panics if `banks` exceeds [`BankSet::CAPACITY`].
    pub fn new(
        timings: CycleTimings,
        banks: usize,
        bank_groups: usize,
        ranks: usize,
        channels: usize,
        layout: impl Fn(usize) -> (usize, usize),
    ) -> Self {
        BankSet::assert_fits(banks);
        let mut banks_per_group_total = vec![0; banks];
        let mut bank_to_rank = vec![0; banks];
        let mut bank_to_channel = vec![0; banks];
        let ranks_per_channel = (ranks / channels.max(1)).max(1);
        for b in 0..banks {
            let (bg, r) = layout(b);
            banks_per_group_total[b] = bg;
            bank_to_rank[b] = r;
            bank_to_channel[b] = r / ranks_per_channel;
        }
        TimingEngine {
            timings,
            banks_per_group_total,
            bank_to_rank,
            bank_to_channel,
            bank_earliest: vec![[0; Command::COUNT]; banks],
            rank_earliest: vec![[0; Command::COUNT]; ranks],
            bg_col_earliest: vec![0; bank_groups],
            bg_rd_earliest: vec![0; bank_groups],
            chan_col_earliest: vec![0; channels],
            chan_wr_earliest: vec![0; channels],
            faw_window: vec![Vec::new(); ranks],
            issued: 0,
            touched: Touched::default(),
        }
    }

    /// What issues moved since the last call, resetting it.
    pub fn take_touched(&mut self) -> Touched {
        std::mem::take(&mut self.touched)
    }

    /// Commands issued so far. Registers change only at an issue, so an
    /// unchanged count means every earliest-issue cycle is unchanged.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The constraint set driving this engine.
    pub fn timings(&self) -> &CycleTimings {
        &self.timings
    }

    /// Earliest cycle at which `cmd` may issue to `target`.
    pub fn earliest(&self, cmd: Command, target: Target) -> u64 {
        let Target {
            bank,
            bank_group,
            rank,
            channel,
            ..
        } = target;
        self.earliest_at(cmd, bank, bank_group, rank, channel)
    }

    /// [`TimingEngine::earliest`] for `cmd` on `bank`, located through
    /// the engine's own layout. It is what every request to the bank
    /// waits for that command, whatever its row or mode: mode-dependent
    /// windows enter the registers at issue. The scheduler prices its
    /// per-bank candidates this way without loading a queue entry.
    pub fn earliest_in_bank(&self, cmd: Command, bank: usize) -> u64 {
        self.earliest_at(
            cmd,
            bank,
            self.banks_per_group_total[bank],
            self.bank_to_rank[bank],
            self.bank_to_channel[bank],
        )
    }

    fn earliest_at(&self, cmd: Command, b: usize, g: usize, r: usize, c: usize) -> u64 {
        let mut t = self.bank_earliest[b][cmd.index()].max(self.rank_earliest[r][cmd.index()]);
        match cmd {
            Command::Rd => {
                t = t
                    .max(self.chan_col_earliest[c])
                    .max(self.bg_col_earliest[g])
                    .max(self.bg_rd_earliest[g]);
            }
            Command::Wr => {
                t = t
                    .max(self.chan_col_earliest[c])
                    .max(self.bg_col_earliest[g])
                    .max(self.chan_wr_earliest[c]);
            }
            _ => {}
        }
        t
    }

    /// Whether `cmd` may issue to `target` at cycle `now`.
    pub fn can_issue(&self, cmd: Command, target: Target, now: u64) -> bool {
        self.earliest(cmd, target) <= now
    }

    /// The bank-scope component of [`TimingEngine::earliest`] for `cmd`
    /// on `bank`: the bank's own tRCD/tRP/tRAS/tRC window with no
    /// rank/bus serialization included. The blame layer compares it to
    /// the full bound to decide whether a wait is the bank's own timing
    /// (row conflict, bank busy) or cross-bank serialization.
    pub fn bank_gate(&self, cmd: Command, bank: usize) -> u64 {
        self.bank_earliest[bank][cmd.index()]
    }

    /// Records the issue of `cmd` at cycle `now` and updates every affected
    /// earliest-issue register.
    ///
    /// For [`Command::Ref`], `target.mode` selects the refresh stream's
    /// tRFC (max-capacity vs high-performance bundle).
    ///
    /// # Panics
    ///
    /// Panics if the command violates a timing constraint — the engine is
    /// the protocol auditor of the whole simulator.
    pub fn issue(&mut self, cmd: Command, target: Target, now: u64) {
        assert!(
            self.can_issue(cmd, target, now),
            "timing violation: {cmd} @ {now} < earliest {}",
            self.earliest(cmd, target)
        );
        self.issued += 1;
        let m = *self.timings.for_mode(target.mode);
        let ct = &self.timings;
        let b = target.bank;
        let r = target.rank;
        let g = target.bank_group;
        let c = target.channel;
        // The touched marks follow the register writes below: an ACT
        // moves its bank and, through tRRD and tFAW, every ACT; a PRE
        // its bank; a column command its bank and, through tCCD, the
        // turnarounds and tWTR, every RD and WR; a REF every ACT.
        match cmd {
            Command::Act => {
                self.touched.banks.insert(b);
                self.touched.commands |= Touched::bit(Command::Act);
            }
            Command::Pre => self.touched.banks.insert(b),
            Command::Rd | Command::Wr => {
                self.touched.banks.insert(b);
                self.touched.commands |= Touched::bit(Command::Rd) | Touched::bit(Command::Wr);
            }
            Command::Ref => self.touched.commands |= Touched::bit(Command::Act),
        }
        match cmd {
            Command::Act => {
                let be = &mut self.bank_earliest[b];
                be[Command::Rd.index()] = be[Command::Rd.index()].max(now + m.rcd);
                be[Command::Wr.index()] = be[Command::Wr.index()].max(now + m.rcd);
                be[Command::Pre.index()] = be[Command::Pre.index()].max(now + m.ras);
                be[Command::Act.index()] = be[Command::Act.index()].max(now + m.rc());
                // tRRD to sibling banks of the same rank.
                for b2 in 0..self.bank_earliest.len() {
                    if b2 == b || self.bank_to_rank[b2] != r {
                        continue;
                    }
                    let dist = if self.banks_per_group_total[b2] == g {
                        ct.rrd_l
                    } else {
                        ct.rrd_s
                    };
                    let e = &mut self.bank_earliest[b2][Command::Act.index()];
                    *e = (*e).max(now + dist);
                }
                // tFAW: rank-wide window of 4 activates.
                let w = &mut self.faw_window[r];
                w.push(now);
                if w.len() > 4 {
                    w.remove(0);
                }
                if w.len() == 4 {
                    let e = &mut self.rank_earliest[r][Command::Act.index()];
                    *e = (*e).max(w[0] + ct.faw);
                }
                // Refresh requires all banks idle; an open row must be
                // precharged first, so no direct ACT→REF register is
                // needed (the controller closes banks before REF).
            }
            Command::Pre => {
                let e = &mut self.bank_earliest[b][Command::Act.index()];
                *e = (*e).max(now + m.rp);
                let e = &mut self.rank_earliest[r][Command::Ref.index()];
                *e = (*e).max(now + m.rp);
            }
            Command::Rd => {
                self.chan_col_earliest[c] = self.chan_col_earliest[c].max(now + ct.ccd_s);
                self.bg_col_earliest[g] = self.bg_col_earliest[g].max(now + ct.ccd_l);
                self.chan_wr_earliest[c] = self.chan_wr_earliest[c].max(now + ct.rtw);
                let e = &mut self.bank_earliest[b][Command::Pre.index()];
                *e = (*e).max(now + ct.rtp);
            }
            Command::Wr => {
                self.chan_col_earliest[c] = self.chan_col_earliest[c].max(now + ct.ccd_s);
                self.bg_col_earliest[g] = self.bg_col_earliest[g].max(now + ct.ccd_l);
                // Write-to-read turnarounds count from the end of data.
                let data_end = now + ct.cwl + ct.burst;
                let e = &mut self.rank_earliest[r][Command::Rd.index()];
                *e = (*e).max(data_end + ct.wtr_s);
                self.bg_rd_earliest[g] = self.bg_rd_earliest[g].max(data_end + ct.wtr_l);
                // Write recovery before precharge.
                let e = &mut self.bank_earliest[b][Command::Pre.index()];
                *e = (*e).max(data_end + m.wr);
            }
            Command::Ref => {
                let rfc = m.rfc;
                let re = &mut self.rank_earliest[r];
                re[Command::Act.index()] = re[Command::Act.index()].max(now + rfc);
                re[Command::Ref.index()] = re[Command::Ref.index()].max(now + rfc);
            }
        }
    }

    /// Cycle at which read data for an RD issued at `now` has fully
    /// arrived.
    pub fn read_done(&self, now: u64) -> u64 {
        now + self.timings.cl + self.timings.burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_core::timing::{ClrTimings, InterfaceTimings};

    fn engine() -> TimingEngine {
        let t = ClrTimings::from_circuit_defaults();
        let i = InterfaceTimings::ddr4_2400();
        let ct = CycleTimings::new(&t, t.for_mode(RowMode::HighPerformance), &i);
        // 2 bank groups × 2 banks, 1 rank, 1 channel.
        TimingEngine::new(ct, 4, 2, 1, 1, |b| (b / 2, 0))
    }

    fn tgt(bank: usize, mode: RowMode) -> Target {
        Target {
            bank,
            bank_group: bank / 2,
            rank: 0,
            channel: 0,
            mode,
        }
    }

    #[test]
    fn act_to_read_respects_trcd_per_mode() {
        let mut e = engine();
        let mc = tgt(0, RowMode::MaxCapacity);
        e.issue(Command::Act, mc, 0);
        let rcd_mc = e.timings().max_capacity.rcd;
        assert_eq!(e.earliest(Command::Rd, mc), rcd_mc);

        let hp = tgt(2, RowMode::HighPerformance);
        e.issue(Command::Act, hp, 100);
        let rcd_hp = e.timings().high_performance.rcd;
        assert_eq!(e.earliest(Command::Rd, hp), 100 + rcd_hp);
        assert!(rcd_hp < rcd_mc);
    }

    #[test]
    fn ras_and_rp_gate_the_row_cycle() {
        let mut e = engine();
        let t = tgt(0, RowMode::MaxCapacity);
        e.issue(Command::Act, t, 0);
        let ras = e.timings().max_capacity.ras;
        let rp = e.timings().max_capacity.rp;
        assert_eq!(e.earliest(Command::Pre, t), ras);
        e.issue(Command::Pre, t, ras);
        assert_eq!(e.earliest(Command::Act, t), ras + rp);
    }

    #[test]
    #[should_panic(expected = "timing violation")]
    fn early_read_panics() {
        let mut e = engine();
        let t = tgt(0, RowMode::MaxCapacity);
        e.issue(Command::Act, t, 0);
        e.issue(Command::Rd, t, 1);
    }

    #[test]
    fn rrd_separates_activates_by_bank_group() {
        let mut e = engine();
        e.issue(Command::Act, tgt(0, RowMode::MaxCapacity), 0);
        // Same bank group (bank 1): tRRD_L; different group (bank 2): tRRD_S.
        assert_eq!(
            e.earliest(Command::Act, tgt(1, RowMode::MaxCapacity)),
            e.timings().rrd_l
        );
        assert_eq!(
            e.earliest(Command::Act, tgt(2, RowMode::MaxCapacity)),
            e.timings().rrd_s
        );
    }

    #[test]
    fn faw_blocks_fifth_activate() {
        let mut e = engine();
        let mut now = 0;
        for b in 0..4 {
            let t = tgt(b, RowMode::MaxCapacity);
            now = now.max(e.earliest(Command::Act, t));
            e.issue(Command::Act, t, now);
        }
        // Reopening bank 0 needs tRC anyway; but the rank-level FAW anchor
        // must also be set from the first ACT.
        let first_act = 0;
        let t0 = tgt(0, RowMode::MaxCapacity);
        assert!(e.earliest(Command::Act, t0) >= first_act + e.timings().faw);
    }

    #[test]
    fn write_recovery_uses_mode_twr() {
        let mut e = engine();
        let hp = tgt(0, RowMode::HighPerformance);
        e.issue(Command::Act, hp, 0);
        let rcd = e.timings().high_performance.rcd;
        e.issue(Command::Wr, hp, rcd);
        let ct = e.timings();
        let data_end = rcd + ct.cwl + ct.burst;
        let expect = data_end + ct.high_performance.wr;
        // PRE is gated by max(tRAS, write recovery).
        assert_eq!(
            e.earliest(Command::Pre, hp),
            expect.max(ct.high_performance.ras)
        );
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut e = engine();
        let a = tgt(0, RowMode::MaxCapacity);
        let b = tgt(2, RowMode::MaxCapacity);
        e.issue(Command::Act, a, 0);
        e.issue(Command::Act, b, e.earliest(Command::Act, b));
        let wr_at = e.earliest(Command::Wr, a);
        e.issue(Command::Wr, a, wr_at);
        let ct = e.timings();
        let data_end = wr_at + ct.cwl + ct.burst;
        // Read in a *different* bank group waits tWTR_S; same group tWTR_L.
        assert!(e.earliest(Command::Rd, b) >= data_end + ct.wtr_s);
        let sibling = tgt(1, RowMode::MaxCapacity);
        assert!(e.earliest(Command::Rd, sibling) >= data_end + ct.wtr_l);
    }

    #[test]
    fn refresh_blocks_rank_for_stream_rfc() {
        let mut e = engine();
        let hp = tgt(0, RowMode::HighPerformance);
        let mc = tgt(0, RowMode::MaxCapacity);
        e.issue(Command::Ref, hp, 0);
        let rfc_hp = e.timings().high_performance.rfc;
        assert_eq!(e.earliest(Command::Act, mc), rfc_hp);
        // A max-capacity refresh afterwards blocks for the full tRFC.
        e.issue(Command::Ref, mc, rfc_hp);
        assert_eq!(
            e.earliest(Command::Act, mc),
            rfc_hp + e.timings().max_capacity.rfc
        );
        assert!(e.timings().high_performance.rfc < e.timings().max_capacity.rfc);
    }

    #[test]
    fn ccd_constraints_by_bank_group() {
        let mut e = engine();
        let a = tgt(0, RowMode::MaxCapacity);
        let sib = tgt(1, RowMode::MaxCapacity);
        let other = tgt(2, RowMode::MaxCapacity);
        e.issue(Command::Act, a, 0);
        e.issue(Command::Act, other, e.earliest(Command::Act, other));
        e.issue(Command::Act, sib, e.earliest(Command::Act, sib));
        let rd_at = e.earliest(Command::Rd, a);
        e.issue(Command::Rd, a, rd_at);
        assert!(e.earliest(Command::Rd, other) >= rd_at + e.timings().ccd_s);
        assert!(e.earliest(Command::Rd, sib) >= rd_at + e.timings().ccd_l);
    }

    #[test]
    fn rank_constraints_do_not_cross_ranks() {
        // Two ranks of 2 bank groups x 2 banks: tRRD and tFAW are
        // per-rank; an ACT in rank 0 must not delay rank 1.
        let t = ClrTimings::from_circuit_defaults();
        let i = InterfaceTimings::ddr4_2400();
        let ct = CycleTimings::new(&t, t.for_mode(RowMode::HighPerformance), &i);
        let mut e = TimingEngine::new(ct, 8, 4, 2, 1, |b| (b / 2, b / 4));
        let r0 = Target {
            bank: 0,
            bank_group: 0,
            rank: 0,
            channel: 0,
            mode: RowMode::MaxCapacity,
        };
        let r1 = Target {
            bank: 4,
            bank_group: 2,
            rank: 1,
            channel: 0,
            mode: RowMode::MaxCapacity,
        };
        e.issue(Command::Act, r0, 0);
        assert_eq!(
            e.earliest(Command::Act, r1),
            0,
            "cross-rank ACT must not be delayed by tRRD"
        );
        // Fill rank 0's FAW window; rank 1 stays unconstrained.
        let mut now = 1;
        for b in 1..4 {
            let t0 = Target {
                bank: b,
                bank_group: b / 2,
                rank: 0,
                channel: 0,
                mode: RowMode::MaxCapacity,
            };
            now = now.max(e.earliest(Command::Act, t0));
            e.issue(Command::Act, t0, now);
            now += 1;
        }
        assert_eq!(e.earliest(Command::Act, r1), 0, "tFAW is per rank");
    }

    #[test]
    fn bank_pricing_matches_target_pricing() {
        // Two channels of two ranks of 2 groups × 2 banks: pricing by
        // bank index alone must read the registers a full target reads.
        let t = ClrTimings::from_circuit_defaults();
        let i = InterfaceTimings::ddr4_2400();
        let ct = CycleTimings::new(&t, t.for_mode(RowMode::HighPerformance), &i);
        let mut e = TimingEngine::new(ct, 16, 8, 4, 2, |b| (b / 2, b / 4));
        let target = |bank: usize| Target {
            bank,
            bank_group: bank / 2,
            rank: bank / 4,
            channel: bank / 8,
            mode: RowMode::MaxCapacity,
        };
        let mut now = 0;
        for (cmd, bank) in [
            (Command::Act, 0),
            (Command::Act, 9),
            (Command::Act, 5),
            (Command::Rd, 0),
            (Command::Wr, 9),
            (Command::Act, 14),
            (Command::Rd, 5),
            (Command::Pre, 0),
        ] {
            now = now.max(e.earliest(cmd, target(bank)));
            e.issue(cmd, target(bank), now);
            for b in 0..16 {
                for c in [Command::Act, Command::Pre, Command::Rd, Command::Wr] {
                    assert_eq!(
                        e.earliest_in_bank(c, b),
                        e.earliest(c, target(b)),
                        "{c} on bank {b} after {cmd} on bank {bank}"
                    );
                }
            }
        }
    }

    #[test]
    fn read_done_includes_cas_and_burst() {
        let e = engine();
        assert_eq!(e.read_done(100), 100 + e.timings().cl + e.timings().burst);
    }
}
