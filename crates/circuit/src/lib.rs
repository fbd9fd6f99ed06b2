//! Transient circuit simulation of CLR-DRAM's subarray (the paper's SPICE
//! layer, §7).
//!
//! The paper derives Table 1 and Figures 7/8/11 from HSPICE runs over a
//! Rambus-derived DRAM array model with PTM 22 nm transistors. This crate
//! rebuilds that layer from scratch:
//!
//! * [`matrix`] — pattern-aware LU: partial pivoting that visits only the
//!   positions a row/column bitset pattern marks as possibly nonzero, so a
//!   solve costs about its nonzeros' worth of multiply-adds (a few hundred
//!   for a subarray netlist) instead of n³/3, and returns dense
//!   elimination's solution bit for bit; and its compiled replay
//!   ([`matrix::Schedule`]), the same elimination flattened into index
//!   lists for one pattern and pivot order, which does the same
//!   operations in the same order without row swaps or bitset walks,
//! * [`devices`] — resistor/capacitor/MOSFET (square-law, symmetric
//!   source/drain) companion models,
//! * [`netlist`] — circuit construction,
//! * [`transient`] — backward-Euler + Newton–Raphson transient engine
//!   with externally slewable sources (wordlines, sense enables, ...); the
//!   linear stamps are cached per step size with the elimination their
//!   first solve compiled, so a Newton iteration only copies them, stamps
//!   the MOSFETs and replays (falling back to the pattern LU and
//!   recompiling when the pivot order changes: 9 of nominal Table 1's
//!   42,398 solves),
//! * [`dram`] — subarray netlists for the open-bitline baseline and
//!   CLR-DRAM's max-capacity / high-performance topologies (Figures 4–6),
//! * [`scenario`] — ACT → restore → PRE and write-recovery state machines
//!   with threshold-crossing measurement of tRCD/tRAS/tRP/tWR,
//! * [`timing`] — Table 1 extraction across the four configurations,
//! * [`montecarlo`] — ±5 % process variation, worst-case timing
//!   (§7.1's 10⁴-iteration methodology, iteration count scalable; the
//!   samples are drawn serially and measured over the host's cores),
//! * [`retention`] — cell leakage, the tREFW → initial-charge model, and
//!   the Figure 11 sweep,
//! * [`par`] — the workspace's job-grain parallel map (Monte-Carlo
//!   samples here; figure runs and sweep cells in `clr-sim`).
//!
//! Absolute nanosecond values depend on calibration of the analog
//! parameters ([`params::CircuitParams`]); the experiments therefore
//! report both raw measurements and mode-vs-baseline *ratios*, which are
//! governed by topology (what CLR-DRAM changes) rather than calibration.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod devices;
pub mod dram;
pub mod matrix;
pub mod montecarlo;
pub mod netlist;
pub mod par;
pub mod params;
pub mod retention;
pub mod scenario;
pub mod timing;
pub mod transient;

pub use params::CircuitParams;
pub use timing::{measure_table1, Table1Measurement};
