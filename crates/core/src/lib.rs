//! Core architecture model for **CLR-DRAM** (Capacity-Latency-Reconfigurable
//! DRAM), the ISCA 2020 proposal by Luo et al.
//!
//! CLR-DRAM extends a density-optimized open-bitline DRAM with *bitline mode
//! select* isolation transistors so that **any row** can be dynamically
//! reconfigured between two operating modes:
//!
//! * [`RowMode::MaxCapacity`] — every cell and sense amplifier (SA) operates
//!   individually, matching commodity density, and
//! * [`RowMode::HighPerformance`] — every two adjacent cells in the row and
//!   their two SAs couple into a single low-latency logical cell driven by a
//!   single, stronger logical SA, halving row capacity but dramatically
//!   reducing tRCD, tRAS, tRP, tWR, and refresh cost.
//!
//! This crate holds the *architectural* model shared by the whole
//! reproduction:
//!
//! * [`geometry`] — DRAM organization (channels/ranks/bank groups/banks/
//!   rows/columns) and capacity math,
//! * [`addr`] — physical-address ↔ DRAM-coordinate interleaving schemes,
//! * [`timing`] — nanosecond timing-parameter sets for each operating mode,
//!   including the early-termination and extended-refresh variants,
//! * [`mode`] — per-row operating-mode tables kept by the memory controller,
//! * [`iso`] — the ISO1/ISO2 isolation-transistor control model of §3.3 and
//!   the cell/SA connectivity it produces,
//! * [`mapping`] — the profile-guided hot-page → high-performance-row
//!   placement policy used by the paper's evaluation,
//! * [`capacity`] — capacity/area overhead accounting of §6,
//! * [`refresh`] — heterogeneous refresh planning of §3.6/§5.2,
//! * [`paper`] — published reference numbers used for comparison output,
//! * [`par`] — the workspace's one job-parallel mechanism: Monte-Carlo
//!   samples, figure runs, sweep cells, fleet instances and the threaded
//!   channel walk fan out on its scoped loop.
//!
//! # Example
//!
//! ```
//! use clr_core::geometry::DramGeometry;
//! use clr_core::mode::{ModeTable, RowMode};
//! use clr_core::timing::ClrTimings;
//!
//! let geom = DramGeometry::ddr4_16gb_x8();
//! let mut modes = ModeTable::new(&geom);
//! // Reconfigure the hottest quarter of each bank's rows for low latency.
//! modes.set_fraction_high_performance(0.25);
//! assert!((modes.fraction_high_performance() - 0.25).abs() < 1e-3);
//!
//! let timings = ClrTimings::from_circuit_defaults();
//! let hp = timings.for_mode(RowMode::HighPerformance);
//! let base = timings.baseline();
//! assert!(hp.t_rcd_ns < 0.5 * base.t_rcd_ns);
//! ```
//!
//! [`RowMode::MaxCapacity`]: mode::RowMode::MaxCapacity
//! [`RowMode::HighPerformance`]: mode::RowMode::HighPerformance

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod capacity;
pub mod error;
pub mod geometry;
pub mod iso;
pub mod mapping;
pub mod mode;
pub mod paper;
pub mod par;
pub mod refresh;
pub mod timing;

pub use addr::{AddressMapping, DramAddr, PhysAddr};
pub use error::CoreError;
pub use geometry::DramGeometry;
pub use mode::{ModeTable, RowMode};
pub use timing::{ClrTimings, TimingParams};
