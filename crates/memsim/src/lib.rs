//! Cycle-accurate DDR4 memory-system model with CLR-DRAM support.
//!
//! This crate is the reproduction's stand-in for the customized Ramulator
//! the paper used (§8.1): a DDR4 bank/bank-group/rank command state machine
//! with a full timing-constraint engine, an FR-FCFS-Cap memory controller
//! with a timeout-based row policy and write-drain watermarks, and all-bank
//! refresh — extended with **per-row CLR-DRAM operating modes** so that
//! every ACT/RD/WR/PRE/REF picks up the timing parameters of the target
//! row's mode, and refresh runs as up to two heterogeneous streams
//! (§3.6/§5.2).
//!
//! The model is trace-driven and data-less: requests carry addresses only.
//! Correctness is defined by the timing protocol, which is enforced by
//! [`engine::TimingEngine`] and audited in tests (issuing a command early
//! is a protocol violation and panics).
//!
//! # Event-driven skip-ahead
//!
//! [`controller::MemoryController::tick`] is the per-cycle reference
//! semantics; everything else is an acceleration of it:
//!
//! * the controller knows the exact cycle of its **next event**
//!   ([`controller::MemoryController::next_event_cycle`]) — the minimum
//!   over earliest timing-engine readiness across queued commands, the
//!   next refresh due time (or a pending refresh's next PRE/REF
//!   readiness), the next in-flight read completion, relocation-stall
//!   expiry, the next background-migration command (job starts, burst
//!   trains, rate-limiter windows — see [`migrate`]), and the next
//!   timeout-policy row close;
//! * [`controller::MemoryController::tick_until`] advances to a target
//!   cycle by jumping dead windows in O(1) and ticking event cycles
//!   normally, and
//!   [`controller::MemoryController::next_completion_bound`] lets a
//!   full-system driver co-jump its CPU domain, since read completions
//!   are the only DRAM→CPU signal.
//!
//! Skip-ahead engages only across windows the event bound proves dead, so
//! an accelerated run is **bit-identical** to the per-cycle reference:
//! same command log, same completion cycles, same statistics. The
//! workspace's differential matrix, `tests/matrix/mod.rs`, enforces
//! exactly that invariant (controller-level, full-system, and
//! policy-epoch runs), and the `perfbench` benchmark measures the
//! wall-clock payoff.
//!
//! # Channel sharding
//!
//! [`system::MemorySystem`] scales the model past one channel: it owns
//! one independent [`controller::MemoryController`] per channel (each
//! with its own mode table, refresh streams, migration engine, and
//! scheduler lanes — no cross-channel locking), routes requests through
//! the address mapping's bijective channel split
//! ([`clr_core::addr::AddressMapping::route`]), and fuses the per-channel
//! exact event bounds (`next_event_cycle` = min over channels) so
//! whole-system skip-ahead stays bit-identical on multi-channel
//! configurations. A 1-channel `MemorySystem` reproduces the bare
//! controller bit for bit.
//!
//! # Capacity directory
//!
//! Where migrated data *lands* is a placement decision ([`frames`]):
//! the legacy same-bank picker serializes a coupling's read-out and
//! write-back on one row buffer; [`frames::DestinationPicker::CrossBank`]
//! places the destination frame in another bank so one job's two sides
//! issue into two banks concurrently; and
//! [`frames::DestinationPicker::CrossChannel`] adds a system-level
//! rebalancer ([`frames::CapacityRebalancer`]) that moves whole frames
//! between channels at epoch boundaries via staged evacuate-out /
//! fill-in jobs. The migration engine ([`migrate`]) therefore runs three
//! job kinds ([`migrate::JobKind`]): the mode-transition coupling and
//! the two halves of a cross-channel frame move. Rows whose contents
//! moved to another bank or channel
//! stay addressable through [`system::RemapTable`] — a row-granular
//! indirection applied after the channel route whose installs compose as
//! transpositions, keeping `remap ∘ route` a bijection with an exact
//! inverse (property-tested in `tests/remap_bijection.rs`). Every new
//! command source (two-bank overlap, data-gated write bursts, staged
//! fills) is priced into `next_event_cycle()`, so skip-ahead stays
//! bit-identical under every placement mode.
//!
//! The per-cycle path itself is kept cheap by per-bank state: bank sets
//! ([`bankstate::BankSet`]) so a controller tick visits only the banks
//! that can act, one FR-FCFS-Cap pass over per-bank lanes in
//! [`scheduler`] whose prices are reused until a command issues or the
//! queue changes, a per-bank mode-lookup cache keyed on the open row,
//! and allocation reuse for telemetry drains.
//!
//! # Example
//!
//! ```
//! use clr_core::addr::PhysAddr;
//! use clr_memsim::config::MemConfig;
//! use clr_memsim::controller::MemoryController;
//! use clr_memsim::request::{MemRequest, RequestKind};
//!
//! let mut mc = MemoryController::new(MemConfig::paper_tiny());
//! mc.try_enqueue(MemRequest::new(0, PhysAddr(0x40), RequestKind::Read, 0))
//!     .unwrap();
//! let mut done = Vec::new();
//! for _ in 0..1000 {
//!     mc.tick(&mut done);
//!     if !done.is_empty() {
//!         break;
//!     }
//! }
//! assert_eq!(done.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bankstate;
pub mod checker;
pub mod command;
pub mod config;
pub mod controller;
pub mod cycletimings;
pub mod engine;
pub mod frames;
pub mod migrate;
pub mod refresh;
pub mod request;
pub mod scheduler;
pub mod stats;
pub mod system;

pub use config::{ClrModeConfig, MemConfig, SchedulerConfig};
pub use controller::MemoryController;
pub use frames::{CapacityRebalancer, DestinationPicker, FrameDirectory, RebalanceConfig};
pub use migrate::{MigrationRate, RelocationConfig, RelocationMode};
pub use request::{MemRequest, RequestKind};
pub use stats::MemStats;
pub use system::{MemorySystem, RemapTable, RowKey};

// The lane count `MemorySystem`'s threaded walk runs on, re-exported for
// this crate's callers.
pub use clr_core::par::Executor;
