//! Workload models and trace generation for the CLR-DRAM evaluation.
//!
//! The paper evaluates 41 applications from SPEC CPU2006, TPC, and
//! MediaBench plus 30 in-house synthetic random/stream traces (§8.1). The
//! original Pin-generated SimPoint traces are not redistributable, so this
//! crate substitutes **parameterised synthetic application models**: each
//! named app is described by its memory intensity (target MPKI), footprint,
//! spatial locality, page-access skew, and write fraction, and a seeded
//! generator emits an unbounded Ramulator-style trace with those
//! statistics. The figures bin workloads only by memory intensity and
//! access pattern, which these axes capture.
//!
//! * [`apps`] — the 41-app suite with published-characterisation-derived
//!   parameters,
//! * [`gen`] — the streaming generators ([`gen::AppTrace`],
//!   [`gen::StreamTrace`], [`gen::RandomTrace`]),
//! * [`synthetic`] — the 30 random/stream synthetic workloads,
//! * [`phase`] — the phase-shifting workload whose hot set drifts over
//!   time (the stress case for dynamic mode-management policies),
//! * [`mix`] — L/M/H four-core multiprogrammed mix construction,
//! * [`profile`] — page-heat profiling used by the §8.1 data mapping,
//! * [`zipf`] — the seeded Zipf sampler underlying page skew.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod gen;
pub mod mix;
pub mod phase;
pub mod profile;
pub mod synthetic;
pub mod workload;
pub mod zipf;

pub use apps::{AppModel, MemoryClass, SUITE};
pub use gen::{AppTrace, RandomTrace, StreamTrace};
pub use mix::{build_mixes, MixGroup, MixSpec};
pub use phase::{PhaseShiftSpec, PhaseShiftTrace};
pub use profile::profile_pages;
pub use workload::{single_core_suite, Workload};
pub use zipf::Zipf;
