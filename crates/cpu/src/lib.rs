//! Trace-driven CPU and last-level-cache models for the CLR-DRAM
//! evaluation.
//!
//! This crate ports the processor model of Ramulator's CPU-trace mode,
//! which the paper uses (§8.1, Table 2): each core is a simplified
//! out-of-order engine with a 128-entry instruction window and 4-wide
//! dispatch/retire; memory reads occupy window slots until data returns,
//! writes are posted. Cores share an 8 MiB, 8-way LLC with 64 B lines and
//! 8 MSHRs per core; misses and dirty writebacks go to the memory
//! controller of `clr-memsim` (the two are wired together in `clr-sim`).
//!
//! Trace items follow Ramulator's CPU-trace semantics: `bubbles` non-memory
//! instructions, then one memory *read* (load), optionally accompanied by a
//! *write* (store) address.

#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod core;
pub mod trace;
pub mod window;

pub use cache::{AccessKind, AccessResult, CacheConfig, CacheStats, Llc};
pub use cluster::{ClusterConfig, CpuCluster, OutboundRequest, Stretch};
pub use trace::{LoopingTrace, TraceItem, TraceSource, VecTrace};
pub use window::Window;
