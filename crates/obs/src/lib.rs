//! Observability for the CLR-DRAM simulator: latency histograms,
//! structured event tracing, and skip-ahead profiling.
//!
//! This crate is dependency-free so every layer of the workspace can
//! use it — the memory model records into it on its hot paths, the
//! full-system runner fuses and reports it. Its modules:
//!
//! * [`hist`] — [`LatencyHistogram`]: HDR-style log2-bucketed
//!   histograms with **exact** `merge`/`delta_since` (bucket-wise sum
//!   and difference are inverses) and quantile extraction
//!   (p50/p95/p99/p999). The memory controller records read, write, and
//!   migration-job service latencies into them; the channel-sharded
//!   memory system fuses per-channel histograms by merging, and
//!   measurement windows subtract warmup by delta — both exact, so the
//!   skip-ahead and tracing differential tests can keep asserting
//!   statistics equality bit for bit.
//! * [`trace`] — [`TraceSink`]: a bounded ring buffer of categorized
//!   events (DRAM commands, migration-job lifecycle, policy-epoch
//!   decisions, frame moves/remaps) serializing to Chrome trace-event
//!   JSON for Perfetto. Binaries enable it per run from `CLR_TRACE`
//!   (`clr_bench::trace_config_from_env`); with no sink installed the
//!   instrumentation sites cost one pointer test.
//! * [`profile`] — [`SkipProfile`]: host-side counters for the
//!   event-driven skip-ahead walk (jump-length histogram, per-source
//!   trigger counts, event density per kilocycle). Deliberately *not*
//!   part of `MemStats`: per-cycle and skip-ahead walks produce
//!   identical simulation statistics but different profiles.
//! * [`series`] — [`MetricsRecorder`]/[`TimeSeries`]: continuous
//!   telemetry sampled in simulated-cycle windows from exact
//!   statistics deltas — counters, gauges, and windowed tail
//!   latencies — with exact bucket-wise `merge` for
//!   per-channel→system fusion, and Chrome trace-event counter-track
//!   export. Binaries enable it per run from `CLR_METRICS`
//!   (`clr_bench::metrics_config_from_env`). The library reads no
//!   environment variable: callers pass a [`TraceConfig`] or
//!   [`MetricsConfig`] explicitly.
//! * [`slo`] — [`SloSpec`]/[`SloReport`]: declarative service-level
//!   objectives over the series (error budgets, multi-window
//!   burn-rate alerts), producing machine-checkable verdicts.
//! * [`blame`] — [`WaitCause`]/[`BlameSet`]: per-request wait-cause
//!   attribution. Every completed demand request's enqueue→completion
//!   latency is decomposed into an exact, mutually exclusive per-cause
//!   cycle budget (row conflict, refresh, migration blocking, bus
//!   serialization, write-drain, FR-FCFS aging, service), aggregated
//!   as one histogram per cause with the same exact `merge` /
//!   `delta_since` algebra.
//! * [`json`] — [`Json`]: the one JSON writer. Every export (the sweep,
//!   fleet and SLO reports, the Chrome trace) is built as a value and
//!   printed through it; it alone escapes strings, places separators
//!   and lays containers out.
//!
//! # Capturing a trace
//!
//! ```no_run
//! # use clr_obs::trace::{TraceCategory, TraceConfig, TraceLog, TraceSink};
//! let cfg = TraceConfig::default();
//! let mut sink = TraceSink::new(&cfg, 0);
//! sink.instant(TraceCategory::Commands, "act", 42, vec![("bank", 3)]);
//! let log = TraceLog::collect([&mut sink]);
//! std::fs::write("trace.json", log.to_chrome_json()).unwrap();
//! // … then open trace.json at https://ui.perfetto.dev
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blame;
pub mod hist;
pub mod json;
pub mod profile;
pub mod series;
pub mod slo;
pub mod trace;

pub use blame::{BlameLedger, BlameSet, WaitCause};
pub use hist::LatencyHistogram;
pub use json::Json;
pub use profile::{EventSource, SkipProfile};
pub use series::{
    ChannelSample, MetricsConfig, MetricsRecorder, SeriesCounters, SeriesGauges, TimeSeries,
    WindowSummary,
};
pub use slo::{
    ObjectiveOutcome, ScalarObjective, ScalarOutcome, SloReport, SloSpec, WindowMetric,
    WindowedObjective,
};
pub use trace::{
    CategorySet, TraceCategory, TraceConfig, TraceEvent, TraceLog, TraceSink, SYSTEM_PID,
};
