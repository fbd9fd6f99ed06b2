//! Quickstart: a tour of the CLR-DRAM reproduction in ~60 lines.
//!
//! Run with `cargo run --release --example quickstart`.

use clr_dram::arch::capacity;
use clr_dram::arch::geometry::DramGeometry;
use clr_dram::arch::mode::{ModeTable, RowMode};
use clr_dram::arch::timing::ClrTimings;
use clr_dram::obs::{MetricsConfig, TraceConfig};
use clr_dram::sim::experiment::mem_config;
use clr_dram::sim::report::{host_throughput_summary, sparkline};
use clr_dram::sim::system::{run_workloads, RunConfig};
use clr_dram::trace::apps::by_name;
use clr_dram::trace::workload::Workload;

fn main() {
    // 1. The Table-1 timing model: what CLR-DRAM changes.
    let timings = ClrTimings::from_circuit_defaults();
    let base = timings.baseline();
    let hp = timings.for_mode(RowMode::HighPerformance);
    println!("DRAM timings, baseline vs high-performance mode:");
    println!(
        "  tRCD {:5.1} -> {:4.1} ns   tRAS {:5.1} -> {:4.1} ns",
        base.t_rcd_ns, hp.t_rcd_ns, base.t_ras_ns, hp.t_ras_ns
    );
    println!(
        "  tRP  {:5.1} -> {:4.1} ns   tWR  {:5.1} -> {:4.1} ns",
        base.t_rp_ns, hp.t_rp_ns, base.t_wr_ns, hp.t_wr_ns
    );

    // 2. The capacity side of the trade-off.
    let geom = DramGeometry::ddr4_16gb_x8();
    let mut modes = ModeTable::new(&geom);
    modes.set_fraction_high_performance(0.25);
    let usable = capacity::effective_capacity_of_table(&geom, &modes);
    println!(
        "\nwith 25% of rows in high-performance mode: {:.2} GiB of {} GiB usable \
         (area overhead of the isolation transistors: {:.1}%)",
        usable as f64 / (1u64 << 30) as f64,
        geom.capacity_bytes() >> 30,
        capacity::chip_area_overhead() * 100.0
    );

    // 3. A full-system run: 429.mcf on baseline DDR4 vs all-HP CLR-DRAM.
    let w = Workload::App(*by_name("429.mcf").expect("mcf is in the suite"));
    let budget = 100_000;
    let warmup = 10_000;
    let baseline = run_workloads(
        &[w],
        &RunConfig::paper(mem_config(None, 64.0), budget, warmup, 42),
    );
    // Continuous telemetry rides the CLR run: windowed counters and
    // latency quantiles in simulated-cycle time, provably inert
    // (CLR_METRICS tunes the interval; quickstart always samples).
    // Wait-cause attribution rides along too: every read's latency
    // decomposed into an exact per-cause cycle budget. CLR_TRACE turns
    // on the event trace written in step 4.
    let mut clr_cfg = RunConfig::paper(mem_config(Some(1.0), 64.0), budget, warmup, 42);
    clr_cfg.trace = TraceConfig::from_env();
    clr_cfg.metrics = MetricsConfig::from_env().or(Some(MetricsConfig::every(5_000)));
    clr_cfg.blame = true;
    let clr = run_workloads(&[w], &clr_cfg);
    println!("\n429.mcf, {budget} instructions after {warmup} warmup:");
    println!(
        "  IPC        {:.3} -> {:.3}  ({:+.1}%)",
        baseline.ipc[0],
        clr.ipc[0],
        (clr.ipc[0] / baseline.ipc[0] - 1.0) * 100.0
    );
    println!(
        "  DRAM energy {:.2} uJ -> {:.2} uJ  ({:+.1}%)",
        baseline.energy.total_j() * 1e6,
        clr.energy.total_j() * 1e6,
        (clr.energy.total_j() / baseline.energy.total_j() - 1.0) * 100.0
    );
    println!(
        "  row-buffer hit rate {:.1}% -> {:.1}%",
        baseline.mem.row_hit_rate() * 100.0,
        clr.mem.row_hit_rate() * 100.0
    );
    // Tail latency, not just the mean: the read-latency histogram per
    // channel (here one channel), baseline vs CLR.
    for (ch, (b, c)) in baseline
        .mem_per_channel
        .iter()
        .zip(&clr.mem_per_channel)
        .enumerate()
    {
        let (bp50, bp95, bp99) = b.read_latency_percentiles();
        let (cp50, cp95, cp99) = c.read_latency_percentiles();
        println!(
            "  read latency ch{ch} p50/p95/p99: {bp50}/{bp95}/{bp99} -> \
             {cp50}/{cp95}/{cp99} cycles"
        );
    }

    // The same tail, continuously: per-window p99 across the run as a
    // sparkline (each column is one sampling window of simulated time).
    if let Some(m) = &clr.metrics {
        let system = m.system();
        let p99s: Vec<u64> = system.windows().map(|w| w.read_p99()).collect();
        println!(
            "  windowed read p99 ({} windows x {} cycles): {}",
            p99s.len(),
            m.interval_cycles,
            sparkline(&p99s)
        );
    }

    // Where did the p99 come from? The blame table: every waited cycle
    // of read latency charged to exactly one mutually-exclusive cause
    // (the budgets sum to the latency histogram's sum, bit-identically
    // across per-cycle, skip-ahead, and threaded walks).
    let wait = clr.mem.read_blame.total_cycles();
    println!("  read wait anatomy ({wait} cycles attributed):");
    for (cause, cycles) in clr.mem.read_blame.dominant() {
        println!(
            "    {:<16} {:>4}\u{2030}  ({} cycles)",
            cause.label(),
            cycles * 1000 / wait.max(1),
            cycles
        );
    }

    // Simulator throughput, not simulated performance: how fast the
    // host chewed through the run (RunConfig::threads > 1 parallelizes
    // the channel walk on multi-channel configurations, bit-identically).
    println!("  {}", host_throughput_summary(&clr, None));

    // 4. Optional: a Perfetto-openable trace of the CLR run. Set
    //    CLR_TRACE=1 (or a category list like "commands,migration")
    //    before running; the trace rides along with zero simulated-state
    //    impact — tracing on vs off is bit-identical. With telemetry on
    //    (above), the trace also carries counter tracks (ph "C"):
    //    traffic, queue depth, windowed read-latency quantiles.
    if let Some(trace) = &clr.trace {
        let path = std::env::var("CLR_TRACE_OUT").unwrap_or_else(|_| "clr_trace.json".into());
        std::fs::write(&path, trace.to_chrome_json()).expect("write trace");
        println!(
            "\nwrote {} trace events to {path} (open at https://ui.perfetto.dev)",
            trace.events.len()
        );
    }
}
