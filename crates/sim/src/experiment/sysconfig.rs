//! Table 2 — the simulated system configuration, printable for
//! verification against the paper.

use clr_core::mode::RowMode;
use clr_core::timing::ClrTimings;
use clr_cpu::cluster::ClusterConfig;
use clr_memsim::config::{MemConfig, SchedulerConfig};

use crate::report::Table;

/// Renders the Table 2 configuration dump.
pub fn render() -> String {
    let mem = MemConfig::paper_baseline();
    let cluster = ClusterConfig::paper();
    let timings = ClrTimings::from_circuit_defaults();
    let g = &mem.geometry;

    let mut t = Table::new(vec!["component", "configuration"]);
    t.row(vec![
        "Processor".to_string(),
        format!(
            "1-4 cores, 4 GHz, {}-wide issue, {} MSHRs/core, {}-entry window",
            cluster.width, cluster.cache.mshrs_per_core, cluster.window_depth
        ),
    ]);
    t.row(vec![
        "LLC".to_string(),
        format!(
            "{} B cacheline, {}-way associative, {} MB total",
            cluster.cache.line_bytes,
            cluster.cache.associativity,
            cluster.cache.size_bytes >> 20
        ),
    ]);
    t.row(vec![
        "Memory controller".to_string(),
        format!(
            "FR-FCFS-Cap (cap {}), timeout row policy ({} ns), {}-entry read/write queues",
            mem.scheduler.cap,
            mem.scheduler.row_timeout_ns,
            SchedulerConfig::READ_QUEUE
        ),
    ]);
    t.row(vec![
        "DRAM".to_string(),
        format!(
            "{} channel, {} rank, DDR4, {:.0} MHz bus, 16 Gb chips, {} bank groups x {} banks",
            g.channels,
            g.ranks,
            1000.0 / mem.interface.t_ck_ns,
            g.bank_groups,
            g.banks_per_group
        ),
    ]);
    let b = timings.baseline();
    let hp = timings.for_mode(RowMode::HighPerformance);
    t.row(vec![
        "Timings (baseline)".to_string(),
        format!(
            "tRCD {:.1} tRAS {:.1} tRP {:.1} tWR {:.1} ns",
            b.t_rcd_ns, b.t_ras_ns, b.t_rp_ns, b.t_wr_ns
        ),
    ]);
    t.row(vec![
        "Timings (high-perf.)".to_string(),
        format!(
            "tRCD {:.1} tRAS {:.1} tRP {:.1} tWR {:.1} ns",
            hp.t_rcd_ns, hp.t_ras_ns, hp.t_rp_ns, hp.t_wr_ns
        ),
    ]);
    format!("Table 2 — simulated system configuration\n\n{}", t.render())
}

#[cfg(test)]
mod tests {
    #[test]
    fn dump_mentions_key_components() {
        // The whole Table 2 text, column padding included.
        let expected = [
            "Table 2 — simulated system configuration",
            "",
            "component             configuration                                                               ",
            "--------------------------------------------------------------------------------------------------",
            "Processor             1-4 cores, 4 GHz, 4-wide issue, 8 MSHRs/core, 128-entry window              ",
            "LLC                   64 B cacheline, 8-way associative, 8 MB total                               ",
            "Memory controller     FR-FCFS-Cap (cap 4), timeout row policy (120 ns), 64-entry read/write queues",
            "DRAM                  1 channel, 1 rank, DDR4, 1200 MHz bus, 16 Gb chips, 4 bank groups x 4 banks ",
            "Timings (baseline)    tRCD 13.8 tRAS 39.4 tRP 15.5 tWR 12.5 ns                                    ",
            "Timings (high-perf.)  tRCD 5.5 tRAS 14.1 tRP 8.3 tWR 8.1 ns                                       ",
        ];
        assert_eq!(super::render(), expected.join("\n") + "\n");
    }
}
