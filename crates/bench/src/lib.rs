//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary prints the paper-corresponding rows/series to stdout and
//! honours the `CLR_SCALE` environment variable (`smoke` / `default` /
//! `full`). Measured-vs-paper comparisons accompany each table so the
//! reproduction can be judged at a glance.
//!
//! This crate is where the workspace reads its `CLR_*` environment
//! variables: the library crates take explicit configuration, and the
//! binaries and examples resolve it here.

#![warn(missing_docs)]

use clr_obs::{CategorySet, MetricsConfig, TraceConfig};
use clr_sim::scale::Scale;

/// Parses a `CLR_SCALE` value (see [`scale_from_env`]).
fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    let Some(value) = value else {
        return Ok(Scale::Default);
    };
    [Scale::Smoke, Scale::Default, Scale::Full]
        .into_iter()
        .find(|s| s.label() == value)
        .ok_or_else(|| format!("CLR_SCALE must be smoke, default or full, not {value:?}"))
}

/// Reads the scale from the `CLR_SCALE` environment variable: unset
/// means `Default`, `smoke` / `default` / `full` name their scale, and
/// anything else is an error naming the three values. Binaries refuse
/// an error rather than run the minutes-long default scale on a typo.
pub fn scale_from_env() -> Result<Scale, String> {
    let value = std::env::var_os("CLR_SCALE");
    parse_scale(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// Resolves tracing from the `CLR_TRACE` environment variable:
/// `CLR_TRACE=1` (or `all`) enables every category,
/// `CLR_TRACE=commands,migration` a subset ([`CategorySet::parse`]), and
/// unset, empty or `0` gives `None`, so the run installs no sink at all.
/// `CLR_TRACE_CAPACITY` overrides the per-sink ring size.
pub fn trace_config_from_env() -> Option<TraceConfig> {
    let v = std::env::var("CLR_TRACE").ok()?;
    let categories = CategorySet::parse(&v);
    if categories.is_empty() {
        return None;
    }
    let capacity = std::env::var("CLR_TRACE_CAPACITY")
        .ok()
        .and_then(|c| c.parse().ok())
        .unwrap_or(TraceConfig::default().capacity);
    Some(TraceConfig {
        categories,
        capacity,
    })
}

/// Resolves metrics from the `CLR_METRICS` environment variable: `None`
/// when unset, empty, `0`, or `off`; the default interval for
/// `1`/`on`/`all`/`true`; otherwise the value parsed as an interval in
/// DRAM cycles. `CLR_METRICS_CAPACITY` overrides the per-series ring
/// size.
pub fn metrics_config_from_env() -> Option<MetricsConfig> {
    let v = std::env::var("CLR_METRICS").ok()?;
    let interval_cycles = match v.trim() {
        "" | "0" | "off" | "false" => return None,
        "1" | "on" | "all" | "true" => clr_obs::series::DEFAULT_INTERVAL_CYCLES,
        s => s.parse::<u64>().ok().filter(|&n| n > 0)?,
    };
    let capacity = std::env::var("CLR_METRICS_CAPACITY")
        .ok()
        .and_then(|c| c.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(clr_obs::series::DEFAULT_CAPACITY);
    Some(MetricsConfig {
        interval_cycles,
        capacity,
    })
}

/// Resolves the experiment scale from `CLR_SCALE` and prints a banner;
/// exits with code 2 on an unknown scale.
pub fn startup(figure: &str) -> Scale {
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!(
        "== CLR-DRAM reproduction :: {figure} (scale: {}; set CLR_SCALE=smoke|default|full) ==\n",
        scale.label()
    );
    scale
}

/// Worker-thread count from the `CLR_THREADS` environment variable
/// (default 1 = serial; invalid or zero values fall back to 1).
pub fn threads_from_env() -> usize {
    std::env::var("CLR_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The process's peak resident set size in MiB: `VmHWM` from
/// `/proc/self/status`. `None` where `/proc` is absent or the line is
/// missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// The `VmHWM:` line of a `/proc/<pid>/status` text, in MiB.
fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// Prints a paper-vs-measured comparison line.
pub fn compare(label: &str, measured: f64, paper: f64) {
    println!(
        "  {label}: measured {measured:+.1}% | paper {paper:+.1}%",
        measured = measured * 100.0,
        paper = paper * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults_safely() {
        // The parsing alone: the test process's own CLR_SCALE (CI sets
        // one for the whole job) must not decide the outcome.
        assert_eq!(parse_scale(None), Ok(Scale::Default));
        assert_eq!(parse_scale(Some("smoke")), Ok(Scale::Smoke));
        assert_eq!(parse_scale(Some("default")), Ok(Scale::Default));
        assert_eq!(parse_scale(Some("full")), Ok(Scale::Full));
        for bad in ["Smoke", "", " smoke", "fast"] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert!(err.contains("smoke, default or full"), "{err}");
        }
    }

    #[test]
    fn peak_rss_reads_vm_hwm() {
        let status =
            "Name:\tfleet_report\nVmPeak:\t  20480 kB\nVmHWM:\t    6144 kB\nVmRSS:\t 5120 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(6.0));
        assert_eq!(parse_vm_hwm("VmRSS:\t5120 kB\n"), None);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
        }
    }
}
