//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary prints the paper-corresponding rows/series to stdout and
//! honours the `CLR_SCALE` environment variable (`smoke` / `default` /
//! `full`). Measured-vs-paper comparisons accompany each table so the
//! reproduction can be judged at a glance; see EXPERIMENTS.md for recorded
//! outputs.

#![warn(missing_docs)]

use clr_sim::scale::Scale;

/// Resolves the experiment scale from `CLR_SCALE` and prints a banner;
/// exits with code 2 on an unknown scale.
pub fn startup(figure: &str) -> Scale {
    let scale = Scale::from_env().unwrap_or_else(|e| {
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

/// Prints a paper-vs-measured comparison line.
pub fn compare(label: &str, measured: f64, paper: f64) {
    println!(
        "  {label}: measured {measured:+.1}% | paper {paper:+.1}%",
        measured = measured * 100.0,
        paper = paper * 100.0
    );
}
