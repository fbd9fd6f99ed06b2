//! Minimal fixed-width table rendering for the bench binaries.

use clr_obs::LatencyHistogram;

use crate::system::RunResult;

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                for _ in c.len()..widths[i] {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        line(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a fraction as a signed percentage ("+12.4 %").
pub fn pct(frac: f64) -> String {
    format!("{:+.1}%", frac * 100.0)
}

/// Formats a ratio ("0.87×").
pub fn ratio(r: f64) -> String {
    format!("{r:.3}x")
}

/// Formats a latency histogram as a one-line percentile summary in DRAM
/// cycles, for the human-readable output next to the JSON reports.
pub fn latency_summary(h: &LatencyHistogram) -> String {
    if h.count() == 0 {
        return "n=0".into();
    }
    format!(
        "p50/p95/p99 = {}/{}/{} cyc (mean {:.1}, max {}, n={})",
        h.p50(),
        h.p95(),
        h.p99(),
        h.mean(),
        h.max(),
        h.count()
    )
}

/// Formats a run's host-throughput summary: simulated DRAM cycles per
/// host second and event density from the skip profile. Pass the
/// matching serial run's loop seconds as `serial_loop_s` to append a
/// speedup ratio (`None` prints the line without one).
pub fn host_throughput_summary(r: &RunResult, serial_loop_s: Option<f64>) -> String {
    let cps = if r.host_loop_s > 0.0 {
        r.dram_cycles as f64 / r.host_loop_s
    } else {
        0.0
    };
    let mut s = format!(
        "host: {:.2} Mcyc/s ({} DRAM cycles in {:.3} s), {:.1} events/kcyc",
        cps / 1e6,
        r.dram_cycles,
        r.host_loop_s,
        r.skip_profile.events_per_kilocycle(),
    );
    if let Some(serial) = serial_loop_s {
        if r.host_loop_s > 0.0 {
            s.push_str(&format!(", {} vs serial", ratio(serial / r.host_loop_s)));
        }
    }
    s
}

/// An 8-level unicode block sparkline of `values`, scaled to the
/// largest value (all-zero input renders as a flat baseline).
pub fn sparkline(values: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                BLOCKS[0]
            } else {
                BLOCKS[((v as u128 * 7) / max as u128) as usize]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_the_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[0, 50, 100]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains('x'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.124), "+12.4%");
        assert_eq!(pct(-0.297), "-29.7%");
        assert_eq!(ratio(0.8664), "0.866x");
    }

    #[test]
    fn latency_summary_empty_and_filled() {
        let mut h = LatencyHistogram::new();
        assert_eq!(latency_summary(&h), "n=0");
        for v in [10, 20, 30] {
            h.record(v);
        }
        let s = latency_summary(&h);
        assert!(s.starts_with("p50/p95/p99 = "), "{s}");
        assert!(s.contains("n=3"), "{s}");
    }
}
