//! Library constructors take explicit configuration: a stray `CLR_*`
//! variable in the shell must not switch observers on or change the walk
//! of a `RunConfig::paper` run. Only binaries read the environment.
//!
//! One test per file: the test sets process-wide environment variables.

use clr_memsim::config::MemConfig;
use clr_sim::system::RunConfig;

#[test]
fn paper_config_ignores_the_environment() {
    for (var, value) in [
        ("CLR_TRACE", "1"),
        ("CLR_METRICS", "1"),
        ("CLR_THREADS", "4"),
        ("CLR_BLAME", "1"),
    ] {
        std::env::set_var(var, value);
    }
    let cfg = RunConfig::paper(MemConfig::paper_baseline(), 1_000, 100, 7);
    assert!(cfg.trace.is_none(), "CLR_TRACE leaked into the library");
    assert!(cfg.metrics.is_none(), "CLR_METRICS leaked into the library");
    assert_eq!(cfg.threads, 1, "CLR_THREADS leaked into the library");
    assert!(!cfg.blame, "CLR_BLAME leaked into the library");
    assert!(cfg.skip_ahead && cfg.clamp_threads);
}
