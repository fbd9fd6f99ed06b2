//! Cross-validation of the two layers of the reproduction: the transient
//! circuit simulator's measured timing *reductions* must agree in shape
//! with the Table-1 constants the system-level model uses, and its
//! absolute baseline must stay near the paper's published one.

use clr_dram::arch::mode::RowMode;
use clr_dram::arch::paper::TABLE1;
use clr_dram::arch::timing::ClrTimings;
use clr_dram::circuit::params::CircuitParams;
use clr_dram::circuit::timing::measure_table1;

/// Absolute nanoseconds are a property of the device-parameter
/// calibration, so the circuit's baseline only has to land within 25 % of
/// the paper's DDR4 baseline column.
#[test]
fn default_calibration_is_within_25_percent() {
    let b = measure_table1(&CircuitParams::default_22nm()).baseline;
    let measured = [
        ("tRCD", b.t_rcd_ns),
        ("tRAS", b.t_ras_ns),
        ("tRP", b.t_rp_ns),
        ("tWR", b.t_wr_ns),
    ];
    for (row, (name, ns)) in TABLE1.iter().zip(measured) {
        assert_eq!(row.name, name);
        let ratio = ns / row.baseline;
        assert!(
            (ratio - 1.0).abs() < 0.25,
            "{name}: measured {ns:.1} ns, paper {:.1} ns (x{ratio:.2})",
            row.baseline
        );
    }
}

#[test]
fn circuit_reductions_agree_with_model_constants() {
    let measured = measure_table1(&CircuitParams::default_22nm());
    let model = ClrTimings::from_circuit_defaults();
    let b = model.baseline();
    let hp = model.for_mode(RowMode::HighPerformance);

    let model_red = [
        1.0 - hp.t_rcd_ns / b.t_rcd_ns,
        1.0 - hp.t_ras_ns / b.t_ras_ns,
        1.0 - hp.t_rp_ns / b.t_rp_ns,
        1.0 - hp.t_wr_ns / b.t_wr_ns,
    ];
    let (rcd, ras, rp, wr) = measured.reductions();
    let meas_red = [rcd, ras, rp, wr];
    let names = ["tRCD", "tRAS", "tRP", "tWR"];
    // The circuit is an independent calibration; require agreement within
    // 16 percentage points on every parameter.
    for ((name, m), c) in names.iter().zip(model_red).zip(meas_red) {
        assert!(
            (m - c).abs() < 0.16,
            "{name}: model reduction {m:.3} vs circuit {c:.3}"
        );
    }
}

#[test]
fn circuit_confirms_mode_orderings() {
    let m = measure_table1(&CircuitParams::default_22nm());
    // Max-capacity: tRAS/tWR no better than baseline, tRP much better.
    assert!(m.max_capacity.t_ras_ns >= m.baseline.t_ras_ns * 0.99);
    assert!(m.max_capacity.t_wr_ns >= m.baseline.t_wr_ns * 0.99);
    assert!(m.max_capacity.t_rp_ns <= m.baseline.t_rp_ns * 0.75);
    // Both CLR modes share the coupled-precharge tRP (paper: 8.3 ns for
    // both).
    let rel = (m.max_capacity.t_rp_ns - m.hp_et.t_rp_ns).abs() / m.max_capacity.t_rp_ns;
    assert!(rel < 0.1, "tRP differs across CLR modes by {rel:.3}");
    // Early termination cuts tRAS and tWR but leaves tRCD almost alone.
    assert!(m.hp_et.t_ras_ns < m.hp_no_et.t_ras_ns * 0.8);
    assert!(m.hp_et.t_wr_ns < m.hp_no_et.t_wr_ns * 0.8);
    assert!((m.hp_et.t_rcd_ns - m.hp_no_et.t_rcd_ns).abs() < 1.0);
}

#[test]
fn circuit_refresh_window_growth_matches_model_direction() {
    use clr_dram::circuit::retention::fig11_sweep;
    let sweep = fig11_sweep(&CircuitParams::default_22nm(), 194.0, 65.0);
    let model = ClrTimings::from_circuit_defaults();
    let m64 = model.high_performance_at_refw(64.0).expect("valid window");
    let m194 = model.high_performance_at_refw(194.0).expect("valid window");
    let model_growth = m194.t_rcd_ns / m64.t_rcd_ns;
    let first = sweep.first().expect("sweep nonempty");
    let last = sweep.iter().rfind(|p| p.ok).expect("has ok");
    let measured_growth = last.t_rcd_ns / first.t_rcd_ns;
    assert!(
        (measured_growth - model_growth).abs() < 0.35,
        "tRCD growth: model x{model_growth:.2} vs circuit x{measured_growth:.2}"
    );
}
