//! Golden values of the transient solver, pinned to the bit: Table 1, the
//! Figure 11 sweep, the Figure 7/8 capture waveforms and the Twin-Cell
//! activation.
//!
//! The literals are the shortest round-trip `Debug` text of each `f64`, so
//! `==` holds only for bit-identical results; waveforms are pinned by a
//! hash of their bits. A change that moves any of them changes the
//! modelled circuit behaviour; a solver optimisation must leave them all
//! in place.

use clr_circuit::dram::{build, Topology};
use clr_circuit::montecarlo::worst_case_table1;
use clr_circuit::retention::{fig11_sweep, initial_cell_voltage, Fig11Point};
use clr_circuit::scenario::{run_act_pre, ActPreOptions, TracePoint};
use clr_circuit::timing::{measure_table1, ModeTimings, Table1Measurement};
use clr_circuit::CircuitParams;

fn mode(t_rcd_ns: f64, t_ras_ns: f64, t_rp_ns: f64, t_wr_ns: f64) -> ModeTimings {
    ModeTimings {
        t_rcd_ns,
        t_ras_ns,
        t_rp_ns,
        t_wr_ns,
    }
}

#[test]
fn nominal_table1_is_bit_identical() {
    let expected = Table1Measurement {
        baseline: mode(
            16.78999999999972,
            39.19000000000107,
            14.099999999997493,
            15.06000000000212,
        ),
        max_capacity: mode(
            16.939999999999714,
            40.25000000000086,
            8.279999999998651,
            15.660000000002213,
        ),
        hp_no_et: mode(
            9.369999999999877,
            23.540000000000646,
            8.490000000001093,
            15.040000000000887,
        ),
        hp_et: mode(
            9.369999999999877,
            14.909999999999759,
            8.490000000001093,
            7.60999999999987,
        ),
    };
    assert_eq!(measure_table1(&CircuitParams::default_22nm()), expected);
}

#[test]
fn monte_carlo_worst_case_is_bit_identical() {
    let expected = Table1Measurement {
        baseline: mode(
            16.049999999999734,
            39.24000000000106,
            13.689999999997575,
            15.7800000000021,
        ),
        max_capacity: mode(
            16.21999999999973,
            40.29000000000085,
            8.149999999998677,
            16.380000000002326,
        ),
        hp_no_et: mode(
            9.109999999999882,
            24.030000000000722,
            8.400000000001079,
            15.770000000000895,
        ),
        hp_et: mode(
            9.109999999999882,
            15.33999999999975,
            8.400000000001079,
            7.849999999999865,
        ),
    };
    assert_eq!(
        worst_case_table1(&CircuitParams::default_22nm(), 2, 7),
        expected
    );
}

#[test]
fn fig11_sweep_is_bit_identical() {
    let point = |refw_ms, t_rcd_ns, t_ras_ns| Fig11Point {
        refw_ms,
        t_rcd_ns,
        t_ras_ns,
        ok: true,
    };
    let expected = [
        point(64.0, 9.369999999999877, 14.909999999999759),
        point(74.0, 9.599999999999872, 15.129999999999754),
        point(84.0, 9.829999999999867, 15.34999999999975),
        point(94.0, 10.079999999999862, 15.579999999999744),
        point(104.0, 10.329999999999856, 15.80999999999974),
        point(114.0, 10.58999999999985, 16.059999999999732),
        point(124.0, 10.869999999999845, 16.32999999999973),
        point(134.0, 11.169999999999838, 16.61999999999972),
        point(144.0, 11.469999999999832, 16.919999999999717),
        point(154.0, 11.799999999999825, 17.22999999999971),
        point(164.0, 12.149999999999817, 17.579999999999714),
        point(174.0, 12.539999999999809, 17.969999999999775),
        point(184.0, 12.9699999999998, 18.38999999999984),
        point(194.0, 13.46999999999979, 18.879999999999917),
        point(204.0, 14.059999999999777, 19.47000000000001),
    ];
    assert_eq!(
        fig11_sweep(&CircuitParams::default_22nm(), 204.0, 10.0),
        expected
    );
}

/// FNV-1a over the bits of every sample of a waveform, in order.
fn trace_hash(trace: &[TracePoint]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for pt in trace {
        for v in [pt.t_ns, pt.bl, pt.blb, pt.cell, pt.cellb] {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The Figure 7 and 8 capture runs: baseline and high-performance
/// activation + precharge with waveforms.
#[test]
fn capture_waveforms_are_bit_identical() {
    let p = CircuitParams::default_22nm();
    let opts = ActPreOptions {
        initial_cell_v: initial_cell_voltage(&p, 64.0),
        capture_trace: true,
        single_sa_twin_cell: false,
    };
    for (topology, samples, hash) in [
        (Topology::OpenBitlineBaseline, 486, 0x4431_ec99_113b_ce62),
        (Topology::ClrHighPerformance, 274, 0xacc6_7457_b24a_20f5),
    ] {
        let r = run_act_pre(&build(topology, &p), &p, opts);
        assert_eq!(r.trace.len(), samples, "{topology:?}");
        assert_eq!(trace_hash(&r.trace), hash, "{topology:?}");
    }
}

/// The high-performance topology with its second sense amplifier left off
/// (§9's Twin-Cell configuration) never restores the cell fully; the
/// Twin-Cell topology itself does.
#[test]
fn twin_cell_activation_is_bit_identical() {
    let p = CircuitParams::default_22nm();
    let opts = ActPreOptions {
        initial_cell_v: initial_cell_voltage(&p, 64.0),
        capture_trace: false,
        single_sa_twin_cell: true,
    };
    let hp = run_act_pre(&build(Topology::ClrHighPerformance, &p), &p, opts);
    assert!(hp.sense_correct);
    assert_eq!(
        (hp.t_rcd_ns, hp.t_rp_ns),
        (12.859999999999802, 8.049999999994043)
    );
    assert!(hp.t_ras_full_ns.is_nan() && hp.t_ras_et_ns.is_nan());
    let twin = run_act_pre(&build(Topology::TwinCellSingleSa, &p), &p, opts);
    assert!(twin.sense_correct);
    assert_eq!(
        [
            twin.t_rcd_ns,
            twin.t_ras_full_ns,
            twin.t_ras_et_ns,
            twin.t_rp_ns
        ],
        [
            12.619999999999807,
            36.16000000000167,
            22.820000000000533,
            14.579999999997398
        ]
    );
}
