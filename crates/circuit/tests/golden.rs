//! Golden Table 1 values of the transient solver, pinned to the bit.
//!
//! The literals are the shortest round-trip `Debug` text of each `f64`, so
//! `==` holds only for bit-identical results. A change that moves any of
//! them changes the modelled circuit behaviour; a solver optimisation must
//! leave them all in place.

use clr_circuit::montecarlo::worst_case_table1;
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
