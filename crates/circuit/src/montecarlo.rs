//! Monte-Carlo process variation (§7.1): every analog component varies by
//! ±5 %; timings are taken from the *slowest* iteration and every
//! iteration must read the correct value.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::par::parallel_map;
use crate::params::{CircuitParams, MosParams};
use crate::timing::{measure_table1, ModeTimings, Table1Measurement};

/// Relative component variation (1σ = 5 %, clamped to ±3σ).
const SIGMA: f64 = 0.05;

fn vary(rng: &mut StdRng, v: f64) -> f64 {
    // Box-Muller standard normal, clamped to ±3σ.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    v * (1.0 + SIGMA * z.clamp(-3.0, 3.0))
}

fn vary_mos(rng: &mut StdRng, m: MosParams) -> MosParams {
    MosParams {
        k: vary(rng, m.k),
        vth: vary(rng, m.vth),
        lambda: m.lambda,
    }
}

/// Draws one process-variation sample of the parameter set.
pub fn perturb(p: &CircuitParams, rng: &mut StdRng) -> CircuitParams {
    CircuitParams {
        c_cell: vary(rng, p.c_cell),
        c_bitline: vary(rng, p.c_bitline),
        r_bitline: vary(rng, p.r_bitline),
        access: vary_mos(rng, p.access),
        iso: vary_mos(rng, p.iso),
        precharge: vary_mos(rng, p.precharge),
        sa_nmos: vary_mos(rng, p.sa_nmos),
        sa_pmos: vary_mos(rng, p.sa_pmos),
        ..p.clone()
    }
}

/// Element-wise maximum. `f64::max` would drop a NaN, which is why
/// [`measure_table1`] rejects non-finite timings first.
fn worst(a: ModeTimings, b: ModeTimings) -> ModeTimings {
    ModeTimings {
        t_rcd_ns: a.t_rcd_ns.max(b.t_rcd_ns),
        t_ras_ns: a.t_ras_ns.max(b.t_ras_ns),
        t_rp_ns: a.t_rp_ns.max(b.t_rp_ns),
        t_wr_ns: a.t_wr_ns.max(b.t_wr_ns),
    }
}

/// Worst-case Table 1 over `iterations` Monte-Carlo samples.
///
/// Every sample is drawn serially from one seeded RNG, the samples are
/// measured over the host's cores ([`parallel_map`]), and the worst case
/// is folded in sample order, so the result does not depend on the
/// worker count.
///
/// # Panics
///
/// Panics if `iterations` is 0, or if any iteration fails to sense
/// correctly — the §7.1 criterion ("every single iteration reads the
/// correct value") — or fails to reach a timing threshold within the
/// simulation limit; the lowest-index failing sample's panic is the one
/// raised.
pub fn worst_case_table1(p: &CircuitParams, iterations: usize, seed: u64) -> Table1Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<CircuitParams> = (0..iterations).map(|_| perturb(p, &mut rng)).collect();
    parallel_map(samples.len(), |i| measure_table1(&samples[i]))
        .into_iter()
        .reduce(|prev, t| Table1Measurement {
            baseline: worst(prev.baseline, t.baseline),
            max_capacity: worst(prev.max_capacity, t.max_capacity),
            hp_no_et: worst(prev.hp_no_et, t.hp_no_et),
            hp_et: worst(prev.hp_et, t.hp_et),
        })
        .expect("at least one iteration required")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_is_seeded_and_small() {
        let p = CircuitParams::default_22nm();
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let a = perturb(&p, &mut rng1);
        let b = perturb(&p, &mut rng2);
        assert_eq!(a, b);
        assert!((a.c_cell / p.c_cell - 1.0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn a_sample_that_times_out_fails_the_worst_case() {
        // No cell restores past VDD, so the full-restoration phases run
        // into the simulation limit and leave NaN timings.
        let p = CircuitParams {
            full_restore_frac: 1.01,
            ..CircuitParams::default_22nm()
        };
        worst_case_table1(&p, 1, 3);
    }

    #[test]
    #[should_panic(expected = "at least one iteration required")]
    fn zero_iterations_are_rejected() {
        worst_case_table1(&CircuitParams::default_22nm(), 0, 1);
    }

    #[test]
    fn parallel_worst_case_equals_the_serial_fold() {
        let p = CircuitParams::default_22nm();
        for seed in [7, 19] {
            // Five samples do not split evenly over two workers.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut serial = measure_table1(&perturb(&p, &mut rng));
            for _ in 1..5 {
                let t = measure_table1(&perturb(&p, &mut rng));
                serial = Table1Measurement {
                    baseline: worst(serial.baseline, t.baseline),
                    max_capacity: worst(serial.max_capacity, t.max_capacity),
                    hp_no_et: worst(serial.hp_no_et, t.hp_no_et),
                    hp_et: worst(serial.hp_et, t.hp_et),
                };
            }
            assert_eq!(worst_case_table1(&p, 5, seed), serial, "seed {seed}");
        }
    }

    #[test]
    fn worst_case_dominates_nominal() {
        let p = CircuitParams::default_22nm();
        let nominal = crate::timing::measure_table1(&p);
        let wc = worst_case_table1(&p, 5, 7);
        assert!(wc.baseline.t_rcd_ns >= 0.95 * nominal.baseline.t_rcd_ns);
        assert!(wc.hp_et.t_ras_ns >= 0.95 * nominal.hp_et.t_ras_ns);
        // The shape survives variation.
        let (rcd, ras, _, _) = wc.reductions();
        assert!(rcd > 0.3 && ras > 0.3);
    }
}
