//! Property-based tests of the circuit solver's numerical core.

use clr_circuit::matrix::{Matrix, Replay, Schedule};
use clr_circuit::netlist::Netlist;
use clr_circuit::params::{CircuitParams, MosParams};
use clr_circuit::transient::Transient;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The dense LU that `Matrix::solve_in_place` replaced, kept as its
/// oracle: partial pivoting on the first strict maximum `|a|`, whole-row
/// swaps, and elimination over every column from the pivot's on.
fn dense_solve(a: &mut [f64], n: usize, b: &mut [f64]) -> bool {
    for k in 0..n {
        let mut p = k;
        let mut max = a[k * n + k].abs();
        for r in (k + 1)..n {
            let v = a[r * n + k].abs();
            if v > max {
                max = v;
                p = r;
            }
        }
        if max < 1e-30 {
            return false;
        }
        if p != k {
            for c in 0..n {
                a.swap(k * n + c, p * n + c);
            }
            b.swap(k, p);
        }
        let pivot = a[k * n + k];
        for r in (k + 1)..n {
            let f = a[r * n + k] / pivot;
            if f == 0.0 {
                continue;
            }
            for c in k..n {
                a[r * n + c] -= f * a[k * n + c];
            }
            b[r] -= f * b[k];
        }
    }
    for k in (0..n).rev() {
        let mut s = b[k];
        for c in (k + 1)..n {
            s -= a[k * n + c] * b[c];
        }
        b[k] = s / a[k * n + k];
    }
    true
}

/// A random MNA-like system of `n` unknowns as a dense row-major array
/// plus right-hand side: conductances between node pairs and to ground,
/// capacitor companions on the diagonal, asymmetric transistor-like
/// terms, and voltage-source branch rows with zero diagonals, which force
/// row swaps. Some draws leave an unknown unconnected, repeat a row, or
/// drive one node from two sources, which makes the system singular.
fn mna_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let log_uniform = |rng: &mut StdRng, lo: f64, hi: f64| {
        let e: f64 = rng.gen_range(f64::ln(lo)..f64::ln(hi));
        e.exp()
    };
    let branches = rng.gen_range(0..=n / 3);
    let nodes = n - branches;
    let mut a = vec![0.0; n * n];
    for _ in 0..rng.gen_range(0..=2 * nodes) {
        let g = log_uniform(&mut rng, 1e-6, 1e-2);
        let (i, j) = (rng.gen_range(0..nodes), rng.gen_range(0..=nodes));
        a[i * n + i] += g;
        if j < nodes && j != i {
            a[j * n + j] += g;
            a[i * n + j] -= g;
            a[j * n + i] -= g;
        }
    }
    for i in 0..nodes {
        if rng.gen_bool(0.95) {
            a[i * n + i] += log_uniform(&mut rng, 1e-4, 1e-1);
        }
    }
    for _ in 0..rng.gen_range(0..=nodes) {
        let (d, g, s) = (
            rng.gen_range(0..nodes),
            rng.gen_range(0..nodes),
            rng.gen_range(0..nodes),
        );
        let gm = rng.gen_range(-1e-3..1e-3);
        a[d * n + g] += gm;
        a[s * n + g] -= gm;
    }
    let all: Vec<usize> = (0..nodes).collect();
    let mut driven: Vec<usize> = all.choose_multiple(&mut rng, branches).copied().collect();
    if branches > 1 && rng.gen_bool(0.05) {
        driven[1] = driven[0];
    }
    for (j, &node) in driven.iter().enumerate() {
        let br = nodes + j;
        a[br * n + node] = 1.0;
        a[node * n + br] = 1.0;
    }
    if rng.gen_bool(0.1) {
        let i = rng.gen_range(0..n);
        for k in 0..n {
            a[i * n + k] = 0.0;
            a[k * n + i] = 0.0;
        }
    }
    if n > 1 && rng.gen_bool(0.1) {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        for k in 0..n {
            a[j * n + k] = a[i * n + k];
        }
    }
    let b = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (a, b)
}

/// Solves `mna_system(n, seed)` with the pattern-aware solver (over
/// `pattern_of` its values) and with the dense oracle: `(pattern verdict,
/// pattern x, dense verdict, dense x)`.
fn solve_both(n: usize, seed: u64) -> (bool, Vec<f64>, bool, Vec<f64>) {
    let (a, b) = mna_system(n, seed);
    let mut m = marked(n, &pattern_of(&a), &a);
    let mut x = b.clone();
    let ok = m.solve_in_place(&mut x);
    let (mut dense, mut x_dense) = (a, b);
    let dense_ok = dense_solve(&mut dense, n, &mut x_dense);
    (ok, x, dense_ok, x_dense)
}

/// The positions marked for values `a`: the nonzeros and every seventh
/// position, since a pattern may be any superset of the nonzeros.
fn pattern_of(a: &[f64]) -> Vec<bool> {
    a.iter()
        .enumerate()
        .map(|(i, &v)| v != 0.0 || i % 7 == 0)
        .collect()
}

/// An `n × n` matrix marked at every position of `pattern`, holding
/// `values` there.
fn marked(n: usize, pattern: &[bool], values: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(n);
    for (i, _) in pattern.iter().enumerate().filter(|(_, &p)| p) {
        m.set(i / n, i % n, values[i]);
    }
    m
}

/// New values on `pattern`, drawn from `a` in one of four ways, by the
/// seed:
/// - every column scaled by a log-uniform factor over two decades, which
///   in exact arithmetic keeps the pivot order (partial pivoting of `A·D`
///   picks `A`'s rows);
/// - the same, then a tenth of the marked positions flipped between an
///   exact zero and a value: a multiplier exactly zero in one solve turns
///   nonzero in the next, and the reverse;
/// - every row scaled by a factor over six decades, which reorders the
///   pivots;
/// - one column zeroed: singular, and the columns before it keep their
///   pivots.
fn revalue(n: usize, pattern: &[bool], a: &[f64], seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_eed0_f2e5_a1ce);
    let mut v = a.to_vec();
    let mode = rng.gen_range(0..4);
    if mode < 2 {
        for c in 0..n {
            let f = 10f64.powf(rng.gen_range(-1.0..1.0));
            (0..n).for_each(|r| v[r * n + c] *= f);
        }
    }
    match mode {
        1 => {
            for i in (0..n * n).filter(|&i| pattern[i]) {
                if rng.gen_bool(0.1) {
                    v[i] = if v[i] == 0.0 {
                        rng.gen_range(-1e-3..1e-3)
                    } else {
                        0.0
                    };
                }
            }
        }
        2 => {
            for row in v.chunks_mut(n) {
                let f = 10f64.powf(rng.gen_range(-3.0..3.0));
                row.iter_mut().for_each(|x| *x *= f);
            }
        }
        3 => {
            let c = rng.gen_range(0..n);
            (0..n).for_each(|r| v[r * n + c] = 0.0);
        }
        _ => {}
    }
    v
}

/// What one replay check saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    /// The first solve was singular, so nothing was compiled.
    NoSchedule,
    /// The replay ended as this.
    Replayed(Replay),
}

/// Compiles the elimination of `mna_system(n, seed)`'s pattern from a
/// pattern-LU solve of its values, replays it on `revalue`d values of the
/// same pattern, and holds the outcome to the dense oracle: a solved
/// replay returns the oracle's solution, a singular one matches its
/// verdict, and a diverged one is followed, as the transient engine does,
/// by a pattern-LU solve that matches the oracle and a recompiled schedule
/// that replays the same values without diverging.
fn replay_against_dense(n: usize, seed: u64) -> Result<Seen, String> {
    let (a, b) = mna_system(n, seed);
    let pattern = pattern_of(&a);
    let first = marked(n, &pattern, &a);
    let mut pivots = Vec::new();
    if !first.clone().solve_recording(&mut b.clone(), &mut pivots) {
        return Ok(Seen::NoSchedule);
    }
    let schedule = Schedule::compile(&first, &pivots);
    let a2 = revalue(n, &pattern, &a, seed);
    let second = marked(n, &pattern, &a2);
    let (mut dense, mut x_dense) = (a2, b.clone());
    let dense_ok = dense_solve(&mut dense, n, &mut x_dense);
    let mut x = b.clone();
    let replay = schedule.replay(&mut second.clone(), &mut x);
    match replay {
        Replay::Solved if !dense_ok => return Err("replay solved a singular system".into()),
        Replay::Solved if x != x_dense => return Err(format!("{x:?} != {x_dense:?}")),
        Replay::Singular if dense_ok => return Err("replay found a regular system singular".into()),
        Replay::Solved | Replay::Singular => {}
        Replay::Diverged => {
            let mut x = b.clone();
            let ok = second.clone().solve_recording(&mut x, &mut pivots);
            if ok != dense_ok || (ok && x != x_dense) {
                return Err(format!(
                    "pattern LU {ok} {x:?} vs dense {dense_ok} {x_dense:?}"
                ));
            }
            if ok {
                let recompiled = Schedule::compile(&second, &pivots);
                let mut x = b.clone();
                let again = recompiled.replay(&mut second.clone(), &mut x);
                if again != Replay::Solved || x != x_dense {
                    return Err(format!("recompiled replay {again:?}: {x:?} vs {x_dense:?}"));
                }
            }
        }
    }
    Ok(Seen::Replayed(replay))
}

proptest! {
    /// LU solves diagonally-dominant systems to small residuals.
    #[test]
    fn lu_solves_diagonally_dominant(
        n in 1usize..12,
        seed_vals in proptest::collection::vec(-1.0f64..1.0, 144 + 12),
    ) {
        let mut m = Matrix::zeros(n);
        let mut x_true = vec![0.0; n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = seed_vals[i * 12 + j];
                    m.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            m.set(i, i, row_sum + 1.0); // strictly dominant
            x_true[i] = seed_vals[144 + i];
        }
        // b = A·x_true.
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, xj) in x_true.iter().enumerate() {
                *bi += m.get(i, j) * xj;
            }
        }
        let mut solved = b.clone();
        prop_assert!(m.clone().solve_in_place(&mut solved));
        for (s, t) in solved.iter().zip(&x_true) {
            prop_assert!((s - t).abs() < 1e-8, "{} vs {}", s, t);
        }
    }

    /// The pattern-aware LU returns exactly the dense loop's solution and
    /// singular verdict on MNA-like sparse systems.
    #[test]
    fn pattern_lu_matches_dense_oracle(n in 1usize..=48, seed in any::<u64>()) {
        let (ok, x, dense_ok, x_dense) = solve_both(n, seed);
        prop_assert_eq!(ok, dense_ok);
        if ok {
            prop_assert_eq!(x, x_dense);
        }
    }

    /// The same past one 64-bit pattern word per row and column.
    #[test]
    fn pattern_lu_matches_dense_oracle_across_words(n in 60usize..=140, seed in any::<u64>()) {
        let (ok, x, dense_ok, x_dense) = solve_both(n, seed);
        prop_assert_eq!(ok, dense_ok);
        if ok {
            prop_assert_eq!(x, x_dense);
        }
    }

    /// A compiled elimination replayed on new values of its pattern agrees
    /// with the dense loop, diverging, singular and zero-multiplier cases
    /// included.
    #[test]
    fn replay_matches_dense_oracle(n in 1usize..=48, seed in any::<u64>()) {
        let seen = replay_against_dense(n, seed);
        prop_assert!(seen.is_ok(), "{:?}", seen);
    }

    /// The same past one 64-bit pattern word per row and column.
    #[test]
    fn replay_matches_dense_oracle_across_words(n in 60usize..=140, seed in any::<u64>()) {
        let seen = replay_against_dense(n, seed);
        prop_assert!(seen.is_ok(), "{:?}", seen);
    }

    /// An RC divider driven by a source settles to the exact voltage
    /// divider value regardless of component scale.
    #[test]
    fn resistive_divider_settles(
        r1 in 100.0f64..1e5,
        r2 in 100.0f64..1e5,
        v in 0.1f64..3.0,
    ) {
        let mut net = Netlist::new();
        let top = net.node("top");
        let mid = net.node("mid");
        net.source(top, v);
        net.resistor(top, mid, r1);
        net.resistor(mid, 0, r2);
        net.capacitor(mid, 0, 1e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.run(50.0);
        let expect = v * r2 / (r1 + r2);
        prop_assert!(
            (sim.v(mid) - expect).abs() < 0.01 * v.max(1.0),
            "divider {} vs {}",
            sim.v(mid),
            expect
        );
    }

    /// Charge conservation: a capacitor charge-sharing with another
    /// through an always-on pass transistor ends at the weighted mean.
    #[test]
    fn charge_sharing_conserves(
        v0 in 0.0f64..1.2,
        c1_f in 1.0f64..50.0,
        c2_f in 1.0f64..50.0,
    ) {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let gate = net.node("gate");
        net.source(gate, 3.0);
        let c1 = c1_f * 1e-15;
        let c2 = c2_f * 1e-15;
        net.capacitor(a, 0, c1);
        net.capacitor(b, 0, c2);
        net.nmos(a, gate, b, MosParams { k: 1e-4, vth: 0.4, lambda: 0.0 });
        let mut sim = Transient::new(net, 0.01);
        sim.set_ic(a, v0);
        sim.set_ic(b, 0.0);
        sim.run(200.0);
        let expect = v0 * c1 / (c1 + c2);
        prop_assert!(
            (sim.v(a) - sim.v(b)).abs() < 0.02,
            "did not equalize: {} vs {}",
            sim.v(a),
            sim.v(b)
        );
        prop_assert!(
            (sim.v(a) - expect).abs() < 0.05,
            "final {} vs expected {}",
            sim.v(a),
            expect
        );
    }

    /// Monte-Carlo perturbation keeps parameters positive and within the
    /// clamped ±3σ band.
    #[test]
    fn perturbation_stays_in_band(seed in 0u64..5000) {
        use clr_circuit::montecarlo::perturb;
        let p = CircuitParams::default_22nm();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = perturb(&p, &mut rng);
        for (a, b) in [
            (q.c_cell, p.c_cell),
            (q.c_bitline, p.c_bitline),
            (q.r_bitline, p.r_bitline),
            (q.access.k, p.access.k),
            (q.sa_nmos.k, p.sa_nmos.k),
        ] {
            prop_assert!(a > 0.0);
            prop_assert!((a / b - 1.0).abs() <= 0.16, "{} vs {}", a, b);
        }
    }
}

/// The generator reaches both verdicts and the zero diagonals that force
/// row swaps, so the oracle comparison covers them.
#[test]
fn mna_systems_cover_swaps_and_singular_cases() {
    let (mut singular, mut solved, mut zero_diagonal) = (0, 0, 0);
    for seed in 0..200 {
        let n = 24;
        let (a, _) = mna_system(n, seed);
        if (0..n).any(|i| a[i * n + i] == 0.0) {
            zero_diagonal += 1;
        }
        let (ok, _, dense_ok, _) = solve_both(n, seed);
        assert_eq!(ok, dense_ok, "seed {seed}");
        if ok {
            solved += 1;
        } else {
            singular += 1;
        }
    }
    assert!(singular >= 10, "{singular} singular of 200");
    assert!(solved >= 100, "{solved} solved of 200");
    assert!(zero_diagonal >= 100, "{zero_diagonal} with a zero diagonal");
}

/// The replay checks reach every outcome: solved replays, singular ones,
/// and pivot orders the new values change, which force a recompile.
#[test]
fn replay_checks_cover_every_outcome() {
    let seen: Vec<Seen> = (0..200)
        .map(|seed| replay_against_dense(24, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}")))
        .collect();
    let count = |r| seen.iter().filter(|&&s| s == Seen::Replayed(r)).count();
    let counts = [Replay::Solved, Replay::Singular, Replay::Diverged].map(count);
    assert!(counts[0] >= 20, "{counts:?} solved, singular, diverged");
    assert!(counts[1] >= 10, "{counts:?} solved, singular, diverged");
    assert!(counts[2] >= 20, "{counts:?} solved, singular, diverged");
}
