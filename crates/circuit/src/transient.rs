//! Backward-Euler transient engine with Newton–Raphson per step.
//!
//! Unknowns are the non-ground node voltages plus one branch current per
//! connected driven source (classic MNA). Scenario logic interacts with
//! the running simulation through slewable sources — the same way a DRAM
//! control FSM drives wordlines, sense enables, and precharge gates.
//!
//! The linear part of the system (resistors, capacitor companions, source
//! incidences) depends only on the step size and on which sources are
//! connected, so it is stamped once into a cached base matrix, rebuilt
//! when either changes. A step computes the capacitor history once; each
//! Newton iteration copies the base, adds the MOSFET terms at slots taken
//! when the base was built, and solves in buffers the engine owns, without
//! allocating. Every matrix element is still summed in the order a full
//! re-stamp would use — resistors, capacitors, then MOSFETs in netlist
//! order — and the source incidences sit where nothing else stamps, so the
//! iterates match a per-iteration re-stamp bit for bit.
//!
//! The stamp also keeps the elimination its first solve compiled
//! ([`Schedule`]), and every later iteration replays it: the pattern LU's
//! operations in the same order, with the row swaps resolved at compile
//! time, so the iterates are the pattern LU's up to the sign of a zero. A
//! replay whose pivot search leaves the compiled order stops; the
//! iteration is stamped again, solved by the pattern LU, and its pivot
//! order compiled. Nominal Table 1 makes 42,398 Newton solves, 9 of them
//! through the pattern LU.

use crate::devices::{Node, GMIN};
use crate::matrix::{Matrix, Replay, Schedule};
use crate::netlist::{Netlist, SourceId};

/// A running transient simulation.
#[derive(Debug, Clone)]
pub struct Transient {
    net: Netlist,
    v: Vec<f64>,
    t_ns: f64,
    dt_ns: f64,
    /// The linear stamp for the last step size; `None` after the set of
    /// connected sources changes.
    linear: Option<LinearStamp>,
    /// Jacobian of the current Newton iteration (destroyed by the solve).
    g: Matrix,
    /// Capacitor history right-hand side of the current step.
    hist: Vec<f64>,
    /// Right-hand side of the current iteration; the solve turns it into
    /// the new unknowns.
    x: Vec<f64>,
    /// Node voltages of the current Newton iterate.
    v_iter: Vec<f64>,
    /// Pivot order of the last pattern-LU solve.
    pivots: Vec<usize>,
}

/// Resistor conductances, capacitor `C/dt` companions and source
/// incidences for one step size and one set of connected sources, with
/// the MOSFET positions reserved.
#[derive(Debug, Clone)]
struct LinearStamp {
    dt_ns: f64,
    /// Connected sources; `connected[j]` owns branch unknown `nodes − 1 + j`.
    connected: Vec<usize>,
    /// Where each MOSFET stamps, in netlist order.
    mosfets: Vec<MosStamp>,
    g: Matrix,
    /// The elimination compiled from the pivot order of the last solve the
    /// pattern LU made on this stamp; `None` before the first and after a
    /// singular one.
    lu: Option<Schedule>,
}

/// Where one MOSFET stamps: its drain and source unknowns, and the matrix
/// slots of its ten Jacobian terms in stamping order — GMIN across the
/// channel (dd, ss, ds, sd), then the drain row and the source row, each
/// over (d, g, s). `None` marks a ground terminal.
#[derive(Debug, Clone)]
struct MosStamp {
    d: Option<usize>,
    s: Option<usize>,
    slots: [Option<usize>; 10],
}

impl LinearStamp {
    fn new(net: &Netlist, dt_ns: f64) -> Self {
        let nodes = net.nodes();
        let connected: Vec<usize> = net
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.connected)
            .map(|(i, _)| i)
            .collect();
        let mut g = Matrix::zeros(nodes - 1 + connected.len());
        for r in &net.resistors {
            stamp_conductance(&mut g, unknown(r.a), unknown(r.b), 1.0 / r.ohms);
        }
        let dt_s = dt_ns * 1e-9;
        for c in &net.capacitors {
            stamp_conductance(&mut g, unknown(c.a), unknown(c.b), c.farads / dt_s);
        }
        for (j, &si) in connected.iter().enumerate() {
            let br = nodes - 1 + j;
            let node = unknown(net.sources[si].node).expect("sources never drive ground");
            g.add(br, node, 1.0);
            g.add(node, br, 1.0);
        }
        let mosfets = net
            .mosfets
            .iter()
            .map(|m| {
                let (d, gate, s) = (unknown(m.d), unknown(m.g), unknown(m.s));
                let mut slot = |r: Option<usize>, c: Option<usize>| Some(g.slot(r?, c?));
                MosStamp {
                    d,
                    s,
                    slots: [
                        slot(d, d),
                        slot(s, s),
                        slot(d, s),
                        slot(s, d),
                        slot(d, d),
                        slot(d, gate),
                        slot(d, s),
                        slot(s, d),
                        slot(s, gate),
                        slot(s, s),
                    ],
                }
            })
            .collect();
        LinearStamp {
            dt_ns,
            connected,
            mosfets,
            g,
            lu: None,
        }
    }

    /// Stamps one Newton iteration at the node voltages `v_iter` on top of
    /// the linear part `g` already holds: the MOSFET Jacobian terms into
    /// `g`, and the history, MOSFET and source terms into `x`.
    fn stamp_iteration(
        &self,
        net: &Netlist,
        v_iter: &[f64],
        hist: &[f64],
        g: &mut Matrix,
        x: &mut Vec<f64>,
    ) {
        x.clear();
        x.extend_from_slice(hist);
        for (m, stamp) in net.mosfets.iter().zip(&self.mosfets) {
            let (vd, vg, vs) = (v_iter[m.d], v_iter[m.g], v_iter[m.s]);
            let lin = m.linearize(vd, vg, vs);
            // GMIN across the channel, then the Jacobian rows for KCL at d
            // (+I) and s (−I).
            let terms = [
                GMIN,
                GMIN,
                -GMIN,
                -GMIN,
                lin.di_dvd,
                lin.di_dvg,
                lin.di_dvs,
                -lin.di_dvd,
                -lin.di_dvg,
                -lin.di_dvs,
            ];
            for (&slot, term) in stamp.slots.iter().zip(terms) {
                if let Some(slot) = slot {
                    g.add_at(slot, term);
                }
            }
            let i_lin = lin.ids - lin.di_dvd * vd - lin.di_dvg * vg - lin.di_dvs * vs;
            if let Some(d) = stamp.d {
                x[d] -= i_lin;
            }
            if let Some(s) = stamp.s {
                x[s] += i_lin;
            }
        }
        let nodes = net.nodes();
        for (j, &si) in self.connected.iter().enumerate() {
            x[nodes - 1 + j] = net.sources[si].value;
        }
    }
}

/// Newton convergence tolerance (volts).
const TOL_V: f64 = 1e-6;
/// Maximum Newton iterations per (sub)step.
const MAX_ITERS: usize = 60;
/// Per-iteration voltage-update clamp for robustness (volts).
const DAMP_V: f64 = 0.4;

impl Transient {
    /// Creates an engine over `net` with the given time step. Initial node
    /// voltages are zero except source-driven nodes, which start at their
    /// source values; override with [`Transient::set_ic`].
    pub fn new(net: Netlist, dt_ns: f64) -> Self {
        assert!(dt_ns > 0.0, "time step must be positive");
        let mut v = vec![0.0; net.nodes()];
        for s in &net.sources {
            if s.connected {
                v[s.node] = s.value;
            }
        }
        Transient {
            net,
            v,
            t_ns: 0.0,
            dt_ns,
            linear: None,
            g: Matrix::zeros(0),
            hist: Vec::new(),
            x: Vec::new(),
            v_iter: Vec::new(),
            pivots: Vec::new(),
        }
    }

    /// Present simulation time in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        self.t_ns
    }

    /// Voltage of a node.
    pub fn v(&self, node: usize) -> f64 {
        self.v[node]
    }

    /// Sets a node's initial condition (before the first step).
    pub fn set_ic(&mut self, node: usize, volts: f64) {
        self.v[node] = volts;
    }

    /// Starts slewing a source toward `target` at `slew_v_per_ns`.
    pub fn slew(&mut self, id: SourceId, target: f64, slew_v_per_ns: f64) {
        let s = &mut self.net.sources[id.0];
        s.target = target;
        s.slew_v_per_ns = slew_v_per_ns;
    }

    /// Immediately steps a source to `value`.
    pub fn set_source(&mut self, id: SourceId, value: f64) {
        let s = &mut self.net.sources[id.0];
        s.value = value;
        s.target = value;
    }

    /// Connects or disconnects a source (disconnected = floating node).
    pub fn set_connected(&mut self, id: SourceId, connected: bool) {
        let s = &mut self.net.sources[id.0];
        if s.connected != connected {
            s.connected = connected;
            self.linear = None;
        }
    }

    /// Advances one time step.
    ///
    /// # Panics
    ///
    /// Panics if Newton fails to converge even after sub-stepping — that
    /// indicates an unphysical netlist, which is a bug, not a data error.
    pub fn step(&mut self) {
        self.advance_sources(self.dt_ns);
        if !self.solve_step(self.dt_ns) {
            // Progressive sub-stepping with rollback: 4, 16, then 64
            // sub-steps of the interval.
            let mut done = false;
            'outer: for subdivisions in [4usize, 16, 64] {
                let saved = self.v.clone();
                let sub = self.dt_ns / subdivisions as f64;
                for _ in 0..subdivisions {
                    if !self.solve_step(sub) {
                        self.v = saved;
                        continue 'outer;
                    }
                }
                done = true;
                break;
            }
            assert!(
                done,
                "newton failed to converge at t = {} ns even with 64 sub-steps",
                self.t_ns
            );
        }
        self.t_ns += self.dt_ns;
    }

    /// Runs for `duration_ns`.
    pub fn run(&mut self, duration_ns: f64) {
        let end = self.t_ns + duration_ns;
        while self.t_ns < end - 1e-12 {
            self.step();
        }
    }

    fn advance_sources(&mut self, dt: f64) {
        for s in &mut self.net.sources {
            if s.value == s.target {
                continue;
            }
            if !s.slew_v_per_ns.is_finite() {
                s.value = s.target;
                continue;
            }
            let max_delta = s.slew_v_per_ns * dt;
            let delta = (s.target - s.value).clamp(-max_delta, max_delta);
            s.value += delta;
        }
    }

    /// One backward-Euler step of `dt`; returns convergence success.
    ///
    /// On failure the node voltages are left as they were.
    fn solve_step(&mut self, dt: f64) -> bool {
        if self.linear.as_ref().is_none_or(|l| l.dt_ns != dt) {
            self.linear = Some(LinearStamp::new(&self.net, dt));
        }
        let Transient {
            net,
            v,
            linear,
            g,
            hist,
            x,
            v_iter,
            pivots,
            ..
        } = self;
        let linear = linear.as_mut().expect("stamped above");
        let nodes = net.nodes();

        // Backward-Euler history current of every capacitor, from the
        // voltages at the start of the step.
        let dt_s = dt * 1e-9;
        hist.clear();
        hist.resize(linear.g.n(), 0.0);
        for c in &net.capacitors {
            let h = c.farads / dt_s * (v[c.a] - v[c.b]);
            if let Some(a) = unknown(c.a) {
                hist[a] += h;
            }
            if let Some(b) = unknown(c.b) {
                hist[b] -= h;
            }
        }

        v_iter.clone_from(v);
        let mut iters = 0;
        loop {
            iters += 1;
            g.copy_from(&linear.g);
            linear.stamp_iteration(net, v_iter, hist, g, x);
            let replayed = linear.lu.as_ref().map(|lu| lu.replay(g, x));
            count_solve(matches!(replayed, Some(Replay::Solved | Replay::Singular)));
            let solved = match replayed {
                Some(Replay::Solved) => true,
                Some(Replay::Singular) => false,
                Some(Replay::Diverged) | None => {
                    if replayed.is_some() {
                        // The replay spent the values and the right-hand side.
                        g.copy_from(&linear.g);
                        linear.stamp_iteration(net, v_iter, hist, g, x);
                    }
                    let solved = g.solve_recording(x, pivots);
                    linear.lu = solved.then(|| Schedule::compile(&linear.g, pivots));
                    solved
                }
            };
            if !solved {
                return false;
            }
            // Damped update + convergence check.
            let mut max_delta: f64 = 0.0;
            for node in 1..nodes {
                let newv = x[node - 1];
                let delta = (newv - v_iter[node]).clamp(-DAMP_V, DAMP_V);
                max_delta = max_delta.max(delta.abs());
                v_iter[node] += delta;
            }
            if max_delta < TOL_V {
                break;
            }
            if iters >= MAX_ITERS {
                return false;
            }
        }
        std::mem::swap(&mut self.v, &mut self.v_iter);
        true
    }
}

#[cfg(test)]
thread_local! {
    /// Newton solves made on this thread: (replayed, solved by the pattern
    /// LU).
    static SOLVES: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Counts one Newton solve (test builds only).
#[cfg(test)]
fn count_solve(replayed: bool) {
    SOLVES.with(|c| {
        let (r, f) = c.get();
        c.set(if replayed { (r + 1, f) } else { (r, f + 1) });
    });
}

#[cfg(not(test))]
fn count_solve(_replayed: bool) {}

/// Unknown index of a node: node k (k ≥ 1) → k − 1; ground has none.
/// Source branch j is unknown `nodes − 1 + j`.
fn unknown(node: Node) -> Option<usize> {
    node.checked_sub(1)
}

fn stamp_conductance(g: &mut Matrix, a: Option<usize>, b: Option<usize>, cond: f64) {
    if let Some(a) = a {
        g.add(a, a, cond);
    }
    if let Some(b) = b {
        g.add(b, b, cond);
    }
    if let (Some(a), Some(b)) = (a, b) {
        g.add(a, b, -cond);
        g.add(b, a, -cond);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MosParams;

    #[test]
    fn rc_discharge_matches_analytic() {
        // 1 kΩ to ground, 1 pF at 1 V: τ = 1 ns.
        let mut net = Netlist::new();
        let n = net.node("top");
        net.resistor(n, 0, 1000.0);
        net.capacitor(n, 0, 1e-12);
        let mut sim = Transient::new(net, 0.001);
        sim.set_ic(n, 1.0);
        sim.run(1.0);
        let expect = (-1.0f64).exp();
        assert!(
            (sim.v(n) - expect).abs() < 0.01,
            "v {} vs {expect}",
            sim.v(n)
        );
    }

    #[test]
    fn source_drives_rc_charge() {
        let mut net = Netlist::new();
        let top = net.node("top");
        let mid = net.node("mid");
        let src = net.source(top, 1.0);
        net.resistor(top, mid, 1000.0);
        net.capacitor(mid, 0, 1e-12);
        let mut sim = Transient::new(net, 0.001);
        sim.run(5.0);
        assert!((sim.v(mid) - 1.0).abs() < 0.01, "v {}", sim.v(mid));
        let _ = src;
    }

    #[test]
    fn slewed_source_ramps_linearly() {
        let mut net = Netlist::new();
        let n = net.node("drv");
        let src = net.source(n, 0.0);
        net.capacitor(n, 0, 1e-18); // keep the matrix non-singular
        let mut sim = Transient::new(net, 0.01);
        sim.slew(src, 1.0, 0.5); // 0.5 V/ns → 2 ns to reach 1 V
        sim.run(1.0);
        assert!((sim.v(n) - 0.5).abs() < 0.02, "v {}", sim.v(n));
        sim.run(1.5);
        assert!((sim.v(n) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_pass_gate_charges_capacitor_to_vg_minus_vth() {
        // Source-follower limit: cap charges to vg − vth.
        let mut net = Netlist::new();
        let bl = net.node("bl");
        let cell = net.node("cell");
        let wl = net.node("wl");
        net.source(bl, 1.2);
        let _wl_src = net.source(wl, 2.4);
        net.nmos(
            bl,
            wl,
            cell,
            MosParams {
                k: 1e-4,
                vth: 0.5,
                lambda: 0.0,
            },
        );
        net.capacitor(cell, 0, 20e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.run(50.0);
        // vpp − vth = 1.9 > vdd → cell reaches full 1.2 V.
        assert!((sim.v(cell) - 1.2).abs() < 0.02, "cell {}", sim.v(cell));
    }

    #[test]
    fn disconnected_source_floats_node() {
        let mut net = Netlist::new();
        let n = net.node("float");
        let src = net.source(n, 1.0);
        net.capacitor(n, 0, 1e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.run(0.1);
        assert!((sim.v(n) - 1.0).abs() < 1e-6);
        sim.set_connected(src, false);
        sim.set_source(src, 0.0);
        sim.run(1.0);
        // Node holds its charge (no discharge path).
        assert!((sim.v(n) - 1.0).abs() < 0.01, "v {}", sim.v(n));
    }

    /// The compiled replay carries nominal Table 1. A replay that keeps
    /// diverging (say, one whose pivot search starts from the wrong
    /// diagonal slot) still returns the pattern LU's results through the
    /// fallback, only slower, so only a count shows it.
    #[test]
    fn replay_carries_nominal_table1() {
        SOLVES.with(|c| c.set((0, 0)));
        crate::timing::measure_table1(&crate::CircuitParams::default_22nm());
        let (replayed, full) = SOLVES.with(|c| c.get());
        assert!(
            replayed >= 99 * (replayed + full) / 100,
            "{replayed} replayed, {full} by the pattern LU"
        );
    }

    #[test]
    fn cross_coupled_inverter_latch_regenerates() {
        // A minimal sense-amp core: cross-coupled inverters between two
        // capacitive nodes with a small initial imbalance must regenerate
        // to the rails once enabled.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let sap = net.node("sap");
        let san = net.node("san");
        let sap_src = net.source(sap, 0.6);
        let san_src = net.source(san, 0.6);
        let nk = MosParams {
            k: 2.6e-4,
            vth: 0.42,
            lambda: 0.08,
        };
        let pk = MosParams {
            k: -1.3e-4,
            vth: -0.42,
            lambda: 0.08,
        };
        net.nmos(a, b, san, nk);
        net.nmos(b, a, san, nk);
        net.pmos(a, b, sap, pk);
        net.pmos(b, a, sap, pk);
        net.capacitor(a, 0, 50e-15);
        net.capacitor(b, 0, 50e-15);
        let mut sim = Transient::new(net, 0.01);
        sim.set_ic(a, 0.68);
        sim.set_ic(b, 0.60);
        sim.slew(sap_src, 1.2, 4.0);
        sim.slew(san_src, 0.0, 4.0);
        sim.run(15.0);
        assert!(sim.v(a) > 1.1, "a {}", sim.v(a));
        assert!(sim.v(b) < 0.1, "b {}", sim.v(b));
    }
}
