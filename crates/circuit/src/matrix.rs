//! Pattern-aware LU factorization with partial pivoting, sized for MNA
//! systems of a few dozen unknowns, and its compiled replay.
//!
//! Values live in a dense row-major array. Next to it, every row and every
//! column keeps a bitset of the positions that can be nonzero: a superset
//! of the true pattern, with the row and column bitsets always exact
//! transposes of each other. Stamping marks positions. Elimination visits
//! only the rows that can be nonzero in the pivot column and the columns
//! that can be nonzero in the pivot row, marks the fill-in it creates, and
//! carries the bits along on row swaps; back substitution walks U's row
//! patterns.
//!
//! # Compiled replay
//!
//! A Newton loop solves one pattern many times, and its pivot order
//! rarely changes. [`Schedule::compile`] runs the elimination
//! symbolically, on the pattern alone with the pivot rows one solve took
//! ([`Matrix::solve_recording`]), and assumes every fill-in position
//! nonzero. It flattens each pivot step into index lists: the candidate
//! slots in the order the pivot search visits them, the pivot, the target
//! rows, and the pivot row's columns, which are also U's row for back
//! substitution. The row swaps are resolved at compile time (each slot
//! names the row its values were stamped in), so [`Schedule::replay`]
//! moves no row and walks no bitset. When a replay's pivot search picks
//! another row than the compiled one, it stops with [`Replay::Diverged`];
//! the caller then solves with the pattern LU and compiles again.
//!
//! # Cost
//!
//! A solve costs about the sum over pivots of (rows below × columns to the
//! right) in the pattern, plus a handful of word operations per pivot and
//! per swap — it scales with the nonzeros and their fill-in, not with n³.
//! The subarray netlists of [`crate::dram`] (about 33 unknowns and 100
//! nonzeros) factor in about 230 multiply-adds, against about 12,000 for
//! dense elimination. A replay does the same multiply-adds (plus those of
//! fill-in a zero multiplier spared the solve) over flat index lists, with
//! no swap or bitset word in between. What is left is latency: the chain
//! from each division through its row update to the next pivot, and back
//! substitution's ordered sums.
//!
//! # Bit identity with dense elimination
//!
//! The pivot rule is dense partial pivoting's: the first strict maximum
//! `|a|` at or below the diagonal. Every operation that is skipped is
//! `x − f·0` (an update by a zero of the pivot row), `s − 0·b` (a zero of
//! U in back substitution), or the update of the pivot column itself,
//! which is never read again. For finite values the first two leave a
//! nonzero `x` or `s` unchanged, and every kept term is summed in the same
//! order as the dense loop. The solution therefore equals dense
//! elimination's bit for bit, up to the sign of a zero, and the singular
//! verdicts agree. `tests/prop.rs` checks both against the dense loop on
//! random sparse systems.
//!
//! A replay keeps every operation of the pattern LU, in the same order.
//! Its extra positions (fill-in the solve skipped) hold exact zeros: a
//! zero never wins the strict-maximum pivot search, gives a zero
//! multiplier, which is skipped as in the solve, or is one of the
//! skippable updates above. So a replay that does not diverge returns the
//! pattern LU's solution and verdict, up to the sign of a zero;
//! `tests/prop.rs` holds it to the dense loop too.

/// A square matrix: dense row-major values plus row and column nonzero
/// patterns.
#[derive(Debug, Clone)]
pub struct Matrix {
    n: usize,
    /// 64-bit words per row or column bitset.
    words: usize,
    a: Vec<f64>,
    /// Bit `c` of row `r`'s words is set if `(r, c)` can be nonzero.
    rows: Vec<u64>,
    /// Bit `r` of column `c`'s words is set if `(r, c)` can be nonzero.
    cols: Vec<u64>,
}

/// Singular-pivot threshold: a column whose largest candidate pivot is
/// below this in magnitude makes the system singular.
const PIVOT_MIN: f64 = 1e-30;

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        let words = n.div_ceil(64);
        Matrix {
            n,
            words,
            a: vec![0.0; n * n],
            rows: vec![0; n * words],
            cols: vec![0; n * words],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    /// Element setter; marks `(r, c)` as possibly nonzero.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.mark(r, c);
        self.a[r * self.n + c] = v;
    }

    /// Adds `v` to element `(r, c)` — the stamping primitive. Marks
    /// `(r, c)` as possibly nonzero.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.mark(r, c);
        self.a[r * self.n + c] += v;
    }

    /// Zeroes every element and the pattern.
    pub fn clear(&mut self) {
        self.a.fill(0.0);
        self.rows.fill(0);
        self.cols.fill(0);
    }

    /// Makes `self` a copy of `other`, reusing `self`'s storage.
    pub(crate) fn copy_from(&mut self, other: &Matrix) {
        self.n = other.n;
        self.words = other.words;
        self.a.clone_from(&other.a);
        self.rows.clone_from(&other.rows);
        self.cols.clone_from(&other.cols);
    }

    /// Marks `(r, c)` as possibly nonzero and returns its slot: the
    /// position [`Matrix::add_at`] adds to, in this matrix and in every
    /// copy of it made by [`Matrix::copy_from`]. Stamping loops that touch
    /// the same positions every iteration take their slots once.
    pub(crate) fn slot(&mut self, r: usize, c: usize) -> usize {
        self.mark(r, c);
        r * self.n + c
    }

    /// Adds `v` at a slot from [`Matrix::slot`].
    #[inline]
    pub(crate) fn add_at(&mut self, slot: usize, v: f64) {
        debug_assert!(
            test(bits(&self.rows, slot / self.n, self.words), slot % self.n),
            "slot {slot} was never marked"
        );
        self.a[slot] += v;
    }

    #[inline]
    fn mark(&mut self, r: usize, c: usize) {
        let w = self.words;
        self.rows[r * w + c / 64] |= 1 << (c % 64);
        self.cols[c * w + r / 64] |= 1 << (r % 64);
    }

    /// Solves `A·x = b` in place (`b` becomes `x`) via LU with partial
    /// pivoting over the nonzero pattern. `A` is destroyed.
    ///
    /// Returns `false` if the matrix is numerically singular.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> bool {
        self.solve_recording(b, &mut Vec::new())
    }

    /// [`Matrix::solve_in_place`] that also records, for every column in
    /// turn, the row its pivot came from: the pivot order
    /// [`Schedule::compile`] takes. A singular solve records the columns
    /// before the singular one.
    pub fn solve_recording(&mut self, b: &mut [f64], pivots: &mut Vec<usize>) -> bool {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        pivots.clear();
        // One word per bitset (n ≤ 64) is the common case; its own
        // instance lets the compiler fold the word loops away.
        if self.words == 1 {
            self.factor_solve::<1>(b, pivots)
        } else {
            self.factor_solve::<0>(b, pivots)
        }
    }

    /// [`Matrix::solve_recording`] over bitsets of `W` words (`W = 0`: the
    /// matrix's own word count). Bitsets are walked one copied word at a
    /// time ([`ones`]), so the loops may mark fill-in while they walk.
    fn factor_solve<const W: usize>(&mut self, b: &mut [f64], pivots: &mut Vec<usize>) -> bool {
        let n = self.n;
        let w = if W == 0 { self.words } else { W };
        for k in 0..n {
            let right = k + 1;
            // Pivot: the first strict maximum |a| at or below the diagonal.
            let mut p = k;
            let mut max = self.a[k * n + k].abs();
            for j in right / 64..w {
                for r in ones(bits(&self.cols, k, w), j, right) {
                    let v = self.a[r * n + k].abs();
                    if v > max {
                        max = v;
                        p = r;
                    }
                }
            }
            if max < PIVOT_MIN {
                return false;
            }
            pivots.push(p);
            if p != k {
                self.swap_rows::<W>(k, p);
                b.swap(k, p);
            }
            // Eliminate below the pivot over the pivot row's columns right
            // of k; column k itself is never read again.
            let pivot = self.a[k * n + k];
            let bk = b[k];
            for j in right / 64..w {
                let mut updated = 0u64;
                for r in ones(bits(&self.cols, k, w), j, right) {
                    let f = self.a[r * n + k] / pivot;
                    if f == 0.0 {
                        continue;
                    }
                    for i in right / 64..w {
                        for c in ones(bits(&self.rows, k, w), i, right) {
                            self.a[r * n + c] -= f * self.a[k * n + c];
                        }
                    }
                    b[r] -= f * bk;
                    updated |= 1 << (r % 64);
                }
                self.fill::<W>(k, j, updated);
            }
        }
        // Back substitution over U's pattern.
        for k in (0..n).rev() {
            let right = k + 1;
            let mut s = b[k];
            for i in right / 64..w {
                for c in ones(bits(&self.rows, k, w), i, right) {
                    s -= self.a[k * n + c] * b[c];
                }
            }
            b[k] = s / self.a[k * n + k];
        }
        true
    }

    /// Fill-in of pivot step `k`: the rows of word `j` set in `updated`
    /// take the pivot row's pattern right of `k` (`W` as in
    /// [`Matrix::factor_solve`]).
    fn fill<const W: usize>(&mut self, k: usize, j: usize, updated: u64) {
        let w = if W == 0 { self.words } else { W };
        let right = k + 1;
        let updated_rows = Ones {
            word: updated,
            base: j * 64,
        };
        for i in right / 64..w {
            let upper = ones(bits(&self.rows, k, w), i, right);
            for r in updated_rows {
                self.rows[r * w + i] |= upper.word;
            }
            for c in upper {
                self.cols[c * w + j] |= updated;
            }
        }
    }

    /// Swaps rows `k` and `p` with their patterns (`W` as in
    /// [`Matrix::factor_solve`]).
    fn swap_rows<const W: usize>(&mut self, k: usize, p: usize) {
        let n = self.n;
        let w = if W == 0 { self.words } else { W };
        for i in 0..w {
            let either = Ones {
                word: self.rows[k * w + i] | self.rows[p * w + i],
                base: i * 64,
            };
            for c in either {
                self.a.swap(k * n + c, p * n + c);
                let col = &mut self.cols[c * w..(c + 1) * w];
                if test(col, k) != test(col, p) {
                    col[k / 64] ^= 1 << (k % 64);
                    col[p / 64] ^= 1 << (p % 64);
                }
            }
            self.rows.swap(k * w + i, p * w + i);
        }
    }
}

/// The LU elimination of one pattern under one pivot order, compiled to
/// flat index lists (see the module docs). Slots are row-major positions
/// `row · n + column` in the rows the values were stamped in.
#[derive(Debug, Clone)]
pub struct Schedule {
    n: usize,
    /// The compiled pattern's row bitsets, which a replayed matrix's
    /// pattern must lie within (checked in debug builds).
    pattern: Vec<u64>,
    /// The pivot swaps `(k, p)` with `p ≠ k`, in step order.
    swaps: Vec<(u32, u32)>,
    steps: Vec<Step>,
    /// Each step's candidate slots in search order, the diagonal first.
    candidates: Vec<u32>,
    /// Each step's target rows in elimination order: the slot of the row's
    /// column 0, and the row's right-hand-side position after all swaps.
    targets: Vec<(u32, u32)>,
    /// Each step's pivot row columns right of the pivot, ascending.
    columns: Vec<u32>,
}

/// One pivot step of a [`Schedule`]: its runs in the flat lists (start,
/// end), the compiled pivot and the pivot row.
#[derive(Debug, Clone, Copy)]
struct Step {
    candidates: (u32, u32),
    targets: (u32, u32),
    columns: (u32, u32),
    /// Index of the pivot among the step's candidates.
    pick: u32,
    /// Slot of the pivot row's column 0.
    row: u32,
}

/// How a [`Schedule::replay`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// `b` holds the solution.
    Solved,
    /// The matrix is numerically singular, the pattern LU's verdict too.
    Singular,
    /// A pivot search picked another row than the compiled one. The
    /// values and `b` are spent; solve again with the pattern LU.
    Diverged,
}

impl Schedule {
    /// Compiles the elimination of `pattern`'s pattern (its values are not
    /// read) under `pivots`, one pivot row per column as
    /// [`Matrix::solve_recording`] reports them for a matrix of this
    /// pattern. Every fill-in position is assumed nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `pivots` does not name one row per column that the
    /// pattern allows as that column's pivot.
    pub fn compile(pattern: &Matrix, pivots: &[usize]) -> Schedule {
        let n = pattern.n;
        let w = pattern.words;
        assert_eq!(pivots.len(), n, "one pivot row per column");
        assert!(u32::try_from(n * n).is_ok(), "slots fit in u32");
        let slot = |row: usize, c: usize| (row * n + c) as u32;
        let mut m = pattern.clone();
        // Position → row the values sit in.
        let mut rows: Vec<usize> = (0..n).collect();
        let mut target_rows = Vec::new();
        let mut s = Schedule {
            n,
            pattern: pattern.rows.clone(),
            swaps: Vec::new(),
            steps: Vec::with_capacity(n),
            candidates: Vec::new(),
            targets: Vec::new(),
            columns: Vec::new(),
        };
        let run = |start: usize, end: usize| (start as u32, end as u32);
        for (k, &p) in pivots.iter().enumerate() {
            let right = k + 1;
            let first = s.candidates.len();
            s.candidates.push(slot(rows[k], k));
            let mut pick = (p == k).then_some(0);
            for j in right / 64..w {
                for r in ones(bits(&m.cols, k, w), j, right) {
                    if r == p {
                        pick = Some(s.candidates.len() - first);
                    }
                    s.candidates.push(slot(rows[r], k));
                }
            }
            let pick = pick.expect("the pivot row is a candidate of its column");
            if p != k {
                m.swap_rows::<0>(k, p);
                rows.swap(k, p);
                s.swaps.push((k as u32, p as u32));
            }
            let columns = s.columns.len();
            for i in right / 64..w {
                s.columns
                    .extend(ones(bits(&m.rows, k, w), i, right).map(|c| c as u32));
            }
            let targets = target_rows.len();
            for j in right / 64..w {
                let below = ones(bits(&m.cols, k, w), j, right);
                target_rows.extend(below.map(|r| rows[r]));
                m.fill::<0>(k, j, below.word);
            }
            s.steps.push(Step {
                candidates: run(first, s.candidates.len()),
                targets: run(targets, target_rows.len()),
                columns: run(columns, s.columns.len()),
                pick: pick as u32,
                row: slot(rows[k], 0),
            });
        }
        let mut position = vec![0; n];
        for (pos, &row) in rows.iter().enumerate() {
            position[row] = pos;
        }
        s.targets = target_rows
            .iter()
            .map(|&row| (slot(row, 0), position[row] as u32))
            .collect();
        s
    }

    /// Solves `A·x = b` in place (`b` becomes `x`) for a matrix `m` of
    /// the compiled pattern with the compiled elimination, as
    /// [`Matrix::solve_in_place`] would, up to the sign of a zero. `m`'s
    /// values are destroyed; its pattern is left as it is.
    pub fn replay(&self, m: &mut Matrix, b: &mut [f64]) -> Replay {
        assert_eq!((m.n, b.len()), (self.n, self.n), "dimension mismatch");
        debug_assert!(
            m.rows.iter().zip(&self.pattern).all(|(m, s)| m & !s == 0),
            "the matrix has nonzeros outside the compiled pattern"
        );
        let a = &mut m.a[..];
        // Every row's right-hand side goes straight to its final position.
        for &(k, p) in &self.swaps {
            b.swap(k as usize, p as usize);
        }
        for (k, step) in self.steps.iter().enumerate() {
            let candidates = self.step_candidates(step);
            let mut pick = 0;
            let mut max = a[candidates[0] as usize].abs();
            for (i, &slot) in candidates.iter().enumerate().skip(1) {
                let v = a[slot as usize].abs();
                if v > max {
                    max = v;
                    pick = i;
                }
            }
            if max < PIVOT_MIN {
                return Replay::Singular;
            }
            if pick != step.pick as usize {
                return Replay::Diverged;
            }
            let row = step.row as usize;
            let pivot = a[row + k];
            let bk = b[k];
            let columns = self.step_columns(step);
            for &(t, q) in self.step_targets(step) {
                let t = t as usize;
                let f = a[t + k] / pivot;
                if f == 0.0 {
                    continue;
                }
                for &c in columns {
                    let c = c as usize;
                    a[t + c] -= f * a[row + c];
                }
                b[q as usize] -= f * bk;
            }
        }
        for (k, step) in self.steps.iter().enumerate().rev() {
            let row = step.row as usize;
            let mut s = b[k];
            for &c in self.step_columns(step) {
                let c = c as usize;
                s -= a[row + c] * b[c];
            }
            b[k] = s / a[row + k];
        }
        Replay::Solved
    }

    fn step_candidates(&self, step: &Step) -> &[u32] {
        &self.candidates[step.candidates.0 as usize..step.candidates.1 as usize]
    }

    fn step_targets(&self, step: &Step) -> &[(u32, u32)] {
        &self.targets[step.targets.0 as usize..step.targets.1 as usize]
    }

    fn step_columns(&self, step: &Step) -> &[u32] {
        &self.columns[step.columns.0 as usize..step.columns.1 as usize]
    }
}

/// Bitset `i` of a row-major table of `w`-word bitsets.
#[inline]
fn bits(table: &[u64], i: usize, w: usize) -> &[u64] {
    &table[i * w..(i + 1) * w]
}

fn test(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

/// The set positions at or above `from` in word `i` of bitset `set`
/// (`i >= from / 64`). The word is copied, so `set` is free again.
#[inline]
fn ones(set: &[u64], i: usize, from: usize) -> Ones {
    let mask = if i == from / 64 {
        !0u64 << (from % 64)
    } else {
        !0
    };
    Ones {
        word: set[i] & mask,
        base: i * 64,
    }
}

/// The set bits of one bitset word as positions, lowest first.
#[derive(Debug, Clone, Copy)]
struct Ones {
    word: u64,
    /// Position of the word's bit 0.
    base: usize,
}

impl Iterator for Ones {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of positions marked as possibly nonzero.
    fn pattern_len(m: &Matrix) -> usize {
        m.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn solves_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let mut b = vec![3.0, -1.0, 2.0];
        assert!(m.solve_in_place(&mut b));
        assert_eq!(b, vec![3.0, -1.0, 2.0]);
    }

    #[test]
    fn solves_general_system() {
        // [2 1; 1 3] x = [5; 10] → x = [1; 3].
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let mut b = vec![5.0, 10.0];
        assert!(m.solve_in_place(&mut b));
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut m = Matrix::zeros(2);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        let mut b = vec![2.0, 3.0];
        assert!(m.solve_in_place(&mut b));
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 1.0);
        let mut b = vec![1.0, 2.0];
        assert!(!m.solve_in_place(&mut b));
    }

    #[test]
    fn stamping_accumulates() {
        let mut m = Matrix::zeros(1);
        m.add(0, 0, 2.0);
        m.add(0, 0, 3.0);
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(pattern_len(&m), 1);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(pattern_len(&m), 0);
    }

    /// Row and column bitsets stay exact transposes through swaps and
    /// fill-in, across a word boundary.
    #[test]
    fn patterns_stay_transposed_across_words() {
        let n = 70;
        let mut m = Matrix::zeros(n);
        // An arrow matrix with a zero (0, 0): row 0 swaps with row 69,
        // whose last-column entry then fills column 69 of every row below.
        for i in 1..n {
            m.set(i, i, 4.0);
            m.set(0, i, 1.0);
            m.set(i, 0, 1.0);
        }
        m.set(n - 1, 0, 9.0);
        let mut b = vec![1.0; n];
        let mut factored = m.clone();
        assert!(factored.solve_in_place(&mut b));
        let w = factored.words;
        for r in 0..n {
            for c in 0..n {
                assert_eq!(
                    test(bits(&factored.rows, r, w), c),
                    test(bits(&factored.cols, c, w), r),
                    "({r}, {c})"
                );
            }
        }
        // The solution satisfies the original system.
        for r in 0..n {
            let lhs: f64 = (0..n).map(|c| m.get(r, c) * b[c]).sum();
            assert!((lhs - 1.0).abs() < 1e-9, "row {r}: {lhs}");
        }
    }
}
