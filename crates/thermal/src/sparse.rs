//! Minimal sparse linear algebra: CSR matrices built from triplets.
//!
//! The thermal RC network produces symmetric positive-definite systems with
//! ~7 nonzeros per row; CSR plus conjugate gradients (see [`crate::solver`])
//! is all that is needed.
//!
//! The matrix-vector kernels shard across `std::thread::scope` row chunks
//! once a matrix is large enough to amortize thread spawning; below
//! [`PARALLEL_NNZ_CROSSOVER`] they stay serial so the small matrices used by
//! tests and coarse grids never pay the spawn cost.

/// Nonzeros below which `mul_vec` stays single-threaded. Spawning a scoped
/// thread costs tens of microseconds; a serial SpMV pass over this many
/// nonzeros costs about the same, so parallelism only pays above it.
pub const PARALLEL_NNZ_CROSSOVER: usize = 1 << 20;

/// Detected hardware parallelism, cached after the first query.
pub fn hardware_threads() -> usize {
    use std::sync::OnceLock;
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Threads worth using for `work` units of row-chunk work: 1 below the
/// crossover, then one more thread per crossover's worth of nonzeros up to
/// the hardware limit.
fn threads_for(work: usize) -> usize {
    if work < PARALLEL_NNZ_CROSSOVER {
        1
    } else {
        hardware_threads().min(work / PARALLEL_NNZ_CROSSOVER + 1)
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows (== columns; all matrices here are square).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `i` as `(column indices, values)`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The diagonal entries (0 where a row has no stored diagonal).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (i, di) in d.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    *di = self.values[k];
                }
            }
        }
        d
    }

    /// `y = A x`, sharded across row chunks when the matrix is large enough
    /// (see [`PARALLEL_NNZ_CROSSOVER`]).
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the matrix dimension.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_threads(x, y, threads_for(self.nnz()));
    }

    /// `y = A x` and returns `xᵀ A x` from the same pass — the fused
    /// SpMV + dot the CG iteration needs (`p·Ap`).
    pub fn mul_vec_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        self.mul_vec_threads(x, y, threads_for(self.nnz()));
        // One reduction pass over two streams that are still cache-hot from
        // the SpMV; cheaper than threading the accumulator through the
        // sharded kernel.
        x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
    }

    /// `y = A x` with an explicit worker count (1 ⇒ the serial kernel).
    /// Exposed so equivalence tests can exercise the sharded path on any
    /// machine regardless of its core count.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the matrix dimension or
    /// `threads == 0`.
    pub fn mul_vec_threads(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        assert!(threads >= 1);
        if threads == 1 || self.n < 2 {
            self.mul_vec_rows(x, y, 0);
            return;
        }
        let threads = threads.min(self.n);
        let rows_per = self.n.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest = y;
            let mut row0 = 0usize;
            while !rest.is_empty() {
                let take = rows_per.min(rest.len());
                let (chunk, tail) = rest.split_at_mut(take);
                let start = row0;
                scope.spawn(move || self.mul_vec_rows(x, chunk, start));
                rest = tail;
                row0 += take;
            }
        });
    }

    /// Serial SpMV of rows `row0 .. row0 + y.len()` into `y`.
    fn mul_vec_rows(&self, x: &[f64], y: &mut [f64], row0: usize) {
        for (di, yi) in y.iter_mut().enumerate() {
            let i = row0 + di;
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
    }

    /// Multi-RHS SpMV over a structure-of-arrays block: `x` and `y` hold
    /// `k` interleaved columns in node-major, lane-minor order
    /// (`x[node * k + lane]`), and each row's index list is streamed **once**
    /// for all `k` lanes. The inner lane loop runs over a contiguous slice,
    /// so it auto-vectorizes where the column-at-a-time path reloads
    /// `col_idx` per lane.
    ///
    /// Per lane the accumulation order is identical to the serial
    /// [`Self::mul_vec`] kernel (ascending nonzeros, one final store), so
    /// lane `l` of `y` is bitwise equal to `mul_vec` on lane `l` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the block lengths are not `n * k`.
    pub fn mul_vec_multi(&self, k: usize, x: &[f64], y: &mut [f64]) {
        assert!(k >= 1);
        assert_eq!(x.len(), self.n * k);
        assert_eq!(y.len(), self.n * k);
        for (i, yrow) in y.chunks_exact_mut(k).enumerate() {
            yrow.fill(0.0);
            for nz in self.row_ptr[i]..self.row_ptr[i + 1] {
                let v = self.values[nz];
                let xrow = &x[self.col_idx[nz] * k..self.col_idx[nz] * k + k];
                for (yl, &xl) in yrow.iter_mut().zip(xrow) {
                    *yl += v * xl;
                }
            }
        }
    }

    /// Multi-RHS fused SpMV + quadratic form: `y = A x` per lane via
    /// [`Self::mul_vec_multi`], then `pap[l] = xₗᵀ A xₗ` accumulated in the
    /// same ascending-row order as the single-RHS [`Self::mul_vec_dot`], so
    /// every lane's dot is bitwise equal to its solo counterpart.
    pub fn mul_vec_dot_multi(&self, k: usize, x: &[f64], y: &mut [f64], pap: &mut [f64]) {
        assert_eq!(pap.len(), k);
        self.mul_vec_multi(k, x, y);
        pap.fill(0.0);
        for (xrow, yrow) in x.chunks_exact(k).zip(y.chunks_exact(k)) {
            for ((pl, &xl), &yl) in pap.iter_mut().zip(xrow).zip(yrow) {
                *pl += xl * yl;
            }
        }
    }

    /// Returns `A x` as a fresh vector.
    pub fn mul_vec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec(x, &mut y);
        y
    }

    /// Entry `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        for k in self.row_ptr[i]..self.row_ptr[i + 1] {
            if self.col_idx[k] == j {
                return self.values[k];
            }
        }
        0.0
    }

    /// Adds `v` to every stored diagonal entry; `v[i]` must exist as a stored
    /// entry (true for all matrices assembled by [`TripletBuilder`] with
    /// explicit diagonals).
    pub fn add_to_diagonal(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.n);
        for (i, &vi) in v.iter().enumerate() {
            let mut found = false;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    self.values[k] += vi;
                    found = true;
                    break;
                }
            }
            assert!(found, "row {i} has no stored diagonal entry");
        }
    }

    /// Checks symmetry up to `tol` (O(nnz·log) via lookups; test helper).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Accumulates `(row, col, value)` triplets and assembles a [`CsrMatrix`],
/// summing duplicate coordinates.
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletBuilder {
    /// A builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "matrix too large for u32 indices");
        Self {
            n,
            entries: Vec::new(),
        }
    }

    /// Adds `v` at `(i, j)`.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        self.entries.push((i as u32, j as u32, v));
    }

    /// Adds the symmetric conductance pattern for an edge `i — j` with
    /// conductance `g`: `+g` on both diagonals, `−g` off-diagonal.
    pub fn add_conductance(&mut self, i: usize, j: usize, g: f64) {
        debug_assert!(g >= 0.0, "conductance must be non-negative");
        self.add(i, i, g);
        self.add(j, j, g);
        self.add(i, j, -g);
        self.add(j, i, -g);
    }

    /// Adds `g` to the diagonal only (a conductance to an external fixed
    /// potential such as the ambient).
    pub fn add_grounded_conductance(&mut self, i: usize, g: f64) {
        debug_assert!(g >= 0.0);
        self.add(i, i, g);
    }

    /// Assembles the CSR matrix, summing duplicates. Every row is given an
    /// explicit diagonal entry (inserting 0.0 if never touched).
    pub fn build(mut self) -> CsrMatrix {
        for i in 0..self.n {
            self.entries.push((i as u32, i as u32, 0.0));
        }
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut cur_row = 0u32;
        let mut iter = self.entries.into_iter().peekable();
        while let Some((r, c, v)) = iter.next() {
            while cur_row < r {
                row_ptr.push(col_idx.len());
                cur_row += 1;
            }
            let mut acc = v;
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    acc += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            col_idx.push(c as usize);
            values.push(acc);
        }
        while (row_ptr.len() as u32) <= cur_row {
            row_ptr.push(col_idx.len());
        }
        while row_ptr.len() < self.n + 1 {
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_multiply() {
        let mut b = TripletBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 2.0);
        b.add(1, 2, -1.0);
        b.add(2, 1, -1.0);
        b.add(2, 2, 2.0);
        let a = b.build();
        assert_eq!(a.n(), 3);
        let y = a.mul_vec_alloc(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 1), 0.0); // explicit zero diagonal inserted
    }

    #[test]
    fn conductance_pattern_is_symmetric_laplacian() {
        let mut b = TripletBuilder::new(3);
        b.add_conductance(0, 1, 2.0);
        b.add_conductance(1, 2, 3.0);
        let a = b.build();
        assert!(a.is_symmetric(1e-12));
        // Row sums are zero for a pure Laplacian.
        let ones = vec![1.0; 3];
        let y = a.mul_vec_alloc(&ones);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn grounded_conductance_breaks_row_sum() {
        let mut b = TripletBuilder::new(2);
        b.add_conductance(0, 1, 1.0);
        b.add_grounded_conductance(0, 5.0);
        let a = b.build();
        let y = a.mul_vec_alloc(&[1.0, 1.0]);
        assert!((y[0] - 5.0).abs() < 1e-12);
        assert!(y[1].abs() < 1e-12);
    }

    #[test]
    fn diagonal_extraction() {
        let mut b = TripletBuilder::new(2);
        b.add_conductance(0, 1, 4.0);
        let a = b.build();
        assert_eq!(a.diagonal(), vec![4.0, 4.0]);
    }

    #[test]
    fn add_to_diagonal_mutates() {
        let mut b = TripletBuilder::new(2);
        b.add_conductance(0, 1, 1.0);
        let mut a = b.build();
        a.add_to_diagonal(&[10.0, 20.0]);
        assert_eq!(a.get(0, 0), 11.0);
        assert_eq!(a.get(1, 1), 21.0);
    }

    #[test]
    fn empty_rows_get_zero_diagonal() {
        let b = TripletBuilder::new(4);
        let a = b.build();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.diagonal(), vec![0.0; 4]);
    }

    #[test]
    fn row_access_matches_get() {
        let mut b = TripletBuilder::new(3);
        b.add_conductance(0, 2, 2.0);
        b.add_conductance(1, 2, 1.0);
        let a = b.build();
        for i in 0..3 {
            let (cols, vals) = a.row(i);
            assert_eq!(cols.len(), vals.len());
            for (&j, &v) in cols.iter().zip(vals) {
                assert_eq!(a.get(i, j), v);
            }
        }
    }

    /// A pseudo-random sparse SPD-patterned matrix for kernel equivalence.
    fn random_matrix(n: usize, seed: u64) -> CsrMatrix {
        let mut b = TripletBuilder::new(n);
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..n - 1 {
            b.add_conductance(i, i + 1, (rnd() % 100) as f64 / 10.0);
            let j = (rnd() as usize) % n;
            if j != i {
                b.add_conductance(i, j, (rnd() % 50) as f64 / 25.0);
            }
        }
        b.add_grounded_conductance(0, 3.0);
        b.build()
    }

    #[test]
    fn sharded_mul_vec_matches_serial() {
        for n in [1usize, 2, 3, 17, 256, 1023] {
            let a = random_matrix(n.max(2), 0xC0FFEE + n as u64);
            let x: Vec<f64> = (0..a.n()).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
            let mut serial = vec![0.0; a.n()];
            a.mul_vec_threads(&x, &mut serial, 1);
            for threads in [2, 3, 4, 7] {
                let mut par = vec![0.0; a.n()];
                a.mul_vec_threads(&x, &mut par, threads);
                assert_eq!(serial, par, "n={n}, threads={threads}");
            }
        }
    }

    #[test]
    fn mul_vec_dot_returns_quadratic_form() {
        let a = random_matrix(64, 99);
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; 64];
        let q = a.mul_vec_dot(&x, &mut y);
        let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((q - expect).abs() < 1e-12);
        assert_eq!(y, a.mul_vec_alloc(&x));
    }

    #[test]
    fn mul_vec_multi_is_bitwise_equal_per_lane() {
        for n in [2usize, 17, 256] {
            let a = random_matrix(n, 0xBADD + n as u64);
            for k in [1usize, 3, 4, 8] {
                // Lane l holds a distinct deterministic vector.
                let lanes: Vec<Vec<f64>> = (0..k)
                    .map(|l| {
                        (0..n)
                            .map(|i| ((i * 7 + l * 13) % 29) as f64 - 14.0)
                            .collect()
                    })
                    .collect();
                let mut x = vec![0.0; n * k];
                for (l, lane) in lanes.iter().enumerate() {
                    for i in 0..n {
                        x[i * k + l] = lane[i];
                    }
                }
                let mut y = vec![f64::NAN; n * k];
                let mut pap = vec![f64::NAN; k];
                a.mul_vec_dot_multi(k, &x, &mut y, &mut pap);
                for (l, lane) in lanes.iter().enumerate() {
                    let mut solo = vec![0.0; n];
                    let solo_pap = a.mul_vec_dot(lane, &mut solo);
                    for i in 0..n {
                        assert_eq!(
                            y[i * k + l].to_bits(),
                            solo[i].to_bits(),
                            "n={n} k={k} lane={l} node={i}"
                        );
                    }
                    assert_eq!(pap[l].to_bits(), solo_pap.to_bits(), "n={n} k={k} lane={l}");
                }
            }
        }
    }

    #[test]
    fn threads_for_respects_crossover() {
        assert_eq!(super::threads_for(0), 1);
        assert_eq!(super::threads_for(PARALLEL_NNZ_CROSSOVER - 1), 1);
        assert!(super::threads_for(PARALLEL_NNZ_CROSSOVER) >= 1);
    }
}
