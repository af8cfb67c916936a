//! Minimal dense-matrix kernel for the matrix-analytic machinery.
//!
//! The MMPP/G/1 solver only needs small matrices (2×2 for the paper's
//! 2-MMPP, though everything here is written for general n): products,
//! Gaussian-elimination solves/inverses, and the matrix exponential via
//! scaling-and-squaring with a Taylor series. No external linear-algebra
//! crate is used.

/// A dense row-major n×n (or rectangular) matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order n.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from nested slices; panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        assert!(r > 0, "matrix needs at least one row");
        let c = rows[0].len();
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Diagonal matrix from a vector.
    pub fn diag(values: &[f64]) -> Self {
        let n = values.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in mul");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // lint:allow(num-float-eq): exact-zero sparsity skip; a near-zero entry must still multiply through
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix sum.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        out
    }

    /// Matrix difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
        out
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a *= s;
        }
        out
    }

    /// Row-vector × matrix: `v · self`.
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            // lint:allow(num-float-eq): exact-zero sparsity skip; a near-zero entry must still multiply through
            if vi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        out
    }

    /// Max-abs entry (∞-ish norm used for exp scaling).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Solve `self · x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` if the matrix is (numerically) singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)].abs() < 1e-300 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    let tmp = a[(col, j)];
                    a[(col, j)] = a[(pivot, j)];
                    a[(pivot, j)] = tmp;
                }
                x.swap(col, pivot);
            }
            // Eliminate below.
            for r in (col + 1)..n {
                let factor = a[(r, col)] / a[(col, col)];
                // lint:allow(num-float-eq): exact-zero elimination skip; a tiny factor still changes the row
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[(r, j)] -= factor * a[(col, j)];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in (col + 1)..n {
                acc -= a[(col, j)] * x[j];
            }
            x[col] = acc / a[(col, col)];
        }
        Some(x)
    }

    /// The probability vector `x` with `x·self = 0`, `x·e = 1` — the
    /// stationary vector of a generator, or of a stochastic matrix `P` when
    /// called on `P − I`. Solved as a bordered system on the transpose
    /// (its last equation replaced by the normalisation); `None` when the
    /// left null space is not one-dimensional.
    pub(crate) fn stationary_vector(&self) -> Option<Vec<f64>> {
        let n = self.rows;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = if i == n - 1 { 1.0 } else { self[(j, i)] };
            }
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        a.solve(&b)
    }

    /// Matrix inverse via n solves; `None` when singular.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse needs a square matrix");
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Some(out)
    }

    /// Matrix exponential `e^self` by scaling-and-squaring with a Taylor
    /// series (adequate for the small, well-scaled generators used here).
    pub fn exp(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "exp needs a square matrix");
        let n = self.rows;
        let norm = self.max_abs() * n as f64;
        let squarings = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        let scaled = self.scale(0.5f64.powi(squarings as i32));
        // Taylor series on the scaled matrix.
        let mut term = Matrix::identity(n);
        let mut sum = Matrix::identity(n);
        for k in 1..=30 {
            term = term.mul(&scaled).scale(1.0 / k as f64);
            sum = sum.add(&term);
            if term.max_abs() < 1e-18 {
                break;
            }
        }
        // Square back up.
        for _ in 0..squarings {
            sum = sum.mul(&sum);
        }
        sum
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Matrix {
        /// Matrix × column-vector: `self · v`.
        pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
            assert_eq!(v.len(), self.cols, "vector length mismatch");
            (0..self.rows)
                .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
                .collect()
        }
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn identity_and_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn solve_and_inverse() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
        let inv = a.inverse().unwrap();
        let prod = a.mul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                assert_close(prod[(i, j)], if i == j { 1.0 } else { 0.0 }, 1e-12);
            }
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 1.0]).is_none());
        assert!(a.inverse().is_none());
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(z.exp(), Matrix::identity(3));
    }

    #[test]
    fn exp_of_diagonal() {
        let d = Matrix::diag(&[1.0, -2.0]);
        let e = d.exp();
        assert_close(e[(0, 0)], 1f64.exp(), 1e-12);
        assert_close(e[(1, 1)], (-2f64).exp(), 1e-12);
        assert_close(e[(0, 1)], 0.0, 1e-14);
    }

    #[test]
    fn exp_of_generator_is_stochastic() {
        // exp(Qt) of a CTMC generator must be a stochastic matrix.
        let q = Matrix::from_rows(&[&[-2.0, 2.0], &[5.0, -5.0]]);
        let p = q.scale(0.7).exp();
        for i in 0..2 {
            let row_sum: f64 = (0..2).map(|j| p[(i, j)]).sum();
            assert_close(row_sum, 1.0, 1e-10);
            for j in 0..2 {
                assert!(p[(i, j)] >= -1e-12);
            }
        }
    }

    #[test]
    fn exp_matches_scalar_series_for_nilpotent() {
        // [[0, 1], [0, 0]] squares to zero: exp = I + N.
        let n = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = n.exp();
        assert_close(e[(0, 0)], 1.0, 1e-14);
        assert_close(e[(0, 1)], 1.0, 1e-14);
        assert_close(e[(1, 0)], 0.0, 1e-14);
        assert_close(e[(1, 1)], 1.0, 1e-14);
    }

    #[test]
    fn exp_additivity_for_commuting() {
        // For a single matrix, exp(A)·exp(A) = exp(2A).
        let a = Matrix::from_rows(&[&[-1.0, 0.5], &[0.25, -0.75]]);
        let e1 = a.exp();
        let e2 = a.scale(2.0).exp();
        let prod = e1.mul(&e1);
        for i in 0..2 {
            for j in 0..2 {
                assert_close(prod[(i, j)], e2[(i, j)], 1e-10);
            }
        }
    }

    #[test]
    fn vec_mul_directions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.vec_mul(&[1.0, 1.0]), vec![4.0, 6.0]); // row vector
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]); // column vector
    }

    #[test]
    fn three_by_three_solve_and_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let x = a.solve(&[5.0, 10.0, 7.0]).unwrap();
        // Verify by substitution.
        let b = a.mul_vec(&x);
        for (got, want) in b.iter().zip([5.0, 10.0, 7.0]) {
            assert_close(*got, want, 1e-10);
        }
        let inv = a.inverse().unwrap();
        let prod = a.mul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                assert_close(prod[(i, j)], if i == j { 1.0 } else { 0.0 }, 1e-10);
            }
        }
    }

    #[test]
    fn exp_of_three_state_generator_is_stochastic() {
        let q = Matrix::from_rows(&[&[-3.0, 2.0, 1.0], &[0.5, -1.5, 1.0], &[2.0, 2.0, -4.0]]);
        let p = q.scale(0.35).exp();
        for i in 0..3 {
            let row: f64 = (0..3).map(|j| p[(i, j)]).sum();
            assert_close(row, 1.0, 1e-9);
            for j in 0..3 {
                assert!(p[(i, j)] >= -1e-12);
            }
        }
    }

    #[test]
    fn large_norm_exp_is_stable() {
        let q = Matrix::from_rows(&[&[-2000.0, 2000.0], &[3000.0, -3000.0]]);
        let p = q.scale(1e-2).exp();
        for i in 0..2 {
            let row_sum: f64 = (0..2).map(|j| p[(i, j)]).sum();
            assert_close(row_sum, 1.0, 1e-8);
        }
    }
}
