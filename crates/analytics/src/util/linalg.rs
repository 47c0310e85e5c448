//! Minimal dense linear algebra: just enough to solve the small normal-
//! equation systems that AR and harmonic-regression fitting produce.
//!
//! Systems here are tiny (tens of unknowns), so Gaussian elimination with
//! partial pivoting is the right tool — no external linear-algebra crate is
//! justified for this.

/// A dense row-major matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds `lambda` to every diagonal entry (ridge regularisation).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the square system `A·x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` for singular (or numerically singular) systems.
///
/// # Panics
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "system matrix must be square");
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let n = a.rows();
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let pivot_row =
            (col..n).max_by(|&i, &j| m[(i, col)].abs().total_cmp(&m[(j, col)].abs()))?;
        if m[(pivot_row, col)].abs() < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            rhs.swap(col, pivot_row);
        }
        // Eliminate below.
        for row in col + 1..n {
            let f = m[(row, col)] / m[(col, col)];
            // odalint: allow(float-eq) -- exact-zero elimination skip; any nonzero factor must be applied
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                m[(row, j)] -= f * m[(col, j)];
            }
            rhs[row] -= f * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = rhs[i];
        for j in i + 1..n {
            s -= m[(i, j)] * x[j];
        }
        x[i] = s / m[(i, i)];
        if !x[i].is_finite() {
            return None;
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_system_is_none() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn identity_solves_trivially() {
        let mut id = Matrix::zeros(3, 3);
        id.add_diagonal(1.0);
        let x = solve(&id, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ridge_diagonal() {
        let mut a = from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        a.add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(1, 1)], 2.5);
    }

    #[test]
    fn larger_random_system_round_trips() {
        // Build a well-conditioned system A = M^T M + I and check A x = b.
        let n = 8;
        let mut m = Matrix::zeros(n, n);
        let mut seed = 42u64;
        for i in 0..n {
            for j in 0..n {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                m[(i, j)] = ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            }
        }
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = (0..n).map(|k| m[(k, i)] * m[(k, j)]).sum();
            }
        }
        a.add_diagonal(1.0);
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        let x = solve(&a, &b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-9);
        }
    }
}
