//! Small dense solvers: Gaussian elimination with partial pivoting, Cholesky
//! factorization, and ordinary least squares via the normal equations. These
//! back the autoregressive forecasting baselines and calibration fits; sizes
//! are tiny (≤ a few hundred), so simplicity and correctness beat blocking.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
/// `A` must be square with `A.rows() == b.len()`.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "solve",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = m.get(col, col).abs();
        for r in col + 1..n {
            let v = m.get(r, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-14 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m.get(col, c);
                m.set(col, c, m.get(pivot_row, c));
                m.set(pivot_row, c, tmp);
            }
            rhs.swap(col, pivot_row);
        }
        // Eliminate below.
        let pivot = m.get(col, col);
        for r in col + 1..n {
            let factor = m.get(r, col) / pivot;
            if factor == 0.0 { // lint:allow(float-hygiene): exact-zero elimination skip preserves bitwise results
                continue;
            }
            for c in col..n {
                let v = m.get(r, c) - factor * m.get(col, c);
                m.set(r, c, v);
            }
            rhs[r] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = rhs[r];
        for c in r + 1..n {
            acc -= m.get(r, c) * x[c];
        }
        x[r] = acc / m.get(r, r);
    }
    Ok(x)
}

/// Ordinary least squares: find `beta` minimizing `||X beta - y||²` via the
/// normal equations with a small ridge (`lambda`) for conditioning.
/// `X` is `n × p`, `y` has length `n`; returns `beta` of length `p`.
pub fn least_squares(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>> {
    if x.rows() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "least_squares",
            lhs: x.shape(),
            rhs: (y.len(), 1),
        });
    }
    if x.rows() == 0 {
        return Err(LinalgError::Empty);
    }
    let p = x.cols();
    // X^T X + lambda I
    let y_mat = Matrix::from_vec(y.len(), 1, y.to_vec())?;
    let mut xtx = x.t_matmul(x)?;
    for i in 0..p {
        let v = xtx.get(i, i) + lambda;
        xtx.set(i, i, v);
    }
    let xty = x.t_matmul(&y_mat)?;
    solve(&xtx, xty.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(solve(&a, &[1.0, 2.0]), Err(LinalgError::Singular)));
    }

    #[test]
    fn solve_random_roundtrip() {
        let mut rng = Rng::new(55);
        for trial in 0..20 {
            let n = 5 + trial % 5;
            // Diagonally dominant to guarantee solvability.
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, rng.uniform_in(-1.0, 1.0));
                }
                let v = a.get(i, i) + n as f64;
                a.set(i, i, v);
            }
            let x_true: Vec<f64> = (0..n).map(|_| rng.uniform_in(-2.0, 2.0)).collect();
            let x_mat = Matrix::from_vec(n, 1, x_true.clone()).unwrap();
            let b = a.matmul(&x_mat).unwrap();
            let x = solve(&a, b.as_slice()).unwrap();
            for (got, want) in x.iter().zip(x_true.iter()) {
                assert!((got - want).abs() < 1e-9, "trial {trial}");
            }
        }
    }

    #[test]
    fn least_squares_recovers_linear_model() {
        let mut rng = Rng::new(59);
        let n = 400;
        let beta_true = [1.5, -2.0, 0.5];
        let mut x = Matrix::zeros(n, 3);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let f1 = rng.uniform_in(-1.0, 1.0);
            let f2 = rng.uniform_in(-1.0, 1.0);
            x.set(i, 0, 1.0);
            x.set(i, 1, f1);
            x.set(i, 2, f2);
            y[i] = beta_true[0] + beta_true[1] * f1 + beta_true[2] * f2 + 0.01 * rng.gaussian();
        }
        let beta = least_squares(&x, &y, 1e-9).unwrap();
        for (got, want) in beta.iter().zip(beta_true.iter()) {
            assert!((got - want).abs() < 0.01, "{got} vs {want}");
        }
    }

    #[test]
    fn least_squares_shape_mismatch() {
        let x = Matrix::zeros(3, 2);
        assert!(least_squares(&x, &[1.0, 2.0], 0.0).is_err());
    }
}
