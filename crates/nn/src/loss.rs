//! The regression loss: mean squared error, `mean((p - t)^2)`. [`mse`]
//! returns both the scalar value (mean over the batch) and the gradient
//! w.r.t. the predictions, so the trainer makes one call per step;
//! [`mse_value`] skips the gradient, for validation loops.

use le_linalg::Matrix;

use crate::{NnError, Result};

/// The element count of a non-empty `pred`/`target` pair of equal shape.
fn element_count(pred: &Matrix, target: &Matrix) -> Result<f64> {
    if pred.shape() != target.shape() {
        return Err(NnError::Shape(format!(
            "loss: pred {:?} vs target {:?}",
            pred.shape(),
            target.shape()
        )));
    }
    if pred.rows() * pred.cols() == 0 {
        return Err(NnError::Shape("loss on empty batch".into()));
    }
    Ok((pred.rows() * pred.cols()) as f64)
}

/// Scalar MSE (mean over all elements) and its gradient w.r.t. `pred`.
pub fn mse(pred: &Matrix, target: &Matrix) -> Result<(f64, Matrix)> {
    let n = element_count(pred, target)?;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut total = 0.0;
    let gs = grad.as_mut_slice();
    for ((g, &p), &t) in gs
        .iter_mut()
        .zip(pred.as_slice().iter())
        .zip(target.as_slice().iter())
    {
        let e = p - t;
        total += e * e;
        *g = 2.0 * e / n;
    }
    Ok((total / n, grad))
}

/// Scalar MSE only (no gradient allocation).
pub fn mse_value(pred: &Matrix, target: &Matrix) -> Result<f64> {
    let n = element_count(pred, target)?;
    let mut total = 0.0;
    for (&p, &t) in pred.as_slice().iter().zip(target.as_slice().iter()) {
        let e = p - t;
        total += e * e;
    }
    Ok(total / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Matrix::from_rows(&[&[1.0, 2.0]]);
        let target = Matrix::from_rows(&[&[0.0, 4.0]]);
        let (l, g) = mse(&pred, &target).unwrap();
        assert!((l - (1.0 + 4.0) / 2.0).abs() < 1e-12);
        assert!((g.get(0, 0) - 1.0).abs() < 1e-12); // 2*(1-0)/2
        assert!((g.get(0, 1) + 2.0).abs() < 1e-12); // 2*(2-4)/2
    }

    #[test]
    fn mse_zero_at_perfect_prediction() {
        let p = Matrix::from_rows(&[&[3.0, -1.0], &[0.5, 2.0]]);
        let (l, g) = mse(&p, &p).unwrap();
        assert_eq!(l, 0.0);
        assert!(g.max_abs() < 1e-15);
    }

    #[test]
    fn mse_value_matches_mse() {
        let pred = Matrix::from_rows(&[&[1.0, -2.0], &[0.3, 4.0]]);
        let target = Matrix::from_rows(&[&[0.9, -1.0], &[0.0, 5.0]]);
        let (l, _) = mse(&pred, &target).unwrap();
        assert!((l - mse_value(&pred, &target).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(mse(&a, &b).is_err());
        assert!(mse_value(&a, &b).is_err());
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let target = Matrix::from_rows(&[&[0.3, -1.2, 2.0]]);
        let pred = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]);
        let (_, g) = mse(&pred, &target).unwrap();
        let eps = 1e-7;
        for c in 0..3 {
            let mut up = pred.clone();
            up.set(0, c, pred.get(0, c) + eps);
            let mut down = pred.clone();
            down.set(0, c, pred.get(0, c) - eps);
            let numeric = (mse_value(&up, &target).unwrap()
                - mse_value(&down, &target).unwrap())
                / (2.0 * eps);
            assert!((numeric - g.get(0, c)).abs() < 1e-6);
        }
    }
}
