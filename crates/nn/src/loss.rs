//! The regression loss: mean squared error, `mean((p - t)^2)`, over flat
//! row-major slices. [`mse_into`] returns the scalar value (mean over all
//! elements) and writes the gradient w.r.t. the predictions, so a training
//! step makes one call; [`mse_value`] skips the gradient, for validation
//! passes.

use crate::{NnError, Result};

/// The element count of a non-empty `pred`/`target` pair of equal length.
fn element_count(pred: &[f64], target: &[f64]) -> Result<f64> {
    if pred.len() != target.len() {
        return Err(NnError::Shape(format!(
            "loss: pred has {} elements, target {}",
            pred.len(),
            target.len()
        )));
    }
    if pred.is_empty() {
        return Err(NnError::Shape("loss on empty batch".into()));
    }
    Ok(pred.len() as f64)
}

/// Scalar MSE (mean over all elements); its gradient w.r.t. `pred` goes
/// to `grad`, which must have `pred`'s length.
pub fn mse_into(pred: &[f64], target: &[f64], grad: &mut [f64]) -> Result<f64> {
    let n = element_count(pred, target)?;
    if grad.len() != pred.len() {
        return Err(NnError::Shape(format!(
            "loss: gradient has {} elements, pred {}",
            grad.len(),
            pred.len()
        )));
    }
    let mut total = 0.0;
    for ((g, &p), &t) in grad.iter_mut().zip(pred).zip(target) {
        let e = p - t;
        total += e * e;
        *g = 2.0 * e / n;
    }
    Ok(total / n)
}

/// Scalar MSE only.
pub fn mse_value(pred: &[f64], target: &[f64]) -> Result<f64> {
    let n = element_count(pred, target)?;
    let mut total = 0.0;
    for (&p, &t) in pred.iter().zip(target) {
        let e = p - t;
        total += e * e;
    }
    Ok(total / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse(pred: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
        let mut g = vec![0.0; pred.len()];
        (mse_into(pred, target, &mut g).unwrap(), g)
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let (l, g) = mse(&[1.0, 2.0], &[0.0, 4.0]);
        assert!((l - (1.0 + 4.0) / 2.0).abs() < 1e-12);
        assert!((g[0] - 1.0).abs() < 1e-12); // 2*(1-0)/2
        assert!((g[1] + 2.0).abs() < 1e-12); // 2*(2-4)/2
    }

    #[test]
    fn mse_zero_at_perfect_prediction() {
        let p = [3.0, -1.0, 0.5, 2.0];
        let (l, g) = mse(&p, &p);
        assert_eq!(l, 0.0);
        assert!(g.iter().all(|v| v.abs() < 1e-15));
    }

    #[test]
    fn mse_value_matches_mse() {
        let pred = [1.0, -2.0, 0.3, 4.0];
        let target = [0.9, -1.0, 0.0, 5.0];
        let (l, _) = mse(&pred, &target);
        assert!((l - mse_value(&pred, &target).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn shape_mismatch_errors() {
        assert!(mse_into(&[0.0; 4], &[0.0; 6], &mut [0.0; 4]).is_err());
        assert!(mse_into(&[0.0; 4], &[0.0; 4], &mut [0.0; 3]).is_err());
        assert!(mse_value(&[0.0; 4], &[0.0; 6]).is_err());
        assert!(mse_value(&[], &[]).is_err());
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let target = [0.3, -1.2, 2.0];
        let pred = [0.5, 0.5, 0.5];
        let (_, g) = mse(&pred, &target);
        let eps = 1e-7;
        for c in 0..3 {
            let mut up = pred;
            up[c] += eps;
            let mut down = pred;
            down[c] -= eps;
            let numeric = (mse_value(&up, &target).unwrap() - mse_value(&down, &target).unwrap()) / (2.0 * eps);
            assert!((numeric - g[c]).abs() < 1e-6);
        }
    }
}
