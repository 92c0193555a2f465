//! Dense layers, activations, and the inverted-dropout rate.
//!
//! Layers operate on batches: a batch is a `Matrix` of shape
//! `(batch, features)`. A layer holds only its parameters; what a training
//! step writes lives in the arena of [`crate::arena`].

use le_linalg::{Matrix, Rng};

use crate::{NnError, Result};

/// The element-wise activations of the workspace's MLPs: tanh on every
/// hidden layer, identity on the output layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent — what the companion papers' Keras nets use.
    Tanh,
    /// Identity (no-op) — output layers of regression nets.
    Identity,
}

impl Activation {
    /// Apply the activation to one value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            // Hermetic rational tanh (not libm): bit-stable across hosts
            // and vectorizable inside the batch engine's activation loop;
            // max error vs libm is 2.6e-8 — see [`crate::math::tanh`].
            Activation::Tanh => crate::math::tanh(x),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`.
    #[inline]
    pub fn derivative(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// A fully connected layer `y = act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, shape `(in_dim, out_dim)`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f64>,
    /// Activation applied after the affine map.
    pub activation: Activation,
}

impl Dense {
    /// New dense layer with Xavier-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut Rng) -> Self {
        Self {
            w: Matrix::xavier_uniform(in_dim, out_dim, in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Inference forward of a batch.
    pub fn infer(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.in_dim() {
            return Err(NnError::Shape(format!(
                "dense layer expects {} features, got {}",
                self.in_dim(),
                x.cols()
            )));
        }
        let mut z = x.matmul(&self.w).map_err(|e| NnError::Shape(e.to_string()))?;
        z.add_row_broadcast(&self.b)
            .map_err(|e| NnError::Shape(e.to_string()))?;
        let act = self.activation;
        z.map_mut(|v| act.apply(v));
        Ok(z)
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// Inverted dropout: at train time each unit is zeroed with probability
/// `rate` and survivors are scaled by `1/(1-rate)`, so inference needs no
/// rescaling. Training draws the masks in [`crate::arena`], MC-dropout UQ
/// in the fused engine of [`crate::batch`].
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub rate: f64,
}

impl Dropout {
    /// New dropout layer. Errors if `rate` is outside `[0, 1)`.
    pub fn new(rate: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&rate) {
            return Err(NnError::InvalidConfig(format!(
                "dropout rate must be in [0,1), got {rate}"
            )));
        }
        Ok(Self { rate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_is_act_of_affine_map() {
        let mut rng = Rng::new(504);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        layer.b = vec![0.25, -0.5];
        let x = Matrix::from_rows(&[&[0.2, -1.0, 0.6], &[1.5, 0.0, -0.3]]);
        let y = layer.infer(&x).unwrap();
        for r in 0..2 {
            for c in 0..2 {
                let z = le_linalg::matrix::dot(x.row(r), &[layer.w.get(0, c), layer.w.get(1, c), layer.w.get(2, c)]);
                assert_eq!(y.get(r, c).to_bits(), crate::math::tanh(z + layer.b[c]).to_bits());
            }
        }
    }

    #[test]
    fn infer_shape_validation() {
        let mut rng = Rng::new(502);
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        assert!(layer.infer(&Matrix::zeros(1, 4)).is_err());
    }

    #[test]
    fn dropout_rate_validation() {
        assert!(Dropout::new(-0.1).is_err());
        assert!(Dropout::new(1.0).is_err());
        assert!(Dropout::new(0.0).is_ok());
        assert!(Dropout::new(0.5).is_ok());
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::new(508);
        let layer = Dense::new(6, 30, Activation::Tanh, &mut rng);
        assert_eq!(layer.param_count(), 6 * 30 + 30);
    }
}
