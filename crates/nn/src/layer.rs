//! Dense layers, activations, and inverted dropout.
//!
//! Layers operate on batches: a batch is a `Matrix` of shape
//! `(batch, features)`. Each layer caches what it needs during `forward` so
//! that `backward` can run without re-computation; callers must pair each
//! `forward` with at most one `backward` (the trainer does).

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

/// A fully connected layer `y = act(x W + b)` with cached forward state and
/// accumulated gradients.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, shape `(in_dim, out_dim)`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f64>,
    /// Activation applied after the affine map.
    pub activation: Activation,
    /// Gradient of the loss w.r.t. `w` from the last backward pass.
    pub grad_w: Matrix,
    /// Gradient of the loss w.r.t. `b` from the last backward pass.
    pub grad_b: Vec<f64>,
    // Cached forward state.
    input: Option<Matrix>,
    post_act: Option<Matrix>,
}

impl Dense {
    /// New dense layer with Xavier-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut Rng) -> Self {
        Self {
            w: Matrix::xavier_uniform(in_dim, out_dim, in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            activation,
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            input: None,
            post_act: None,
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

    /// Forward pass for a batch: [`Dense::infer`], caching the input (taken
    /// by value, so without a copy) and the output for `backward`.
    pub fn forward(&mut self, x: Matrix) -> Result<Matrix> {
        let y = self.infer(&x)?;
        self.input = Some(x);
        self.post_act = Some(y.clone());
        Ok(y)
    }

    /// Inference-only forward: no caching, no allocation of gradient state.
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

    /// Backward pass: takes `dL/dy` (gradient w.r.t. this layer's output),
    /// stores `grad_w`/`grad_b`, and returns `dL/dx`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let input = self
            .input
            .take()
            .ok_or_else(|| NnError::Shape("backward without forward".into()))?;
        let post = self
            .post_act
            .take()
            .ok_or_else(|| NnError::Shape("backward without forward".into()))?;
        if grad_out.shape() != post.shape() {
            return Err(NnError::Shape(format!(
                "grad shape {:?} != output shape {:?}",
                grad_out.shape(),
                post.shape()
            )));
        }
        // dL/dz = dL/dy * f'(z), with f' read off the output y = f(z)
        let act = self.activation;
        let mut grad_z = grad_out.clone();
        for (g, &y) in grad_z.as_mut_slice().iter_mut().zip(post.as_slice()) {
            *g *= act.derivative(y);
        }
        // dL/dW = x^T dL/dz ; dL/db = column sums of dL/dz ; dL/dx = dL/dz W^T
        self.grad_w = input
            .t_matmul(&grad_z)
            .map_err(|e| NnError::Shape(e.to_string()))?;
        self.grad_b = grad_z.col_sums();
        grad_z
            .matmul_t(&self.w)
            .map_err(|e| NnError::Shape(e.to_string()))
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// Inverted dropout: at train time each unit is zeroed with probability
/// `rate` and survivors are scaled by `1/(1-rate)`, so inference needs no
/// rescaling. MC-dropout UQ draws its inference-time masks in the fused
/// engine of [`crate::batch`] instead.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub rate: f64,
    mask: Option<Matrix>,
}

impl Dropout {
    /// New dropout layer. Errors if `rate` is outside `[0, 1)`.
    pub fn new(rate: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&rate) {
            return Err(NnError::InvalidConfig(format!(
                "dropout rate must be in [0,1), got {rate}"
            )));
        }
        Ok(Self { rate, mask: None })
    }

    /// Stochastic training forward: masks `x` in place.
    pub fn forward(&mut self, mut x: Matrix, rng: &mut Rng) -> Matrix {
        if self.rate == 0.0 { // lint:allow(float-hygiene): exact-zero rate disables dropout entirely
            self.mask = None;
            return x;
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mut mask = Matrix::zeros(x.rows(), x.cols());
        for (m, v) in mask.as_mut_slice().iter_mut().zip(x.as_mut_slice()) {
            *m = if rng.bernoulli(keep) { scale } else { 0.0 };
            *v *= *m;
        }
        self.mask = Some(mask);
        x
    }

    /// Backward: gradient flows only through kept units, with the same
    /// scaling.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self.mask.take() {
            Some(mask) => grad_out.hadamard(&mask).expect("same shape"), // lint:allow(no-panic): mask cached from the forward pass
            None => grad_out.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(activation: Activation) {
        // Numerical gradient check of a single dense layer under L = sum(y).
        let mut rng = Rng::new(500);
        let mut layer = Dense::new(4, 3, activation, &mut rng);
        let x = Matrix::from_vec(2, 4, (0..8).map(|i| 0.1 * i as f64 - 0.35).collect()).unwrap();
        let ones = Matrix::filled(2, 3, 1.0);
        let _ = layer.forward(x.clone()).unwrap();
        let _ = layer.backward(&ones).unwrap();
        let analytic = layer.grad_w.clone();
        let eps = 1e-6;
        for r in 0..4 {
            for c in 0..3 {
                let orig = layer.w.get(r, c);
                layer.w.set(r, c, orig + eps);
                let up = layer.infer(&x).unwrap().sum();
                layer.w.set(r, c, orig - eps);
                let down = layer.infer(&x).unwrap().sum();
                layer.w.set(r, c, orig);
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - analytic.get(r, c)).abs() < 1e-5,
                    "{activation:?} grad_w[{r},{c}]: numeric {numeric} vs analytic {}",
                    analytic.get(r, c)
                );
            }
        }
    }

    #[test]
    fn dense_gradient_matches_finite_difference_tanh() {
        finite_diff_check(Activation::Tanh);
    }

    #[test]
    fn dense_gradient_matches_finite_difference_identity() {
        finite_diff_check(Activation::Identity);
    }

    #[test]
    fn dense_bias_gradient_is_column_sum() {
        let mut rng = Rng::new(501);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let g = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0]]);
        let _ = layer.forward(x.clone()).unwrap();
        let _ = layer.backward(&g).unwrap();
        assert!((layer.grad_b[0] - 3.0).abs() < 1e-12);
        assert!((layer.grad_b[1] - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn forward_shape_validation() {
        let mut rng = Rng::new(502);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let bad = Matrix::zeros(1, 4);
        assert!(layer.forward(bad.clone()).is_err());
        assert!(layer.infer(&bad).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng::new(503);
        let mut layer = Dense::new(2, 2, Activation::Tanh, &mut rng);
        assert!(layer.backward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = Rng::new(504);
        let mut layer = Dense::new(3, 5, Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.2 - 1.0).collect()).unwrap();
        let f = layer.forward(x.clone()).unwrap();
        let i = layer.infer(&x).unwrap();
        for (a, b) in f.as_slice().iter().zip(i.as_slice()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn dropout_rate_validation() {
        assert!(Dropout::new(-0.1).is_err());
        assert!(Dropout::new(1.0).is_err());
        assert!(Dropout::new(0.0).is_ok());
        assert!(Dropout::new(0.5).is_ok());
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut rng = Rng::new(505);
        let mut d = Dropout::new(0.3).unwrap();
        let x = Matrix::filled(200, 50, 1.0);
        let mut total = 0.0;
        let reps = 20;
        for _ in 0..reps {
            total += d.forward(x.clone(), &mut rng).sum();
        }
        let mean = total / (reps * 200 * 50) as f64;
        assert!((mean - 1.0).abs() < 0.02, "inverted dropout mean {mean}");
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut rng = Rng::new(506);
        let mut d = Dropout::new(0.0).unwrap();
        let x = Matrix::from_rows(&[&[1.0, -2.0, 3.0]]);
        assert_eq!(d.forward(x.clone(), &mut rng), x);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut rng = Rng::new(507);
        let mut d = Dropout::new(0.5).unwrap();
        let x = Matrix::filled(1, 100, 1.0);
        let y = d.forward(x, &mut rng);
        let g = d.backward(&Matrix::filled(1, 100, 1.0));
        // Where the output was zeroed, the gradient must be zeroed too.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
            if *yv != 0.0 {
                assert!((gv - 2.0).abs() < 1e-12, "kept grad should be scaled by 1/keep");
            }
        }
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::new(508);
        let layer = Dense::new(6, 30, Activation::Tanh, &mut rng);
        assert_eq!(layer.param_count(), 6 * 30 + 30);
    }
}
