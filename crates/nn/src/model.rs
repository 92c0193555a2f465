//! The multi-layer perceptron used for every surrogate in the workspace.
//!
//! An [`Mlp`] is a stack of dense layers — tanh on every hidden layer,
//! identity on the output — with optional inverted dropout after each
//! hidden layer. The MC-dropout UQ of §III-B keeps that dropout active at
//! inference; it runs on the fused engine in [`crate::batch`], which packs
//! a snapshot of this model's weights.

use le_linalg::{Matrix, Rng};

use crate::layer::{Activation, Dense, Dropout};
use crate::{NnError, Result};

/// Architecture and regularization for an [`Mlp`]: tanh hidden layers and
/// an identity output — the architecture family used by the companion
/// papers (refs [9], [26]).
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Layer widths, `[input, hidden..., output]`; must have ≥ 2 entries.
    pub layers: Vec<usize>,
    /// Dropout probability applied after each hidden layer; 0 disables.
    pub dropout: f64,
}

impl MlpConfig {
    /// Regression net of the given widths, without dropout.
    pub fn regression(layers: &[usize]) -> Self {
        Self::regression_with_dropout(layers, 0.0)
    }

    /// Same but with dropout for MC-dropout UQ.
    pub fn regression_with_dropout(layers: &[usize], dropout: f64) -> Self {
        Self {
            layers: layers.to_vec(),
            dropout,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.layers.len() < 2 {
            return Err(NnError::InvalidConfig(
                "need at least input and output layer widths".into(),
            ));
        }
        if self.layers.contains(&0) {
            return Err(NnError::InvalidConfig("zero-width layer".into()));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(NnError::InvalidConfig(format!(
                "dropout must be in [0,1), got {}",
                self.dropout
            )));
        }
        Ok(())
    }
}

/// A feed-forward network: dense layers interleaved with dropout.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub(crate) dense: Vec<Dense>,
    pub(crate) dropout: Vec<Dropout>,
    config: MlpConfig,
}

impl Mlp {
    /// Build a network with deterministic initialization from `rng`.
    pub fn new(config: MlpConfig, rng: &mut Rng) -> Result<Self> {
        config.validate()?;
        let n_layers = config.layers.len() - 1;
        let mut dense = Vec::with_capacity(n_layers);
        let mut dropout = Vec::with_capacity(n_layers.saturating_sub(1));
        for i in 0..n_layers {
            let act = if i + 1 == n_layers {
                Activation::Identity
            } else {
                Activation::Tanh
            };
            dense.push(Dense::new(config.layers[i], config.layers[i + 1], act, rng));
            if i + 1 < n_layers {
                dropout.push(Dropout::new(config.dropout)?);
            }
        }
        Ok(Self {
            dense,
            dropout,
            config,
        })
    }

    /// The architecture this network was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.config.layers[0]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        *self.config.layers.last().expect("validated non-empty") // lint:allow(no-panic): config validated at construction
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.dense.iter().map(|d| d.param_count()).sum()
    }

    /// Number of optimizer parameter blocks (weights + biases per layer).
    pub fn n_param_blocks(&self) -> usize {
        self.dense.len() * 2
    }

    /// Training forward pass: dropout active, state cached for `backward`.
    /// Each activation is handed on by value, so the layer caches keep it
    /// without a copy.
    pub fn forward_train(&mut self, x: Matrix, rng: &mut Rng) -> Result<Matrix> {
        let mut h = x;
        let n = self.dense.len();
        for i in 0..n {
            h = self.dense[i].forward(h)?;
            if i + 1 < n {
                h = self.dropout[i].forward(h, rng);
            }
        }
        Ok(h)
    }

    /// Backward pass through the whole stack; fills each layer's gradients
    /// and returns the gradient w.r.t. the input batch.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let mut g = grad_out.clone();
        let n = self.dense.len();
        for i in (0..n).rev() {
            if i + 1 < n {
                g = self.dropout[i].backward(&g);
            }
            g = self.dense[i].backward(&g)?;
        }
        Ok(g)
    }

    /// Deterministic inference (dropout off — identity under inverted
    /// dropout).
    pub fn predict(&self, x: &Matrix) -> Result<Matrix> {
        let mut h = self.dense[0].infer(x)?;
        for d in &self.dense[1..] {
            h = d.infer(&h)?;
        }
        Ok(h)
    }

    /// Single-sample convenience wrapper around [`Mlp::predict`].
    pub fn predict_one(&self, x: &[f64]) -> Result<Vec<f64>> {
        let xm = Matrix::from_vec(1, x.len(), x.to_vec())
            .map_err(|e| NnError::Shape(e.to_string()))?;
        Ok(self.predict(&xm)?.as_slice().to_vec())
    }

    /// Visit every parameter block (weights then bias, per layer, in order)
    /// together with its gradient. Block indices are stable across calls,
    /// matching `OptimizerState` registration.
    pub fn for_each_param_block(
        &mut self,
        mut f: impl FnMut(usize, &mut [f64], &[f64]),
    ) {
        for (i, layer) in self.dense.iter_mut().enumerate() {
            f(2 * i, layer.w.as_mut_slice(), layer.grad_w.as_slice());
            f(2 * i + 1, &mut layer.b, &layer.grad_b);
        }
    }

    /// Scale the most recent gradient down to global L2 norm `max_norm`
    /// if it is longer.
    pub(crate) fn clip_grad_norm(&mut self, max_norm: f64) {
        let mut ss = 0.0;
        for layer in &self.dense {
            ss += layer.grad_w.as_slice().iter().map(|g| g * g).sum::<f64>();
            ss += layer.grad_b.iter().map(|g| g * g).sum::<f64>();
        }
        let norm = ss.sqrt();
        if norm > max_norm {
            let scale = max_norm / norm;
            for layer in &mut self.dense {
                layer.grad_w.scale_mut(scale);
                for g in &mut layer.grad_b {
                    *g *= scale;
                }
            }
        }
    }

    /// Immutable view of the dense layers (inspection, weight packing).
    pub fn layers(&self) -> &[Dense] {
        &self.dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let mut rng = Rng::new(1);
        assert!(Mlp::new(MlpConfig::regression(&[5]), &mut rng).is_err());
        assert!(Mlp::new(MlpConfig::regression(&[5, 0, 3]), &mut rng).is_err());
        assert!(Mlp::new(
            MlpConfig::regression_with_dropout(&[5, 4, 3], 1.0),
            &mut rng
        )
        .is_err());
        assert!(Mlp::new(MlpConfig::regression(&[5, 4, 3]), &mut rng).is_ok());
    }

    #[test]
    fn paper_architectures_construct() {
        let mut rng = Rng::new(2);
        // Ref [26]: 5 inputs -> 3 density outputs.
        let surrogate = Mlp::new(MlpConfig::regression(&[5, 64, 64, 3]), &mut rng).unwrap();
        assert_eq!(surrogate.in_dim(), 5);
        assert_eq!(surrogate.out_dim(), 3);
        // Ref [9]: 6 -> 30 -> 48 -> 3.
        let autotune = Mlp::new(MlpConfig::regression(&[6, 30, 48, 3]), &mut rng).unwrap();
        assert_eq!(
            autotune.param_count(),
            6 * 30 + 30 + 30 * 48 + 48 + 48 * 3 + 3
        );
        assert_eq!(autotune.n_param_blocks(), 6);
    }

    #[test]
    fn predict_shapes() {
        let mut rng = Rng::new(3);
        let net = Mlp::new(MlpConfig::regression(&[4, 8, 2]), &mut rng).unwrap();
        let x = Matrix::zeros(7, 4);
        let y = net.predict(&x).unwrap();
        assert_eq!(y.shape(), (7, 2));
        assert!(net.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn predict_one_matches_batch() {
        let mut rng = Rng::new(4);
        let net = Mlp::new(MlpConfig::regression(&[3, 6, 2]), &mut rng).unwrap();
        let x = [0.2, -0.4, 1.0];
        let single = net.predict_one(&x).unwrap();
        let batch = net
            .predict(&Matrix::from_vec(1, 3, x.to_vec()).unwrap())
            .unwrap();
        assert_eq!(single, batch.as_slice().to_vec());
    }

    #[test]
    fn forward_train_without_dropout_matches_predict() {
        let mut rng = Rng::new(5);
        let mut net = Mlp::new(MlpConfig::regression(&[3, 5, 5, 2]), &mut rng).unwrap();
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.1).collect()).unwrap();
        let mut drop_rng = Rng::new(99);
        let train_out = net.forward_train(x.clone(), &mut drop_rng).unwrap();
        let infer_out = net.predict(&x).unwrap();
        for (a, b) in train_out.as_slice().iter().zip(infer_out.as_slice()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn mc_dropout_varies_deterministic_does_not() {
        let mut rng = Rng::new(6);
        let net = Mlp::new(
            MlpConfig::regression_with_dropout(&[3, 32, 32, 1], 0.4),
            &mut rng,
        )
        .unwrap();
        let x = Matrix::from_rows(&[&[0.5, -0.5, 1.0]]);
        let d1 = net.predict(&x).unwrap().get(0, 0);
        let d2 = net.predict(&x).unwrap().get(0, 0);
        assert_eq!(d1, d2, "deterministic inference must be stable");
        // One MC-dropout pass at two consult ordinals: different masks.
        let mut scratch = crate::batch::BatchScratch::new(&net);
        let (mut m1, mut m2) = ([0.0], [0.0]);
        scratch
            .mc_forward_into(x.as_slice(), 1, 1, 7, 0, &mut m1)
            .unwrap();
        scratch
            .mc_forward_into(x.as_slice(), 1, 1, 7, 1, &mut m2)
            .unwrap();
        assert_ne!(m1, m2, "MC-dropout samples should differ");
    }

    #[test]
    fn full_network_gradient_matches_finite_difference() {
        let mut rng = Rng::new(8);
        let mut net = Mlp::new(MlpConfig::regression(&[2, 4, 1]), &mut rng).unwrap();
        let x = Matrix::from_rows(&[&[0.3, -0.7], &[1.0, 0.2]]);
        // Loss = sum of outputs -> dL/dy = 1.
        let mut no_drop = Rng::new(0);
        let _ = net.forward_train(x.clone(), &mut no_drop).unwrap();
        let ones = Matrix::filled(2, 1, 1.0);
        let _ = net.backward(&ones).unwrap();
        // Check the first layer's weight gradients numerically.
        let analytic = net.dense[0].grad_w.clone();
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..4 {
                let orig = net.dense[0].w.get(r, c);
                net.dense[0].w.set(r, c, orig + eps);
                let up = net.predict(&x).unwrap().sum();
                net.dense[0].w.set(r, c, orig - eps);
                let down = net.predict(&x).unwrap().sum();
                net.dense[0].w.set(r, c, orig);
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - analytic.get(r, c)).abs() < 1e-5,
                    "grad[{r},{c}] numeric {numeric} analytic {}",
                    analytic.get(r, c)
                );
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = Rng::new(9);
        let mut net = Mlp::new(MlpConfig::regression(&[3, 5, 2]), &mut rng).unwrap();
        let x = Matrix::from_rows(&[&[0.1, 0.2, -0.3]]);
        let mut no_drop = Rng::new(0);
        let _ = net.forward_train(x.clone(), &mut no_drop).unwrap();
        let ones = Matrix::filled(1, 2, 1.0);
        let gx = net.backward(&ones).unwrap();
        let eps = 1e-6;
        for c in 0..3 {
            let mut up = x.clone();
            up.set(0, c, x.get(0, c) + eps);
            let mut down = x.clone();
            down.set(0, c, x.get(0, c) - eps);
            let numeric =
                (net.predict(&up).unwrap().sum() - net.predict(&down).unwrap().sum()) / (2.0 * eps);
            assert!((numeric - gx.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let mut r1 = Rng::new(42);
        let mut r2 = Rng::new(42);
        let a = Mlp::new(MlpConfig::regression(&[4, 8, 2]), &mut r1).unwrap();
        let b = Mlp::new(MlpConfig::regression(&[4, 8, 2]), &mut r2).unwrap();
        let x = Matrix::filled(1, 4, 0.5);
        assert_eq!(
            a.predict(&x).unwrap().as_slice(),
            b.predict(&x).unwrap().as_slice()
        );
    }
}
