//! The multi-layer perceptron used for every surrogate in the workspace.
//!
//! An [`Mlp`] is a stack of dense layers — tanh on every hidden layer,
//! identity on the output — with optional inverted dropout after each
//! hidden layer. The MC-dropout UQ of §III-B keeps that dropout active at
//! inference; it runs on the fused engine in [`crate::batch`], which packs
//! a snapshot of this model's weights. Training steps run on the arena of
//! [`crate::arena`].

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

    /// Overwrite this network's weights and biases with `other`'s, which
    /// must have the same widths (the trainer's early-stopping snapshot).
    pub(crate) fn copy_params_from(&mut self, other: &Mlp) {
        for (d, o) in self.dense.iter_mut().zip(&other.dense) {
            d.w.as_mut_slice().copy_from_slice(o.w.as_slice());
            d.b.copy_from_slice(&o.b);
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
        // MC-dropout at two consult ordinals: different masks.
        let mut scratch = crate::batch::BatchScratch::new(&net);
        let (mut m1, mut m2, mut std) = ([0.0], [0.0], [0.0]);
        scratch
            .mc_predict_into(x.as_slice(), 1, 2, 7, 0, &mut m1, &mut std)
            .unwrap();
        scratch
            .mc_predict_into(x.as_slice(), 1, 2, 7, 1, &mut m2, &mut std)
            .unwrap();
        assert_ne!(m1, m2, "MC-dropout samples should differ");
    }

    #[test]
    fn copy_params_from_copies_every_weight_and_bias() {
        let mut a = Mlp::new(MlpConfig::regression(&[3, 5, 2]), &mut Rng::new(7)).unwrap();
        let mut b = Mlp::new(MlpConfig::regression(&[3, 5, 2]), &mut Rng::new(8)).unwrap();
        b.dense[1].b[1] = 0.75;
        a.copy_params_from(&b);
        let x = Matrix::from_rows(&[&[0.1, 0.2, -0.3]]);
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
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
