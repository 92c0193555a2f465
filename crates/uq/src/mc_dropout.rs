//! MC-dropout: "a set of differently thinned versions of the network can
//! form a sample distribution of predictions to be used as a UQ metric"
//! (§III-B). A trained dropout network is sampled `n_samples` times with
//! dropout *kept on*; the sample mean/std form the predictive distribution.
//!
//! All stochastic evaluation rides the fused batch engine
//! ([`le_nn::BatchScratch`]): the `n_samples` passes for every queried row
//! run as one `(K·B, ·)` GEMM batch, and dropout masks come from stateless
//! per-row substreams (`Rng::substream(seed, ordinal)`), so predicting a
//! batch of B rows is bit-identical to B single-row predictions — see the
//! determinism contract in `le_nn::batch`.

use le_linalg::Matrix;
use le_nn::{BatchScratch, Mlp};

use crate::{Prediction, UncertainModel};

/// MC-dropout wrapper around a trained [`Mlp`] with a nonzero dropout rate.
#[derive(Debug, Clone)]
pub struct McDropout {
    model: Mlp,
    /// Number of stochastic forward passes per prediction.
    pub n_samples: usize,
    /// Stateless mask-stream seed: row `i` of consult `ordinal` draws from
    /// `Rng::substream(mask_seed, ordinal + i)`.
    mask_seed: u64,
    /// Next unconsumed substream ordinal; a prediction over B rows
    /// consumes B ordinals.
    ordinal: u64,
    scratch: BatchScratch,
}

impl McDropout {
    /// Wrap a trained model. `n_samples` is clamped to at least 2 (a std
    /// needs two points); 30–100 is typical.
    pub fn new(model: Mlp, n_samples: usize, seed: u64) -> Self {
        let scratch = BatchScratch::new(&model);
        Self {
            model,
            n_samples: n_samples.max(2),
            mask_seed: seed,
            ordinal: 0,
            scratch,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// Predict mean/std for a whole batch at once (rows of `x`) with one
    /// fused evaluation; row `r` consumes ordinal `ordinal + r`, so the
    /// result is bit-identical to `x.rows()` single-row predictions.
    pub fn predict_batch(&mut self, x: &Matrix) -> Vec<Prediction> {
        let rows = x.rows();
        let out_dim = self.model.out_dim();
        let mut mean = vec![0.0; rows * out_dim];
        let mut std = vec![0.0; rows * out_dim];
        self.scratch
            .mc_predict_into(
                x.as_slice(),
                rows,
                self.n_samples,
                self.mask_seed,
                self.ordinal,
                &mut mean,
                &mut std,
            )
            .expect("shape checked by caller"); // lint:allow(no-panic): public entry validates the shape
        self.ordinal = self.ordinal.wrapping_add(rows as u64);
        (0..rows)
            .map(|r| Prediction {
                mean: mean[r * out_dim..(r + 1) * out_dim].to_vec(),
                std: std[r * out_dim..(r + 1) * out_dim].to_vec(),
            })
            .collect()
    }
}

impl UncertainModel for McDropout {
    fn predict_with_uncertainty(&mut self, x: &[f64]) -> Prediction {
        let out_dim = self.model.out_dim();
        let mut mean = vec![0.0; out_dim];
        let mut std = vec![0.0; out_dim];
        self.scratch
            .mc_predict_into(x, 1, self.n_samples, self.mask_seed, self.ordinal, &mut mean, &mut std)
            .expect("shape checked by caller"); // lint:allow(no-panic): public entry validates the shape
        self.ordinal = self.ordinal.wrapping_add(1);
        Prediction { mean, std }
    }

    fn predict_point(&self, x: &[f64]) -> Vec<f64> {
        self.model.predict_one(x).expect("shape checked by caller") // lint:allow(no-panic): public entry validates the shape
    }

    fn out_dim(&self) -> usize {
        self.model.out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use le_linalg::Rng;
    use le_nn::{MlpConfig, TrainConfig, Trainer};

    fn trained_dropout_net(seed: u64, dropout: f64) -> Mlp {
        // Train y = x0 + x1 on [-1,1]^2.
        let mut rng = Rng::new(seed);
        let n = 256;
        let mut x = Matrix::zeros(n, 2);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            let a = rng.uniform_in(-1.0, 1.0);
            let b = rng.uniform_in(-1.0, 1.0);
            x.set(i, 0, a);
            x.set(i, 1, b);
            y.set(i, 0, a + b);
        }
        let mut model = Mlp::new(
            MlpConfig::regression_with_dropout(&[2, 32, 32, 1], dropout),
            &mut rng,
        )
        .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 150,
            ..Default::default()
        });
        trainer.fit(&mut model, &x, &y).unwrap();
        model
    }

    #[test]
    fn mean_tracks_point_prediction() {
        let model = trained_dropout_net(21, 0.1);
        let mut mc = McDropout::new(model, 200, 7);
        let x = [0.3, -0.2];
        let p = mc.predict_with_uncertainty(&x);
        let point = mc.predict_point(&x);
        // MC mean should be close to the deterministic prediction.
        assert!(
            (p.mean[0] - point[0]).abs() < 3.0 * p.std[0] / (200f64).sqrt() + 0.05,
            "mc mean {} vs point {}",
            p.mean[0],
            point[0]
        );
    }

    #[test]
    fn nonzero_dropout_gives_nonzero_std() {
        let model = trained_dropout_net(22, 0.2);
        let mut mc = McDropout::new(model, 50, 8);
        let p = mc.predict_with_uncertainty(&[0.1, 0.1]);
        assert!(p.std[0] > 0.0, "dropout must induce spread");
    }

    #[test]
    fn zero_dropout_gives_zero_std() {
        let model = trained_dropout_net(23, 0.0);
        let mut mc = McDropout::new(model, 20, 9);
        let p = mc.predict_with_uncertainty(&[0.1, 0.1]);
        assert!(p.std[0] < 1e-12, "no dropout = deterministic net, got {}", p.std[0]);
    }

    #[test]
    fn extrapolation_is_more_uncertain_than_interpolation() {
        // Trained on [-1,1]^2; probe inside vs far outside.
        let model = trained_dropout_net(24, 0.25);
        let mut mc = McDropout::new(model, 200, 10);
        let inside = mc.predict_with_uncertainty(&[0.0, 0.0]).std[0];
        let outside = mc.predict_with_uncertainty(&[4.0, 4.0]).std[0];
        assert!(
            outside > inside,
            "extrapolation std {outside} should exceed interpolation std {inside}"
        );
    }

    #[test]
    fn batch_prediction_is_bitwise_identical_to_singles() {
        // The fused path's contract: same seed, same ordinals ⇒ a batch of
        // B is *bit-identical* to B sequential single predictions (the old
        // statistical-tolerance check is obsolete).
        let model = trained_dropout_net(25, 0.15);
        let mut mc_single = McDropout::new(model.clone(), 64, 11);
        let mut mc_batch = McDropout::new(model, 64, 11);
        let x = Matrix::from_rows(&[&[0.2, 0.4], &[-0.5, 0.1], &[0.9, -0.9]]);
        let batch = mc_batch.predict_batch(&x);
        assert_eq!(batch.len(), 3);
        for (r, want) in batch.iter().enumerate() {
            let got = mc_single.predict_with_uncertainty(x.row(r));
            assert_eq!(got.mean, want.mean, "row {r} mean");
            assert_eq!(got.std, want.std, "row {r} std");
        }
    }

    #[test]
    fn repeated_queries_use_fresh_ordinals() {
        let model = trained_dropout_net(28, 0.2);
        let mut mc = McDropout::new(model, 30, 14);
        let a = mc.predict_with_uncertainty(&[0.1, 0.1]);
        let b = mc.predict_with_uncertainty(&[0.1, 0.1]);
        assert_ne!(a.mean, b.mean, "consecutive consults draw distinct mask streams");
    }

    #[test]
    fn n_samples_clamped_to_two() {
        let model = trained_dropout_net(26, 0.1);
        let mc = McDropout::new(model, 0, 12);
        assert_eq!(mc.n_samples, 2);
    }
}
