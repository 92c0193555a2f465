//! Deep ensembles: "averaging trained instances of an originally complex
//! model" (§III-B). Members are identically configured networks with
//! independent initializations, each trained on its own bootstrap resample
//! of the data; the member spread estimates epistemic uncertainty.
//!
//! Members train in parallel on scoped threads — each member carries its own RNG
//! split up front so the result is identical at any thread count.

use le_linalg::{Matrix, Rng};
use le_pool as pool;
use le_nn::{Mlp, MlpConfig, TrainConfig, Trainer};

use crate::{Prediction, UncertainModel};

/// An ensemble of independently trained MLPs.
#[derive(Debug, Clone)]
pub struct DeepEnsemble {
    members: Vec<Mlp>,
}

impl DeepEnsemble {
    /// Train `n_members` networks of architecture `config` on `(x, y)`.
    ///
    /// Each member sees a bootstrap resample of the data (bagging), which
    /// increases member diversity. Training is embarrassingly parallel and
    /// deterministic: member `i` trains with seed `seed + i`.
    pub fn train(
        config: &MlpConfig,
        train_config: &TrainConfig,
        x: &Matrix,
        y: &Matrix,
        n_members: usize,
        seed: u64,
    ) -> le_nn::Result<Self> {
        if n_members == 0 {
            return Err(le_nn::NnError::InvalidConfig(
                "ensemble needs at least one member".into(),
            ));
        }
        let members: le_nn::Result<Vec<Mlp>> =
            pool::par_map_index(n_members, |i| {
                let member_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
                let mut rng = Rng::new(member_seed);
                let n = x.rows();
                let idx: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
                let (xi, yi) = (x.gather_rows(&idx), y.gather_rows(&idx));
                let mut model = Mlp::new(config.clone(), &mut rng)?;
                let trainer = Trainer::new(TrainConfig {
                    seed: member_seed ^ 0xABCD,
                    ..train_config.clone()
                });
                trainer.fit(&mut model, &xi, &yi)?;
                Ok(model)
            })
            .into_iter()
            .collect();
        Ok(Self { members: members? })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the ensemble has no members (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Access the members.
    pub fn members(&self) -> &[Mlp] {
        &self.members
    }

    /// Ensemble mean/std over a whole batch.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<Prediction> {
        let out_dim = self.members[0].out_dim();
        let n = self.members.len() as f64;
        let preds: Vec<Matrix> = self
            .members
            .iter()
            .map(|m| m.predict(x).expect("shape checked by caller")) // lint:allow(no-panic): ensemble entry validates the shape
            .collect();
        (0..x.rows())
            .map(|r| {
                let mut mean = vec![0.0; out_dim];
                for p in &preds {
                    for (m, &v) in mean.iter_mut().zip(p.row(r).iter()) {
                        *m += v;
                    }
                }
                for m in &mut mean {
                    *m /= n;
                }
                let mut std = vec![0.0; out_dim];
                if self.members.len() > 1 {
                    for p in &preds {
                        for ((s, &v), &m) in std.iter_mut().zip(p.row(r).iter()).zip(mean.iter()) {
                            *s += (v - m) * (v - m);
                        }
                    }
                    for s in &mut std {
                        *s = (*s / (n - 1.0)).sqrt();
                    }
                }
                Prediction { mean, std }
            })
            .collect()
    }
}

impl UncertainModel for DeepEnsemble {
    fn predict_with_uncertainty(&mut self, x: &[f64]) -> Prediction {
        let xm = Matrix::from_vec(1, x.len(), x.to_vec()).expect("1-row input"); // lint:allow(no-panic): 1-row matrix from a slice always succeeds
        self.predict_batch(&xm).remove(0)
    }

    fn predict_point(&self, x: &[f64]) -> Vec<f64> {
        let xm = Matrix::from_vec(1, x.len(), x.to_vec()).expect("1-row input"); // lint:allow(no-panic): 1-row matrix from a slice always succeeds
        self.predict_batch(&xm).remove(0).mean
    }

    fn out_dim(&self) -> usize {
        self.members[0].out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(n, 1);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            let v = rng.uniform_in(-1.0, 1.0);
            x.set(i, 0, v);
            y.set(i, 0, v * v);
        }
        (x, y)
    }

    fn quick_config() -> (MlpConfig, TrainConfig) {
        (
            MlpConfig::regression(&[1, 16, 1]),
            TrainConfig {
                epochs: 80,
                patience: None,
                validation_fraction: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn ensemble_learns_and_members_differ() {
        let (x, y) = dataset(256, 31);
        let (mc, tc) = quick_config();
        let ens = DeepEnsemble::train(&mc, &tc, &x, &y, 4, 100).unwrap();
        assert_eq!(ens.len(), 4);
        // Accurate in-distribution.
        let p = ens.predict_batch(&Matrix::from_rows(&[&[0.5]]));
        assert!((p[0].mean[0] - 0.25).abs() < 0.1, "mean {}", p[0].mean[0]);
        // Members are genuinely different networks.
        let xm = Matrix::from_rows(&[&[0.5]]);
        let outs: Vec<f64> = ens
            .members()
            .iter()
            .map(|m| m.predict(&xm).unwrap().get(0, 0))
            .collect();
        assert!(
            outs.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9),
            "members should not be identical"
        );
    }

    #[test]
    fn extrapolation_uncertainty_exceeds_interpolation() {
        let (x, y) = dataset(256, 32);
        let (mc, tc) = quick_config();
        let ens = DeepEnsemble::train(&mc, &tc, &x, &y, 5, 200).unwrap();
        let p = ens.predict_batch(&Matrix::from_rows(&[&[0.0], &[5.0]]));
        assert!(
            p[1].std[0] > p[0].std[0],
            "extrapolation std {} should exceed in-domain std {}",
            p[1].std[0],
            p[0].std[0]
        );
    }

    #[test]
    fn single_member_has_zero_std() {
        let (x, y) = dataset(64, 33);
        let (mc, tc) = quick_config();
        let ens = DeepEnsemble::train(&mc, &tc, &x, &y, 1, 300).unwrap();
        let p = ens.predict_batch(&Matrix::from_rows(&[&[0.3]]));
        assert_eq!(p[0].std[0], 0.0);
    }

    #[test]
    fn zero_members_rejected() {
        let (x, y) = dataset(16, 34);
        let (mc, tc) = quick_config();
        assert!(DeepEnsemble::train(&mc, &tc, &x, &y, 0, 1).is_err());
    }

    #[test]
    fn training_is_deterministic_across_invocations() {
        let (x, y) = dataset(64, 35);
        let (mc, tc) = quick_config();
        let a = DeepEnsemble::train(&mc, &tc, &x, &y, 3, 42).unwrap();
        let b = DeepEnsemble::train(&mc, &tc, &x, &y, 3, 42).unwrap();
        let xm = Matrix::from_rows(&[&[0.7]]);
        let pa = a.predict_batch(&xm);
        let pb = b.predict_batch(&xm);
        assert_eq!(pa[0].mean, pb[0].mean, "parallel training must be deterministic");
        assert_eq!(pa[0].std, pb[0].std);
    }

    #[test]
    fn uncertain_model_trait_consistency() {
        let (x, y) = dataset(64, 36);
        let (mc, tc) = quick_config();
        let mut ens = DeepEnsemble::train(&mc, &tc, &x, &y, 3, 7).unwrap();
        let p = ens.predict_with_uncertainty(&[0.2]);
        let point = ens.predict_point(&[0.2]);
        assert_eq!(p.mean, point, "ensemble point prediction is the mean");
        assert_eq!(ens.out_dim(), 1);
    }
}
