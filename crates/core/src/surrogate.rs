//! [`NnSurrogate`] — the learned stand-in for a simulator: input/output
//! standardization + an MLP with dropout + MC-dropout uncertainty, all in
//! the simulator's native units.
//!
//! All inference rides the arena-backed batch engine
//! ([`le_nn::BatchScratch`]): point predictions reuse one flat scratch (no
//! per-query `Matrix` or `Vec` churn after warm-up), and MC-dropout
//! uncertainty runs all `mc_samples` passes for all queried rows as one
//! fused GEMM batch. Dropout masks come from stateless per-consult
//! substreams — consult `i` draws from `Rng::substream(mask_seed, i)` — so
//! a batched uncertainty query over B rows is bit-identical to B
//! sequential single-row queries (see `le_nn::batch` for the canonical
//! mask order and the full determinism contract).

use std::cell::RefCell;

use le_linalg::{Matrix, Rng};
use le_nn::{BatchScratch, Mlp, MlpConfig, Optimizer, Scaler, TrainConfig, Trainer};
use le_uq::{Prediction, UncertainModel};

use crate::{LeError, Result};

/// Architecture and training settings for a surrogate.
#[derive(Debug, Clone)]
pub struct SurrogateConfig {
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Dropout rate (must be > 0 for MC-dropout UQ to carry signal).
    pub dropout: f64,
    /// Training epochs per (re)fit.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// MC-dropout samples per uncertainty query.
    pub mc_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        Self {
            hidden: vec![64, 64],
            dropout: 0.1,
            epochs: 200,
            lr: 3e-3,
            mc_samples: 30,
            seed: 0,
        }
    }
}

/// Reusable flat staging buffers for scaling inputs/outputs around the
/// batch engine. Lives behind a `RefCell` so `&self` point predictions can
/// reuse it without reallocating.
#[derive(Debug, Clone, Default)]
struct Stage {
    x: Vec<f64>,
    y: Vec<f64>,
    mean: Vec<f64>,
    std: Vec<f64>,
}

/// A trained surrogate: scalers + MLP + the fused batch engine and the
/// stateless MC-dropout mask-stream seed.
#[derive(Debug, Clone)]
pub struct NnSurrogate {
    net: Mlp,
    x_scaler: Scaler,
    y_scaler: Scaler,
    mc_samples: usize,
    /// Seed of the stateless mask-substream family; consult `i` draws its
    /// dropout masks from `Rng::substream(mask_seed, i)`.
    mask_seed: u64,
    /// Next unconsumed consult ordinal; advanced by B on every successful
    /// B-row uncertainty evaluation (point predictions draw no masks).
    mc_ordinal: u64,
    in_dim: usize,
    out_dim: usize,
    scratch: RefCell<BatchScratch>,
    stage: RefCell<Stage>,
}

impl NnSurrogate {
    /// Fit a surrogate to `(x, y)` rows in natural units.
    pub fn fit(x: &Matrix, y: &Matrix, config: &SurrogateConfig) -> Result<Self> {
        if x.rows() != y.rows() || x.rows() == 0 {
            return Err(LeError::InsufficientData(format!(
                "{} inputs vs {} outputs",
                x.rows(),
                y.rows()
            )));
        }
        if x.as_slice().iter().chain(y.as_slice()).any(|v| !v.is_finite()) {
            return Err(LeError::Model(
                "training data contains non-finite values".into(),
            ));
        }
        let x_scaler = Scaler::fit(x).map_err(|e| LeError::Model(e.to_string()))?;
        let y_scaler = Scaler::fit(y).map_err(|e| LeError::Model(e.to_string()))?;
        let xs = x_scaler.transform(x).map_err(|e| LeError::Model(e.to_string()))?;
        let ys = y_scaler.transform(y).map_err(|e| LeError::Model(e.to_string()))?;
        let mut layers = vec![x.cols()];
        layers.extend_from_slice(&config.hidden);
        layers.push(y.cols());
        let mut rng = Rng::new(config.seed);
        let mut net = Mlp::new(
            MlpConfig::regression_with_dropout(&layers, config.dropout),
            &mut rng,
        )
        .map_err(|e| LeError::Model(e.to_string()))?;
        Trainer::new(TrainConfig {
            epochs: config.epochs,
            optimizer: Optimizer::adam(config.lr),
            seed: config.seed ^ 0xDADA,
            ..Default::default()
        })
        .fit(&mut net, &xs, &ys)
        .map_err(|e| LeError::Model(e.to_string()))?;
        let scratch = RefCell::new(BatchScratch::new(&net));
        Ok(Self {
            net,
            x_scaler,
            y_scaler,
            mc_samples: config.mc_samples.max(2),
            mask_seed: rng.split().next_u64(),
            mc_ordinal: 0,
            in_dim: x.cols(),
            out_dim: y.cols(),
            scratch,
            stage: RefCell::new(Stage::default()),
        })
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.out_dim
    }

    /// The trained network (weights in natural `(in, out)` layout per
    /// layer). Exposed read-only so harnesses can reconstruct reference
    /// implementations — e.g. the surrogate-batch bench replays the
    /// pre-batch-engine per-query path against the same parameters.
    pub fn model(&self) -> &Mlp {
        &self.net
    }

    /// The fitted input standardizer (see [`NnSurrogate::model`]).
    pub fn x_scaler(&self) -> &Scaler {
        &self.x_scaler
    }

    /// The fitted output standardizer (see [`NnSurrogate::model`]).
    pub fn y_scaler(&self) -> &Scaler {
        &self.y_scaler
    }

    /// Number of stochastic passes per uncertainty evaluation.
    pub fn mc_samples(&self) -> usize {
        self.mc_samples
    }

    /// Stage `inputs` as one flat scaled batch in `stage.x`. Validates every
    /// row's width first so nothing is consumed on a dimension error.
    fn stage_scaled_inputs(&self, inputs: &[&[f64]]) -> Result<()> {
        for row in inputs {
            if row.len() != self.in_dim {
                return Err(LeError::InvalidConfig(format!(
                    "expected {} inputs, got {}",
                    self.in_dim,
                    row.len()
                )));
            }
        }
        let mut stage = self.stage.borrow_mut();
        stage.x.clear();
        for row in inputs {
            stage.x.extend_from_slice(row);
        }
        for chunk in stage.x.chunks_exact_mut(self.in_dim) {
            self.x_scaler
                .transform_slice(chunk)
                .map_err(|e| LeError::Model(e.to_string()))?;
        }
        Ok(())
    }

    /// Deterministic point prediction written into `out` (length
    /// `output_dim`), natural units. This is the allocation-free primitive
    /// behind [`NnSurrogate::predict`]: after warm-up the staging buffers
    /// and the engine arenas are reused, so a point prediction allocates
    /// nothing.
    pub fn predict_into(&self, input: &[f64], out: &mut [f64]) -> Result<()> {
        if out.len() != self.out_dim {
            return Err(LeError::InvalidConfig(format!(
                "expected {} outputs, got {}",
                self.out_dim,
                out.len()
            )));
        }
        self.stage_scaled_inputs(&[input])?;
        let stage = self.stage.borrow();
        self.scratch
            .borrow_mut()
            .forward_into(&stage.x, 1, out)
            .map_err(|e| LeError::Model(e.to_string()))?;
        self.y_scaler
            .inverse_transform_slice(out)
            .map_err(|e| LeError::Model(e.to_string()))?;
        Ok(())
    }

    /// Deterministic point prediction in natural units.
    pub fn predict(&self, input: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.out_dim];
        self.predict_into(input, &mut y)?;
        Ok(y)
    }

    /// Deterministic point predictions for a flat row-major `(rows,
    /// input_dim)` batch, written into the flat `(rows, output_dim)` `out`
    /// slice with one batched engine pass. Allocation-free after warm-up.
    pub fn predict_batch_into(&self, x: &[f64], rows: usize, out: &mut [f64]) -> Result<()> {
        if x.len() != rows * self.in_dim || out.len() != rows * self.out_dim {
            return Err(LeError::InvalidConfig(format!(
                "batch shape mismatch: x {} vs rows {} × {}, out {} vs rows × {}",
                x.len(),
                rows,
                self.in_dim,
                out.len(),
                self.out_dim
            )));
        }
        let mut stage = self.stage.borrow_mut();
        stage.x.clear();
        stage.x.extend_from_slice(x);
        for chunk in stage.x.chunks_exact_mut(self.in_dim) {
            self.x_scaler
                .transform_slice(chunk)
                .map_err(|e| LeError::Model(e.to_string()))?;
        }
        self.scratch
            .borrow_mut()
            .forward_into(&stage.x, rows, out)
            .map_err(|e| LeError::Model(e.to_string()))?;
        for chunk in out.chunks_exact_mut(self.out_dim) {
            self.y_scaler
                .inverse_transform_slice(chunk)
                .map_err(|e| LeError::Model(e.to_string()))?;
        }
        Ok(())
    }

    /// Deterministic point predictions for many inputs with one batched
    /// engine pass; row `r` of the result is bit-identical to
    /// `predict(&inputs[r])`.
    pub fn predict_batch(&self, inputs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        self.stage_scaled_inputs(&refs)?;
        let rows = inputs.len();
        let mut stage = self.stage.borrow_mut();
        let Stage { x, y, .. } = &mut *stage;
        y.resize(rows * self.out_dim, 0.0);
        self.scratch
            .borrow_mut()
            .forward_into(x, rows, y)
            .map_err(|e| LeError::Model(e.to_string()))?;
        for chunk in y.chunks_exact_mut(self.out_dim) {
            self.y_scaler
                .inverse_transform_slice(chunk)
                .map_err(|e| LeError::Model(e.to_string()))?;
        }
        Ok(y.chunks_exact(self.out_dim).map(|c| c.to_vec()).collect())
    }

    /// MC-dropout prediction with per-output mean and std, natural units.
    /// A batch of one: consumes one consult ordinal.
    pub fn predict_with_uncertainty(&mut self, input: &[f64]) -> Result<Prediction> {
        self.predict_with_uncertainty_rows(&[input])?
            .pop()
            .ok_or_else(|| LeError::Model("one row in, no prediction out".into()))
    }

    /// Fused MC-dropout predictions for a whole batch: all `mc_samples`
    /// passes for all rows run as one `(K·B, ·)` GEMM batch. Row `r`
    /// consumes consult ordinal `mc_ordinal + r`, so the result is
    /// bit-identical to B sequential [`NnSurrogate::predict_with_uncertainty`]
    /// calls; the ordinal counter commits only after a successful
    /// evaluation (a failed or panicked evaluation consumes nothing).
    pub fn predict_with_uncertainty_rows(&mut self, inputs: &[&[f64]]) -> Result<Vec<Prediction>> {
        self.stage_scaled_inputs(inputs)?;
        let rows = inputs.len();
        let mut stage = self.stage.borrow_mut();
        let Stage { x, mean, std, .. } = &mut *stage;
        mean.resize(rows * self.out_dim, 0.0);
        std.resize(rows * self.out_dim, 0.0);
        self.scratch
            .borrow_mut()
            .mc_predict_into(x, rows, self.mc_samples, self.mask_seed, self.mc_ordinal, mean, std)
            .map_err(|e| LeError::Model(e.to_string()))?;
        self.mc_ordinal = self.mc_ordinal.wrapping_add(rows as u64);
        // Back to natural units: mean affine, std multiplicative.
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let mut m = mean[r * self.out_dim..(r + 1) * self.out_dim].to_vec();
            self.y_scaler
                .inverse_transform_slice(&mut m)
                .map_err(|e| LeError::Model(e.to_string()))?;
            let s: Vec<f64> = std[r * self.out_dim..(r + 1) * self.out_dim]
                .iter()
                .enumerate()
                .map(|(k, &v)| self.y_scaler.inverse_scale_std(k, v))
                .collect();
            out.push(Prediction { mean: m, std: s });
        }
        Ok(out)
    }
}

impl UncertainModel for NnSurrogate {
    fn predict_with_uncertainty(&mut self, x: &[f64]) -> Prediction {
        NnSurrogate::predict_with_uncertainty(self, x)
            .expect("dimension checked by acquisition caller") // lint:allow(no-panic): acquisition validates dims first
    }

    fn predict_point(&self, x: &[f64]) -> Vec<f64> {
        self.predict(x).expect("dimension checked by caller") // lint:allow(no-panic): public entry validates dims first
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize, seed: u64) -> (Matrix, Matrix) {
        // y0 = 10 + 5 sin(x0) + x1 ; y1 = 100 x0 (different output scales).
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Matrix::zeros(n, 2);
        for i in 0..n {
            let a = rng.uniform_in(-2.0, 2.0);
            let b = rng.uniform_in(-1.0, 1.0);
            x.set(i, 0, a);
            x.set(i, 1, b);
            y.set(i, 0, 10.0 + 5.0 * a.sin() + b);
            y.set(i, 1, 100.0 * a);
        }
        (x, y)
    }

    #[test]
    fn fit_and_predict_in_natural_units() {
        let (x, y) = dataset(600, 1);
        let s = NnSurrogate::fit(&x, &y, &SurrogateConfig::default()).unwrap();
        assert_eq!(s.input_dim(), 2);
        assert_eq!(s.output_dim(), 2);
        let p = s.predict(&[1.0, 0.5]).unwrap();
        let want0 = 10.0 + 5.0 * 1.0f64.sin() + 0.5;
        let want1 = 100.0;
        assert!((p[0] - want0).abs() < 1.0, "y0 {} vs {want0}", p[0]);
        assert!((p[1] - want1).abs() < 12.0, "y1 {} vs {want1}", p[1]);
    }

    #[test]
    fn uncertainty_in_natural_units_scales_with_output() {
        let (x, y) = dataset(400, 2);
        let mut s = NnSurrogate::fit(
            &x,
            &y,
            &SurrogateConfig {
                dropout: 0.2,
                mc_samples: 60,
                ..Default::default()
            },
        )
        .unwrap();
        let p = NnSurrogate::predict_with_uncertainty(&mut s, &[0.5, 0.0]).unwrap();
        assert_eq!(p.mean.len(), 2);
        assert!(p.std.iter().all(|&v| v > 0.0));
        // Output 1 spans hundreds while output 0 spans ~10: natural-unit
        // uncertainty should reflect that scale difference.
        assert!(
            p.std[1] > p.std[0],
            "std must be unscaled to natural units: {:?}",
            p.std
        );
    }

    #[test]
    fn extrapolation_more_uncertain() {
        let (x, y) = dataset(400, 3);
        let mut s = NnSurrogate::fit(
            &x,
            &y,
            &SurrogateConfig {
                dropout: 0.25,
                mc_samples: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let inside = NnSurrogate::predict_with_uncertainty(&mut s, &[0.0, 0.0])
            .unwrap()
            .max_std();
        let outside = NnSurrogate::predict_with_uncertainty(&mut s, &[8.0, 8.0])
            .unwrap()
            .max_std();
        assert!(outside > inside, "outside {outside} vs inside {inside}");
    }

    #[test]
    fn validation_errors() {
        let (x, y) = dataset(50, 4);
        assert!(NnSurrogate::fit(&Matrix::zeros(0, 2), &Matrix::zeros(0, 2), &SurrogateConfig::default()).is_err());
        assert!(NnSurrogate::fit(&x, &Matrix::zeros(10, 2), &SurrogateConfig::default()).is_err());
        let s = NnSurrogate::fit(&x, &y, &SurrogateConfig {
            epochs: 5,
            ..Default::default()
        })
        .unwrap();
        assert!(s.predict(&[1.0]).is_err());
    }

    #[test]
    fn deterministic_point_predictions() {
        let (x, y) = dataset(100, 5);
        let s = NnSurrogate::fit(&x, &y, &SurrogateConfig {
            epochs: 30,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(s.predict(&[0.3, 0.3]).unwrap(), s.predict(&[0.3, 0.3]).unwrap());
    }
}
