//! Standardized regression: the learned stand-in behind every surrogate
//! in the workspace. Inputs and outputs are z-scored, an [`Mlp`] is
//! fitted on the scaled data, and predictions are mapped back to natural
//! units — the nanoconfinement surrogate, the Behler–Parrinello atomic
//! net, the solvent-free PMF, the data-only forecaster and the tissue
//! transport short-circuit all run through this one type.

use std::cell::RefCell;

use le_linalg::{Matrix, Rng};

use crate::{BatchScratch, Mlp, MlpConfig, NnError, Result, Scaler, TrainConfig, Trainer};

/// A fitted regressor in natural units: the input and output scalers, the
/// network trained between them, and the fused inference engine.
#[derive(Debug, Clone)]
pub struct Regressor {
    net: Mlp,
    x_scaler: Scaler,
    y_scaler: Scaler,
    /// The engine's packed weights plus one flat buffer the inputs are
    /// scaled in; behind a `RefCell` so `&self` predictions reuse both.
    engine: RefCell<(BatchScratch, Vec<f64>)>,
}

impl Regressor {
    /// Fit to the natural-unit rows `(x, y)`. The network has widths
    /// `[x.cols(), hidden…, y.cols()]` with `dropout` after each hidden
    /// layer, is initialized from `rng` and trained by `train`. Data with a
    /// NaN or an infinity is rejected with [`NnError::NonFinite`] before
    /// anything is fitted.
    pub fn fit(
        x: &Matrix,
        y: &Matrix,
        hidden: &[usize],
        dropout: f64,
        train: TrainConfig,
        rng: &mut Rng,
    ) -> Result<Self> {
        for (name, m) in [("inputs", x), ("targets", y)] {
            if let Some(i) = m.as_slice().iter().position(|v| !v.is_finite()) {
                return Err(NnError::NonFinite(format!(
                    "{name} row {} holds {}",
                    i / m.cols(),
                    m.as_slice()[i]
                )));
            }
        }
        let x_scaler = Scaler::fit(x)?;
        let y_scaler = Scaler::fit(y)?;
        let mut layers = vec![x.cols()];
        layers.extend_from_slice(hidden);
        layers.push(y.cols());
        let mut net = Mlp::new(MlpConfig::regression_with_dropout(&layers, dropout), rng)?;
        Trainer::new(train).fit(&mut net, &x_scaler.transform(x)?, &y_scaler.transform(y)?)?;
        let engine = RefCell::new((BatchScratch::new(&net), Vec::new()));
        Ok(Self {
            net,
            x_scaler,
            y_scaler,
            engine,
        })
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.net.in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.net.out_dim()
    }

    /// The trained network, which maps scaled inputs to scaled outputs.
    pub fn model(&self) -> &Mlp {
        &self.net
    }

    /// The fitted input standardizer.
    pub fn x_scaler(&self) -> &Scaler {
        &self.x_scaler
    }

    /// The fitted output standardizer.
    pub fn y_scaler(&self) -> &Scaler {
        &self.y_scaler
    }

    /// Point predictions for the flat row-major `(rows, in_dim)` batch `x`,
    /// written into the flat `(rows, out_dim)` slice `out`, both in natural
    /// units: one deterministic pass of the fused engine, bit-identical to
    /// [`Mlp::predict`] on the scaled rows. Allocation-free after warm-up.
    pub fn predict_into(&self, x: &[f64], rows: usize, out: &mut [f64]) -> Result<()> {
        let mut engine = self.engine.borrow_mut();
        let (scratch, xs) = &mut *engine;
        self.stage(xs, x, rows)?;
        scratch.forward_into(xs, rows, out)?;
        self.unscale(out)
    }

    /// MC-dropout mean and std for the flat `(rows, in_dim)` batch `x`:
    /// [`BatchScratch::mc_predict_into`] on the scaled rows with `passes`
    /// passes, row `r` drawing its masks from
    /// `Rng::substream(mask_seed, ordinal + r)`. `mean` and `std` are flat
    /// `(rows, out_dim)` slices in natural units; the mean is mapped back
    /// affinely, the std multiplicatively.
    pub fn mc_predict_into(
        &self,
        x: &[f64],
        rows: usize,
        passes: usize,
        mask_seed: u64,
        ordinal: u64,
        mean: &mut [f64],
        std: &mut [f64],
    ) -> Result<()> {
        let mut engine = self.engine.borrow_mut();
        let (scratch, xs) = &mut *engine;
        self.stage(xs, x, rows)?;
        scratch.mc_predict_into(xs, rows, passes, mask_seed, ordinal, mean, std)?;
        self.unscale(mean)?;
        for row in std.chunks_exact_mut(self.out_dim()) {
            for (k, s) in row.iter_mut().enumerate() {
                *s = self.y_scaler.inverse_scale_std(k, *s);
            }
        }
        Ok(())
    }

    /// Copy `x` into the staging buffer `xs` and scale it row by row.
    fn stage(&self, xs: &mut Vec<f64>, x: &[f64], rows: usize) -> Result<()> {
        if x.len() != rows * self.in_dim() {
            return Err(NnError::Shape(format!(
                "input length {} != rows {rows} × in_dim {}",
                x.len(),
                self.in_dim()
            )));
        }
        xs.clear();
        xs.extend_from_slice(x);
        xs.chunks_exact_mut(self.in_dim())
            .try_for_each(|row| self.x_scaler.transform_slice(row))
    }

    /// Map scaled output rows back to natural units in place.
    fn unscale(&self, out: &mut [f64]) -> Result<()> {
        out.chunks_exact_mut(self.out_dim())
            .try_for_each(|row| self.y_scaler.inverse_transform_slice(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` natural-unit samples: input column 1 is constant (the
    /// zero-variance, std = 1 branch of the scaler), the `outs` targets
    /// sit far from mean 0 and std 1 so a skipped un-scale shows.
    fn data(rows: usize, outs: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(rows, 3);
        let mut y = Matrix::zeros(rows, outs);
        for r in 0..rows {
            let (a, b) = (rng.uniform_in(-2.0, 2.0), rng.uniform_in(0.0, 5.0));
            x.row_mut(r).copy_from_slice(&[a, 7.5, b]);
            for k in 0..outs {
                y.set(r, k, 40.0 * k as f64 + 12.0 * (a * (k + 1) as f64).sin() + b);
            }
        }
        (x, y)
    }

    fn fitted(outs: usize, dropout: f64) -> Regressor {
        let (x, y) = data(64, outs, 3 + outs as u64);
        let train = TrainConfig {
            epochs: 3,
            ..Default::default()
        };
        Regressor::fit(&x, &y, &[16, 8], dropout, train, &mut Rng::new(5)).unwrap()
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
        }
    }

    /// One row and a row count past the engine's 2^17-multiply-add pool
    /// split, for 1 and 3 outputs.
    const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 3), (1500, 1), (1500, 3)];

    #[test]
    fn predict_into_is_scale_then_mlp_predict_then_unscale() {
        for (rows, outs) in SHAPES {
            let reg = fitted(outs, 0.1);
            let (x, _) = data(rows, outs, 99);
            let mut got = vec![0.0; rows * outs];
            reg.predict_into(x.as_slice(), rows, &mut got).unwrap();

            let mut xs = x.clone();
            for r in 0..rows {
                reg.x_scaler().transform_slice(xs.row_mut(r)).unwrap();
            }
            let mut want = reg.model().predict(&xs).unwrap();
            for r in 0..rows {
                reg.y_scaler().inverse_transform_slice(want.row_mut(r)).unwrap();
            }
            assert_bits_eq(&got, want.as_slice(), &format!("{rows}x{outs} predict"));
        }
    }

    #[test]
    fn mc_predict_into_is_the_engine_then_unscaled_mean_and_std() {
        let (passes, seed, ordinal) = (5, 0xC0FFEE, 11);
        for (rows, outs) in SHAPES {
            let reg = fitted(outs, 0.2);
            let (x, _) = data(rows, outs, 98);
            let (mut mean, mut std) = (vec![0.0; rows * outs], vec![0.0; rows * outs]);
            reg.mc_predict_into(x.as_slice(), rows, passes, seed, ordinal, &mut mean, &mut std)
                .unwrap();

            let mut xs = x.clone();
            for r in 0..rows {
                reg.x_scaler().transform_slice(xs.row_mut(r)).unwrap();
            }
            let (mut want_mean, mut want_std) = (vec![0.0; rows * outs], vec![0.0; rows * outs]);
            BatchScratch::new(reg.model())
                .mc_predict_into(xs.as_slice(), rows, passes, seed, ordinal, &mut want_mean, &mut want_std)
                .unwrap();
            for (m, s) in want_mean.chunks_exact_mut(outs).zip(want_std.chunks_exact_mut(outs)) {
                reg.y_scaler().inverse_transform_slice(m).unwrap();
                for (k, v) in s.iter_mut().enumerate() {
                    *v = reg.y_scaler().inverse_scale_std(k, *v);
                }
            }
            assert_bits_eq(&mean, &want_mean, &format!("{rows}x{outs} mean"));
            assert_bits_eq(&std, &want_std, &format!("{rows}x{outs} std"));
        }
    }

    #[test]
    fn non_finite_training_data_is_rejected() {
        let (x, y) = data(32, 2, 7);
        let (mut x_nan, mut y_inf) = (x.clone(), y.clone());
        x_nan.set(5, 2, f64::NAN);
        y_inf.set(9, 1, f64::INFINITY);
        let train = TrainConfig {
            epochs: 1,
            ..Default::default()
        };
        for (what, x, y, finite) in [
            ("NaN input", &x_nan, &y, false),
            ("infinite target", &x, &y_inf, false),
            ("finite control", &x, &y, true),
        ] {
            let got = Regressor::fit(x, y, &[4], 0.0, train.clone(), &mut Rng::new(1));
            match got {
                Ok(_) => assert!(finite, "{what}: fitted"),
                Err(e) => assert!(!finite && matches!(e, NnError::NonFinite(_)), "{what}: {e}"),
            }
        }
    }

    #[test]
    fn wrong_input_length_is_a_shape_error() {
        let reg = fitted(1, 0.0);
        let mut out = [0.0; 2];
        assert!(matches!(reg.predict_into(&[0.0; 5], 2, &mut out), Err(NnError::Shape(_))));
    }
}
