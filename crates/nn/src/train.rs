//! Mini-batch training loop with shuffling, validation split, early
//! stopping, and gradient clipping: Adam on the MSE loss. Every step and
//! every validation pass runs on one [`TrainArena`], so only the set-up
//! of a fit allocates.

use le_linalg::{Matrix, Rng};

use crate::arena::TrainArena;
use crate::loss;
use crate::model::Mlp;
use crate::optimizer::OptimizerState;
use crate::{NnError, Result};

/// Every step clips the global gradient norm to this value.
const GRAD_CLIP: f64 = 10.0;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Fraction of the data held out for validation (0 disables).
    pub validation_fraction: f64,
    /// Stop if validation loss has not improved for this many epochs
    /// (`None` disables early stopping).
    pub patience: Option<usize>,
    /// Seed for shuffling, dropout, and the validation split.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            batch_size: 32,
            lr: 1e-3,
            validation_fraction: 0.15,
            patience: Some(25),
            seed: 0,
        }
    }
}

/// Per-epoch history and final summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation loss per epoch (empty if no validation split).
    pub val_loss: Vec<f64>,
    /// Epoch index of the best validation loss (or last epoch).
    pub best_epoch: usize,
    /// Best validation loss (or final training loss without validation).
    pub best_loss: f64,
    /// Number of epochs actually run.
    pub epochs_run: usize,
    /// True if early stopping triggered.
    pub early_stopped: bool,
}

/// Stateful trainer binding a model to a config.
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// New trainer with the given config.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Train `model` on `(x, y)` in place and return the history.
    ///
    /// Inputs are in *scaled* space — callers use [`crate::Scaler`] first.
    /// The model with the best validation loss is the one left in `model`
    /// (weights are restored at the end if early stopping kept a snapshot).
    pub fn fit(&self, model: &mut Mlp, x: &Matrix, y: &Matrix) -> Result<TrainReport> {
        if x.rows() != y.rows() {
            return Err(NnError::Shape(format!(
                "x has {} rows but y has {}",
                x.rows(),
                y.rows()
            )));
        }
        if x.rows() == 0 {
            return Err(NnError::Shape("cannot train on empty dataset".into()));
        }
        if x.cols() != model.in_dim() || y.cols() != model.out_dim() {
            return Err(NnError::Shape(format!(
                "model is {}→{} but data is {}→{}",
                model.in_dim(),
                model.out_dim(),
                x.cols(),
                y.cols()
            )));
        }
        let cfg = &self.config;
        if cfg.batch_size == 0 {
            return Err(NnError::InvalidConfig("batch_size must be > 0".into()));
        }
        if !(0.0..1.0).contains(&cfg.validation_fraction) {
            return Err(NnError::InvalidConfig(
                "validation_fraction must be in [0,1)".into(),
            ));
        }

        let mut rng = Rng::new(cfg.seed);
        let n = x.rows();
        let n_val = ((n as f64) * cfg.validation_fraction).round() as usize;
        let n_val = if n_val >= n { n - 1 } else { n_val };
        let mut indices: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut indices);
        let (val_idx, train_idx) = indices.split_at(n_val);
        let x_train = x.gather_rows(train_idx);
        let y_train = y.gather_rows(train_idx);
        let (x_val, y_val) = if n_val > 0 {
            (Some(x.gather_rows(val_idx)), Some(y.gather_rows(val_idx)))
        } else {
            (None, None)
        };

        let mut opt = OptimizerState::new(cfg.lr, model.n_param_blocks());
        let mut report = TrainReport {
            train_loss: Vec::with_capacity(cfg.epochs),
            val_loss: Vec::with_capacity(cfg.epochs),
            best_epoch: 0,
            best_loss: f64::INFINITY,
            epochs_run: 0,
            early_stopped: false,
        };
        let mut best_snapshot: Option<Mlp> = None;
        let mut since_best = 0usize;
        let n_train = x_train.rows();
        let mut order: Vec<usize> = (0..n_train).collect();
        let (d_in, d_out) = (x.cols(), y.cols());
        let mut arena = TrainArena::new(model);
        let mut yb = vec![0.0; cfg.batch_size.min(n_train) * d_out];

        for epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                let xb = arena.input_mut(chunk.len());
                for ((xr, yr), &i) in xb.chunks_exact_mut(d_in).zip(yb.chunks_exact_mut(d_out)).zip(chunk) {
                    xr.copy_from_slice(x_train.row(i));
                    yr.copy_from_slice(y_train.row(i));
                }
                arena.forward(model, Some(&mut rng))?;
                let batch_loss = arena.mse_grad(&yb[..chunk.len() * d_out])?;
                arena.backward(model)?;
                arena.clip_grad_norm(GRAD_CLIP);
                opt.begin_step();
                arena.update(model, &mut opt, 0);
                epoch_loss += batch_loss;
                batches += 1;
            }
            epoch_loss /= batches.max(1) as f64;
            report.train_loss.push(epoch_loss);
            report.epochs_run = epoch + 1;

            // Validation / early stopping.
            let monitored = if let (Some(xv), Some(yv)) = (&x_val, &y_val) {
                arena.input_mut(xv.rows()).copy_from_slice(xv.as_slice());
                let vl = loss::mse_value(arena.forward(model, None)?, yv.as_slice())?;
                report.val_loss.push(vl);
                vl
            } else {
                epoch_loss
            };
            if monitored < report.best_loss {
                report.best_loss = monitored;
                report.best_epoch = epoch;
                since_best = 0;
                if cfg.patience.is_some() {
                    match &mut best_snapshot {
                        Some(best) => best.copy_params_from(model),
                        None => best_snapshot = Some(model.clone()),
                    }
                }
            } else {
                since_best += 1;
                if let Some(patience) = cfg.patience {
                    if since_best >= patience {
                        report.early_stopped = true;
                        break;
                    }
                }
            }
        }
        if let Some(best) = best_snapshot {
            *model = best;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpConfig;
    use le_linalg::stats;

    /// Build a toy regression dataset y = f(x) + noise.
    fn make_dataset(
        n: usize,
        f: impl Fn(f64, f64) -> f64,
        noise: f64,
        seed: u64,
    ) -> (Matrix, Matrix) {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            let a = rng.uniform_in(-1.0, 1.0);
            let b = rng.uniform_in(-1.0, 1.0);
            x.set(i, 0, a);
            x.set(i, 1, b);
            y.set(i, 0, f(a, b) + noise * rng.gaussian());
        }
        (x, y)
    }

    #[test]
    fn learns_linear_function() {
        let (x, y) = make_dataset(512, |a, b| 2.0 * a - 3.0 * b + 0.5, 0.0, 1);
        let mut rng = Rng::new(2);
        let mut model = Mlp::new(MlpConfig::regression(&[2, 16, 1]), &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 500,
            lr: 5e-3,
            patience: Some(80),
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &x, &y).unwrap();
        assert!(
            report.best_loss < 2e-3,
            "linear fn should be learnable, got {}",
            report.best_loss
        );
    }

    #[test]
    fn learns_nonlinear_function() {
        let (x, y) = make_dataset(1024, |a, b| (3.0 * a).sin() * b, 0.01, 3);
        let mut rng = Rng::new(4);
        let mut model = Mlp::new(MlpConfig::regression(&[2, 32, 32, 1]), &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 400,
            batch_size: 64,
            lr: 3e-3,
            patience: Some(60),
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &x, &y).unwrap();
        assert!(
            report.best_loss < 5e-3,
            "sin(3a)*b should be learnable, got {}",
            report.best_loss
        );
        // Out-of-sample check.
        let (xt, yt) = make_dataset(256, |a, b| (3.0 * a).sin() * b, 0.0, 5);
        let pred = model.predict(&xt).unwrap();
        let rmse = stats::rmse(pred.as_slice(), yt.as_slice()).unwrap();
        assert!(rmse < 0.12, "test rmse {rmse}");
    }

    #[test]
    fn training_loss_decreases() {
        let (x, y) = make_dataset(256, |a, b| a * b, 0.0, 6);
        let mut rng = Rng::new(7);
        let mut model = Mlp::new(MlpConfig::regression(&[2, 16, 1]), &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            patience: None,
            validation_fraction: 0.0,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &x, &y).unwrap();
        assert_eq!(report.epochs_run, 50);
        assert!(report.val_loss.is_empty());
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < first * 0.5, "loss {first} -> {last} should halve");
    }

    #[test]
    fn early_stopping_triggers_and_restores_best() {
        // Tiny noisy dataset, oversized net -> overfits, val loss rises.
        let (x, y) = make_dataset(60, |a, _| a, 0.3, 8);
        let mut rng = Rng::new(9);
        let mut model = Mlp::new(MlpConfig::regression(&[2, 64, 64, 1]), &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 2000,
            batch_size: 8,
            lr: 1e-2,
            validation_fraction: 0.3,
            patience: Some(10),
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &x, &y).unwrap();
        assert!(report.early_stopped, "should early-stop on noisy tiny data");
        assert!(report.epochs_run < 2000);
        assert_eq!(report.best_epoch + 10 + 1, report.epochs_run);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = make_dataset(128, |a, b| a + b, 0.05, 10);
        let run = || {
            let mut rng = Rng::new(11);
            let mut model = Mlp::new(MlpConfig::regression(&[2, 8, 1]), &mut rng).unwrap();
            let trainer = Trainer::new(TrainConfig {
                epochs: 20,
                seed: 123,
                ..Default::default()
            });
            trainer.fit(&mut model, &x, &y).unwrap();
            model
                .predict(&Matrix::from_rows(&[&[0.3, -0.3]]))
                .unwrap()
                .get(0, 0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shape_validation() {
        let mut rng = Rng::new(12);
        let mut model = Mlp::new(MlpConfig::regression(&[2, 4, 1]), &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::default());
        // Mismatched rows.
        assert!(trainer
            .fit(&mut model, &Matrix::zeros(10, 2), &Matrix::zeros(9, 1))
            .is_err());
        // Wrong feature count.
        assert!(trainer
            .fit(&mut model, &Matrix::zeros(10, 3), &Matrix::zeros(10, 1))
            .is_err());
        // Empty.
        assert!(trainer
            .fit(&mut model, &Matrix::zeros(0, 2), &Matrix::zeros(0, 1))
            .is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut rng = Rng::new(13);
        let mut model = Mlp::new(MlpConfig::regression(&[2, 4, 1]), &mut rng).unwrap();
        let bad_batch = Trainer::new(TrainConfig {
            batch_size: 0,
            ..Default::default()
        });
        assert!(bad_batch
            .fit(&mut model, &Matrix::zeros(4, 2), &Matrix::zeros(4, 1))
            .is_err());
        let bad_val = Trainer::new(TrainConfig {
            validation_fraction: 1.5,
            ..Default::default()
        });
        assert!(bad_val
            .fit(&mut model, &Matrix::zeros(4, 2), &Matrix::zeros(4, 1))
            .is_err());
    }

    #[test]
    fn one_step_clips_the_gradient_norm_to_ten_then_takes_an_adam_step() {
        // A 1→1 identity net on one row: the raw gradient (x·g, g) with
        // g = 2(p - t) has norm ≈ 630, so the step must clip it to 10.
        let (x0, t, lr) = (3.0, 100.0, 0.05);
        let mut model = Mlp::new(MlpConfig::regression(&[1, 1]), &mut Rng::new(16)).unwrap();
        let (w0, b0) = (model.layers()[0].w.get(0, 0), model.layers()[0].b[0]);
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            lr,
            validation_fraction: 0.0,
            patience: None,
            ..Default::default()
        });
        let x = Matrix::from_rows(&[&[x0]]);
        let y = Matrix::from_rows(&[&[t]]);
        trainer.fit(&mut model, &x, &y).unwrap();

        // The same step by hand, in the trainer's float operations.
        let g = 2.0 * ((x0 * w0 + b0) - t) / 1.0;
        let (gw, gb) = (x0 * g, g);
        let norm = (0.0 + gw * gw + gb * gb).sqrt();
        assert!(norm > 10.0, "raw gradient norm {norm} must exceed the clip");
        let scale = 10.0 / norm;
        let adam = |p: f64, g: f64| {
            let (beta1, beta2): (f64, f64) = (0.9, 0.999);
            let m_hat = (beta1 * 0.0 + (1.0 - beta1) * g) / (1.0 - beta1.powi(1));
            let v_hat = (beta2 * 0.0 + (1.0 - beta2) * g * g) / (1.0 - beta2.powi(1));
            p - lr * m_hat / (v_hat.sqrt() + 1e-8)
        };
        let (w1, b1) = (adam(w0, gw * scale), adam(b0, gb * scale));
        let (w, b) = (model.layers()[0].w.get(0, 0), model.layers()[0].b[0]);
        assert_eq!(w.to_bits(), w1.to_bits(), "w: {w} vs {w1}");
        assert_eq!(b.to_bits(), b1.to_bits(), "b: {b} vs {b1}");
    }

    /// Per-epoch losses and final parameters of a fit, plus the number
    /// of steps whose gradient reached the clip.
    struct Run {
        train_loss: Vec<f64>,
        val_loss: Vec<f64>,
        epochs_run: usize,
        params: Vec<f64>,
        clipped: usize,
    }

    fn params(model: &Mlp) -> Vec<f64> {
        let mut p = Vec::new();
        for d in model.layers() {
            p.extend_from_slice(d.w.as_slice());
            p.extend_from_slice(&d.b);
        }
        p
    }

    /// The layer-at-a-time training body the fused step replaced, spelled
    /// out on `Matrix` operations: forward with an `f64` dropout mask per
    /// hidden layer (drawn with `Rng::bernoulli`, row-major), the MSE
    /// gradient, backward through `hadamard`, `t_matmul`, `col_sums` and
    /// `matmul_t` (the first layer's input gradient included), the global
    /// norm clip and one Adam step; then the validation pass and the
    /// early-stopping snapshot of `Trainer::fit`.
    fn reference_fit(model: &mut Mlp, x: &Matrix, y: &Matrix, cfg: &TrainConfig) -> Run {
        let mut rng = Rng::new(cfg.seed);
        let n = x.rows();
        let n_val = ((n as f64) * cfg.validation_fraction).round() as usize;
        let n_val = if n_val >= n { n - 1 } else { n_val };
        let mut indices: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut indices);
        let (val_idx, train_idx) = indices.split_at(n_val);
        let (x_train, y_train) = (x.gather_rows(train_idx), y.gather_rows(train_idx));
        let (x_val, y_val) = (x.gather_rows(val_idx), y.gather_rows(val_idx));
        let mut opt = OptimizerState::new(cfg.lr, model.n_param_blocks());
        let mut run = Run { train_loss: vec![], val_loss: vec![], epochs_run: 0, params: vec![], clipped: 0 };
        let (mut best_loss, mut since_best, mut best) = (f64::INFINITY, 0, None);
        let mut order: Vec<usize> = (0..x_train.rows()).collect();
        let layers = model.layers().len();
        for epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            let (mut epoch_loss, mut batches) = (0.0, 0usize);
            for chunk in order.chunks(cfg.batch_size) {
                let (mut h, yb) = (x_train.gather_rows(chunk), y_train.gather_rows(chunk));
                let (mut inputs, mut outputs, mut masks) = (vec![], vec![], vec![]);
                for l in 0..layers {
                    let d = &model.dense[l];
                    let mut z = h.matmul(&d.w).unwrap();
                    z.add_row_broadcast(&d.b).unwrap();
                    z.map_mut(|v| d.activation.apply(v));
                    inputs.push(h);
                    outputs.push(z.clone());
                    h = z;
                    if l + 1 < layers {
                        let rate = model.dropout[l].rate;
                        masks.push((rate != 0.0).then(|| {
                            let keep = 1.0 - rate;
                            let mut mask = Matrix::zeros(h.rows(), h.cols());
                            for (m, v) in mask.as_mut_slice().iter_mut().zip(h.as_mut_slice()) {
                                *m = if rng.bernoulli(keep) { 1.0 / keep } else { 0.0 };
                                *v *= *m;
                            }
                            mask
                        }));
                    }
                }
                let mut g = Matrix::zeros(h.rows(), h.cols());
                let batch_loss = loss::mse_into(h.as_slice(), yb.as_slice(), g.as_mut_slice()).unwrap();
                let mut grads = vec![(Matrix::zeros(0, 0), vec![]); layers];
                for l in (0..layers).rev() {
                    if let Some(Some(mask)) = masks.get(l) {
                        g = g.hadamard(mask).unwrap();
                    }
                    let d = &model.dense[l];
                    for (gv, &yv) in g.as_mut_slice().iter_mut().zip(outputs[l].as_slice()) {
                        *gv *= d.activation.derivative(yv);
                    }
                    grads[l] = (inputs[l].t_matmul(&g).unwrap(), g.col_sums());
                    g = g.matmul_t(&d.w).unwrap();
                }
                let mut ss = 0.0;
                for (gw, gb) in &grads {
                    ss += gw.as_slice().iter().map(|g| g * g).sum::<f64>();
                    ss += gb.iter().map(|g| g * g).sum::<f64>();
                }
                let norm = ss.sqrt();
                if norm > GRAD_CLIP {
                    run.clipped += 1;
                    let scale = GRAD_CLIP / norm;
                    for (gw, gb) in &mut grads {
                        gw.scale_mut(scale);
                        for g in gb.iter_mut() {
                            *g *= scale;
                        }
                    }
                }
                opt.begin_step();
                for (l, (gw, gb)) in grads.iter().enumerate() {
                    opt.update_slice(2 * l, model.dense[l].w.as_mut_slice(), gw.as_slice());
                    opt.update_slice(2 * l + 1, &mut model.dense[l].b, gb);
                }
                epoch_loss += batch_loss;
                batches += 1;
            }
            epoch_loss /= batches.max(1) as f64;
            run.train_loss.push(epoch_loss);
            run.epochs_run = epoch + 1;
            let monitored = if n_val > 0 {
                let vl = loss::mse_value(model.predict(&x_val).unwrap().as_slice(), y_val.as_slice()).unwrap();
                run.val_loss.push(vl);
                vl
            } else {
                epoch_loss
            };
            if monitored < best_loss {
                best_loss = monitored;
                since_best = 0;
                if cfg.patience.is_some() {
                    best = Some(model.clone());
                }
            } else {
                since_best += 1;
                if cfg.patience.is_some_and(|p| since_best >= p) {
                    break;
                }
            }
        }
        if let Some(b) = best {
            *model = b;
        }
        run.params = params(model);
        run
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn fused_step_matches_the_layer_at_a_time_reference_bitwise() {
        // (widths, dropout, rows, batch, target scale, validation, patience)
        // 1- and 3-output heads, ragged last batches, dropout 0 and 0.1,
        // targets large enough that every step reaches the clip, and an
        // early stop that restores the snapshot.
        type Case = (&'static [usize], f64, usize, usize, f64, f64, Option<usize>);
        let cases: [Case; 6] = [
            (&[5, 64, 64, 3], 0.1, 90, 32, 1.0, 0.2, Some(25)),
            (&[5, 64, 64, 3], 0.0, 45, 16, 1.0, 0.0, None),
            (&[3, 16, 1], 0.1, 37, 8, 1.0, 0.15, Some(2)),
            (&[3, 16, 1], 0.0, 29, 6, 1.0, 0.0, Some(3)),
            (&[4, 24, 24, 1], 0.1, 23, 5, 400.0, 0.0, None),
            (&[2, 9, 3], 0.0, 19, 4, 400.0, 0.25, Some(2)),
        ];
        for (case, &(widths, dropout, rows, batch, scale, val, patience)) in cases.iter().enumerate() {
            let (d_in, d_out) = (widths[0], widths[widths.len() - 1]);
            let mut rng = Rng::new(70 + case as u64);
            let x = Matrix::from_vec(rows, d_in, (0..rows * d_in).map(|_| rng.uniform_in(-1.5, 1.5)).collect()).unwrap();
            let y = Matrix::from_vec(rows, d_out, (0..rows * d_out).map(|i| scale * (0.7 * i as f64).sin()).collect()).unwrap();
            let cfg = TrainConfig {
                epochs: 6,
                batch_size: batch,
                lr: 1e-2,
                validation_fraction: val,
                patience,
                seed: 90 + case as u64,
            };
            let model = Mlp::new(MlpConfig::regression_with_dropout(widths, dropout), &mut rng).unwrap();
            let mut fused = model.clone();
            let report = Trainer::new(cfg.clone()).fit(&mut fused, &x, &y).unwrap();
            let mut reference = model;
            let want = reference_fit(&mut reference, &x, &y, &cfg);
            let what = format!("case {case} {widths:?} dropout {dropout}");
            assert_eq!(report.epochs_run, want.epochs_run, "{what}: epochs");
            assert_bits_eq(&report.train_loss, &want.train_loss, &format!("{what}: train loss"));
            assert_bits_eq(&report.val_loss, &want.val_loss, &format!("{what}: validation loss"));
            assert_bits_eq(&params(&fused), &want.params, &format!("{what}: parameters"));
            if scale > 1.0 {
                assert!(want.clipped > 0, "{what}: no step reached the clip");
            }
        }
    }

    #[test]
    fn dropout_training_still_converges() {
        let (x, y) = make_dataset(512, |a, b| a - b, 0.02, 14);
        let mut rng = Rng::new(15);
        let mut model =
            Mlp::new(MlpConfig::regression_with_dropout(&[2, 32, 1], 0.1), &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 300,
            lr: 3e-3,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &x, &y).unwrap();
        assert!(report.best_loss < 0.02, "dropout net loss {}", report.best_loss);
    }
}
