//! Active learning for surrogate training (E5).
//!
//! §II-C2 (ref [34]): "The AL approach reduced the amount of required
//! training data to 10% of the original model by iteratively adding
//! training data calculations for regions of chemical space where the
//! current ML model could not make good predictions." The loop:
//!
//! 1. train a surrogate on the runs so far,
//! 2. score a candidate pool with the configured UQ backend,
//! 3. run the simulator on the `batch` most uncertain candidates
//!    (in parallel — they are independent simulations),
//! 4. repeat until the budget is exhausted, recording a learning curve.
//!
//! Two UQ backends are provided, mirroring the paper's research issue 10
//! (dropout-based UQ "does not always mean that the quality of the
//! distribution is dependent on the quality/quantity of data"):
//! [`UqBackend::McDropout`] — cheap, but its spread tracks activation
//! magnitude more than fit error; and [`UqBackend::Ensemble`] — member
//! disagreement, which concentrates exactly where the fit is wrong and is
//! the backend that realizes the paper's data-reduction claim.

use le_linalg::{Matrix, Rng};
use le_nn::{MlpConfig, Scaler, TrainConfig};

use le_uq::{select_batch, AcquisitionStrategy, DeepEnsemble, Prediction, UncertainModel};

use crate::simulator::Simulator;
use crate::surrogate::{NnSurrogate, SurrogateConfig};
use crate::{LeError, Result};

/// Which uncertainty estimator drives acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UqBackend {
    /// MC-dropout on a single network (cheap; needs `dropout > 0`).
    McDropout,
    /// A deep ensemble of independently initialized networks; member
    /// disagreement is the uncertainty (reliable; `members`× training
    /// cost).
    Ensemble {
        /// Ensemble size (≥ 2).
        members: usize,
    },
}

/// Active-learning loop configuration.
#[derive(Debug, Clone)]
pub struct ActiveConfig {
    /// Initial random design size.
    pub initial: usize,
    /// Simulations added per round.
    pub batch: usize,
    /// Total simulation budget (including the initial design).
    pub budget: usize,
    /// Acquisition strategy.
    pub strategy: AcquisitionStrategy,
    /// Uncertainty backend.
    pub backend: UqBackend,
    /// Surrogate settings (architecture shared by both backends).
    pub surrogate: SurrogateConfig,
    /// Seed.
    pub seed: u64,
}

/// One point on the learning curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Simulations consumed so far.
    pub n_runs: usize,
    /// Validation RMSE (pooled over outputs) at this point.
    pub rmse: f64,
}

/// A fitted surrogate from either backend.
pub enum FittedSurrogate {
    /// Single dropout network.
    Dropout(NnSurrogate),
    /// Scaled deep ensemble.
    Ensemble(EnsembleSurrogate),
}

impl FittedSurrogate {
    /// Point prediction in natural units.
    pub fn predict(&self, x: &[f64]) -> Result<Vec<f64>> {
        match self {
            FittedSurrogate::Dropout(s) => s.predict(x),
            FittedSurrogate::Ensemble(e) => Ok(e.predict_point(x)),
        }
    }
}

impl UncertainModel for FittedSurrogate {
    fn predict_with_uncertainty(&mut self, x: &[f64]) -> Prediction {
        match self {
            FittedSurrogate::Dropout(s) => UncertainModel::predict_with_uncertainty(s, x),
            FittedSurrogate::Ensemble(e) => e.predict_with_uncertainty(x),
        }
    }

    fn predict_point(&self, x: &[f64]) -> Vec<f64> {
        match self {
            FittedSurrogate::Dropout(s) => s.predict_point(x),
            FittedSurrogate::Ensemble(e) => e.predict_point(x),
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            FittedSurrogate::Dropout(s) => UncertainModel::out_dim(s),
            FittedSurrogate::Ensemble(e) => UncertainModel::out_dim(e),
        }
    }
}

/// A deep ensemble wrapped with input/output standardization so it works
/// in the simulator's natural units (like [`NnSurrogate`]).
pub struct EnsembleSurrogate {
    ensemble: DeepEnsemble,
    x_scaler: Scaler,
    y_scaler: Scaler,
}

impl EnsembleSurrogate {
    /// Train `members` networks on `(x, y)` in natural units.
    pub fn fit(
        x: &Matrix,
        y: &Matrix,
        config: &SurrogateConfig,
        members: usize,
        seed: u64,
    ) -> Result<Self> {
        if members < 2 {
            return Err(LeError::InvalidConfig("ensemble needs ≥ 2 members".into()));
        }
        if x.rows() != y.rows() || x.rows() == 0 {
            return Err(LeError::InsufficientData(format!(
                "{} inputs vs {} outputs",
                x.rows(),
                y.rows()
            )));
        }
        let x_scaler = Scaler::fit(x).map_err(|e| LeError::Model(e.to_string()))?;
        let y_scaler = Scaler::fit(y).map_err(|e| LeError::Model(e.to_string()))?;
        let xs = x_scaler.transform(x).map_err(|e| LeError::Model(e.to_string()))?;
        let ys = y_scaler.transform(y).map_err(|e| LeError::Model(e.to_string()))?;
        let mut layers = vec![x.cols()];
        layers.extend_from_slice(&config.hidden);
        layers.push(y.cols());
        let mlp_config = MlpConfig::regression(&layers); // ensembles need no dropout
        let train_config = TrainConfig {
            epochs: config.epochs,
            lr: config.lr,
            ..Default::default()
        };
        let ensemble = DeepEnsemble::train(&mlp_config, &train_config, &xs, &ys, members, seed)
            .map_err(|e| LeError::Model(e.to_string()))?;
        Ok(Self {
            ensemble,
            x_scaler,
            y_scaler,
        })
    }
}

impl UncertainModel for EnsembleSurrogate {
    fn predict_with_uncertainty(&mut self, x: &[f64]) -> Prediction {
        let mut xs = x.to_vec();
        self.x_scaler
            .transform_slice(&mut xs)
            .expect("caller checked dims"); // lint:allow(no-panic): dims validated at loop entry
        let p = self.ensemble.predict_with_uncertainty(&xs);
        let mut mean = p.mean;
        self.y_scaler
            .inverse_transform_slice(&mut mean)
            .expect("widths fixed"); // lint:allow(no-panic): scaler fitted on the same width
        let std = p
            .std
            .iter()
            .enumerate()
            .map(|(k, &s)| self.y_scaler.inverse_scale_std(k, s))
            .collect();
        Prediction { mean, std }
    }

    fn predict_point(&self, x: &[f64]) -> Vec<f64> {
        let mut xs = x.to_vec();
        self.x_scaler
            .transform_slice(&mut xs)
            .expect("caller checked dims"); // lint:allow(no-panic): dims validated at loop entry
        let mut y = self.ensemble.predict_point(&xs);
        self.y_scaler
            .inverse_transform_slice(&mut y)
            .expect("widths fixed"); // lint:allow(no-panic): scaler fitted on the same width
        y
    }

    fn out_dim(&self) -> usize {
        self.ensemble.out_dim()
    }
}

/// The result of an active-learning campaign.
pub struct ActiveOutcome {
    /// The final surrogate.
    pub surrogate: FittedSurrogate,
    /// Learning curve after each round.
    pub curve: Vec<CurvePoint>,
}

/// Pooled RMSE of a surrogate on a labelled validation set. The dropout
/// backend scores the whole set with one fused batch evaluation (bit-
/// identical to per-point prediction); the ensemble backend stays
/// per-point.
pub fn validation_rmse(surrogate: &FittedSurrogate, val_x: &[Vec<f64>], val_y: &[Vec<f64>]) -> f64 {
    let preds: Vec<Vec<f64>> = match surrogate {
        FittedSurrogate::Dropout(s) => {
            let mut flat = vec![0.0; val_x.len() * s.output_dim()];
            s.predict_batch_into(&val_x.concat(), val_x.len(), &mut flat)
                .expect("validated dims"); // lint:allow(no-panic): dims validated at loop entry
            flat.chunks_exact(s.output_dim()).map(<[f64]>::to_vec).collect()
        }
        FittedSurrogate::Ensemble(_) => val_x
            .iter()
            .map(|x| surrogate.predict(x).expect("validated dims")) // lint:allow(no-panic): dims validated at loop entry
            .collect(),
    };
    let mut ss = 0.0;
    let mut n = 0usize;
    for (p, y) in preds.iter().zip(val_y.iter()) {
        for (&pi, &yi) in p.iter().zip(y.iter()) {
            ss += (pi - yi) * (pi - yi);
            n += 1;
        }
    }
    (ss / n.max(1) as f64).sqrt()
}

fn fit_backend(
    x: &Matrix,
    y: &Matrix,
    cfg: &ActiveConfig,
    round: u64,
) -> Result<FittedSurrogate> {
    let seed = cfg.surrogate.seed ^ round;
    match cfg.backend {
        UqBackend::McDropout => {
            let sconfig = SurrogateConfig {
                seed,
                ..cfg.surrogate.clone()
            };
            Ok(FittedSurrogate::Dropout(NnSurrogate::fit(x, y, &sconfig)?))
        }
        UqBackend::Ensemble { members } => Ok(FittedSurrogate::Ensemble(
            EnsembleSurrogate::fit(x, y, &cfg.surrogate, members, seed)?,
        )),
    }
}

/// Run the active-learning campaign against `simulator` using `pool` as the
/// candidate set and `(val_x, val_y)` as the held-out validation set.
pub fn run_active_learning<S: Simulator>(
    simulator: &S,
    pool: &[Vec<f64>],
    val_x: &[Vec<f64>],
    val_y: &[Vec<f64>],
    cfg: &ActiveConfig,
) -> Result<ActiveOutcome> {
    if cfg.initial < 4 || cfg.batch == 0 || cfg.budget <= cfg.initial {
        return Err(LeError::InvalidConfig(format!(
            "initial {} (≥4), batch {} (>0), budget {} (> initial)",
            cfg.initial, cfg.batch, cfg.budget
        )));
    }
    if pool.len() < cfg.budget {
        return Err(LeError::InsufficientData(format!(
            "pool of {} cannot supply budget {}",
            pool.len(),
            cfg.budget
        )));
    }
    if val_x.is_empty() || val_x.len() != val_y.len() {
        return Err(LeError::InvalidConfig("bad validation set".into()));
    }
    let mut rng = Rng::new(cfg.seed);
    // Initial random design from the pool.
    let mut remaining: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut remaining);
    let mut chosen: Vec<usize> = remaining.drain(..cfg.initial).collect();

    let simulate_batch = |indices: &[usize], base_seed: u64| -> Result<Vec<Vec<f64>>> {
        le_pool::par_map_index(indices.len(), |k| {
            let i = indices[k];
            simulator
                .simulate(&pool[i], base_seed.wrapping_add(k as u64))
                .map_err(|e| LeError::Simulation(e.to_string()))
        })
        .into_iter()
        .collect()
    };

    let mut labels: Vec<Vec<f64>> = simulate_batch(&chosen, cfg.seed ^ 0x1111)?;
    let mut curve = Vec::new();
    let mut round = 0u64;
    loop {
        // Fit on everything labelled so far.
        let n = chosen.len();
        let mut x = Matrix::zeros(n, simulator.input_dim());
        let mut y = Matrix::zeros(n, simulator.output_dim());
        for (r, (&i, lab)) in chosen.iter().zip(labels.iter()).enumerate() {
            x.row_mut(r).copy_from_slice(&pool[i]);
            y.row_mut(r).copy_from_slice(lab);
        }
        let mut surrogate = fit_backend(&x, &y, cfg, round)?;
        curve.push(CurvePoint {
            n_runs: n,
            rmse: validation_rmse(&surrogate, val_x, val_y),
        });
        if n >= cfg.budget || remaining.is_empty() {
            return Ok(ActiveOutcome { surrogate, curve });
        }
        // Acquire the next batch from the remaining pool.
        let candidates: Vec<Vec<f64>> = remaining.iter().map(|&i| pool[i].clone()).collect();
        let take = cfg.batch.min(cfg.budget - n).min(remaining.len());
        let picked_local = select_batch(
            &mut surrogate,
            &candidates,
            take,
            cfg.strategy,
            cfg.seed ^ (round << 8),
        );
        // Map back to pool indices and remove from `remaining`
        // (descending order so removal indices stay valid).
        let mut picked_sorted = picked_local.clone();
        picked_sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut new_indices = Vec::with_capacity(picked_sorted.len());
        for local in picked_sorted {
            new_indices.push(remaining.remove(local));
        }
        let new_labels = simulate_batch(&new_indices, cfg.seed ^ (0x2222 + round))?;
        chosen.extend(new_indices);
        labels.extend(new_labels);
        round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SyntheticSimulator;

    fn make_pool(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| vec![rng.uniform_in(-1.5, 1.5), rng.uniform_in(-1.5, 1.5)])
            .collect()
    }

    fn validation(sim: &SyntheticSimulator, n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let xs = make_pool(n, seed);
        let ys = xs.iter().map(|x| sim.truth(x)).collect();
        (xs, ys)
    }

    fn quick_cfg(strategy: AcquisitionStrategy, backend: UqBackend, seed: u64) -> ActiveConfig {
        ActiveConfig {
            initial: 24,
            batch: 16,
            budget: 88,
            strategy,
            backend,
            surrogate: SurrogateConfig {
                epochs: 100,
                dropout: 0.15,
                mc_samples: 15,
                ..Default::default()
            },
            seed,
        }
    }

    #[test]
    fn validation_of_config() {
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        let pool = make_pool(100, 1);
        let (vx, vy) = validation(&sim, 20, 2);
        let mut bad = quick_cfg(AcquisitionStrategy::Random, UqBackend::McDropout, 0);
        bad.initial = 2;
        assert!(run_active_learning(&sim, &pool, &vx, &vy, &bad).is_err());
        let mut bad2 = quick_cfg(AcquisitionStrategy::Random, UqBackend::McDropout, 0);
        bad2.budget = 10_000;
        assert!(run_active_learning(&sim, &pool, &vx, &vy, &bad2).is_err());
        assert!(run_active_learning(
            &sim,
            &pool,
            &[],
            &[],
            &quick_cfg(AcquisitionStrategy::Random, UqBackend::McDropout, 0)
        )
        .is_err());
        // Ensemble backend needs ≥ 2 members.
        let bad3 = quick_cfg(
            AcquisitionStrategy::MaxUncertainty,
            UqBackend::Ensemble { members: 1 },
            0,
        );
        assert!(run_active_learning(&sim, &pool, &vx, &vy, &bad3).is_err());
    }

    #[test]
    fn curve_improves_with_more_data() {
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        let pool = make_pool(300, 3);
        let (vx, vy) = validation(&sim, 60, 4);
        let out = run_active_learning(
            &sim,
            &pool,
            &vx,
            &vy,
            &quick_cfg(
                AcquisitionStrategy::MaxUncertainty,
                UqBackend::McDropout,
                5,
            ),
        )
        .unwrap();
        assert!(out.curve.len() >= 3);
        let first = out.curve[0].rmse;
        let last = out.curve.last().unwrap().rmse;
        assert!(
            last < first,
            "active learning should improve: {first} -> {last}"
        );
        // Budget respected.
        assert_eq!(out.curve.last().unwrap().n_runs, 88);
        // Runs strictly increase along the curve.
        assert!(out.curve.windows(2).all(|w| w[1].n_runs > w[0].n_runs));
    }

    #[test]
    fn ensemble_backend_completes_and_improves() {
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        let pool = make_pool(300, 6);
        let (vx, vy) = validation(&sim, 40, 7);
        let out = run_active_learning(
            &sim,
            &pool,
            &vx,
            &vy,
            &quick_cfg(
                AcquisitionStrategy::MaxUncertainty,
                UqBackend::Ensemble { members: 3 },
                8,
            ),
        )
        .unwrap();
        assert_eq!(out.curve.last().unwrap().n_runs, 88);
        assert!(out.curve.last().unwrap().rmse < out.curve[0].rmse);
        // The final surrogate predicts sensibly.
        let p = out.surrogate.predict(&[0.2, 0.2]).unwrap();
        assert!((p[0] - sim.truth(&[0.2, 0.2])[0]).abs() < 1.0);
    }

    #[test]
    fn both_strategies_complete_with_same_budget() {
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        let pool = make_pool(300, 6);
        let (vx, vy) = validation(&sim, 40, 7);
        for strategy in [AcquisitionStrategy::Random, AcquisitionStrategy::MaxUncertainty] {
            let out = run_active_learning(
                &sim,
                &pool,
                &vx,
                &vy,
                &quick_cfg(strategy, UqBackend::McDropout, 8),
            )
            .unwrap();
            assert_eq!(out.curve.last().unwrap().n_runs, 88);
            assert!(out.curve.last().unwrap().rmse.is_finite());
        }
    }

    #[test]
    fn ensemble_surrogate_units_roundtrip() {
        // Outputs on very different scales: natural-unit predictions and
        // stds must reflect them.
        let mut rng = Rng::new(9);
        let n = 200;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Matrix::zeros(n, 2);
        for i in 0..n {
            let v = rng.uniform_in(-1.0, 1.0);
            x.set(i, 0, v);
            y.set(i, 0, v);
            y.set(i, 1, 1000.0 * v);
        }
        let mut ens = EnsembleSurrogate::fit(
            &x,
            &y,
            &SurrogateConfig {
                epochs: 80,
                ..Default::default()
            },
            3,
            11,
        )
        .unwrap();
        let p = ens.predict_with_uncertainty(&[0.5]);
        assert!((p.mean[0] - 0.5).abs() < 0.2, "output 0: {}", p.mean[0]);
        assert!((p.mean[1] - 500.0).abs() < 200.0, "output 1: {}", p.mean[1]);
        assert!(
            p.std[1] > p.std[0],
            "std must be in natural units: {:?}",
            p.std
        );
    }

    #[test]
    fn validation_rmse_zero_for_perfect_model() {
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        let pool = make_pool(400, 9);
        let labels: Vec<Vec<f64>> = pool.iter().map(|x| sim.truth(x)).collect();
        let mut x = Matrix::zeros(400, 2);
        let mut y = Matrix::zeros(400, 1);
        for i in 0..400 {
            x.row_mut(i).copy_from_slice(&pool[i]);
            y.row_mut(i).copy_from_slice(&labels[i]);
        }
        let s = NnSurrogate::fit(
            &x,
            &y,
            &SurrogateConfig {
                epochs: 250,
                dropout: 0.05,
                ..Default::default()
            },
        )
        .unwrap();
        let (vx, vy) = validation(&sim, 50, 10);
        let rmse = validation_rmse(&FittedSurrogate::Dropout(s), &vx, &vy);
        assert!(rmse < 0.4, "well-trained surrogate rmse {rmse}");
    }
}
