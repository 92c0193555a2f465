//! The learned analogue of the fine diffusion burst (E9): an MLP that maps
//! the *coarse-grained* nutrient field and source field directly to the
//! coarse-grained field after `fine_steps` solver steps — "the elimination
//! of short time scales" (§II-B item 7).
//!
//! Resolution strategy: fields are block-averaged down by `factor`
//! (32×32 → 8×8 by default), the MLP predicts the advanced coarse field,
//! and the result is up-sampled. The surrogate trades fine-grained spatial
//! detail for a ~`fine_steps`-fold reduction in inner-loop work; E9
//! measures both sides of that trade.

use le_linalg::{Matrix, Rng};
use le_nn::{Regressor, TrainConfig};

use crate::diffusion::DiffusionSolver;
use crate::field::Field;
use crate::vt::{TissueConfig, TissueModel};
use crate::{Result, TissueError};

/// The trained transport surrogate.
#[derive(Debug, Clone)]
pub struct TransportSurrogate {
    /// `advance` is the tissue model's inner loop, so evaluation reuses the
    /// regressor's preallocated engine.
    reg: Regressor,
    /// Fine lattice width/height.
    pub fine_shape: (usize, usize),
    /// Coarse-graining factor.
    pub factor: usize,
    /// Fine steps the surrogate replaces.
    pub fine_steps: usize,
}

/// Training configuration for the transport surrogate.
#[derive(Debug, Clone)]
pub struct SurrogateTrainConfig {
    /// Number of random training fields.
    pub n_samples: usize,
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Epochs.
    pub epochs: usize,
    /// Seed for data generation and training.
    pub seed: u64,
}

impl Default for SurrogateTrainConfig {
    fn default() -> Self {
        Self {
            n_samples: 400,
            hidden: vec![96, 96],
            epochs: 150,
            seed: 0,
        }
    }
}

/// Generate a random plausible nutrient field: a few Gaussian blobs on a
/// uniform background.
fn random_field(width: usize, height: usize, rng: &mut Rng) -> Field {
    let mut f = Field::filled(width, height, rng.uniform_in(0.0, 1.5));
    let blobs = 1 + rng.below(4);
    for _ in 0..blobs {
        let cx = rng.uniform_in(0.0, width as f64);
        let cy = rng.uniform_in(0.0, height as f64);
        let amp = rng.uniform_in(0.5, 4.0);
        let sigma = rng.uniform_in(1.0, 6.0);
        for y in 0..height {
            for x in 0..width {
                let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                f.add(x, y, amp * (-d2 / (2.0 * sigma * sigma)).exp());
            }
        }
    }
    f
}

/// Generate a random source field: left-edge inflow plus a few point sinks
/// (mimicking cell uptake).
fn random_sources(width: usize, height: usize, rng: &mut Rng) -> Field {
    let mut s = Field::zeros(width, height);
    let inflow = rng.uniform_in(0.0, 1.0);
    for y in 0..height {
        s.add(0, y, inflow);
    }
    let sinks = rng.below(20);
    for _ in 0..sinks {
        let x = rng.below(width);
        let y = rng.below(height);
        s.add(x, y, -rng.uniform_in(0.1, 0.8));
    }
    s
}

/// `n` random `(field, sources, advanced)` triples, the field and sources
/// of each drawn from `rng` in that order.
fn random_triples(
    solver: &DiffusionSolver,
    (w, h): (usize, usize),
    fine_steps: usize,
    n: usize,
    rng: &mut Rng,
) -> Result<Vec<(Field, Field, Field)>> {
    (0..n)
        .map(|_| {
            let field = random_field(w, h, rng);
            let sources = random_sources(w, h, rng);
            let advanced = solver.advance(&field, &sources, fine_steps)?;
            Ok((field, sources, advanced))
        })
        .collect()
}

impl TransportSurrogate {
    /// Train the surrogate to reproduce `solver.advance(field, sources,
    /// fine_steps)` at coarse resolution.
    pub fn train(
        solver: &DiffusionSolver,
        fine_shape: (usize, usize),
        factor: usize,
        fine_steps: usize,
        cfg: &SurrogateTrainConfig,
    ) -> Result<Self> {
        let (w, h) = fine_shape;
        if factor == 0 || w % factor != 0 || h % factor != 0 {
            return Err(TissueError::InvalidConfig(format!(
                "factor {factor} must divide {w}x{h}"
            )));
        }
        let mut rng = Rng::new(cfg.seed);
        let triples = random_triples(solver, fine_shape, fine_steps, cfg.n_samples, &mut rng)?;
        Self::fit(&triples, fine_shape, factor, fine_steps, cfg, &mut rng)
    }

    /// Train on *on-trajectory* data: run the coupled tissue model with the
    /// full solver for several seeds, recording `(field, sources,
    /// advanced)` at every tissue step, plus a share of random fields for
    /// coverage. On-trajectory data is what keeps the surrogate accurate
    /// over a closed-loop rollout — training on random fields alone drifts
    /// once the coupled dynamics leaves their distribution.
    pub fn train_on_trajectories(
        tissue: &TissueConfig,
        factor: usize,
        seeds: &[u64],
        steps_per_seed: usize,
        random_fraction: f64,
        cfg: &SurrogateTrainConfig,
    ) -> Result<Self> {
        if seeds.is_empty() || steps_per_seed == 0 {
            return Err(TissueError::InvalidConfig(
                "need at least one seed and one step per seed".into(),
            ));
        }
        let (w, h) = (tissue.width, tissue.height);
        if factor == 0 || w % factor != 0 || h % factor != 0 {
            return Err(TissueError::InvalidConfig(format!(
                "factor {factor} must divide {w}x{h}"
            )));
        }
        let fine_steps = tissue.fine_steps_per_tissue_step;
        let mut triples: Vec<(Field, Field, Field)> = Vec::new();
        let mut solver_opt = None;
        for &seed in seeds {
            let mut model = TissueModel::new(*tissue, seed)?;
            let solver = *model.solver();
            solver_opt = Some(solver);
            for _ in 0..steps_per_seed {
                let before = model.nutrient.clone();
                let (sources, _) = model.current_sources();
                model.step_full()?;
                triples.push((before, sources, model.nutrient.clone()));
            }
        }
        let solver = solver_opt
            .ok_or_else(|| TissueError::InvalidConfig("training needs at least one seed".into()))?;
        // Random-field augmentation for out-of-trajectory coverage.
        let mut rng = Rng::new(cfg.seed ^ 0x7777);
        let n_random = ((triples.len() as f64) * random_fraction).round() as usize;
        triples.extend(random_triples(&solver, (w, h), fine_steps, n_random, &mut rng)?);
        if triples.len() < 8 {
            return Err(TissueError::InvalidConfig(format!(
                "need ≥ 8 training triples, got {}",
                triples.len()
            )));
        }
        Self::fit(&triples, (w, h), factor, fine_steps, cfg, &mut Rng::new(cfg.seed))
    }

    /// Fit the regressor to the coarse-grained `(field ‖ sources) →
    /// advanced` rows of `triples`, its network initialized from `rng`.
    fn fit(
        triples: &[(Field, Field, Field)],
        fine_shape: (usize, usize),
        factor: usize,
        fine_steps: usize,
        cfg: &SurrogateTrainConfig,
        rng: &mut Rng,
    ) -> Result<Self> {
        let out_dim = (fine_shape.0 / factor) * (fine_shape.1 / factor);
        let mut x = Matrix::zeros(triples.len(), 2 * out_dim); // coarse field + coarse sources
        let mut y = Matrix::zeros(triples.len(), out_dim);
        for (i, (field, sources, advanced)) in triples.iter().enumerate() {
            x.row_mut(i)[..out_dim].copy_from_slice(field.downsample(factor)?.as_slice());
            x.row_mut(i)[out_dim..].copy_from_slice(sources.downsample(factor)?.as_slice());
            y.row_mut(i).copy_from_slice(advanced.downsample(factor)?.as_slice());
        }
        let train = TrainConfig {
            epochs: cfg.epochs,
            seed: cfg.seed ^ 0x5555,
            ..Default::default()
        };
        let reg = Regressor::fit(&x, &y, &cfg.hidden, 0.0, train, rng)
            .map_err(|e| TissueError::Model(e.to_string()))?;
        Ok(Self {
            reg,
            fine_shape,
            factor,
            fine_steps,
        })
    }

    /// Apply the surrogate: coarse-grain, predict, up-sample. The drop-in
    /// replacement for `solver.advance(field, sources, fine_steps)`.
    pub fn advance(&self, field: &Field, sources: &Field) -> Result<Field> {
        let (w, h) = self.fine_shape;
        if field.width() != w || field.height() != h {
            return Err(TissueError::Shape(format!(
                "surrogate expects {w}x{h}, got {}x{}",
                field.width(),
                field.height()
            )));
        }
        let cf = field.downsample(self.factor)?;
        let cs = sources.downsample(self.factor)?;
        let n = cf.as_slice().len();
        let mut x = vec![0.0; 2 * n];
        x[..n].copy_from_slice(cf.as_slice());
        x[n..].copy_from_slice(cs.as_slice());
        let mut pred = vec![0.0; n];
        self.reg
            .predict_into(&x, 1, &mut pred)
            .map_err(|e| TissueError::Model(e.to_string()))?;
        for v in &mut pred {
            *v = v.max(0.0);
        }
        let coarse = Field::from_vec(w / self.factor, h / self.factor, pred)?;
        Ok(coarse.upsample(self.factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_surrogate() -> (DiffusionSolver, TransportSurrogate) {
        let solver = DiffusionSolver::diffusion_only(1.0, 1.0, 0.2).unwrap();
        let surrogate = TransportSurrogate::train(
            &solver,
            (16, 16),
            4,
            20,
            &SurrogateTrainConfig {
                n_samples: 250,
                hidden: vec![64],
                epochs: 120,
                seed: 11,
            },
        )
        .unwrap();
        (solver, surrogate)
    }

    #[test]
    fn factor_validation() {
        let solver = DiffusionSolver::diffusion_only(1.0, 1.0, 0.2).unwrap();
        assert!(TransportSurrogate::train(
            &solver,
            (16, 16),
            5,
            10,
            &SurrogateTrainConfig {
                n_samples: 4,
                epochs: 1,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn surrogate_tracks_solver_at_coarse_resolution() {
        let (solver, surrogate) = quick_surrogate();
        let mut rng = Rng::new(77);
        let mut total_rel_err = 0.0;
        let trials = 8;
        for _ in 0..trials {
            let field = random_field(16, 16, &mut rng);
            let sources = random_sources(16, 16, &mut rng);
            let truth = solver.advance(&field, &sources, 20).unwrap();
            let pred = surrogate.advance(&field, &sources).unwrap();
            // Compare at the surrogate's native (coarse) resolution.
            let tc = truth.downsample(4).unwrap();
            let pc = pred.downsample(4).unwrap();
            let rmse = tc.rmse(&pc).unwrap();
            let scale = tc.as_slice().iter().map(|v| v.abs()).sum::<f64>() / 16.0;
            total_rel_err += rmse / scale.max(1e-9);
        }
        let mean_rel = total_rel_err / trials as f64;
        assert!(
            mean_rel < 0.25,
            "surrogate relative error {mean_rel} should be modest"
        );
    }

    #[test]
    fn surrogate_output_is_nonnegative_and_right_shape() {
        let (_, surrogate) = quick_surrogate();
        let mut rng = Rng::new(78);
        let field = random_field(16, 16, &mut rng);
        let sources = random_sources(16, 16, &mut rng);
        let out = surrogate.advance(&field, &sources).unwrap();
        assert_eq!(out.width(), 16);
        assert_eq!(out.height(), 16);
        assert!(out.min() >= 0.0);
    }

    #[test]
    fn surrogate_rejects_wrong_shape() {
        let (_, surrogate) = quick_surrogate();
        let f = Field::zeros(8, 8);
        assert!(surrogate.advance(&f, &f).is_err());
    }

    #[test]
    fn trajectory_training_tracks_closed_loop_rollout() {
        use crate::vt::{TissueConfig, TissueModel};
        let config = TissueConfig {
            width: 16,
            height: 16,
            fine_steps_per_tissue_step: 20,
            initial_cells: 10,
            ..Default::default()
        };
        let train_cfg = SurrogateTrainConfig {
            hidden: vec![96],
            epochs: 200,
            seed: 21,
            n_samples: 250,
        };
        let on_traj = TransportSurrogate::train_on_trajectories(
            &config,
            4,
            &[11, 12, 13, 14, 15, 16],
            25,
            0.3,
            &train_cfg,
        )
        .unwrap();
        let random_only =
            TransportSurrogate::train(&TissueModel::new(config, 1).unwrap().solver().clone(),
                (16, 16), 4, 20, &train_cfg)
            .unwrap();
        // Closed-loop rollout: each surrogate in the loop vs full solver.
        let rollout_rmse = |surrogate: &TransportSurrogate| {
            let mut full = TissueModel::new(config, 99).unwrap();
            let mut fast = TissueModel::new(config, 99).unwrap();
            for _ in 0..10 {
                full.step_full().unwrap();
                fast.step_with_transport(|f, s| surrogate.advance(f, s))
                    .unwrap();
            }
            let fc = full.nutrient.downsample(4).unwrap();
            let sc = fast.nutrient.downsample(4).unwrap();
            (fc.rmse(&sc).unwrap(), fc.total() / 16.0)
        };
        let (rmse_traj, scale) = rollout_rmse(&on_traj);
        let (rmse_rand, _) = rollout_rmse(&random_only);
        // Both training regimes must stay bounded in closed loop at this
        // small scale (which training distribution wins is scale-dependent;
        // the 32×32 example and the E9 bench measure that trade-off).
        assert!(
            rmse_traj < scale.max(0.2),
            "on-trajectory closed-loop rmse {rmse_traj} vs scale {scale}"
        );
        assert!(
            rmse_rand < 2.0 * scale.max(0.2),
            "random-field closed-loop rmse {rmse_rand} vs scale {scale}"
        );
    }

    #[test]
    fn trajectory_training_validation() {
        use crate::vt::TissueConfig;
        let config = TissueConfig::default();
        assert!(TransportSurrogate::train_on_trajectories(
            &config,
            4,
            &[],
            10,
            0.0,
            &SurrogateTrainConfig::default()
        )
        .is_err());
        assert!(TransportSurrogate::train_on_trajectories(
            &config,
            5,
            &[1],
            10,
            0.0,
            &SurrogateTrainConfig::default()
        )
        .is_err());
    }

    #[test]
    fn surrogate_is_faster_than_fine_solver() {
        let (solver, surrogate) = quick_surrogate();
        let mut rng = Rng::new(79);
        let field = random_field(16, 16, &mut rng);
        let sources = random_sources(16, 16, &mut rng);
        // Warm up.
        let _ = solver.advance(&field, &sources, 20).unwrap();
        let _ = surrogate.advance(&field, &sources).unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            let _ = solver.advance(&field, &sources, 20).unwrap();
        }
        let t_full = t0.elapsed();
        let t1 = std::time::Instant::now();
        for _ in 0..10 {
            let _ = surrogate.advance(&field, &sources).unwrap();
        }
        let t_sur = t1.elapsed();
        assert!(
            t_sur < t_full,
            "surrogate ({t_sur:?}) should beat {0} fine steps ({t_full:?})",
            20
        );
    }
}
