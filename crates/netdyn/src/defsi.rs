//! DEFSI — Deep Learning Based Epidemic Forecasting with Synthetic
//! Information (paper ref \[19\], §II-A).
//!
//! The three-module pipeline:
//!
//! 1. **Model configuration** ([`estimate_tau_distribution`]): estimate a
//!    distribution over the epidemic model's transmissibility from coarse
//!    surveillance (EpiFast-style calibration gives the center; a spread
//!    reflects calibration uncertainty).
//! 2. **Synthetic training data** ([`generate_synthetic_seasons`]): run HPC
//!    simulations parameterized from that distribution, producing
//!    *high-resolution* (county-level) training data far beyond what
//!    surveillance offers.
//! 3. **Two-branch network** ([`TwoBranchNet`]): branch A encodes the
//!    within-season signal (a window of recent weekly state-level
//!    observations); branch B encodes seasonal context (week-of-season and
//!    cumulative burden); a head maps the concatenated codes to next-week
//!    *county-level* incidence.

use le_linalg::{Matrix, Rng};
use le_pool as pool;
use le_nn::optimizer::OptimizerState;
use le_nn::{Loss, Mlp, MlpConfig, Optimizer, Scaler};

use crate::epifast::EpiFast;
use crate::population::Population;
use crate::seir::{simulate, SeirConfig, SeirOutcome};
use crate::surveillance::Surveillance;
use crate::{NetError, Result};

/// Step 1: estimate a (mean, std) over transmissibility from observations.
pub fn estimate_tau_distribution(
    epifast: &EpiFast,
    pop: &Population,
    observed_weekly_state: &[f64],
    seed: u64,
) -> Result<(f64, f64)> {
    let (tau, _) = epifast.calibrate(pop, observed_weekly_state, seed)?;
    // Spread: one grid step on either side — calibration against noisy
    // weekly data cannot resolve finer than the grid.
    let grid_step = if epifast.tau_grid.len() > 1 {
        (epifast.tau_grid[epifast.tau_grid.len() - 1] - epifast.tau_grid[0])
            / (epifast.tau_grid.len() - 1) as f64
    } else {
        0.01
    };
    Ok((tau, grid_step))
}

/// One simulated season with its degraded observation.
#[derive(Debug, Clone)]
pub struct SyntheticSeason {
    /// Weekly state-level *observed* series (surveillance-degraded).
    pub observed_state: Vec<f64>,
    /// Weekly county-level *true* incidence (the training target).
    pub county_truth: Vec<Vec<f64>>,
}

/// Step 2: generate `n_seasons` synthetic seasons with transmissibilities
/// drawn from N(tau_mean, tau_std) clipped to (0, 0.5].
pub fn generate_synthetic_seasons(
    pop: &Population,
    base: &SeirConfig,
    surveillance: &Surveillance,
    tau_mean: f64,
    tau_std: f64,
    n_seasons: usize,
    seed: u64,
) -> Result<Vec<SyntheticSeason>> {
    if n_seasons == 0 {
        return Err(NetError::InvalidConfig("need at least one season".into()));
    }
    pool::par_map_index(n_seasons, |s| {
            let mut rng = Rng::new(seed.wrapping_add(s as u64).wrapping_mul(0x9E37_79B9));
            let tau = (tau_mean + tau_std * rng.gaussian()).clamp(0.005, 0.5);
            let cfg = SeirConfig {
                transmissibility: tau,
                ..*base
            };
            let outcome = simulate(pop, &cfg, rng.next_u64())?;
            // Surveillance with no delay for training data (we know the
            // whole synthetic season).
            let sv = Surveillance {
                delay_weeks: 0,
                ..*surveillance
            };
            Ok(SyntheticSeason {
                observed_state: sv.observe_state(&outcome, rng.next_u64()),
                county_truth: Surveillance::true_weekly_by_county(&outcome),
            })
    })
    .into_iter()
    .collect()
}

/// The two-branch architecture. Branch A sees the recent observation
/// window; branch B sees season context; the head fuses both.
#[derive(Debug, Clone)]
pub struct TwoBranchNet {
    branch_a: Mlp,
    branch_b: Mlp,
    head: Mlp,
    x_a_scaler: Scaler,
    x_b_scaler: Scaler,
    y_scaler: Scaler,
    /// Observation window length (branch-A input size).
    pub window: usize,
    /// Number of counties (output size).
    pub n_counties: usize,
}

/// Training hyperparameters for the two-branch net.
#[derive(Debug, Clone)]
pub struct DefsiTrainConfig {
    /// Observation window length (weeks).
    pub window: usize,
    /// Epochs over the synthetic dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Branch-A code width.
    pub code_a: usize,
    /// Branch-B code width.
    pub code_b: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DefsiTrainConfig {
    fn default() -> Self {
        Self {
            window: 4,
            epochs: 120,
            batch: 32,
            lr: 3e-3,
            code_a: 16,
            code_b: 8,
            seed: 0,
        }
    }
}

/// Assemble (branch-A, branch-B, target) training rows from seasons.
/// For every week `w ≥ window`, branch A gets `observed[w-window..w]`,
/// branch B gets `[w / total_weeks, cumulative_observed_so_far]`, and the
/// target is next-week county truth `county_truth[:][w]`.
fn build_rows(
    seasons: &[SyntheticSeason],
    window: usize,
    n_counties: usize,
) -> (Matrix, Matrix, Matrix) {
    let mut rows_a: Vec<Vec<f64>> = Vec::new();
    let mut rows_b: Vec<Vec<f64>> = Vec::new();
    let mut rows_y: Vec<Vec<f64>> = Vec::new();
    for season in seasons {
        let obs = &season.observed_state;
        let weeks = obs.len();
        for w in window..weeks {
            // Target: county truth at week w (the "next week" after the
            // window ending at w-1).
            let mut y = Vec::with_capacity(n_counties);
            let mut ok = true;
            for c in 0..n_counties {
                match season.county_truth.get(c).and_then(|s| s.get(w)) {
                    Some(&v) => y.push(v),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            rows_a.push(obs[w - window..w].to_vec());
            let cum: f64 = obs[..w].iter().sum();
            rows_b.push(vec![w as f64 / weeks.max(1) as f64, cum]);
            rows_y.push(y);
        }
    }
    let n = rows_a.len();
    let mut a = Matrix::zeros(n, window);
    let mut b = Matrix::zeros(n, 2);
    let mut y = Matrix::zeros(n, n_counties);
    for i in 0..n {
        a.row_mut(i).copy_from_slice(&rows_a[i]);
        b.row_mut(i).copy_from_slice(&rows_b[i]);
        y.row_mut(i).copy_from_slice(&rows_y[i]);
    }
    (a, b, y)
}

fn hstack(a: &Matrix, b: &Matrix) -> Matrix {
    debug_assert_eq!(a.rows(), b.rows());
    let mut out = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        out.row_mut(r)[..a.cols()].copy_from_slice(a.row(r));
        out.row_mut(r)[a.cols()..].copy_from_slice(b.row(r));
    }
    out
}

fn hsplit(m: &Matrix, left_cols: usize) -> (Matrix, Matrix) {
    let mut a = Matrix::zeros(m.rows(), left_cols);
    let mut b = Matrix::zeros(m.rows(), m.cols() - left_cols);
    for r in 0..m.rows() {
        a.row_mut(r).copy_from_slice(&m.row(r)[..left_cols]);
        b.row_mut(r).copy_from_slice(&m.row(r)[left_cols..]);
    }
    (a, b)
}

impl TwoBranchNet {
    /// Step 3: train the two-branch network on synthetic seasons.
    pub fn train(
        seasons: &[SyntheticSeason],
        n_counties: usize,
        cfg: &DefsiTrainConfig,
    ) -> Result<Self> {
        let (xa, xb, y) = build_rows(seasons, cfg.window, n_counties);
        if xa.rows() < 8 {
            return Err(NetError::InsufficientData(format!(
                "only {} training rows; need ≥ 8",
                xa.rows()
            )));
        }
        let x_a_scaler = Scaler::fit(&xa).map_err(|e| NetError::Internal(e.to_string()))?;
        let x_b_scaler = Scaler::fit(&xb).map_err(|e| NetError::Internal(e.to_string()))?;
        let y_scaler = Scaler::fit(&y).map_err(|e| NetError::Internal(e.to_string()))?;
        let xa_s = x_a_scaler.transform(&xa).map_err(|e| NetError::Internal(e.to_string()))?;
        let xb_s = x_b_scaler.transform(&xb).map_err(|e| NetError::Internal(e.to_string()))?;
        let y_s = y_scaler.transform(&y).map_err(|e| NetError::Internal(e.to_string()))?;

        let mut rng = Rng::new(cfg.seed);
        let mut branch_a = Mlp::new(
            MlpConfig::regression(&[cfg.window, 32, cfg.code_a]),
            &mut rng,
        )
        .map_err(|e| NetError::Internal(e.to_string()))?;
        let mut branch_b = Mlp::new(MlpConfig::regression(&[2, 16, cfg.code_b]), &mut rng)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        let mut head = Mlp::new(
            MlpConfig::regression(&[cfg.code_a + cfg.code_b, 32, n_counties]),
            &mut rng,
        )
        .map_err(|e| NetError::Internal(e.to_string()))?;

        let n_blocks = branch_a.n_param_blocks() + branch_b.n_param_blocks() + head.n_param_blocks();
        let mut opt = OptimizerState::new(Optimizer::adam(cfg.lr), n_blocks);
        let loss = Loss::Mse;
        let n = xa_s.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut drop_rng = rng.split();

        for _epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.batch) {
                let a_batch = xa_s.gather_rows(chunk);
                let b_batch = xb_s.gather_rows(chunk);
                let y_batch = y_s.gather_rows(chunk);
                // Forward through both branches, concat, head.
                let code_a = branch_a
                    .forward_train(&a_batch, &mut drop_rng)
                    .map_err(|e| NetError::Internal(e.to_string()))?;
                let code_b = branch_b
                    .forward_train(&b_batch, &mut drop_rng)
                    .map_err(|e| NetError::Internal(e.to_string()))?;
                let fused = hstack(&code_a, &code_b);
                let pred = head
                    .forward_train(&fused, &mut drop_rng)
                    .map_err(|e| NetError::Internal(e.to_string()))?;
                let (_, grad) = loss
                    .evaluate(&pred, &y_batch)
                    .map_err(|e| NetError::Internal(e.to_string()))?;
                // Backward: head → split → branches.
                let grad_fused = head
                    .backward(&grad)
                    .map_err(|e| NetError::Internal(e.to_string()))?;
                let (grad_a, grad_b) = hsplit(&grad_fused, cfg.code_a);
                branch_a
                    .backward(&grad_a)
                    .map_err(|e| NetError::Internal(e.to_string()))?;
                branch_b
                    .backward(&grad_b)
                    .map_err(|e| NetError::Internal(e.to_string()))?;
                // One optimizer step across all three sub-networks.
                opt.begin_step();
                let mut block = 0;
                branch_a.for_each_param_block(|_, p, g| {
                    opt.update_slice(block, p, g);
                    block += 1;
                });
                branch_b.for_each_param_block(|_, p, g| {
                    opt.update_slice(block, p, g);
                    block += 1;
                });
                head.for_each_param_block(|_, p, g| {
                    opt.update_slice(block, p, g);
                    block += 1;
                });
            }
        }
        Ok(Self {
            branch_a,
            branch_b,
            head,
            x_a_scaler,
            x_b_scaler,
            y_scaler,
            window: cfg.window,
            n_counties,
        })
    }

    /// Forecast next-week county incidence from the observed state series.
    /// Uses the final `window` weeks of `observed_state`.
    pub fn forecast_counties(&self, observed_state: &[f64], total_weeks: usize) -> Result<Vec<f64>> {
        if observed_state.len() < self.window {
            return Err(NetError::InsufficientData(format!(
                "need {} observed weeks, have {}",
                self.window,
                observed_state.len()
            )));
        }
        let w = observed_state.len();
        let mut xa = observed_state[w - self.window..].to_vec();
        self.x_a_scaler
            .transform_slice(&mut xa)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        let cum: f64 = observed_state.iter().sum();
        let mut xb = vec![w as f64 / total_weeks.max(1) as f64, cum];
        self.x_b_scaler
            .transform_slice(&mut xb)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        let a_code = self
            .branch_a
            .predict(&Matrix::from_vec(1, self.window, xa).map_err(|e| NetError::Internal(e.to_string()))?)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        let b_code = self
            .branch_b
            .predict(&Matrix::from_vec(1, 2, xb).map_err(|e| NetError::Internal(e.to_string()))?)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        let fused = hstack(&a_code, &b_code);
        let pred = self
            .head
            .predict(&fused)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        let mut out = pred.as_slice().to_vec();
        self.y_scaler
            .inverse_transform_slice(&mut out)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        // Incidence cannot be negative.
        for v in &mut out {
            *v = v.max(0.0);
        }
        Ok(out)
    }
}

/// Forecast-quality summary at both resolutions.
#[derive(Debug, Clone, Copy)]
pub struct ForecastScore {
    /// RMSE of next-week state-level forecasts.
    pub state_rmse: f64,
    /// RMSE of next-week county-level forecasts (pooled over counties).
    pub county_rmse: f64,
    /// Number of forecast points scored.
    pub n_points: usize,
}

/// Score a forecaster over all weeks of a truth season.
/// `forecast(observed_prefix) -> county predictions`.
pub fn score_forecaster(
    truth: &SeirOutcome,
    surveillance: &Surveillance,
    window: usize,
    obs_seed: u64,
    mut forecast: impl FnMut(&[f64]) -> Result<Vec<f64>>,
) -> Result<ForecastScore> {
    let sv_full = Surveillance {
        delay_weeks: 0,
        ..*surveillance
    };
    let observed = sv_full.observe_state(truth, obs_seed);
    let county_truth = Surveillance::true_weekly_by_county(truth);
    let weeks = observed.len();
    let mut se_state = 0.0;
    let mut se_county = 0.0;
    let mut n_state = 0usize;
    let mut n_county = 0usize;
    for w in window..weeks {
        let pred_counties = forecast(&observed[..w])?;
        let mut true_state = 0.0;
        let mut pred_state = 0.0;
        for (c, pred) in pred_counties.iter().enumerate() {
            let actual = county_truth
                .get(c)
                .and_then(|s| s.get(w))
                .copied()
                .unwrap_or(0.0);
            se_county += (pred - actual) * (pred - actual);
            n_county += 1;
            true_state += actual;
            pred_state += pred;
        }
        se_state += (pred_state - true_state) * (pred_state - true_state);
        n_state += 1;
    }
    if n_state == 0 {
        return Err(NetError::InsufficientData(
            "no forecastable weeks in season".into(),
        ));
    }
    Ok(ForecastScore {
        state_rmse: (se_state / n_state as f64).sqrt(),
        county_rmse: (se_county / n_county as f64).sqrt(),
        n_points: n_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    fn test_pop() -> Population {
        Population::generate(
            &PopulationConfig {
                county_sizes: vec![250; 4],
                mean_degree_within: 8.0,
                mean_degree_across: 1.0,
            },
            201,
        )
        .unwrap()
    }

    fn base_cfg() -> SeirConfig {
        SeirConfig {
            transmissibility: 0.08,
            days: 84,
            ..Default::default()
        }
    }

    #[test]
    fn hstack_hsplit_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let f = hstack(&a, &b);
        assert_eq!(f.shape(), (2, 3));
        assert_eq!(f.row(0), &[1.0, 2.0, 5.0]);
        let (a2, b2) = hsplit(&f, 2);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }

    #[test]
    fn synthetic_seasons_have_expected_shapes() {
        let pop = test_pop();
        let seasons = generate_synthetic_seasons(
            &pop,
            &base_cfg(),
            &Surveillance::default(),
            0.08,
            0.01,
            4,
            77,
        )
        .unwrap();
        assert_eq!(seasons.len(), 4);
        for s in &seasons {
            assert_eq!(s.county_truth.len(), 4);
            assert_eq!(s.observed_state.len(), 12, "84 days = 12 weeks, no delay");
        }
    }

    #[test]
    fn synthetic_generation_is_deterministic() {
        let pop = test_pop();
        let make = || {
            generate_synthetic_seasons(
                &pop,
                &base_cfg(),
                &Surveillance::default(),
                0.08,
                0.01,
                3,
                88,
            )
            .unwrap()
        };
        let a = make();
        let b = make();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.observed_state, y.observed_state);
        }
    }

    #[test]
    fn build_rows_counts() {
        let season = SyntheticSeason {
            observed_state: vec![1.0; 10],
            county_truth: vec![vec![1.0; 10]; 3],
        };
        let (a, b, y) = build_rows(&[season], 4, 3);
        // Weeks 4..10 = 6 rows.
        assert_eq!(a.shape(), (6, 4));
        assert_eq!(b.shape(), (6, 2));
        assert_eq!(y.shape(), (6, 3));
    }

    #[test]
    fn defsi_trains_and_forecasts() {
        let pop = test_pop();
        let seasons = generate_synthetic_seasons(
            &pop,
            &base_cfg(),
            &Surveillance::default(),
            0.08,
            0.015,
            12,
            99,
        )
        .unwrap();
        let net = TwoBranchNet::train(
            &seasons,
            4,
            &DefsiTrainConfig {
                epochs: 60,
                ..Default::default()
            },
        )
        .unwrap();
        // Forecast from a fresh season.
        let truth = crate::epifast::hidden_truth_season(&pop, 0.08, &base_cfg(), 1234).unwrap();
        let obs = Surveillance {
            delay_weeks: 0,
            ..Default::default()
        }
        .observe_state(&truth, 55);
        let pred = net.forecast_counties(&obs[..6], 12).unwrap();
        assert_eq!(pred.len(), 4);
        assert!(pred.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn forecast_requires_window() {
        let pop = test_pop();
        let seasons = generate_synthetic_seasons(
            &pop,
            &base_cfg(),
            &Surveillance::default(),
            0.08,
            0.01,
            8,
            111,
        )
        .unwrap();
        let net = TwoBranchNet::train(
            &seasons,
            4,
            &DefsiTrainConfig {
                epochs: 10,
                window: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(net.forecast_counties(&[1.0, 2.0], 12).is_err());
    }

    #[test]
    fn training_needs_data() {
        let empty: Vec<SyntheticSeason> = Vec::new();
        assert!(TwoBranchNet::train(&empty, 4, &DefsiTrainConfig::default()).is_err());
    }

    #[test]
    fn defsi_beats_uniform_split_at_county_level() {
        // The headline DEFSI claim, in miniature: against a baseline that
        // knows the state total but splits it uniformly, the simulation-
        // trained net should be better at county resolution.
        let pop = test_pop();
        let sv = Surveillance {
            reporting_fraction: 0.3,
            noise: 0.05,
            delay_weeks: 0,
        };
        let seasons =
            generate_synthetic_seasons(&pop, &base_cfg(), &sv, 0.08, 0.015, 16, 321).unwrap();
        let net = TwoBranchNet::train(
            &seasons,
            4,
            &DefsiTrainConfig {
                epochs: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let truth = crate::epifast::hidden_truth_season(&pop, 0.08, &base_cfg(), 999).unwrap();
        let defsi_score = score_forecaster(&truth, &sv, 4, 42, |obs| {
            net.forecast_counties(obs, 12)
        })
        .unwrap();
        // Baseline: last observed state value, scaled to true scale, split
        // uniformly over counties.
        let naive_score = score_forecaster(&truth, &sv, 4, 42, |obs| {
            let last = *obs.last().expect("window >= 1") / sv.reporting_fraction;
            Ok(vec![last / 4.0; 4])
        })
        .unwrap();
        assert!(
            defsi_score.county_rmse < naive_score.county_rmse * 1.2,
            "DEFSI county RMSE {} should be competitive with naive {}",
            defsi_score.county_rmse,
            naive_score.county_rmse
        );
    }
}
