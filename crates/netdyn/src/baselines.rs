//! Purely data-driven forecasting baselines. These see only the coarse
//! observed series — exactly the paper's point that "completely data driven
//! models cannot discover higher resolution details (e.g. county level
//! incidence) from lower resolution ground truth data (e.g. state level
//! incidence)". Their county forecast is necessarily a uniform split of the
//! state forecast.

use le_linalg::{solve, Matrix, Rng};
use le_nn::{Regressor, TrainConfig};

use crate::{NetError, Result};

/// Naive persistence: next week = this week.
pub fn naive_forecast(observed: &[f64]) -> Result<f64> {
    observed
        .last()
        .copied()
        .ok_or_else(|| NetError::InsufficientData("empty series".into()))
}

/// AR(p) model fit by ridge least squares on historical state series.
#[derive(Debug, Clone)]
pub struct ArModel {
    /// Learned coefficients `[bias, w_1, …, w_p]` (w_1 multiplies the most
    /// recent value).
    pub coeffs: Vec<f64>,
    /// Order p.
    pub order: usize,
}

impl ArModel {
    /// Fit on a set of historical weekly series.
    pub fn fit(series: &[Vec<f64>], order: usize) -> Result<Self> {
        if order == 0 {
            return Err(NetError::InvalidConfig("AR order must be ≥ 1".into()));
        }
        let mut rows_x: Vec<Vec<f64>> = Vec::new();
        let mut rows_y: Vec<f64> = Vec::new();
        for s in series {
            for t in order..s.len() {
                let mut row = Vec::with_capacity(order + 1);
                row.push(1.0);
                for lag in 1..=order {
                    row.push(s[t - lag]);
                }
                rows_x.push(row);
                rows_y.push(s[t]);
            }
        }
        if rows_x.len() < order + 1 {
            return Err(NetError::InsufficientData(format!(
                "only {} rows for AR({order})",
                rows_x.len()
            )));
        }
        let n = rows_x.len();
        let mut x = Matrix::zeros(n, order + 1);
        for (i, row) in rows_x.iter().enumerate() {
            x.row_mut(i).copy_from_slice(row);
        }
        let coeffs = solve::least_squares(&x, &rows_y, 1e-6)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        Ok(Self { coeffs, order })
    }

    /// One-step-ahead forecast from the tail of `observed`.
    pub fn forecast(&self, observed: &[f64]) -> Result<f64> {
        if observed.len() < self.order {
            return Err(NetError::InsufficientData(format!(
                "need {} points for AR({}), have {}",
                self.order,
                self.order,
                observed.len()
            )));
        }
        let mut pred = self.coeffs[0];
        for lag in 1..=self.order {
            pred += self.coeffs[lag] * observed[observed.len() - lag];
        }
        Ok(pred.max(0.0))
    }
}

/// A pure-data MLP forecaster trained only on observed historical seasons:
/// window of recent weekly values → next weekly value (state level only).
#[derive(Debug, Clone)]
pub struct DataOnlyMlp {
    reg: Regressor,
    /// Input window length.
    pub window: usize,
}

impl DataOnlyMlp {
    /// Train on historical state-level weekly series.
    pub fn fit(series: &[Vec<f64>], window: usize, seed: u64) -> Result<Self> {
        let mut rows_x: Vec<Vec<f64>> = Vec::new();
        let mut rows_y: Vec<f64> = Vec::new();
        for s in series {
            for t in window..s.len() {
                rows_x.push(s[t - window..t].to_vec());
                rows_y.push(s[t]);
            }
        }
        if rows_x.len() < 8 {
            return Err(NetError::InsufficientData(format!(
                "only {} rows to train the data-only MLP",
                rows_x.len()
            )));
        }
        let n = rows_x.len();
        let mut x = Matrix::zeros(n, window);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            x.row_mut(i).copy_from_slice(&rows_x[i]);
            y.set(i, 0, rows_y[i]);
        }
        let train = TrainConfig {
            epochs: 200,
            patience: Some(40),
            seed,
            ..Default::default()
        };
        let reg = Regressor::fit(&x, &y, &[16, 16], 0.0, train, &mut Rng::new(seed))
            .map_err(|e| NetError::Internal(e.to_string()))?;
        Ok(Self { reg, window })
    }

    /// One-step-ahead state forecast.
    pub fn forecast(&self, observed: &[f64]) -> Result<f64> {
        if observed.len() < self.window {
            return Err(NetError::InsufficientData(format!(
                "need {} points, have {}",
                self.window,
                observed.len()
            )));
        }
        let mut out = [0.0];
        self.reg
            .predict_into(&observed[observed.len() - self.window..], 1, &mut out)
            .map_err(|e| NetError::Internal(e.to_string()))?;
        Ok(out[0].max(0.0))
    }
}

/// Split a state-level forecast uniformly over `n_counties` — the only
/// county-resolution option a state-level-only model has.
pub fn uniform_county_split(state_forecast: f64, n_counties: usize) -> Vec<f64> {
    assert!(n_counties > 0);
    vec![state_forecast / n_counties as f64; n_counties]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_is_last_value() {
        assert_eq!(naive_forecast(&[1.0, 5.0, 3.0]).unwrap(), 3.0);
        assert!(naive_forecast(&[]).is_err());
    }

    #[test]
    fn ar_recovers_known_process() {
        // x_t = 2 + 0.6 x_{t-1} + 0.2 x_{t-2}, noiseless.
        let mut series = vec![5.0, 6.0];
        for _ in 0..200 {
            let n = series.len();
            series.push(2.0 + 0.6 * series[n - 1] + 0.2 * series[n - 2]);
        }
        let model = ArModel::fit(&[series.clone()], 2).unwrap();
        assert!((model.coeffs[0] - 2.0).abs() < 0.1, "bias {}", model.coeffs[0]);
        assert!((model.coeffs[1] - 0.6).abs() < 0.1, "w1 {}", model.coeffs[1]);
        assert!((model.coeffs[2] - 0.2).abs() < 0.1, "w2 {}", model.coeffs[2]);
        // Forecast matches the recurrence.
        let pred = model.forecast(&series).unwrap();
        let n = series.len();
        let expected = 2.0 + 0.6 * series[n - 1] + 0.2 * series[n - 2];
        assert!((pred - expected).abs() < 0.3);
    }

    #[test]
    fn ar_validation() {
        assert!(ArModel::fit(&[vec![1.0, 2.0, 3.0]], 0).is_err());
        assert!(ArModel::fit(&[vec![1.0]], 2).is_err());
        let model = ArModel::fit(&[(0..50).map(|i| i as f64).collect()], 2).unwrap();
        assert!(model.forecast(&[1.0]).is_err());
    }

    #[test]
    fn ar_forecast_clamped_nonnegative() {
        // Steeply decreasing series can extrapolate negative; we clamp.
        let series: Vec<f64> = (0..50).map(|i| 100.0 - 2.0 * i as f64).collect();
        let model = ArModel::fit(&[series], 2).unwrap();
        let pred = model.forecast(&[4.0, 2.0]).unwrap();
        assert!(pred >= 0.0);
    }

    #[test]
    fn data_only_mlp_learns_trend() {
        // Several sinusoid-like seasons.
        let seasons: Vec<Vec<f64>> = (0..5)
            .map(|s| {
                (0..20)
                    .map(|t| 50.0 + 30.0 * ((t as f64 + s as f64) * 0.5).sin())
                    .collect()
            })
            .collect();
        let model = DataOnlyMlp::fit(&seasons, 4, 3).unwrap();
        // Predict within a season; error should be modest relative to range.
        let test: Vec<f64> = (0..10)
            .map(|t| 50.0 + 30.0 * (t as f64 * 0.5).sin())
            .collect();
        let pred = model.forecast(&test[..8]).unwrap();
        let actual = test[8];
        assert!(
            (pred - actual).abs() < 20.0,
            "pred {pred} vs actual {actual}"
        );
    }

    #[test]
    fn data_only_mlp_needs_data() {
        assert!(DataOnlyMlp::fit(&[vec![1.0, 2.0, 3.0]], 4, 1).is_err());
    }

    #[test]
    fn uniform_split_sums_to_state() {
        let split = uniform_county_split(12.0, 4);
        assert_eq!(split, vec![3.0; 4]);
        assert!((split.iter().sum::<f64>() - 12.0).abs() < 1e-12);
    }
}
