//! EpiFast-style baseline forecaster: calibrate the mechanistic model
//! against observed state-level surveillance by simulation search, then
//! forecast by running the calibrated model forward. This is the
//! "interventionist" mechanistic baseline DEFSI is compared against in
//! paper ref \[19\].

use le_pool as pool;

use crate::population::Population;
use crate::seir::{simulate_ensemble, SeirConfig};
use crate::{NetError, Result};

/// Calibration + forecasting configuration.
#[derive(Debug, Clone)]
pub struct EpiFast {
    /// Transmissibility grid searched during calibration.
    pub tau_grid: Vec<f64>,
    /// Ensemble replicates per candidate during calibration.
    pub calib_replicates: usize,
    /// Ensemble replicates for the forecast run.
    pub forecast_replicates: usize,
    /// Known (assumed) reporting fraction used to undo under-reporting.
    pub reporting_fraction: f64,
    /// Base SEIR configuration (durations, seeds, days).
    pub base: SeirConfig,
}

impl EpiFast {
    /// Default grid spanning subcritical to strongly spreading.
    pub fn new(base: SeirConfig, reporting_fraction: f64) -> Self {
        Self {
            tau_grid: (1..=12).map(|i| 0.01 * i as f64).collect(),
            calib_replicates: 3,
            forecast_replicates: 5,
            reporting_fraction,
            base,
        }
    }

    /// Calibrate transmissibility to the observed weekly state series.
    /// Returns the best `tau` and its fit RMSE.
    pub fn calibrate(
        &self,
        pop: &Population,
        observed_weekly_state: &[f64],
        seed: u64,
    ) -> Result<(f64, f64)> {
        if observed_weekly_state.is_empty() {
            return Err(NetError::InsufficientData("empty observation".into()));
        }
        // Scale observations back to true-case scale.
        let target: Vec<f64> = observed_weekly_state
            .iter()
            .map(|&v| v / self.reporting_fraction)
            .collect();
        let scored: Vec<(f64, f64)> =
            pool::par_map(&self.tau_grid, |&tau| {
                let cfg = SeirConfig {
                    transmissibility: tau,
                    ..self.base
                };
                let out = simulate_ensemble(pop, &cfg, self.calib_replicates, seed)
                    .expect("validated config"); // lint:allow(no-panic): config validated before calibration starts
                let weekly = crate::seir::SeirOutcome::weekly(&out.state_incidence());
                let k = target.len().min(weekly.len());
                let rmse = if k == 0 {
                    f64::INFINITY
                } else {
                    (target[..k]
                        .iter()
                        .zip(weekly[..k].iter())
                        .map(|(&t, &w)| (t - w) * (t - w))
                        .sum::<f64>()
                        / k as f64)
                        .sqrt()
                };
                (tau, rmse)
            });
        scored
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or_else(|| NetError::Internal("empty tau grid".into()))
    }

    /// Forecast weekly incidence for `horizon` weeks after the observation
    /// window, at both state and county level, using the calibrated model.
    ///
    /// Returns `(state_forecast, county_forecasts)` where
    /// `county_forecasts[c][h]` is county `c`, week `observed_len + h`.
    pub fn forecast(
        &self,
        pop: &Population,
        observed_weekly_state: &[f64],
        horizon: usize,
        seed: u64,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let (tau, _) = self.calibrate(pop, observed_weekly_state, seed)?;
        let cfg = SeirConfig {
            transmissibility: tau,
            ..self.base
        };
        let out = simulate_ensemble(pop, &cfg, self.forecast_replicates, seed ^ 0xF0F0)?;
        let weekly_by_county: Vec<Vec<f64>> = out
            .incidence
            .iter()
            .map(|d| crate::seir::SeirOutcome::weekly(d))
            .collect();
        let start = observed_weekly_state.len();
        let mut state = Vec::with_capacity(horizon);
        let mut county = vec![Vec::with_capacity(horizon); pop.n_counties];
        for h in 0..horizon {
            let w = start + h;
            let mut s = 0.0;
            for (c, series) in weekly_by_county.iter().enumerate() {
                let v = series.get(w).copied().unwrap_or(0.0);
                county[c].push(v);
                s += v;
            }
            state.push(s);
        }
        Ok((state, county))
    }
}

/// A ground-truth "real world" season generator: runs the simulator with a
/// hidden transmissibility; the experiment's task is to forecast it from
/// surveillance only.
pub fn hidden_truth_season(
    pop: &Population,
    hidden_tau: f64,
    base: &SeirConfig,
    seed: u64,
) -> Result<crate::seir::SeirOutcome> {
    let cfg = SeirConfig {
        transmissibility: hidden_tau,
        ..*base
    };
    crate::seir::simulate(pop, &cfg, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use crate::surveillance::Surveillance;

    fn test_pop() -> Population {
        Population::generate(
            &PopulationConfig {
                county_sizes: vec![300; 4],
                mean_degree_within: 8.0,
                mean_degree_across: 1.0,
            },
            101,
        )
        .unwrap()
    }

    fn quick_epifast() -> EpiFast {
        let base = SeirConfig {
            days: 84, // 12 weeks
            ..Default::default()
        };
        EpiFast {
            tau_grid: vec![0.02, 0.05, 0.08, 0.12],
            calib_replicates: 2,
            forecast_replicates: 3,
            reporting_fraction: 0.3,
            base,
        }
    }

    #[test]
    fn calibration_recovers_hidden_transmissibility() {
        let pop = test_pop();
        let ef = quick_epifast();
        let hidden = 0.08;
        let truth = hidden_truth_season(&pop, hidden, &ef.base, 7).unwrap();
        let obs = Surveillance {
            reporting_fraction: 0.3,
            noise: 0.05,
            delay_weeks: 1,
        }
        .observe_state(&truth, 8);
        let (tau, rmse) = ef.calibrate(&pop, &obs, 9).unwrap();
        assert!(
            (tau - hidden).abs() <= 0.04,
            "calibrated tau {tau} should be near hidden {hidden} (rmse {rmse})"
        );
    }

    #[test]
    fn calibration_rejects_empty_observation() {
        let pop = test_pop();
        let ef = quick_epifast();
        assert!(ef.calibrate(&pop, &[], 1).is_err());
    }

    #[test]
    fn forecast_shapes_and_nonnegativity() {
        let pop = test_pop();
        let ef = quick_epifast();
        let truth = hidden_truth_season(&pop, 0.08, &ef.base, 17).unwrap();
        let obs = Surveillance::default().observe_state(&truth, 18);
        let horizon = 3;
        let (state, county) = ef.forecast(&pop, &obs, horizon, 19).unwrap();
        assert_eq!(state.len(), horizon);
        assert_eq!(county.len(), 4);
        assert!(county.iter().all(|c| c.len() == horizon));
        assert!(state.iter().all(|&v| v >= 0.0));
        // State forecast is the sum of county forecasts.
        for h in 0..horizon {
            let s: f64 = county.iter().map(|c| c[h]).sum();
            assert!((s - state[h]).abs() < 1e-9);
        }
    }
}
