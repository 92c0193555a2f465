//! Statistics used throughout the workspace: summary statistics, regression
//! metrics (RMSE, MAE, R²), quantiles, autocorrelation (for the §III-D
//! blocking analysis), and an online Welford accumulator.

use crate::approx::approx_eq;
use crate::{LinalgError, Result};

/// Arithmetic mean. Returns `Empty` on an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(LinalgError::Empty);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample standard deviation (divide by n-1); 0 for a single point.
pub fn sample_std(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(LinalgError::Empty);
    }
    if xs.len() == 1 {
        return Ok(0.0);
    }
    let m = mean(xs)?;
    let ss = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>();
    Ok((ss / (xs.len() - 1) as f64).sqrt())
}

/// Root-mean-square error between predictions and targets.
pub fn rmse(pred: &[f64], target: &[f64]) -> Result<f64> {
    check_pair(pred, target)?;
    let ss = pred
        .iter()
        .zip(target.iter())
        .map(|(&p, &t)| (p - t).powi(2))
        .sum::<f64>();
    Ok((ss / pred.len() as f64).sqrt())
}

/// Mean absolute error.
pub fn mae(pred: &[f64], target: &[f64]) -> Result<f64> {
    check_pair(pred, target)?;
    Ok(pred
        .iter()
        .zip(target.iter())
        .map(|(&p, &t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64)
}

/// Coefficient of determination R². 1 = perfect; can be negative for models
/// worse than the mean predictor. Returns 1.0 when the target is constant
/// and predictions match it exactly, otherwise `-inf`-guarded 0 denominator
/// maps to `f64::NEG_INFINITY` avoided by returning 0.
pub fn r2(pred: &[f64], target: &[f64]) -> Result<f64> {
    check_pair(pred, target)?;
    let tm = mean(target)?;
    let ss_res: f64 = pred
        .iter()
        .zip(target.iter())
        .map(|(&p, &t)| (t - p).powi(2))
        .sum();
    let ss_tot: f64 = target.iter().map(|&t| (t - tm).powi(2)).sum();
    if approx_eq(ss_tot, 0.0) {
        return Ok(if approx_eq(ss_res, 0.0) { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    check_pair(xs, ys)?;
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if approx_eq(sxx, 0.0) || approx_eq(syy, 0.0) {
        return Ok(0.0);
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Normalized autocorrelation function at the given lags. ACF(0) == 1.
/// Used by the blocking-interval ablation (E12): training samples should be
/// blocked at intervals beyond the autocorrelation time.
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if xs.is_empty() {
        return Err(LinalgError::Empty);
    }
    let m = mean(xs)?;
    let var: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    let mut acf = Vec::with_capacity(max_lag + 1);
    if approx_eq(var, 0.0) {
        // Constant series: define ACF as 1 at lag 0, 0 beyond.
        acf.push(1.0);
        acf.extend(std::iter::repeat_n(0.0, max_lag));
        return Ok(acf);
    }
    for lag in 0..=max_lag.min(xs.len() - 1) {
        let cov: f64 = xs[..xs.len() - lag]
            .iter()
            .zip(xs[lag..].iter())
            .map(|(&a, &b)| (a - m) * (b - m))
            .sum();
        acf.push(cov / var);
    }
    Ok(acf)
}

/// Integrated autocorrelation time: `1 + 2 * sum of ACF(lag)` summed while
/// the ACF stays positive (the standard initial-positive-sequence cut).
pub fn autocorrelation_time(xs: &[f64], max_lag: usize) -> Result<f64> {
    let acf = autocorrelation(xs, max_lag)?;
    let mut tau = 1.0;
    for &a in acf.iter().skip(1) {
        if a <= 0.0 {
            break;
        }
        tau += 2.0 * a;
    }
    Ok(tau)
}

/// Online mean/variance accumulator (Welford). Numerically stable; usable
/// from streaming simulation observables.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 before any data).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator); 0 with fewer than two points.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

fn check_pair(a: &[f64], b: &[f64]) -> Result<()> {
    if a.is_empty() {
        return Err(LinalgError::Empty);
    }
    if a.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "paired statistic",
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-12);
        assert!((sample_std(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(rmse(&[], &[]).is_err());
        assert!(autocorrelation(&[], 3).is_err());
    }

    #[test]
    fn rmse_mae_known() {
        let p = [1.0, 2.0, 3.0];
        let t = [1.0, 2.0, 5.0];
        assert!((rmse(&p, &t).unwrap() - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((mae(&p, &t).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn r2_perfect_and_mean_predictor() {
        let t = [1.0, 2.0, 3.0, 4.0];
        assert!((r2(&t, &t).unwrap() - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(r2(&mean_pred, &t).unwrap().abs() < 1e-12);
    }

    #[test]
    fn r2_constant_target() {
        let t = [3.0; 5];
        assert!((r2(&t, &t).unwrap() - 1.0).abs() < 1e-12);
        assert!((r2(&[3.1; 5], &t).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn pearson_signs() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y_pos = [2.0, 4.0, 6.0, 8.0];
        let y_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y_pos).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn acf_of_iid_noise_decays() {
        let mut rng = Rng::new(101);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.gaussian()).collect();
        let acf = autocorrelation(&xs, 5).unwrap();
        assert!((acf[0] - 1.0).abs() < 1e-12);
        for &a in &acf[1..] {
            assert!(a.abs() < 0.05, "iid noise should be uncorrelated, got {a}");
        }
        let tau = autocorrelation_time(&xs, 50).unwrap();
        assert!(tau < 1.5, "iid tau should be ~1, got {tau}");
    }

    #[test]
    fn acf_of_ar1_has_long_tau() {
        // AR(1) with phi=0.9 has tau = (1+phi)/(1-phi) = 19.
        let mut rng = Rng::new(103);
        let phi = 0.9;
        let mut x = 0.0;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| {
                x = phi * x + rng.gaussian();
                x
            })
            .collect();
        let tau = autocorrelation_time(&xs, 400).unwrap();
        assert!((tau - 19.0).abs() < 4.0, "AR(1) tau {tau} should be near 19");
    }

    #[test]
    fn acf_constant_series() {
        let acf = autocorrelation(&[2.0; 10], 3).unwrap();
        assert_eq!(acf, vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn welford_matches_batch() {
        let mut rng = Rng::new(107);
        let xs: Vec<f64> = (0..5000).map(|_| rng.uniform_in(-3.0, 7.0)).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs).unwrap()).abs() < 1e-10);
        assert!((w.sample_std() - sample_std(&xs).unwrap()).abs() < 1e-10);
    }
}
