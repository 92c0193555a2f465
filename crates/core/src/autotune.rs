//! MLautotuning (§I, ref [9]): "Using ML to configure (autotune) ML or HPC
//! simulations … using for example, the lowest allowable timestep dt and
//! 'good' simulation control parameters for high efficiency while retaining
//! the accuracy of the final result."
//!
//! The framework piece is generic: a [`TuningProblem`] supplies labelled
//! examples mapping *problem parameters* to *optimal run configurations*
//! (found offline by expensive search — e.g. bisection on the largest
//! stable timestep); [`Autotuner`] learns that map and suggests
//! configurations for unseen problems, falling back to a safe default when
//! its own uncertainty is too high.

use le_linalg::Matrix;

use crate::surrogate::{NnSurrogate, SurrogateConfig};
use crate::{LeError, Result};

/// A labelled autotuning example.
#[derive(Debug, Clone)]
pub struct TuningExample {
    /// Problem parameters (e.g. `[h, z_p, z_n, c, d, T]` — the companion
    /// paper's D = 6).
    pub params: Vec<f64>,
    /// Optimal run configuration found by expensive search (e.g.
    /// `[dt_max, gamma, sample_interval]` — 3 outputs).
    pub optimal: Vec<f64>,
}

/// The source of ground-truth labels.
pub trait TuningProblem {
    /// Parameter dimensionality.
    fn param_dim(&self) -> usize;
    /// Configuration dimensionality.
    fn config_dim(&self) -> usize;
    /// Expensive search for the optimal configuration of one problem
    /// instance (this is what the tuner amortizes away).
    fn search_optimal(&self, params: &[f64]) -> Result<Vec<f64>>;
    /// A safe (conservative) configuration that always works.
    fn safe_default(&self) -> Vec<f64>;
}

/// The learned parameter→configuration map.
pub struct Autotuner {
    surrogate: NnSurrogate,
    safe_default: Vec<f64>,
    /// Serve the learned suggestion only when the model's uncertainty is
    /// below this (natural units of the config vector).
    pub uncertainty_threshold: f64,
}

/// A configuration suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The suggested configuration.
    pub config: Vec<f64>,
    /// True if the learned model produced it (false = safe fallback).
    pub learned: bool,
}

impl Autotuner {
    /// Train from labelled examples.
    pub fn fit(
        examples: &[TuningExample],
        safe_default: Vec<f64>,
        surrogate_config: &SurrogateConfig,
        uncertainty_threshold: f64,
    ) -> Result<Self> {
        if examples.len() < 8 {
            return Err(LeError::InsufficientData(format!(
                "need ≥ 8 tuning examples, got {}",
                examples.len()
            )));
        }
        let pd = examples[0].params.len();
        let cd = examples[0].optimal.len();
        if safe_default.len() != cd {
            return Err(LeError::InvalidConfig(
                "safe default has wrong dimensionality".into(),
            ));
        }
        if examples
            .iter()
            .any(|e| e.params.len() != pd || e.optimal.len() != cd)
        {
            return Err(LeError::InvalidConfig("ragged tuning examples".into()));
        }
        let mut x = Matrix::zeros(examples.len(), pd);
        let mut y = Matrix::zeros(examples.len(), cd);
        for (i, e) in examples.iter().enumerate() {
            x.row_mut(i).copy_from_slice(&e.params);
            y.row_mut(i).copy_from_slice(&e.optimal);
        }
        let surrogate = NnSurrogate::fit(&x, &y, surrogate_config)?;
        Ok(Self {
            surrogate,
            safe_default,
            uncertainty_threshold,
        })
    }

    /// Suggest a configuration for a new problem instance. Falls back to
    /// the safe default when the model is too uncertain (an autotuner that
    /// crashes the simulation is worse than none).
    pub fn suggest(&mut self, params: &[f64]) -> Result<Suggestion> {
        let pred = self.surrogate.predict_with_uncertainty(params)?;
        if pred.max_std() < self.uncertainty_threshold {
            Ok(Suggestion {
                config: pred.mean,
                learned: true,
            })
        } else {
            Ok(Suggestion {
                config: self.safe_default.clone(),
                learned: false,
            })
        }
    }
}

/// Generate a labelled training set by running the expensive search on a
/// set of parameter points (this is the offline campaign the paper
/// describes costing 28 M CPU-hours at production scale).
pub fn label_examples<P: TuningProblem + Sync>(
    problem: &P,
    params: &[Vec<f64>],
) -> Result<Vec<TuningExample>> {
    le_pool::par_map(params, |p| {
        Ok(TuningExample {
            params: p.clone(),
            optimal: problem.search_optimal(p)?,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use le_linalg::Rng;

    /// A synthetic tuning problem with a known analytic optimum:
    /// dt_max = 0.1 / (1 + |stiffness|), gamma = 1 + 0.5 softness.
    struct FakeProblem;

    impl TuningProblem for FakeProblem {
        fn param_dim(&self) -> usize {
            2
        }
        fn config_dim(&self) -> usize {
            2
        }
        fn search_optimal(&self, params: &[f64]) -> Result<Vec<f64>> {
            let stiffness = params[0];
            let softness = params[1];
            Ok(vec![0.1 / (1.0 + stiffness.abs()), 1.0 + 0.5 * softness])
        }
        fn safe_default(&self) -> Vec<f64> {
            vec![0.001, 1.0]
        }
    }

    fn examples(n: usize, seed: u64) -> Vec<TuningExample> {
        let mut rng = Rng::new(seed);
        let params: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.uniform_in(0.0, 4.0), rng.uniform_in(0.0, 1.0)])
            .collect();
        label_examples(&FakeProblem, &params).unwrap()
    }

    #[test]
    fn fit_validation() {
        let few = examples(4, 1);
        assert!(Autotuner::fit(&few, vec![0.001, 1.0], &SurrogateConfig::default(), 0.1).is_err());
        let ex = examples(50, 2);
        assert!(Autotuner::fit(&ex, vec![0.001], &SurrogateConfig::default(), 0.1).is_err());
    }

    #[test]
    fn learned_suggestions_track_the_true_optimum() {
        let ex = examples(300, 3);
        let mut tuner = Autotuner::fit(
            &ex,
            FakeProblem.safe_default(),
            &SurrogateConfig {
                epochs: 300,
                dropout: 0.05,
                mc_samples: 20,
                ..Default::default()
            },
            0.5,
        )
        .unwrap();
        let mut rng = Rng::new(4);
        let mut learned = 0;
        for _ in 0..30 {
            let params = vec![rng.uniform_in(0.5, 3.5), rng.uniform_in(0.1, 0.9)];
            let truth = FakeProblem.search_optimal(&params).unwrap();
            let s = tuner.suggest(&params).unwrap();
            if s.learned {
                learned += 1;
                assert!(
                    (s.config[0] - truth[0]).abs() < 0.03,
                    "dt suggestion {} vs optimal {}",
                    s.config[0],
                    truth[0]
                );
                assert!((s.config[1] - truth[1]).abs() < 0.2);
            }
        }
        assert!(learned > 20, "most in-domain suggestions should be learned ({learned})");
    }

    #[test]
    fn out_of_domain_falls_back_to_safe_default() {
        let ex = examples(200, 5);
        let mut tuner = Autotuner::fit(
            &ex,
            FakeProblem.safe_default(),
            &SurrogateConfig {
                epochs: 150,
                dropout: 0.2,
                mc_samples: 40,
                ..Default::default()
            },
            0.05,
        )
        .unwrap();
        // Parameters far outside the training domain.
        let s = tuner.suggest(&[50.0, -30.0]).unwrap();
        assert!(!s.learned, "extrapolation must fall back");
        assert_eq!(s.config, FakeProblem.safe_default());
    }

    #[test]
    fn labelling_is_parallel_and_ordered() {
        let params: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1, 0.5]).collect();
        let ex = label_examples(&FakeProblem, &params).unwrap();
        assert_eq!(ex.len(), 20);
        // Order preserved.
        for (e, p) in ex.iter().zip(params.iter()) {
            assert_eq!(&e.params, p);
            assert_eq!(e.optimal, FakeProblem.search_optimal(p).unwrap());
        }
    }
}
