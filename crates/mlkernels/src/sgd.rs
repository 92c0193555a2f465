//! Parallel stochastic gradient descent for L2-regularized logistic
//! regression under the four synchronization models.
//!
//! Labels are ±1; the objective is
//! `mean ln(1 + exp(−y·w·x)) + (λ/2)‖w‖²`.

use std::sync::Mutex;
use std::sync::Barrier;

use le_linalg::Rng;

use crate::sync::{KernelReport, MutexExt, SyncModel, atomic_vec, partition, snapshot};
use crate::{KernelError, Result};

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Epochs (full passes over the data).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 regularization strength λ.
    pub l2: f64,
    /// Worker threads.
    pub threads: usize,
    /// Seed controlling shard order shuffling.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            lr: 0.05,
            l2: 1e-4,
            threads: 4,
            seed: 0,
        }
    }
}

/// Logistic loss + L2 penalty of `w` on the dataset.
pub fn objective(x: &[Vec<f64>], y: &[f64], w: &[f64], l2: f64) -> f64 {
    let n = x.len().max(1) as f64;
    let mut loss = 0.0;
    for (xi, &yi) in x.iter().zip(y.iter()) {
        let margin: f64 = yi * dot(w, xi);
        // Numerically stable ln(1 + e^{-m}).
        loss += if margin > 0.0 {
            (-margin).exp().ln_1p()
        } else {
            -margin + margin.exp().ln_1p()
        };
    }
    loss / n + 0.5 * l2 * w.iter().map(|v| v * v).sum::<f64>()
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(&p, &q)| p * q).sum()
}

/// Per-sample gradient step applied to (a view of) the weights.
#[inline]
fn sgd_step(w: &mut [f64], xi: &[f64], yi: f64, lr: f64, l2: f64) {
    let margin = yi * dot(w, xi);
    // d/dw ln(1+e^{-m}) = -y σ(-m) x.
    let sig = 1.0 / (1.0 + margin.exp());
    let coef = lr * yi * sig;
    for (wk, &xk) in w.iter_mut().zip(xi.iter()) {
        *wk = *wk * (1.0 - lr * l2) + coef * xk;
    }
}

fn validate(x: &[Vec<f64>], y: &[f64], cfg: &SgdConfig) -> Result<usize> {
    if x.is_empty() {
        return Err(KernelError::Shape("empty dataset".into()));
    }
    if x.len() != y.len() {
        return Err(KernelError::Shape(format!(
            "{} samples but {} labels",
            x.len(),
            y.len()
        )));
    }
    let d = x[0].len();
    if x.iter().any(|r| r.len() != d) {
        return Err(KernelError::Shape("ragged feature rows".into()));
    }
    if cfg.threads == 0 || cfg.epochs == 0 || cfg.lr <= 0.0 {
        return Err(KernelError::InvalidConfig(
            "threads/epochs must be > 0 and lr > 0".into(),
        ));
    }
    Ok(d)
}

/// Train logistic regression under the given synchronization model.
/// Returns the learned weights and the convergence report.
pub fn train(
    x: &[Vec<f64>],
    y: &[f64],
    model: SyncModel,
    cfg: &SgdConfig,
) -> Result<(Vec<f64>, KernelReport)> {
    let d = validate(x, y, cfg)?;
    let shards = partition(x.len(), cfg.threads);
    let mut history = Vec::with_capacity(cfg.epochs);
    // Wall-clock for the report only, never feeds the dynamics.
    let start = le_obs::timed_span!("mlkernels.sgd");
    let w_final = match model {
        SyncModel::Locking => {
            let w = Mutex::new(vec![0.0; d]);
            for epoch in 0..cfg.epochs {
                std::thread::scope(|s| {
                    for (t, shard) in shards.iter().enumerate() {
                        let w = &w;
                        let shard = shard.clone();
                        let mut rng =
                            Rng::new(cfg.seed ^ (epoch as u64) << 20 ^ t as u64);
                        s.spawn(move || {
                            let mut order: Vec<usize> = shard.collect();
                            rng.shuffle(&mut order);
                            for i in order {
                                let mut guard = w.plock();
                                sgd_step(&mut guard, &x[i], y[i], cfg.lr, cfg.l2);
                            }
                        });
                    }
                });
                history.push(objective(x, y, &w.plock(), cfg.l2));
            }
            w.into_data()
        }
        SyncModel::Asynchronous => {
            let w = atomic_vec(&vec![0.0; d]);
            for epoch in 0..cfg.epochs {
                std::thread::scope(|s| {
                    for (t, shard) in shards.iter().enumerate() {
                        let w = &w;
                        let shard = shard.clone();
                        let mut rng =
                            Rng::new(cfg.seed ^ (epoch as u64) << 20 ^ t as u64);
                        s.spawn(move || {
                            let mut order: Vec<usize> = shard.collect();
                            rng.shuffle(&mut order);
                            let mut local = vec![0.0; d];
                            for i in order {
                                // Hogwild: racy read of the shared model…
                                for (l, a) in local.iter_mut().zip(w.iter()) {
                                    *l = a.load();
                                }
                                let before = local.clone();
                                sgd_step(&mut local, &x[i], y[i], cfg.lr, cfg.l2);
                                // …then racy atomic delta write-back.
                                for ((a, &new), &old) in
                                    w.iter().zip(local.iter()).zip(before.iter())
                                {
                                    let delta = new - old;
                                    if delta != 0.0 { // lint:allow(float-hygiene): Hogwild write-skip, exact zero deltas carry no update
                                        a.fetch_add(delta);
                                    }
                                }
                            }
                        });
                    }
                });
                history.push(objective(x, y, &snapshot(&w), cfg.l2));
            }
            snapshot(&w)
        }
        SyncModel::Allreduce => {
            let mut w = vec![0.0; d];
            for epoch in 0..cfg.epochs {
                let replicas = Mutex::new(vec![Vec::new(); cfg.threads]);
                std::thread::scope(|s| {
                    for (t, shard) in shards.iter().enumerate() {
                        let replicas = &replicas;
                        let w0 = w.clone();
                        let shard = shard.clone();
                        let mut rng =
                            Rng::new(cfg.seed ^ (epoch as u64) << 20 ^ t as u64);
                        s.spawn(move || {
                            let mut local = w0;
                            let mut order: Vec<usize> = shard.collect();
                            rng.shuffle(&mut order);
                            for i in order {
                                sgd_step(&mut local, &x[i], y[i], cfg.lr, cfg.l2);
                            }
                            replicas.plock()[t] = local;
                        });
                    }
                });
                // Allreduce: average the replicas (weighting by shard size).
                let replicas = replicas.into_data();
                let mut avg = vec![0.0; d];
                let total: f64 = shards.iter().map(|r| r.len() as f64).sum();
                for (replica, shard) in replicas.iter().zip(shards.iter()) {
                    if replica.is_empty() {
                        continue; // empty shard never wrote
                    }
                    let weight = shard.len() as f64 / total;
                    for (a, &v) in avg.iter_mut().zip(replica.iter()) {
                        *a += weight * v;
                    }
                }
                w = avg;
                history.push(objective(x, y, &w, cfg.l2));
            }
            w
        }
        SyncModel::Rotation => {
            // Model blocks rotate through workers; each worker updates only
            // the block it currently owns, against a stale cache of the
            // rest refreshed as blocks pass through.
            let blocks = partition(d, cfg.threads);
            let mut block_data: Vec<Vec<f64>> =
                blocks.iter().map(|b| vec![0.0; b.len()]).collect();
            for epoch in 0..cfg.epochs {
                // Each worker keeps a thread-local stale full-model cache;
                // block ownership alternates by the rotation schedule, with
                // a barrier between sub-steps, so blocks_out accesses to a
                // given block never race.
                let full: Vec<f64> = {
                    let mut f = vec![0.0; d];
                    for (b, data) in blocks.iter().zip(block_data.iter()) {
                        f[b.clone()].copy_from_slice(data);
                    }
                    f
                };
                let blocks_out = Mutex::new(block_data.clone());
                let barrier = Barrier::new(cfg.threads);
                std::thread::scope(|s| {
                    for (t, shard) in shards.iter().enumerate() {
                        let blocks_out = &blocks_out;
                        let barrier = &barrier;
                        let blocks = &blocks;
                        let mut cache = full.clone();
                        let shard = shard.clone();
                        let mut rng =
                            Rng::new(cfg.seed ^ (epoch as u64) << 20 ^ t as u64);
                        s.spawn(move || {
                            let mut order: Vec<usize> = shard.collect();
                            rng.shuffle(&mut order);
                            // P sub-steps; worker t owns block
                            // (t + step) mod P during sub-step `step`.
                            for step in 0..cfg.threads {
                                let b = (t + step) % cfg.threads;
                                let range = blocks[b].clone();
                                // Pull the current block into the local
                                // cache.
                                {
                                    let guard = blocks_out.plock();
                                    cache[range.clone()].copy_from_slice(&guard[b]);
                                }
                                // Update only the owned block coordinates
                                // (stale values for the rest).
                                for &i in &order {
                                    rotation_block_step(
                                        &mut cache,
                                        range.clone(),
                                        &x[i],
                                        y[i],
                                        cfg.lr,
                                        cfg.l2,
                                    );
                                }
                                // Publish the updated block.
                                {
                                    let mut guard = blocks_out.plock();
                                    guard[b].copy_from_slice(&cache[range.clone()]);
                                }
                                barrier.wait();
                            }
                        });
                    }
                });
                block_data = blocks_out.into_data();
                let mut w = vec![0.0; d];
                for (b, data) in blocks.iter().zip(block_data.iter()) {
                    w[b.clone()].copy_from_slice(data);
                }
                history.push(objective(x, y, &w, cfg.l2));
            }
            let mut w = vec![0.0; d];
            for (b, data) in blocks.iter().zip(block_data.iter()) {
                w[b.clone()].copy_from_slice(data);
            }
            w
        }
    };
    Ok((
        w_final,
        KernelReport {
            model,
            threads: cfg.threads,
            objective: history,
            seconds: start.finish_secs(),
        },
    ))
}

/// Gradient step restricted to the owned coordinate block (the margin uses
/// the full — possibly stale — model view).
#[inline]
fn rotation_block_step(
    w: &mut [f64],
    block: std::ops::Range<usize>,
    xi: &[f64],
    yi: f64,
    lr: f64,
    l2: f64,
) {
    let margin = yi * dot(w, xi);
    let sig = 1.0 / (1.0 + margin.exp());
    let coef = lr * yi * sig;
    for k in block {
        w[k] = w[k] * (1.0 - lr * l2) + coef * xi[k];
    }
}

/// Generate a linearly separable (with margin noise) binary dataset.
pub fn synthetic_dataset(
    n: usize,
    d: usize,
    noise: f64,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let mut rng = Rng::new(seed);
    let w_true: Vec<f64> = (0..d).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let xi: Vec<f64> = (0..d).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let score: f64 = dot(&w_true, &xi) + noise * rng.gaussian();
        x.push(xi);
        y.push(if score >= 0.0 { 1.0 } else { -1.0 });
    }
    (x, y, w_true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> (Vec<Vec<f64>>, Vec<f64>) {
        let (x, y, _) = synthetic_dataset(600, 8, 0.05, 7);
        (x, y)
    }

    #[test]
    fn validation_errors() {
        let (x, y) = dataset();
        let cfg = SgdConfig::default();
        assert!(train(&[], &[], SyncModel::Locking, &cfg).is_err());
        assert!(train(&x, &y[..10], SyncModel::Locking, &cfg).is_err());
        let bad = SgdConfig {
            threads: 0,
            ..cfg
        };
        assert!(train(&x, &y, SyncModel::Locking, &bad).is_err());
        let mut ragged = x.clone();
        ragged[0] = vec![0.0; 3];
        assert!(train(&ragged, &y, SyncModel::Locking, &cfg).is_err());
    }

    #[test]
    fn all_models_learn_the_separator() {
        let (x, y) = dataset();
        for model in SyncModel::ALL {
            let (w, report) = train(
                &x,
                &y,
                model,
                &SgdConfig {
                    epochs: 40,
                    threads: 4,
                    ..Default::default()
                },
            )
            .unwrap();
            let correct = x.iter().zip(&y).filter(|(xi, &yi)| dot(&w, xi) * yi > 0.0).count();
            let acc = correct as f64 / x.len() as f64;
            assert!(
                acc > 0.93,
                "{} accuracy {acc} too low",
                model.name()
            );
            // Objective decreased substantially.
            assert!(
                report.final_objective() < report.objective[0] * 0.7,
                "{} objective {:?}",
                model.name(),
                (report.objective[0], report.final_objective())
            );
        }
    }

    #[test]
    fn objective_is_monotone_ish_for_allreduce() {
        let (x, y) = dataset();
        let (_, report) = train(
            &x,
            &y,
            SyncModel::Allreduce,
            &SgdConfig {
                epochs: 25,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // BSP with averaging is stable: few (if any) up-ticks.
        let upticks = report
            .objective
            .windows(2)
            .filter(|w| w[1] > w[0] * 1.02)
            .count();
        assert!(upticks <= 2, "allreduce should descend smoothly, {upticks} upticks");
    }

    #[test]
    fn single_thread_models_agree() {
        // With one thread the four models are variations of sequential SGD
        // and should reach similar objectives.
        let (x, y) = dataset();
        let mut finals = Vec::new();
        for model in SyncModel::ALL {
            let (_, report) = train(
                &x,
                &y,
                model,
                &SgdConfig {
                    epochs: 30,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            finals.push(report.final_objective());
        }
        let max = finals.iter().cloned().fold(0.0f64, f64::max);
        let min = finals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max < min * 1.5 + 0.05,
            "single-thread objectives should agree: {finals:?}"
        );
    }

    #[test]
    fn deterministic_models_reproduce() {
        let (x, y) = dataset();
        for model in [SyncModel::Allreduce, SyncModel::Rotation] {
            let cfg = SgdConfig {
                epochs: 10,
                threads: 3,
                seed: 5,
                ..Default::default()
            };
            let (w1, _) = train(&x, &y, model, &cfg).unwrap();
            let (w2, _) = train(&x, &y, model, &cfg).unwrap();
            assert_eq!(w1, w2, "{} should be deterministic", model.name());
        }
    }

    #[test]
    fn accuracy_recovers_true_direction() {
        let (x, y, w_true) = synthetic_dataset(800, 6, 0.02, 11);
        let (w, _) = train(
            &x,
            &y,
            SyncModel::Allreduce,
            &SgdConfig {
                epochs: 60,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // Cosine similarity with the generating direction.
        let cos = dot(&w, &w_true)
            / (dot(&w, &w).sqrt() * dot(&w_true, &w_true).sqrt());
        assert!(cos > 0.9, "learned direction should align, cos = {cos}");
    }

    #[test]
    fn objective_stable_logistic_loss() {
        // Large margins must not overflow.
        let x = vec![vec![1000.0], vec![-1000.0]];
        let y = vec![1.0, -1.0];
        let w = vec![5.0];
        let obj = objective(&x, &y, &w, 0.0);
        assert!(obj.is_finite());
        assert!(obj < 1e-6, "perfectly classified with huge margin");
        let w_bad = vec![-5.0];
        let obj_bad = objective(&x, &y, &w_bad, 0.0);
        assert!(obj_bad.is_finite());
        assert!(obj_bad > 1000.0);
    }
}
