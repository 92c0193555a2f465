//! First-order optimizers: plain SGD, SGD with momentum, and Adam.
//!
//! Optimizers keep their own per-parameter state, keyed by the order in
//! which parameter blocks are registered (the model registers its layers in
//! a fixed order, so state stays aligned across steps).

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent with the given learning rate.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Heavy-ball momentum.
    Momentum {
        /// Learning rate.
        lr: f64,
        /// Momentum coefficient (typically 0.9).
        beta: f64,
    },
    /// Adam (Kingma & Ba) with bias correction.
    Adam {
        /// Learning rate (typically 1e-3).
        lr: f64,
        /// First-moment decay (typically 0.9).
        beta1: f64,
        /// Second-moment decay (typically 0.999).
        beta2: f64,
        /// Numerical floor (typically 1e-8).
        eps: f64,
    },
}

impl Optimizer {
    /// Adam with standard hyperparameters.
    pub fn adam(lr: f64) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Per-parameter-block optimizer state.
#[derive(Debug, Clone, Default)]
struct BlockState {
    /// Momentum / first moment.
    m: Vec<f64>,
    /// Second moment (Adam only).
    v: Vec<f64>,
}

/// Stateful executor for an [`Optimizer`] over a fixed sequence of parameter
/// blocks.
#[derive(Debug, Clone)]
pub struct OptimizerState {
    config: Optimizer,
    blocks: Vec<BlockState>,
    /// Global step count (for Adam bias correction).
    t: u64,
}

impl OptimizerState {
    /// Create state for `n_blocks` parameter blocks.
    pub fn new(config: Optimizer, n_blocks: usize) -> Self {
        Self {
            config,
            blocks: vec![BlockState::default(); n_blocks],
            t: 0,
        }
    }

    /// Begin a new optimization step (call once per mini-batch, before the
    /// per-block updates).
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Apply the update rule to one parameter block given its gradient.
    /// `block` indexes the registration order; `params`/`grads` must have
    /// equal, stable lengths across calls.
    pub fn update_slice(&mut self, block: usize, params: &mut [f64], grads: &[f64]) {
        debug_assert_eq!(params.len(), grads.len());
        let state = &mut self.blocks[block];
        match self.config {
            Optimizer::Sgd { lr } => {
                for (p, &g) in params.iter_mut().zip(grads.iter()) {
                    *p -= lr * g;
                }
            }
            Optimizer::Momentum { lr, beta } => {
                if state.m.len() != params.len() {
                    state.m = vec![0.0; params.len()];
                }
                for ((p, &g), m) in params.iter_mut().zip(grads.iter()).zip(state.m.iter_mut()) {
                    *m = beta * *m + g;
                    *p -= lr * *m;
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                if state.m.len() != params.len() {
                    state.m = vec![0.0; params.len()];
                    state.v = vec![0.0; params.len()];
                }
                let t = self.t.max(1) as i32;
                let bc1 = 1.0 - beta1.powi(t);
                let bc2 = 1.0 - beta2.powi(t);
                for (((p, &g), m), v) in params
                    .iter_mut()
                    .zip(grads.iter())
                    .zip(state.m.iter_mut())
                    .zip(state.v.iter_mut())
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *p -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    /// The configured rule.
    pub fn config(&self) -> Optimizer {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)^2 with each optimizer; all should converge.
    fn run_quadratic(config: Optimizer, steps: usize) -> f64 {
        let mut state = OptimizerState::new(config, 1);
        let mut x = [0.0f64];
        for _ in 0..steps {
            state.begin_step();
            let g = [2.0 * (x[0] - 3.0)];
            state.update_slice(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = run_quadratic(Optimizer::Sgd { lr: 0.1 }, 200);
        assert!((x - 3.0).abs() < 1e-6, "sgd got {x}");
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let x = run_quadratic(
            Optimizer::Momentum {
                lr: 0.02,
                beta: 0.9,
            },
            400,
        );
        assert!((x - 3.0).abs() < 1e-4, "momentum got {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = run_quadratic(Optimizer::adam(0.1), 600);
        assert!((x - 3.0).abs() < 1e-3, "adam got {x}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction the very first Adam step has magnitude ~lr.
        let mut state = OptimizerState::new(Optimizer::adam(0.01), 1);
        let mut x = [0.0f64];
        state.begin_step();
        state.update_slice(0, &mut x, &[5.0]);
        assert!((x[0].abs() - 0.01).abs() < 1e-6, "step {}", x[0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut state = OptimizerState::new(
            Optimizer::Momentum { lr: 1.0, beta: 0.5 },
            1,
        );
        let mut x = [0.0f64];
        state.begin_step();
        state.update_slice(0, &mut x, &[1.0]);
        assert!((x[0] + 1.0).abs() < 1e-12); // v=1 -> x -= 1
        state.begin_step();
        state.update_slice(0, &mut x, &[1.0]);
        assert!((x[0] + 2.5).abs() < 1e-12); // v=1.5 -> x -= 1.5
    }

    #[test]
    fn blocks_have_independent_state() {
        let mut state = OptimizerState::new(Optimizer::Momentum { lr: 1.0, beta: 0.9 }, 2);
        let mut a = [0.0f64];
        let mut b = [0.0f64];
        state.begin_step();
        state.update_slice(0, &mut a, &[1.0]);
        state.update_slice(1, &mut b, &[0.0]);
        state.begin_step();
        state.update_slice(0, &mut a, &[0.0]);
        state.update_slice(1, &mut b, &[1.0]);
        // Block 0 velocity decayed from 1; block 1 started fresh.
        assert!(a[0] < -1.0, "momentum carried for block 0");
        assert!((b[0] + 1.0).abs() < 1e-12, "block 1 unaffected by block 0");
    }
}
