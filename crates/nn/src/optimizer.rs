//! Adam (Kingma & Ba) with bias correction: the optimizer every network in
//! the workspace is fitted with. The moment decays and the numerical floor
//! are the standard constants; only the learning rate is set per fit.
//!
//! The optimizer keeps its own per-parameter state, keyed by the order in
//! which parameter blocks are registered (the model registers its layers in
//! a fixed order, so state stays aligned across steps).

/// First-moment decay.
const BETA1: f64 = 0.9;
/// Second-moment decay.
const BETA2: f64 = 0.999;
/// Numerical floor of the update's denominator.
const EPS: f64 = 1e-8;

/// Per-parameter-block optimizer state.
#[derive(Debug, Clone, Default)]
struct BlockState {
    /// First moment.
    m: Vec<f64>,
    /// Second moment.
    v: Vec<f64>,
}

/// Adam's state over a fixed sequence of parameter blocks.
#[derive(Debug, Clone)]
pub struct OptimizerState {
    lr: f64,
    blocks: Vec<BlockState>,
    /// Global step count (for the bias correction).
    t: u64,
}

impl OptimizerState {
    /// Create state for `n_blocks` parameter blocks at learning rate `lr`.
    pub fn new(lr: f64, n_blocks: usize) -> Self {
        Self {
            lr,
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
        if state.m.len() != params.len() {
            state.m = vec![0.0; params.len()];
            state.v = vec![0.0; params.len()];
        }
        let t = self.t.max(1) as i32;
        let bc1 = 1.0 - BETA1.powi(t);
        let bc2 = 1.0 - BETA2.powi(t);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(state.m.iter_mut())
            .zip(state.v.iter_mut())
        {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x-3)^2.
        let mut state = OptimizerState::new(0.1, 1);
        let mut x = [0.0f64];
        for _ in 0..600 {
            state.begin_step();
            let g = [2.0 * (x[0] - 3.0)];
            state.update_slice(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "adam got {}", x[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction the very first Adam step has magnitude ~lr.
        let mut state = OptimizerState::new(0.01, 1);
        let mut x = [0.0f64];
        state.begin_step();
        state.update_slice(0, &mut x, &[5.0]);
        assert!((x[0].abs() - 0.01).abs() < 1e-6, "step {}", x[0]);
    }

    #[test]
    fn blocks_have_independent_state() {
        let mut state = OptimizerState::new(1.0, 2);
        let mut a = [0.0f64];
        let mut b = [0.0f64];
        state.begin_step();
        state.update_slice(0, &mut a, &[1.0]);
        state.update_slice(1, &mut b, &[0.0]);
        state.begin_step();
        state.update_slice(0, &mut a, &[0.0]);
        state.update_slice(1, &mut b, &[1.0]);
        // Block 0's first moment carries it on; block 1 moves as a block
        // that saw only its own two gradients.
        assert!(a[0] < -1.0, "first moment carried for block 0: {}", a[0]);
        let mut alone = OptimizerState::new(1.0, 1);
        let mut c = [0.0f64];
        alone.begin_step();
        alone.update_slice(0, &mut c, &[0.0]);
        alone.begin_step();
        alone.update_slice(0, &mut c, &[1.0]);
        assert_eq!(
            b[0].to_bits(),
            c[0].to_bits(),
            "block 1 unaffected by block 0"
        );
    }
}
