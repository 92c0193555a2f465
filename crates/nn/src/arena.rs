//! The training arena: one fused, allocation-free training step for an
//! [`Mlp`].
//!
//! [`TrainArena`] holds everything a step writes: each layer's output,
//! the dropout masks as bit words with the masked activations, two
//! gradient buffers that trade places layer by layer, and each layer's
//! weight and bias gradients. Every buffer grows to the largest batch seen
//! and never shrinks, so a warm step allocates nothing. A step is
//! [`TrainArena::input_mut`] (fill the batch), [`TrainArena::forward`],
//! [`TrainArena::mse_grad`] (or a gradient written through
//! [`TrainArena::output_grad_mut`]), [`TrainArena::backward`],
//! [`TrainArena::clip_grad_norm`] if wanted, and [`TrainArena::update`].
//! A forward without a dropout generator is [`Mlp::predict`] on the
//! arena's rows, bit for bit: the trainer's validation pass.
//!
//! # Bits
//!
//! A step runs the float operations of the layer-at-a-time body it
//! replaced, with the same operands in the same order:
//!
//! * every product goes through le-linalg's slice forms, so each output
//!   element is one ascending-`k` chain of `f64::mul_add` from `0.0`;
//! * a layer's output is `act(z + b)`;
//! * dropout draws one `Rng::next_u64` per unit, row-major, layer by
//!   layer; a unit is kept when `(u >> 11) <`
//!   [`bernoulli_threshold`]`(keep)`, which decides exactly what
//!   `uniform() < keep` decides, and the next layer reads `y * m` with
//!   `m ∈ {1/keep, 0.0}`;
//! * backward forms `(g * m) * f'(y)`, then `xᵀ·g`, the column sums of
//!   `g` and `g·Wᵀ`. The first layer's input gradient is left out unless
//!   a caller asks for it ([`TrainArena::input_grad`]).

use le_linalg::matrix::{matmul_into, matmul_t_into, t_matmul_into};
use le_linalg::rng::bernoulli_threshold;
use le_linalg::Rng;

use crate::batch::ensure;
use crate::layer::Activation;
use crate::loss;
use crate::model::Mlp;
use crate::optimizer::OptimizerState;
use crate::{NnError, Result};

/// Dropout after a hidden layer, as a training step applies it.
#[derive(Debug)]
struct StepDropout {
    /// [`bernoulli_threshold`] of `keep = 1 - rate`.
    threshold: u64,
    /// The kept units' multiplier, `1 / keep`.
    scale: f64,
    /// Mask words per row, one bit per unit.
    words: usize,
    bits: Vec<u64>,
    /// The layer's output times its mask: the next layer's input.
    masked: Vec<f64>,
}

/// One dense layer's share of the arena.
#[derive(Debug)]
struct StepLayer {
    /// Input width.
    k: usize,
    /// Output width.
    n: usize,
    /// `act(x W + b)`, `(rows, n)`.
    out: Vec<f64>,
    drop: Option<StepDropout>,
    /// `(k, n)`.
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
}

impl StepLayer {
    /// What the next layer reads: the masked output after a forward that
    /// drew masks, the output itself otherwise.
    fn next_input(&self, rows: usize, dropped: bool) -> &[f64] {
        match (&self.drop, dropped) {
            (Some(d), true) => &d.masked[..rows * self.n],
            _ => &self.out[..rows * self.n],
        }
    }
}

/// Preallocated buffers of an [`Mlp`]'s training steps; see the module
/// docs.
#[derive(Debug)]
pub struct TrainArena {
    /// Rows of the current batch.
    rows: usize,
    /// Whether the last forward drew dropout masks.
    dropped: bool,
    /// The batch, `(rows, in_dim)`.
    x: Vec<f64>,
    layers: Vec<StepLayer>,
    /// The gradient w.r.t. the output of the layer backward is at.
    g: Vec<f64>,
    /// Where the gradient w.r.t. that layer's input goes.
    g_next: Vec<f64>,
}

fn shape(e: le_linalg::LinalgError) -> NnError {
    NnError::Shape(e.to_string())
}

impl TrainArena {
    /// An empty arena for `model`'s layer widths and dropout rates.
    pub fn new(model: &Mlp) -> Self {
        let layers = model
            .dense
            .iter()
            .enumerate()
            .map(|(l, d)| {
                let (k, n) = (d.in_dim(), d.out_dim());
                let rate = model.dropout.get(l).map_or(0.0, |dr| dr.rate);
                let drop = (rate > 0.0).then(|| {
                    let keep = 1.0 - rate;
                    StepDropout {
                        threshold: bernoulli_threshold(keep),
                        scale: 1.0 / keep,
                        words: n.div_ceil(64),
                        bits: Vec::new(),
                        masked: Vec::new(),
                    }
                });
                StepLayer {
                    k,
                    n,
                    out: Vec::new(),
                    drop,
                    grad_w: vec![0.0; k * n],
                    grad_b: vec![0.0; n],
                }
            })
            .collect();
        Self {
            rows: 0,
            dropped: false,
            x: Vec::new(),
            layers,
            g: Vec::new(),
            g_next: Vec::new(),
        }
    }

    fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.k)
    }

    fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.n)
    }

    /// The arena must have been built for `model`'s widths.
    fn check(&self, model: &Mlp) -> Result<()> {
        let same = model.dense.len() == self.layers.len()
            && model.dense.iter().zip(&self.layers).all(|(d, l)| (d.in_dim(), d.out_dim()) == (l.k, l.n));
        if same {
            Ok(())
        } else {
            Err(NnError::Shape("training arena was built for another architecture".into()))
        }
    }

    /// Start a batch of `rows` rows: returns the `(rows, in_dim)` input to
    /// fill. Grows the buffers if no earlier batch was this large.
    pub fn input_mut(&mut self, rows: usize) -> &mut [f64] {
        self.rows = rows;
        let widest = self.layers.iter().map(|l| l.k.max(l.n)).max().unwrap_or(0);
        ensure(&mut self.g, rows * widest);
        ensure(&mut self.g_next, rows * widest);
        for layer in &mut self.layers {
            ensure(&mut layer.out, rows * layer.n);
            if let Some(d) = &mut layer.drop {
                ensure(&mut d.bits, rows * d.words);
                ensure(&mut d.masked, rows * layer.n);
            }
        }
        let d_in = self.in_dim();
        ensure(&mut self.x, rows * d_in);
        &mut self.x[..rows * d_in]
    }

    /// Forward the batch through `model`, drawing dropout masks from
    /// `dropout` (`None`: dropout off, the deterministic forward). Returns
    /// the `(rows, out_dim)` output.
    pub fn forward(&mut self, model: &Mlp, mut dropout: Option<&mut Rng>) -> Result<&[f64]> {
        self.check(model)?;
        let rows = self.rows;
        self.dropped = dropout.is_some();
        for l in 0..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(l);
            let layer = &mut rest[0];
            let input = match done.last() {
                None => &self.x[..rows * layer.k],
                Some(prev) => prev.next_input(rows, self.dropped),
            };
            let dense = &model.dense[l];
            let out = &mut layer.out[..rows * layer.n];
            matmul_into(input, dense.w.as_slice(), (rows, layer.k, layer.n), out).map_err(shape)?;
            for row in out.chunks_exact_mut(layer.n) {
                match dense.activation {
                    Activation::Tanh => {
                        for (v, &b) in row.iter_mut().zip(&dense.b) {
                            *v = crate::math::tanh(*v + b);
                        }
                    }
                    Activation::Identity => {
                        for (v, &b) in row.iter_mut().zip(&dense.b) {
                            *v += b;
                        }
                    }
                }
            }
            if let (Some(d), Some(rng)) = (&mut layer.drop, dropout.as_deref_mut()) {
                // First the mask words, from a local copy of the generator
                // in a loop that does nothing else; then the masked output,
                // in a loop the compiler vectorizes.
                let (threshold, scale) = (d.threshold, d.scale);
                let mut draws = rng.clone();
                let mut draw_word = |units: usize| {
                    let mut w = 0u64;
                    for c in 0..units {
                        w |= (((draws.next_u64() >> 11) < threshold) as u64) << c;
                    }
                    w
                };
                for word_row in d.bits[..rows * d.words].chunks_exact_mut(d.words) {
                    for (wi, word) in word_row.iter_mut().enumerate() {
                        *word = match layer.n - wi * 64 {
                            64.. => draw_word(64),
                            units => draw_word(units),
                        };
                    }
                }
                *rng = draws;
                let units = out.chunks_exact(layer.n).zip(d.masked.chunks_exact_mut(layer.n));
                for ((y, masked), bits) in units.zip(d.bits.chunks_exact(d.words)) {
                    for ((yw, mw), &word) in y.chunks(64).zip(masked.chunks_mut(64)).zip(bits) {
                        for (c, (&v, m)) in yw.iter().zip(mw).enumerate() {
                            *m = v * if (word >> c) & 1 != 0 { scale } else { 0.0 };
                        }
                    }
                }
            }
        }
        Ok(self.output())
    }

    /// The `(rows, out_dim)` output of the last forward.
    pub fn output(&self) -> &[f64] {
        self.layers.last().map_or(&[], |l| &l.out[..self.rows * l.n])
    }

    /// Set the output gradient to that of the MSE against the
    /// `(rows, out_dim)` `target` and return the loss.
    pub fn mse_grad(&mut self, target: &[f64]) -> Result<f64> {
        let len = self.rows * self.out_dim();
        let pred = self.layers.last().map_or(&[][..], |l| &l.out[..len]);
        loss::mse_into(pred, target, &mut self.g[..len])
    }

    /// The `(rows, out_dim)` gradient w.r.t. the output, for a caller that
    /// computes its own loss.
    pub fn output_grad_mut(&mut self) -> &mut [f64] {
        let len = self.rows * self.out_dim();
        &mut self.g[..len]
    }

    /// Backpropagate the output gradient through `model` into every
    /// layer's weight and bias gradient.
    pub fn backward(&mut self, model: &Mlp) -> Result<()> {
        self.check(model)?;
        let rows = self.rows;
        for l in (0..self.layers.len()).rev() {
            let (done, rest) = self.layers.split_at_mut(l);
            let layer = &mut rest[0];
            let (k, n) = (layer.k, layer.n);
            let g = &mut self.g[..rows * n];
            let act = model.dense[l].activation;
            let y = &layer.out[..rows * n];
            // `(g * m) * f'(y)`, with the activation matched once per
            // layer. The output layer is the identity with no dropout after
            // it, and its `g * 1.0` changes no bit, so it is left out.
            let tanh = Activation::Tanh;
            match (act, layer.drop.as_ref().filter(|_| self.dropped)) {
                (Activation::Tanh, Some(d)) => {
                    let scale = d.scale;
                    for ((grow, yrow), bits) in g.chunks_exact_mut(n).zip(y.chunks_exact(n)).zip(d.bits.chunks_exact(d.words)) {
                        for ((gw, yw), &word) in grow.chunks_mut(64).zip(yrow.chunks(64)).zip(bits) {
                            for (c, (gv, &yv)) in gw.iter_mut().zip(yw).enumerate() {
                                let m = if (word >> c) & 1 != 0 { scale } else { 0.0 };
                                *gv = *gv * m * tanh.derivative(yv);
                            }
                        }
                    }
                }
                (Activation::Tanh, None) => {
                    for (gv, &yv) in g.iter_mut().zip(y) {
                        *gv *= tanh.derivative(yv);
                    }
                }
                (Activation::Identity, _) => {}
            }
            let input = match done.last() {
                None => &self.x[..rows * k],
                Some(prev) => prev.next_input(rows, self.dropped),
            };
            t_matmul_into(input, g, (k, rows, n), &mut layer.grad_w).map_err(shape)?;
            layer.grad_b.fill(0.0);
            for grow in g.chunks_exact(n) {
                for (o, &v) in layer.grad_b.iter_mut().zip(grow) {
                    *o += v;
                }
            }
            if l > 0 {
                let w = model.dense[l].w.as_slice();
                matmul_t_into(g, w, (rows, n, k), &mut self.g_next[..rows * k]).map_err(shape)?;
                std::mem::swap(&mut self.g, &mut self.g_next);
            }
        }
        Ok(())
    }

    /// The `(rows, in_dim)` gradient w.r.t. the batch input, after
    /// [`TrainArena::backward`].
    pub fn input_grad(&mut self, model: &Mlp) -> Result<&[f64]> {
        self.check(model)?;
        let (rows, k) = (self.rows, self.in_dim());
        let n = self.layers.first().map_or(0, |l| l.n);
        let w = model.dense.first().map_or(&[][..], |d| d.w.as_slice());
        let out = &mut self.g_next[..rows * k];
        matmul_t_into(&self.g[..rows * n], w, (rows, n, k), out).map_err(shape)?;
        Ok(out)
    }

    /// Scale the gradients down to global L2 norm `max_norm` if they are
    /// longer.
    pub fn clip_grad_norm(&mut self, max_norm: f64) {
        let mut ss = 0.0;
        for layer in &self.layers {
            ss += layer.grad_w.iter().map(|g| g * g).sum::<f64>();
            ss += layer.grad_b.iter().map(|g| g * g).sum::<f64>();
        }
        let norm = ss.sqrt();
        if norm > max_norm {
            let scale = max_norm / norm;
            for layer in &mut self.layers {
                for g in layer.grad_w.iter_mut().chain(&mut layer.grad_b) {
                    *g *= scale;
                }
            }
        }
    }

    /// One optimizer update of `model` from the gradients: per layer the
    /// weights, then the bias, as parameter blocks `block0`, `block0 + 1`,
    /// … of `opt` (call [`OptimizerState::begin_step`] first).
    pub fn update(&self, model: &mut Mlp, opt: &mut OptimizerState, block0: usize) {
        for (l, (layer, dense)) in self.layers.iter().zip(&mut model.dense).enumerate() {
            opt.update_slice(block0 + 2 * l, dense.w.as_mut_slice(), &layer.grad_w);
            opt.update_slice(block0 + 2 * l + 1, &mut dense.b, &layer.grad_b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpConfig;
    use le_linalg::Matrix;

    fn net(widths: &[usize], dropout: f64, seed: u64) -> Mlp {
        Mlp::new(MlpConfig::regression_with_dropout(widths, dropout), &mut Rng::new(seed)).unwrap()
    }

    /// Forward `x` and backpropagate `dL/dy = 1` (the loss `sum(y)`).
    fn sum_grads(arena: &mut TrainArena, model: &Mlp, x: &Matrix, rng: Option<&mut Rng>) {
        arena.input_mut(x.rows()).copy_from_slice(x.as_slice());
        arena.forward(model, rng).unwrap();
        arena.output_grad_mut().fill(1.0);
        arena.backward(model).unwrap();
    }

    #[test]
    fn deterministic_forward_is_predict_bitwise() {
        let model = net(&[3, 17, 9, 2], 0.3, 5);
        let mut arena = TrainArena::new(&model);
        for rows in [4, 11, 1] {
            let x = Matrix::from_vec(rows, 3, (0..rows * 3).map(|i| (i as f64 * 0.37).sin()).collect()).unwrap();
            arena.input_mut(rows).copy_from_slice(x.as_slice());
            let got = arena.forward(&model, None).unwrap().to_vec();
            let want = model.predict(&x).unwrap();
            assert_eq!(got.len(), want.as_slice().len());
            for (g, w) in got.iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "rows {rows}");
            }
        }
    }

    #[test]
    fn weight_and_bias_gradients_match_finite_differences() {
        let x = Matrix::from_rows(&[&[0.3, -0.7], &[1.0, 0.2], &[-0.4, 0.9]]);
        let mut model = net(&[2, 4, 3, 1], 0.0, 8);
        let mut arena = TrainArena::new(&model);
        sum_grads(&mut arena, &model, &x, None);
        let eps = 1e-6;
        for l in 0..model.dense.len() {
            let (k, n) = (model.dense[l].in_dim(), model.dense[l].out_dim());
            for p in 0..k * n + n {
                let analytic = if p < k * n { arena.layers[l].grad_w[p] } else { arena.layers[l].grad_b[p - k * n] };
                let mut eval = |delta: f64| {
                    let d = &mut model.dense[l];
                    if p < k * n {
                        d.w.as_mut_slice()[p] += delta;
                    } else {
                        d.b[p - k * n] += delta;
                    }
                    model.predict(&x).unwrap().sum()
                };
                let up = eval(eps);
                let down = eval(-2.0 * eps);
                eval(eps);
                let numeric = (up - down) / (2.0 * eps);
                assert!((numeric - analytic).abs() < 1e-5, "layer {l} param {p}: numeric {numeric} analytic {analytic}");
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let model = net(&[3, 5, 2], 0.0, 9);
        let x = Matrix::from_rows(&[&[0.1, 0.2, -0.3], &[0.5, -0.1, 0.4]]);
        let mut arena = TrainArena::new(&model);
        sum_grads(&mut arena, &model, &x, None);
        let gx = arena.input_grad(&model).unwrap().to_vec();
        let eps = 1e-6;
        for i in 0..x.as_slice().len() {
            let (mut up, mut down) = (x.clone(), x.clone());
            up.as_mut_slice()[i] += eps;
            down.as_mut_slice()[i] -= eps;
            let numeric = (model.predict(&up).unwrap().sum() - model.predict(&down).unwrap().sum()) / (2.0 * eps);
            assert!((numeric - gx[i]).abs() < 1e-5, "input {i}: numeric {numeric} analytic {}", gx[i]);
        }
    }

    #[test]
    fn inverted_dropout_keeps_the_expectation_and_masks_the_gradient() {
        // A 1→200→1 net whose hidden units all output the same value: the
        // dropped ones read 0 in the next layer and pass no gradient; the
        // kept ones read 1/keep times the output.
        let mut model = net(&[1, 200, 1], 0.3, 10);
        model.dense[0].w.as_mut_slice().fill(0.5);
        let mut arena = TrainArena::new(&model);
        let mut rng = Rng::new(505);
        let x = Matrix::filled(50, 1, 1.0);
        let y = crate::math::tanh(0.5);
        let mut total = 0.0;
        for _ in 0..20 {
            sum_grads(&mut arena, &model, &x, Some(&mut rng));
            let d = arena.layers[0].drop.as_ref().unwrap();
            let masked = &d.masked[..50 * 200];
            total += masked.iter().sum::<f64>();
            for v in masked {
                assert!(*v == 0.0 || (*v - y / 0.7).abs() < 1e-12, "masked unit {v}");
            }
            // grad_w of the head: the column sum of the masked inputs.
            let col: Vec<f64> = (0..200).map(|j| (0..50).map(|r| masked[r * 200 + j]).sum()).collect();
            for (g, c) in arena.layers[1].grad_w.iter().zip(&col) {
                assert!((g - c).abs() < 1e-9);
            }
        }
        let mean = total / (20.0 * 50.0 * 200.0 * y);
        assert!((mean - 1.0).abs() < 0.02, "inverted dropout mean {mean}");
        // Without a generator no mask is drawn: the forward is predict.
        arena.input_mut(1).copy_from_slice(&[1.0]);
        let out = arena.forward(&model, None).unwrap()[0];
        assert_eq!(out.to_bits(), model.predict_one(&[1.0]).unwrap()[0].to_bits());
    }

    #[test]
    fn an_arena_for_another_architecture_is_refused() {
        let model = net(&[2, 4, 1], 0.0, 11);
        let other = net(&[2, 5, 1], 0.0, 11);
        let mut arena = TrainArena::new(&other);
        arena.input_mut(1).fill(0.0);
        assert!(arena.forward(&model, None).is_err());
        assert!(arena.backward(&model).is_err());
    }
}
