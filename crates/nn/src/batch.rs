//! Batch-first, block-fused inference engine for [`Mlp`] networks.
//!
//! [`BatchScratch`] packs the network's weights once, at construction,
//! into zero-padded column panels, and evaluates every query — one
//! deterministic forward, or all `K` MC-dropout passes of a batch — with
//! one row-blocked kernel. Rows are processed a block at a time — 240
//! fused rows (input rows × passes), so 8 inputs at the paper's 30 passes:
//! all `K` passes of a block run through every layer before the next block
//! starts, so its activations stay in L1/L2 and the working memory is
//! O(block), not O(batch). After warm-up a call that runs on the calling
//! thread allocates nothing; a call split across the pool allocates only
//! the pool's per-task handles.
//!
//! # The block kernel
//!
//! * **First layer once per row.** No dropout precedes the first dense
//!   layer, so its output is the same in every pass: it runs on the
//!   block's distinct rows only and is then replicated `K` times, each
//!   copy multiplied by that pass's first dropout mask.
//! * **Register tiles.** Every layer is a GEMM over the block's fused
//!   `(rows × K, width)` activations against the packed panels, in tiles
//!   of fixed shape: 6 fused rows × 8 outputs, or 8 fused rows × 4 outputs
//!   for heads of at most four outputs (one chain per row would be
//!   latency-bound there, so the tile interleaves eight); the rows left
//!   over after the last whole tile run one at a time. The accumulators
//!   stay in registers; the workspace forbids `unsafe`, so wide registers
//!   come from auto-vectorization of the fixed trip counts. Each output
//!   element is one ascending-`k` chain of `f64::mul_add` from `0.0` —
//!   the contraction of [`le_linalg::matrix::dot`] and every GEMM in
//!   `le-linalg` — so the engine agrees with [`Mlp::predict`] to the bit.
//! * **Mask in the epilogue.** The register tile's epilogue computes
//!   `act(acc + b) * m` with `m ∈ {1/keep, 0.0}` — the same float
//!   operations as an activation pass followed by a mask pass, in one.
//! * **Masks as bits.** A block's masks are `u64` words, one bit per unit.
//!   Each draw is the integer compare `(u >> 11) < t` against
//!   [`le_linalg::rng::bernoulli_threshold`]`(keep)`, which decides exactly
//!   what `uniform() < keep` decides, and the substreams
//!   of four rows are stepped together in vector lanes
//!   ([`XoshiroLanes`]); a block's last `rows % 4` rows draw one at a
//!   time, since an idle lane costs as much as a live one.
//! * **Pool split by blocks.** A call with the work of more than one pool
//!   task (2^17 multiply-adds, a whole number of blocks) splits
//!   its rows across the `le-pool` workers. The split is a function of the
//!   shapes alone, and each worker claims its own block workspace.
//!
//! # Determinism contract (canonical mask order)
//!
//! Dropout masks are **not** drawn from a shared stateful generator — that
//! would make results depend on how queries are grouped into batches.
//! Instead every input row is assigned a *consult ordinal* by the caller and
//! draws its masks from the stateless substream
//! [`le_linalg::Rng::substream`]`(mask_seed, ordinal)`. Within one row's
//! stream the draw order is canonical:
//!
//! 1. per stochastic pass `p` in `0..K`,
//! 2. per dropout layer in network order,
//! 3. per unit, row-major (ascending unit index),
//!
//! and layers with dropout rate 0 draw nothing (they are identity under
//! inverted dropout). A mask value is `1/keep` with probability
//! `keep = 1 - rate` and `0.0` otherwise — exactly the inverted-dropout
//! convention of [`crate::layer::Dropout`]. Consequences:
//!
//! * a batch of `B` rows at ordinals `o..o+B` is **bit-identical** to `B`
//!   single-row calls at those ordinals — batching is unobservable;
//! * every row's masks and arithmetic depend only on that row, so neither
//!   the block boundaries nor the pool width (`LE_POOL_THREADS`) can move
//!   a bit;
//! * the mean/std reduction runs per row in ascending-pass order, so it is
//!   exact replication territory too.
//!
//! The engine snapshots weights at construction; callers that mutate or
//! replace the model must rebuild the scratch (see [`BatchScratch::new`]).

use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use le_linalg::rng::{bernoulli_threshold, XoshiroLanes};
use le_linalg::Rng;

use crate::layer::Activation;
use crate::model::Mlp;
use crate::{NnError, Result};

/// Fused rows (input rows × passes) per block, at least one input row: 8
/// input rows at the paper's 30 passes. A 64-wide activation arena of a
/// block is 120 KiB.
const BLOCK_FUSED: usize = 240;
/// Fused rows per register tile of a wide layer.
const WIDE_MR: usize = 6;
/// Output lanes per register tile (and panel width) of a wide layer.
const WIDE_NR: usize = 8;
/// Fused rows per register tile of a narrow layer (at most
/// [`NARROW_NR`] outputs).
const NARROW_MR: usize = 8;
/// Output lanes per register tile of a narrow layer.
const NARROW_NR: usize = 4;
/// Rows whose mask streams are stepped together, one per vector lane (see
/// [`XoshiroLanes`]).
const LANES: usize = 4;
/// Multiply-adds a pool task must at least carry; calls with less work
/// than two tasks run on the calling thread without a pool dispatch.
const TASK_MACS: usize = 1 << 17;

/// Dropout after a hidden layer, as the kernel applies it.
#[derive(Debug, Clone)]
struct Dropout {
    /// [`bernoulli_threshold`] of `keep = 1 - rate`.
    threshold: u64,
    /// The kept units' value multiplier, `1 / keep`.
    scale: f64,
    /// First mask word of this layer within a fused row's words.
    word0: usize,
}

/// One dense layer, packed for the tile kernel.
#[derive(Debug, Clone)]
struct Layer {
    /// Input width.
    k: usize,
    /// Output width.
    n: usize,
    /// Tile lanes: [`WIDE_NR`] or [`NARROW_NR`].
    nr: usize,
    /// `n` rounded up to `nr`: the row stride of this layer's output arena.
    stride: usize,
    /// `stride / nr` column panels, each `(k, nr)` row-major; pad lanes
    /// hold zero weights.
    panels: Vec<f64>,
    /// Bias, zero-padded to `stride`.
    bias: Vec<f64>,
    act: Activation,
    /// Dropout after this layer (hidden layers with a positive rate).
    drop: Option<Dropout>,
}

/// One worker's block workspace: everything a block touches besides the
/// packed weights. Sized by the largest block seen, never by the batch.
#[derive(Debug, Default)]
struct Workspace {
    /// First-layer activations of the block's distinct rows.
    h0: Vec<f64>,
    /// Ping-pong fused `(rows × passes, stride)` activation arenas.
    cur: Vec<f64>,
    nxt: Vec<f64>,
    /// One register tile's input rows, packed `(k, mr)`.
    apack: Vec<f64>,
    /// Mask words, `words` per fused row.
    bits: Vec<u64>,
}

/// Grow `v` to at least `len` elements (never shrinks, so a warm arena is
/// reused without allocating).
pub(crate) fn ensure<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// The mask value of unit `c` of a mask word: `scale` for a set bit,
/// `0.0` for a clear one.
#[inline(always)]
fn mask_lane(word: u64, c: usize, scale: f64) -> f64 {
    if (word >> c) & 1 != 0 {
        scale
    } else {
        0.0
    }
}

/// The register-tile GEMM of one layer over the rows `rows` of `a` (row
/// stride `a_stride`, a whole number of `MR`-row tiles), written into `out`
/// with row stride `layer.stride`. The epilogue is `f(acc + b)`, times the
/// dropout mask when `mask` carries one (`bits` holds `words` mask words
/// per row).
#[allow(clippy::too_many_arguments)]
fn tiles<const MR: usize, const NR: usize, F: Fn(f64) -> f64>(
    layer: &Layer,
    a: &[f64],
    a_stride: usize,
    rows: std::ops::Range<usize>,
    mask: Option<(&Dropout, &[u64], usize)>,
    apack: &mut Vec<f64>,
    out: &mut [f64],
    f: F,
) {
    let k = layer.k;
    ensure(apack, k * MR);
    let apack = &mut apack[..k * MR];
    for r0 in rows.step_by(MR) {
        for (r, arow) in a[r0 * a_stride..].chunks(a_stride).take(MR).enumerate() {
            for (t, &v) in arow[..k].iter().enumerate() {
                apack[t * MR + r] = v;
            }
        }
        for (q, panel) in layer.panels.chunks_exact(k * NR).enumerate() {
            let mut acc = [[0.0f64; NR]; MR];
            for (bp, ap) in panel.chunks_exact(NR).zip(apack.chunks_exact(MR)) {
                let mut b = [0.0f64; NR];
                b.copy_from_slice(bp);
                let mut av = [0.0f64; MR];
                av.copy_from_slice(ap);
                for r in 0..MR {
                    for c in 0..NR {
                        acc[r][c] = av[r].mul_add(b[c], acc[r][c]);
                    }
                }
            }
            let j0 = q * NR;
            let bias = &layer.bias[j0..j0 + NR];
            for (r, accr) in acc.iter().enumerate() {
                let o = &mut out[(r0 + r) * layer.stride + j0..][..NR];
                match mask {
                    None => {
                        for c in 0..NR {
                            o[c] = f(accr[c] + bias[c]);
                        }
                    }
                    Some((d, bits, words)) => {
                        let word = bits[(r0 + r) * words + d.word0 + j0 / 64] >> (j0 % 64);
                        for c in 0..NR {
                            o[c] = f(accr[c] + bias[c]) * mask_lane(word, c, d.scale);
                        }
                    }
                }
            }
        }
    }
}

/// Dispatch [`tiles`] on the layer's activation (once per layer, so the
/// epilogue is straight-line code) and tile shape: whole tiles first,
/// then the last `rows % MR` rows one at a time.
fn dense(
    layer: &Layer,
    a: &[f64],
    a_stride: usize,
    rows: usize,
    mask: Option<(&Dropout, &[u64], usize)>,
    apack: &mut Vec<f64>,
    out: &mut [f64],
) {
    macro_rules! run {
        ($f:expr) => {{
            let f = $f;
            if layer.nr == NARROW_NR {
                let full = rows / NARROW_MR * NARROW_MR;
                tiles::<NARROW_MR, NARROW_NR, _>(layer, a, a_stride, 0..full, mask, apack, out, f);
                tiles::<1, NARROW_NR, _>(layer, a, a_stride, full..rows, mask, apack, out, f);
            } else {
                let full = rows / WIDE_MR * WIDE_MR;
                tiles::<WIDE_MR, WIDE_NR, _>(layer, a, a_stride, 0..full, mask, apack, out, f);
                tiles::<1, WIDE_NR, _>(layer, a, a_stride, full..rows, mask, apack, out, f);
            }
        }};
    }
    match layer.act {
        Activation::Tanh => run!(crate::math::tanh),
        Activation::Identity => run!(|v| v),
    }
}

/// Claim a free block workspace: every pool participant finds one, since
/// there are as many as threads. A workspace poisoned by a panicking task
/// is still sound scratch.
fn claim(workspaces: &[Mutex<Workspace>]) -> MutexGuard<'_, Workspace> {
    workspaces
        .iter()
        .find_map(|t| match t.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        })
        .unwrap_or_else(|| workspaces[0].lock().unwrap_or_else(PoisonError::into_inner))
}

/// Block-fused inference engine: the packed weight snapshot plus reusable
/// per-worker block workspaces.
#[derive(Debug)]
pub struct BatchScratch {
    layers: Vec<Layer>,
    in_dim: usize,
    /// Mask words per fused row, over all dropout layers.
    words: usize,
    /// Block workspaces; one per pool thread a call has used.
    workspaces: Vec<Mutex<Workspace>>,
    /// `(rows, 2 · out_dim)` mean|std staging of [`BatchScratch::mc_predict_into`].
    mean_std: Vec<f64>,
}

impl Clone for BatchScratch {
    /// The weights are copied; the clone starts with cold workspaces.
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.clone(),
            in_dim: self.in_dim,
            words: self.words,
            workspaces: Vec::new(),
            mean_std: Vec::new(),
        }
    }
}

impl BatchScratch {
    /// Snapshot `model`'s weights, packed into the kernel's zero-padded
    /// column panels. Call again whenever the model's parameters change —
    /// the scratch holds copies, not references.
    pub fn new(model: &Mlp) -> Self {
        let mut words = 0;
        let layers = model
            .layers()
            .iter()
            .enumerate()
            .map(|(l, d)| {
                let (k, n) = (d.w.rows(), d.w.cols());
                let nr = if n <= NARROW_NR { NARROW_NR } else { WIDE_NR };
                let stride = n.div_ceil(nr) * nr;
                let mut panels = vec![0.0; k * stride];
                for (q, panel) in panels.chunks_exact_mut(k * nr).enumerate() {
                    for (t, prow) in panel.chunks_exact_mut(nr).enumerate() {
                        for (c, p) in prow.iter_mut().enumerate().take(n.saturating_sub(q * nr)) {
                            *p = d.w.get(t, q * nr + c);
                        }
                    }
                }
                let mut bias = d.b.clone();
                bias.resize(stride, 0.0);
                let rate = model.dropout.get(l).map_or(0.0, |dr| dr.rate);
                let drop = (rate > 0.0).then(|| {
                    let keep = 1.0 - rate;
                    let word0 = words;
                    words += n.div_ceil(64);
                    Dropout {
                        threshold: bernoulli_threshold(keep),
                        scale: 1.0 / keep,
                        word0,
                    }
                });
                Layer {
                    k,
                    n,
                    nr,
                    stride,
                    panels,
                    bias,
                    act: d.activation,
                    drop,
                }
            })
            .collect();
        Self {
            layers,
            in_dim: model.in_dim(),
            words,
            workspaces: Vec::new(),
            mean_std: Vec::new(),
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.n)
    }

    /// Row stride of the output arena [`BatchScratch::run_block`] returns.
    fn out_stride(&self) -> usize {
        self.layers.last().map_or(0, |l| l.stride)
    }

    fn check_io(&self, x_len: usize, rows: usize, out_len: usize, passes: usize) -> Result<()> {
        if x_len != rows * self.in_dim() {
            return Err(NnError::Shape(format!(
                "batch input length {} != rows {} × in_dim {}",
                x_len,
                rows,
                self.in_dim()
            )));
        }
        if out_len != rows * passes * self.out_dim() {
            return Err(NnError::Shape(format!(
                "batch output length {} != rows {} × passes {} × out_dim {}",
                out_len,
                rows,
                passes,
                self.out_dim()
            )));
        }
        Ok(())
    }

    /// Draw the mask words of `nb` rows × `passes` passes into `bits`, in
    /// the canonical order: one substream per row
    /// (`Rng::substream(mask_seed, first_ordinal + i)`), then per pass, per
    /// dropout layer, per unit; unit `j` is bit `j % 64` of word `j / 64`.
    fn draw_masks(&self, bits: &mut [u64], nb: usize, passes: usize, mask_seed: u64, first_ordinal: u64) {
        // Whole groups of LANES rows, then the rest one row at a time: a
        // lane left idle would cost as much as a live one.
        let full = nb / LANES * LANES;
        for g in (0..full).step_by(LANES) {
            self.draw_rows::<LANES>(bits, g, passes, mask_seed, first_ordinal);
        }
        for g in full..nb {
            self.draw_rows::<1>(bits, g, passes, mask_seed, first_ordinal);
        }
    }

    /// [`BatchScratch::draw_masks`] for the `L` rows from `g` on, their
    /// substreams stepped together.
    fn draw_rows<const L: usize>(&self, bits: &mut [u64], g: usize, passes: usize, mask_seed: u64, first_ordinal: u64) {
        let mut draws = [[0u64; L]; 64];
        let mut lanes = XoshiroLanes::<L>::new(std::array::from_fn(|l| {
            Rng::substream(mask_seed, first_ordinal.wrapping_add((g + l) as u64))
        }));
        for p in 0..passes {
            for layer in &self.layers {
                let Some(d) = &layer.drop else { continue };
                for w in 0..layer.n.div_ceil(64) {
                    // Full words in one vectorized fill; a partial last
                    // word draws exactly its own units.
                    let units = (layer.n - 64 * w).min(64);
                    if units == 64 {
                        lanes.fill(&mut draws);
                    } else {
                        for u in &mut draws[..units] {
                            lanes.fill(std::array::from_mut(u));
                        }
                    }
                    let mut acc = [0u64; L];
                    for (b, u) in draws[..units].iter().enumerate() {
                        for (a, &u) in acc.iter_mut().zip(u) {
                            *a |= (((u >> 11) < d.threshold) as u64) << b;
                        }
                    }
                    for (l, &word) in acc.iter().enumerate() {
                        bits[((g + l) * passes + p) * self.words + d.word0 + w] = word;
                    }
                }
            }
        }
    }

    /// Evaluate one block of `nb` input rows × `passes` passes and return
    /// the output arena: fused row `i * passes + p` at row stride of the
    /// last layer. `masks` carries `(mask_seed, ordinal of the block's
    /// first row)`; `None` is the deterministic forward (dropout off).
    fn run_block<'w>(&self, ws: &'w mut Workspace, x: &[f64], nb: usize, passes: usize, masks: Option<(u64, u64)>) -> &'w [f64] {
        let Workspace { h0, cur, nxt, apack, bits } = ws;
        let first = &self.layers[0];
        // First layer on the block's distinct rows…
        ensure(h0, nb * first.stride);
        dense(first, x, first.k, nb, None, apack, h0);
        // …replicated into every pass, times the pass's first mask.
        let fused = nb * passes;
        let max_stride = self.layers.iter().map(|l| l.stride).max().unwrap_or(0);
        ensure(cur, fused * max_stride);
        ensure(nxt, fused * max_stride);
        if let Some((seed, ordinal)) = masks {
            ensure(bits, fused * self.words);
            self.draw_masks(bits, nb, passes, seed, ordinal);
        }
        let s0 = first.stride;
        let drop0 = first.drop.as_ref().filter(|_| masks.is_some());
        for i in 0..nb {
            let src = &h0[i * s0..(i + 1) * s0];
            for p in 0..passes {
                let f = i * passes + p;
                let dst = &mut cur[f * s0..(f + 1) * s0];
                match drop0 {
                    None => dst.copy_from_slice(src),
                    Some(d) => {
                        let words = &bits[f * self.words + d.word0..];
                        for ((dc, sc), &word) in dst.chunks_mut(64).zip(src.chunks(64)).zip(words) {
                            for (c, (v, &s)) in dc.iter_mut().zip(sc).enumerate() {
                                *v = s * mask_lane(word, c, d.scale);
                            }
                        }
                    }
                }
            }
        }
        // Every further layer runs fused over the block's rows × passes,
        // its dropout (if any) applied in the epilogue.
        let n_layers = self.layers.len();
        for l in 1..n_layers {
            let layer = &self.layers[l];
            let mask = match (&layer.drop, masks.is_some() && l + 1 < n_layers) {
                (Some(d), true) => Some((d, &bits[..], self.words)),
                _ => None,
            };
            let a_stride = self.layers[l - 1].stride;
            dense(layer, cur, a_stride, fused, mask, apack, nxt);
            std::mem::swap(cur, nxt);
        }
        cur
    }

    /// Run `body(self, workspace, r0, nb, window)` over consecutive blocks
    /// of at most [`BLOCK_FUSED`]` / passes` of the `rows` input rows, where
    /// `window` is the part of `out` (`per_row` elements per input row) the
    /// block owns. When the call carries the work of more than one pool
    /// task ([`TASK_MACS`] multiply-adds, a whole number of blocks each),
    /// the tasks go to the `le-pool` workers; the split depends on the
    /// shapes alone. `passes` must be at least 1.
    fn for_blocks<F>(&mut self, rows: usize, passes: usize, out: &mut [f64], per_row: usize, body: F)
    where
        F: Fn(&Self, &mut Workspace, usize, usize, &mut [f64]) + Sync,
    {
        let first_macs = self.layers[0].k * self.layers[0].n;
        let fused_macs: usize = self.layers[1..].iter().map(|l| l.k * l.n).sum();
        let block_rows = (BLOCK_FUSED / passes).max(1);
        let block_macs = block_rows * (first_macs + passes * fused_macs);
        let task_rows = TASK_MACS.div_ceil(block_macs) * block_rows;
        let run = |me: &Self, r0: usize, window: &mut [f64]| {
            let mut ws = claim(&me.workspaces);
            for (b, win) in window.chunks_mut(block_rows * per_row).enumerate() {
                body(me, &mut ws, r0 + b * block_rows, win.len() / per_row, win);
            }
        };
        let tasks = rows.div_ceil(task_rows);
        let needed = if tasks > 1 { le_pool::Pool::global().threads().min(tasks) } else { 1 };
        while self.workspaces.len() < needed {
            self.workspaces.push(Mutex::default());
        }
        let me = &*self;
        if tasks > 1 {
            le_pool::par_for_chunks(out, task_rows * per_row, |start, window| run(me, start / per_row, window));
        } else {
            run(me, 0, out);
        }
    }

    /// The `(rows × passes, out_dim)` samples of the block kernel: fused row
    /// `r * passes + p` is pass `p` of input row `r`, with masks from the
    /// per-row substreams of `(mask_seed, first_ordinal + r)` (see the
    /// module docs); `masks = None` with one pass is
    /// [`BatchScratch::forward_into`].
    fn samples_into(&mut self, x: &[f64], rows: usize, passes: usize, masks: Option<(u64, u64)>, out: &mut [f64]) {
        let (d_in, od) = (self.in_dim, self.out_dim());
        self.for_blocks(rows, passes, out, passes * od, |me, ws, r0, nb, win| {
            let masks = masks.map(|(seed, first)| (seed, first.wrapping_add(r0 as u64)));
            let y = me.run_block(ws, &x[r0 * d_in..(r0 + nb) * d_in], nb, passes, masks);
            for (o, yrow) in win.chunks_exact_mut(od).zip(y.chunks(me.out_stride())) {
                o.copy_from_slice(&yrow[..od]);
            }
        });
    }

    /// Deterministic batch forward (dropout off): `x` is a flat row-major
    /// `(rows, in_dim)` slice, `out` a flat `(rows, out_dim)` slice. Writes
    /// results bit-identical to [`Mlp::predict`] on the same rows.
    pub fn forward_into(&mut self, x: &[f64], rows: usize, out: &mut [f64]) -> Result<()> {
        self.check_io(x.len(), rows, out.len(), 1)?;
        self.samples_into(x, rows, 1, None, out);
        Ok(())
    }

    /// Fused MC-dropout mean/std: runs the block kernel over all `passes`
    /// stochastic passes of all `rows` inputs and reduces each block's samples
    /// per row with the two-pass Bessel-corrected estimator (mean first,
    /// then `√(Σ(v−m)²/(K−1))`), accumulating passes in ascending order so
    /// the reduction replicates bit-for-bit at any pool width. `mean` and
    /// `std` are flat `(rows, out_dim)` slices.
    pub fn mc_predict_into(
        &mut self,
        x: &[f64],
        rows: usize,
        passes: usize,
        mask_seed: u64,
        first_ordinal: u64,
        mean: &mut [f64],
        std: &mut [f64],
    ) -> Result<()> {
        let od = self.out_dim();
        if mean.len() != rows * od || std.len() != rows * od {
            return Err(NnError::Shape(format!(
                "mean/std length {}/{} != rows {} × out_dim {}",
                mean.len(),
                std.len(),
                rows,
                od
            )));
        }
        if passes < 2 {
            return Err(NnError::Shape("mc std needs ≥ 2 passes".into()));
        }
        self.check_io(x.len(), rows, rows * passes * od, passes)?;
        let d_in = self.in_dim;
        let mut mean_std = std::mem::take(&mut self.mean_std);
        ensure(&mut mean_std, rows * 2 * od);
        self.for_blocks(rows, passes, &mut mean_std[..rows * 2 * od], 2 * od, |me, ws, r0, nb, win| {
            let ordinal = first_ordinal.wrapping_add(r0 as u64);
            let y = me.run_block(ws, &x[r0 * d_in..(r0 + nb) * d_in], nb, passes, Some((mask_seed, ordinal)));
            let stride = me.out_stride();
            let nf = passes as f64;
            for (i, ms) in win.chunks_exact_mut(2 * od).enumerate() {
                let samples = &y[i * passes * stride..(i + 1) * passes * stride];
                let (m_row, s_row) = ms.split_at_mut(od);
                m_row.fill(0.0);
                for s in samples.chunks(stride) {
                    for (m, &v) in m_row.iter_mut().zip(s) {
                        *m += v;
                    }
                }
                for m in m_row.iter_mut() {
                    *m /= nf;
                }
                s_row.fill(0.0);
                for s in samples.chunks(stride) {
                    for ((acc, &v), &m) in s_row.iter_mut().zip(s).zip(m_row.iter()) {
                        *acc += (v - m) * (v - m);
                    }
                }
                for acc in s_row.iter_mut() {
                    *acc = (*acc / (nf - 1.0)).sqrt();
                }
            }
        });
        for ((ms, m), s) in mean_std.chunks_exact(2 * od).zip(mean.chunks_exact_mut(od)).zip(std.chunks_exact_mut(od)) {
            m.copy_from_slice(&ms[..od]);
            s.copy_from_slice(&ms[od..]);
        }
        self.mean_std = mean_std;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpConfig;
    use le_linalg::Matrix;

    fn net(widths: &[usize], dropout: f64, seed: u64) -> Mlp {
        let mut rng = Rng::new(seed);
        Mlp::new(MlpConfig::regression_with_dropout(widths, dropout), &mut rng).unwrap()
    }

    #[test]
    fn forward_matches_predict_bitwise() {
        let model = net(&[3, 17, 9, 2], 0.0, 41);
        let mut scratch = BatchScratch::new(&model);
        let rows = 5;
        let x: Vec<f64> = (0..rows * 3).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut out = vec![0.0; rows * 2];
        scratch.forward_into(&x, rows, &mut out).unwrap();
        let xm = Matrix::from_vec(rows, 3, x.clone()).unwrap();
        let want = model.predict(&xm).unwrap();
        assert_eq!(out, want.as_slice().to_vec(), "engine must replicate Mlp::predict bitwise");
    }

    #[test]
    fn single_row_matches_predict_one_bitwise() {
        let model = net(&[4, 33, 1], 0.1, 42);
        let mut scratch = BatchScratch::new(&model);
        let x = [0.2, -0.4, 0.9, 0.01];
        let mut out = [0.0; 1];
        scratch.forward_into(&x, 1, &mut out).unwrap();
        assert_eq!(out.to_vec(), model.predict_one(&x).unwrap());
    }

    #[test]
    fn batch_of_b_equals_b_batches_of_one() {
        // The determinism contract: fused evaluation at ordinals o..o+B is
        // bit-identical to B single-row evaluations at those ordinals.
        let model = net(&[2, 24, 24, 3], 0.3, 43);
        let mut fused = BatchScratch::new(&model);
        let mut single = BatchScratch::new(&model);
        let rows = 6;
        let k = 9;
        let x: Vec<f64> = (0..rows * 2).map(|i| (i as f64 * 0.11).cos()).collect();
        let (seed, first) = (0xFEED, 7u64);
        let mut mean_b = vec![0.0; rows * 3];
        let mut std_b = vec![0.0; rows * 3];
        fused
            .mc_predict_into(&x, rows, k, seed, first, &mut mean_b, &mut std_b)
            .unwrap();
        for r in 0..rows {
            let mut mean_1 = vec![0.0; 3];
            let mut std_1 = vec![0.0; 3];
            single
                .mc_predict_into(&x[r * 2..(r + 1) * 2], 1, k, seed, first + r as u64, &mut mean_1, &mut std_1)
                .unwrap();
            assert_eq!(mean_1, mean_b[r * 3..(r + 1) * 3].to_vec(), "row {r} mean");
            assert_eq!(std_1, std_b[r * 3..(r + 1) * 3].to_vec(), "row {r} std");
        }
    }

    #[test]
    fn fused_pass_is_replicable() {
        let model = net(&[3, 16, 1], 0.2, 44);
        let mut s1 = BatchScratch::new(&model);
        let mut s2 = BatchScratch::new(&model);
        let x = [0.5, -0.5, 0.25, 1.0, 0.0, -1.0];
        let mut a = vec![0.0; 2 * 4 * 1];
        let mut b = vec![0.0; 2 * 4 * 1];
        s1.samples_into(&x, 2, 4, Some((99, 0)), &mut a);
        s2.samples_into(&x, 2, 4, Some((99, 0)), &mut b);
        assert_eq!(a, b);
        // And reuse of the same scratch replicates too (arena hygiene).
        let mut c = vec![0.0; 2 * 4 * 1];
        s1.samples_into(&x, 2, 4, Some((99, 0)), &mut c);
        assert_eq!(a, c);
    }

    #[test]
    fn zero_dropout_fused_std_is_zero() {
        let model = net(&[2, 8, 1], 0.0, 45);
        let mut scratch = BatchScratch::new(&model);
        let x = [0.3, 0.7];
        let mut mean = [0.0; 1];
        let mut std = [0.0; 1];
        scratch.mc_predict_into(&x, 1, 20, 1, 0, &mut mean, &mut std).unwrap();
        assert!(std[0] < 1e-12, "no dropout ⇒ zero spread, got {}", std[0]);
    }

    #[test]
    fn no_hidden_layer_net_is_deterministic() {
        let model = net(&[3, 2], 0.0, 46);
        let mut scratch = BatchScratch::new(&model);
        let x = [0.1, 0.2, 0.3];
        let mut out = vec![0.0; 5 * 2];
        scratch.samples_into(&x, 1, 5, Some((7, 0)), &mut out);
        let point = model.predict_one(&x).unwrap();
        for p in 0..5 {
            assert_eq!(out[p * 2..(p + 1) * 2].to_vec(), point, "pass {p}");
        }
    }

    /// Reference MC-dropout, computed the obvious way: one row and one
    /// pass at a time, masks drawn with `Rng::bernoulli` in canonical
    /// order as each layer finishes, every output unit a `dot` over its
    /// weight column. Returns the flat `(rows × passes, out_dim)` samples
    /// (`passes = 1` with `seed = None` is the deterministic forward).
    fn oracle_samples(model: &Mlp, x: &[f64], rows: usize, passes: usize, seed: Option<(u64, u64)>) -> Vec<f64> {
        let layers = model.layers();
        let cols: Vec<Vec<Vec<f64>>> = layers
            .iter()
            .map(|d| (0..d.w.cols()).map(|j| (0..d.w.rows()).map(|t| d.w.get(t, j)).collect()).collect())
            .collect();
        let d_in = model.in_dim();
        let mut out = Vec::new();
        for r in 0..rows {
            let mut rng = seed.map(|(s, first)| Rng::substream(s, first.wrapping_add(r as u64)));
            for _ in 0..passes {
                let mut h = x[r * d_in..(r + 1) * d_in].to_vec();
                for (l, d) in layers.iter().enumerate() {
                    let mut next: Vec<f64> = cols[l]
                        .iter()
                        .zip(d.b.iter())
                        .map(|(col, &b)| d.activation.apply(le_linalg::matrix::dot(&h, col) + b))
                        .collect();
                    let rate = model.dropout.get(l).map_or(0.0, |dr| dr.rate);
                    if let (Some(rng), true) = (rng.as_mut(), rate > 0.0) {
                        let keep = 1.0 - rate;
                        for v in next.iter_mut() {
                            *v *= if rng.bernoulli(keep) { 1.0 / keep } else { 0.0 };
                        }
                    }
                    h = next;
                }
                out.extend(h);
            }
        }
        out
    }

    /// The mean/std reduction spelled out: ascending-pass sums, then the
    /// Bessel-corrected two-pass estimator.
    fn oracle_mean_std(samples: &[f64], rows: usize, passes: usize, od: usize) -> (Vec<f64>, Vec<f64>) {
        let nf = passes as f64;
        let (mut mean, mut std) = (vec![0.0; rows * od], vec![0.0; rows * od]);
        for r in 0..rows {
            for j in 0..od {
                let v = |p: usize| samples[(r * passes + p) * od + j];
                let mut m = 0.0;
                for p in 0..passes {
                    m += v(p);
                }
                m /= nf;
                let mut s = 0.0;
                for p in 0..passes {
                    s += (v(p) - m) * (v(p) - m);
                }
                mean[r * od + j] = m;
                std[r * od + j] = (s / (nf - 1.0)).sqrt();
            }
        }
        (mean, std)
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g:e} vs {w:e}");
        }
    }

    /// One oracle case: a net of the given widths (tanh hidden layers, an
    /// identity output) and per-dropout-layer rates, checked bitwise on the
    /// fused samples, the mean/std and the deterministic forward — twice
    /// on one scratch, the second call smaller, so a stale arena shows.
    fn check_against_oracle(widths: &[usize], rates: &[f64], passes: usize, rows: usize, seed: u64) {
        let mut model = net(widths, 0.0, seed);
        for d in model.dense.iter_mut() {
            // Non-zero biases, so the epilogue's bias add is exercised.
            for (j, b) in d.b.iter_mut().enumerate() {
                *b = ((j as f64 + seed as f64) * 0.731).sin() * 0.3;
            }
        }
        for (dr, &rate) in model.dropout.iter_mut().zip(rates.iter()) {
            *dr = crate::layer::Dropout::new(rate).unwrap();
        }
        let (d_in, od) = (widths[0], widths[widths.len() - 1]);
        let mut rng = Rng::new(seed ^ 0x5EED);
        let x: Vec<f64> = (0..rows * d_in).map(|_| rng.uniform_in(-2.0, 2.0)).collect();
        let mut scratch = BatchScratch::new(&model);
        let case = format!("widths {widths:?} rates {rates:?} passes {passes}");
        for rows in [rows, rows / 2 + 1] {
            let x = &x[..rows * d_in];
            let (mask_seed, first) = (seed.wrapping_mul(31), seed % 1000);
            let want = oracle_samples(&model, x, rows, passes, Some((mask_seed, first)));
            let mut got = vec![0.0; rows * passes * od];
            scratch.samples_into(x, rows, passes, Some((mask_seed, first)), &mut got);
            assert_bits_eq(&got, &want, &format!("mc samples, {case}, rows {rows}"));
            let (want_m, want_s) = oracle_mean_std(&want, rows, passes, od);
            let (mut m, mut s) = (vec![0.0; rows * od], vec![0.0; rows * od]);
            scratch.mc_predict_into(x, rows, passes, mask_seed, first, &mut m, &mut s).unwrap();
            assert_bits_eq(&m, &want_m, &format!("mc mean, {case}, rows {rows}"));
            assert_bits_eq(&s, &want_s, &format!("mc std, {case}, rows {rows}"));
            let want_f = oracle_samples(&model, x, rows, 1, None);
            let mut got_f = vec![0.0; rows * od];
            scratch.forward_into(x, rows, &mut got_f).unwrap();
            assert_bits_eq(&got_f, &want_f, &format!("forward, {case}, rows {rows}"));
        }
    }

    #[test]
    fn fused_engine_matches_the_reference_oracle_bitwise() {
        // Hand-picked edges: widths around the 64-bit mask word and the
        // register tile, rate-0 layers between dropout layers, pass counts
        // from 2 to 31, row counts across block edges.
        check_against_oracle(&[5, 64, 64, 3], &[0.1, 0.1], 30, 300, 1);
        check_against_oracle(&[3, 65, 63, 1], &[0.5, 0.0], 7, 41, 2);
        check_against_oracle(&[2, 15, 17, 130, 2], &[0.0, 0.1, 0.5], 2, 17, 3);
        check_against_oracle(&[130, 1, 4], &[0.5], 31, 9, 4);
        check_against_oracle(&[1, 64, 1], &[0.5], 3, 300, 5);
        check_against_oracle(&[4, 8, 8, 8, 8, 5], &[0.1, 0.0, 0.5, 0.1], 5, 23, 6);
        check_against_oracle(&[6, 130, 130, 7], &[0.1, 0.1], 2, 3, 7);
        // Seeded random cases, capped in total work so the suite stays
        // quick in a debug build.
        let specials = [1usize, 15, 17, 63, 64, 65, 130];
        let mut rng = Rng::new(0x0AC1E);
        for case in 0..24u64 {
            let hidden = 1 + rng.below(4);
            let mut widths = vec![1 + rng.below(8)];
            for _ in 0..hidden {
                widths.push(if rng.bernoulli(0.5) { specials[rng.below(specials.len())] } else { 1 + rng.below(130) });
            }
            widths.push(1 + rng.below(6));
            // Draws that once picked each layer's activation: kept, so the
            // rates, passes and rows drawn after them stay the same.
            for _ in 0..=hidden {
                rng.below(4);
            }
            let rates: Vec<f64> = (0..hidden).map(|_| [0.0, 0.1, 0.5][rng.below(3)]).collect();
            let passes = 2 + rng.below(30);
            let macs_per_row: usize = widths.windows(2).map(|w| w[0] * w[1]).sum::<usize>() * passes;
            let rows = (1 + rng.below(300)).min((400_000 / macs_per_row).max(1));
            check_against_oracle(&widths, &rates, passes, rows, 100 + case);
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let model = net(&[3, 4, 2], 0.1, 47);
        let mut scratch = BatchScratch::new(&model);
        let mut out = vec![0.0; 2];
        assert!(scratch.forward_into(&[0.0; 5], 1, &mut out).is_err());
        assert!(scratch.forward_into(&[0.0; 3], 1, &mut [0.0; 3]).is_err());
        let (mut mean, mut std) = ([0.0; 2], [0.0; 2]);
        assert!(scratch
            .mc_predict_into(&[0.0; 3], 1, 1, 0, 0, &mut mean, &mut std)
            .is_err(), "passes < 2 must be rejected");
    }
}
