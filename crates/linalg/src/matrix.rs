//! Row-major dense `f64` matrix with the operations the neural-network and
//! solver crates need. Sized for the small/medium matrices of this workspace
//! (layer weights up to a few thousand per side). The three matmul variants,
//! and their allocation-free slice forms [`matmul_into`], [`t_matmul_into`]
//! and [`matmul_t_into`], share one private product routine that reads a
//! transposed operand through its strides: a rows-as-lanes register tile
//! for narrow outputs (at most [`NARROW_N`] columns), an ikj loop for wide
//! outputs below [`GEMM_TILE_MIN_FLOPS`] and a register-tiled kernel past
//! it; past [`GEMM_PAR_MIN_FLOPS`] the rows split across the `le_pool`
//! workers. Results are bit-identical on every path and at every pool
//! width.

use crate::rng::Rng;
use crate::{LinalgError, Result};

/// FLOP count (`m·n·k`) from which wide products run the register-tiled
/// kernel instead of the ikj loop: below it the ikj loop's exact-zero skip
/// and lack of tile setup win, which unoptimized builds feel most.
const GEMM_TILE_MIN_FLOPS: usize = 1 << 15;
/// FLOP count past which a product's rows are split across the worker
/// pool.
const GEMM_PAR_MIN_FLOPS: usize = 1 << 17;
/// Target FLOPs per pool task (a whole number of output rows).
const GEMM_CHUNK_FLOPS: usize = 1 << 16;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major `Vec`. Returns `ShapeMismatch` if the length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Build from nested rows (test convenience). Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// He-uniform initialization (for ReLU-family layers): U(-b, b) with
    /// b = sqrt(6 / fan_in).
    pub fn he_uniform(rows: usize, cols: usize, fan_in: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / fan_in.max(1) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.uniform_in(-bound, bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization (for tanh layers).
    pub fn xavier_uniform(rows: usize, cols: usize, fan_in: usize, fan_out: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.uniform_in(-bound, bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow a row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow a row as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let (a, b) = (Strided::natural(&self.data, self.cols), Strided::natural(&rhs.data, rhs.cols));
        product(a, b, (self.rows, self.cols, rhs.cols), &mut out.data);
        Ok(out)
    }

    /// `self^T * rhs`, reading `self` through its strides.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let (a, b) = (Strided::transposed(&self.data, self.cols), Strided::natural(&rhs.data, rhs.cols));
        product(a, b, (self.cols, self.rows, rhs.cols), &mut out.data);
        Ok(out)
    }

    /// `self * rhs^T`, reading `rhs` through its strides.
    pub fn matmul_t(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let (a, b) = (Strided::natural(&self.data, self.cols), Strided::transposed(&rhs.data, rhs.cols));
        product(a, b, (self.rows, self.cols, rhs.rows), &mut out.data);
        Ok(out)
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(&self, rhs: &Matrix, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scale every element in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// New matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Apply `f` element-wise in place.
    pub fn map_mut(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Add a row vector (bias) to every row. `bias.len()` must equal `cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Column sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Extract the rows at `indices` into a new matrix (mini-batch gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (oi, &ri) in indices.iter().enumerate() {
            assert!(ri < self.rows, "row index {ri} out of bounds {}", self.rows);
            out.row_mut(oi).copy_from_slice(self.row(ri));
        }
        out
    }
}

/// Output width up to which every product skips exact-zero `a` terms and
/// runs a narrow tile.
const NARROW_N: usize = 8;
/// Depth of a staged `b` panel: the `k` range a tile accumulates before
/// its partial sums go back to the output. Whole-`k` for the workspace's
/// layers (k ≤ 64), so those never reload a partial sum.
const KC: usize = 64;
/// Widest column block of a tile: four AVX2 vectors.
const NB_MAX: usize = 16;

/// A product operand on row-major storage: element `(r, c)` is
/// `data[r * rs + c * cs]`, so a transposed read swaps the strides and no
/// transpose is ever materialized.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f64],
    rs: usize,
    cs: usize,
}

impl<'a> Strided<'a> {
    /// Storage with `cols` columns, read as stored.
    fn natural(data: &'a [f64], cols: usize) -> Self {
        Self { data, rs: cols, cs: 1 }
    }

    /// Storage with `cols` columns, read transposed.
    fn transposed(data: &'a [f64], cols: usize) -> Self {
        Self { data, rs: 1, cs: cols }
    }

    #[inline(always)]
    fn at(self, r: usize, c: usize) -> f64 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// Check the slice lengths of an `(m, k) · (k, n)` product.
fn check_lengths(op: &'static str, a: &[f64], b: &[f64], (m, k, n): (usize, usize, usize), out: &[f64]) -> Result<()> {
    if a.len() != m * k || b.len() != k * n || out.len() != m * n {
        return Err(LinalgError::ShapeMismatch {
            op,
            lhs: (m, k),
            rhs: (k, n),
        });
    }
    Ok(())
}

/// `out = a · b` for a row-major `(m, k)` slice `a` and `(k, n)` slice
/// `b`, into the caller's `(m, n)` slice: [`Matrix::matmul`] without the
/// allocation.
pub fn matmul_into(a: &[f64], b: &[f64], mkn: (usize, usize, usize), out: &mut [f64]) -> Result<()> {
    check_lengths("matmul_into", a, b, mkn, out)?;
    product(Strided::natural(a, mkn.1), Strided::natural(b, mkn.2), mkn, out);
    Ok(())
}

/// `out = aᵀ · b` for `a` stored row-major `(k, m)` and `b` `(k, n)`:
/// [`Matrix::t_matmul`] without the allocation.
pub fn t_matmul_into(a: &[f64], b: &[f64], mkn: (usize, usize, usize), out: &mut [f64]) -> Result<()> {
    check_lengths("t_matmul_into", a, b, mkn, out)?;
    product(Strided::transposed(a, mkn.0), Strided::natural(b, mkn.2), mkn, out);
    Ok(())
}

/// `out = a · bᵀ` for `a` stored row-major `(m, k)` and `b` `(n, k)`:
/// [`Matrix::matmul_t`] without the allocation.
pub fn matmul_t_into(a: &[f64], b: &[f64], mkn: (usize, usize, usize), out: &mut [f64]) -> Result<()> {
    check_lengths("matmul_t_into", a, b, mkn, out)?;
    product(Strided::natural(a, mkn.1), Strided::transposed(b, mkn.1), mkn, out);
    Ok(())
}

/// The one product routine: `out = a · b` for an `(m, k)` operand `a` and a
/// `(k, n)` operand `b`, either read through its strides, into the
/// row-major `(m, n)` slice `out`. It allocates nothing.
///
/// Every output element is one ascending-k chain of fused multiply-adds
/// (`f64::mul_add`: a single rounding, exactly specified by IEEE 754, so
/// the same bits on every conforming host) from 0.0 — the contraction of
/// [`dot`]. The paths differ only in how many chains advance together:
///
/// * **Narrow** (`n ≤` [`NARROW_N`]): [`tiles`] of eight rows × four
///   columns (`n ≤ 4`) or four rows × eight columns.
/// * **Wide, below [`GEMM_TILE_MIN_FLOPS`]**: [`ikj_rows`], which
///   accumulates whole output rows.
/// * **Wide, from it on**: [`tiles`] of two rows × sixteen columns.
///
/// The narrow tiles and the ikj loop leave out the terms of exact-zero `a`
/// elements (dropout zeroes activations). For a finite `b` that changes no
/// bit, since `fma(±0, b, s)` leaves a chain started at 0.0 unchanged.
/// Past [`GEMM_PAR_MIN_FLOPS`] whole rows go to pool tasks of about
/// [`GEMM_CHUNK_FLOPS`] each; each element is still computed by one task,
/// so the pool width cannot move a bit.
fn product(a: Strided, b: Strided, (m, k, n): (usize, usize, usize), out: &mut [f64]) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let flops = m * n * k;
    let kernel = |row0: usize, rows: &mut [f64]| match n {
        ..=4 => tiles::<8, 4, true>(a, b, (k, n), row0, rows),
        ..=NARROW_N => tiles::<4, 8, true>(a, b, (k, n), row0, rows),
        _ if flops < GEMM_TILE_MIN_FLOPS => ikj_rows(a, b, (k, n), row0, rows),
        _ => tiles::<2, NB_MAX, false>(a, b, (k, n), row0, rows),
    };
    if flops < GEMM_PAR_MIN_FLOPS {
        kernel(0, out);
        return;
    }
    let task_rows = (GEMM_CHUNK_FLOPS / (n * k)).clamp(1, m);
    le_pool::par_for_chunks(out, task_rows * n, |start, rows| kernel(start / n, rows));
}

/// Stage `b`'s rows `t0..` and columns `j0..j0 + w` into `panel`, one
/// row of stride `bs` per `t`, zero-padded past `w`. A natural `b` copies
/// row segments; a transposed one is stored as rows of `b`'s columns, so
/// each of those is read contiguously and scattered down the panel.
fn stage(b: Strided, t0: usize, (j0, w): (usize, usize), bs: usize, panel: &mut [f64]) {
    let kc = panel.len() / bs;
    if b.cs == 1 {
        for (t, prow) in panel.chunks_exact_mut(bs).enumerate() {
            prow[..w].copy_from_slice(&b.data[(t0 + t) * b.rs + j0..][..w]);
            prow[w..].fill(0.0);
        }
    } else {
        if w < bs {
            panel.fill(0.0);
        }
        for c in 0..w {
            let col = &b.data[(j0 + c) * b.cs + t0..][..kc];
            for (prow, &v) in panel.chunks_exact_mut(bs).zip(col) {
                prow[c] = v;
            }
        }
    }
}

/// Register-tiled worker of [`product`]: fill `out` (whole rows of the
/// `(m, n)` result from absolute row `row0` on) in blocks of `NB` columns
/// and tiles of `R` rows (rows past the last whole tile in tiles of 4, 2
/// and 1 rows). Each column block of a natural `b` is read in
/// place over all of `k` when it is whole; otherwise each [`KC`]-deep
/// slice of it is staged, and the partial sums of a longer `k` wait in
/// `out`, which stores them exactly. `SKIP` leaves out exact-zero `a`
/// terms.
fn tiles<const R: usize, const NB: usize, const SKIP: bool>(
    a: Strided,
    b: Strided,
    (k, n): (usize, usize),
    row0: usize,
    out: &mut [f64],
) {
    let rows = out.len() / n;
    let mut panel = [0.0f64; KC * NB_MAX];
    for j0 in (0..n).step_by(NB) {
        let w = NB.min(n - j0);
        let direct = b.cs == 1 && w == NB;
        let depth = if direct { k } else { KC };
        for t0 in (0..k).step_by(depth) {
            let kc = depth.min(k - t0);
            let (bp, bs) = if direct {
                (&b.data[t0 * b.rs + j0..], b.rs)
            } else {
                stage(b, t0, (j0, w), NB, &mut panel[..kc * NB]);
                (&panel[..kc * NB], NB)
            };
            let mut r0 = 0;
            while r0 < rows {
                let left = rows - r0;
                let at = (row0 + r0, t0, kc);
                let block = ((bp, bs), (n, j0, w));
                let out = &mut out[r0 * n..];
                // Whole tiles, then halving tiles for the rows left over;
                // each combination compiles apart, so the common one (first
                // slice, whole block, whole tile) keeps its accumulators in
                // registers.
                macro_rules! run {
                    ($r:expr) => {{
                        match (t0 > 0, w == NB) {
                            (false, true) => tile::<{ $r }, NB, SKIP, false, true>(a, at, block, out),
                            (false, false) => tile::<{ $r }, NB, SKIP, false, false>(a, at, block, out),
                            (true, true) => tile::<{ $r }, NB, SKIP, true, true>(a, at, block, out),
                            (true, false) => tile::<{ $r }, NB, SKIP, true, false>(a, at, block, out),
                        }
                        r0 += $r;
                    }};
                }
                match left {
                    _ if left >= R => run!(R),
                    4.. => run!(4),
                    2.. => run!(2),
                    _ => run!(1),
                }
            }
        }
    }
}

/// One `R`-row tile of [`tiles`] over one column block and one slice of
/// `k`: `at` is `(i0, t0, kc)` (the tile's first absolute row, where the
/// slice starts and its depth), `block` is `((bp, bs), (n, j0, w))` (`b`'s
/// rows, row `t` at `bp[t * bs..][..NB]`; the output's width, where the
/// block starts and its real columns). With `LOAD` the accumulators start
/// from the partial sums an earlier slice left in `out`; `FULL` says the
/// block is `NB` wide, which gives every copy in or out of the
/// accumulators a fixed length and keeps them in registers.
#[inline(never)]
fn tile<const R: usize, const NB: usize, const SKIP: bool, const LOAD: bool, const FULL: bool>(
    a: Strided,
    (i0, t0, kc): (usize, usize, usize),
    ((bp, bs), (n, j0, w)): ((&[f64], usize), (usize, usize, usize)),
    out: &mut [f64],
) {
    let w = if FULL { NB } else { w };
    let mut acc = [[0.0f64; NB]; R];
    if LOAD {
        for (r, accr) in acc.iter_mut().enumerate() {
            accr[..w].copy_from_slice(&out[r * n + j0..][..w]);
        }
    }
    for t in 0..kc {
        let brow = &bp[t * bs..][..NB];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a.at(i0 + r, t0 + t);
            if SKIP && av == 0.0 { // lint:allow(float-hygiene): exact-zero sparsity skip, any other value must multiply
                continue;
            }
            for (s, &bv) in accr.iter_mut().zip(brow) {
                *s = av.mul_add(bv, *s);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * n + j0..][..w].copy_from_slice(&accr[..w]);
    }
}

/// Small wide worker of [`product`]: each output row accumulates in place,
/// one `a` element times one `b` row at a time, leaving out exact-zero `a`
/// terms. A transposed `b` is staged in blocks of as many columns as the
/// panel holds at depth `min(k,` [`KC`]`)`.
fn ikj_rows(a: Strided, b: Strided, (k, n): (usize, usize), row0: usize, out: &mut [f64]) {
    let rows = out.len() / n;
    let mut panel = [0.0f64; KC * NB_MAX];
    let (block, depth) = if b.cs == 1 { (n, k) } else { ((panel.len() / k.min(KC)).clamp(1, n), KC) };
    for j0 in (0..n).step_by(block) {
        let w = block.min(n - j0);
        for t0 in (0..k).step_by(depth) {
            let kc = depth.min(k - t0);
            let (bp, bs) = if b.cs == 1 {
                (&b.data[..], b.rs)
            } else {
                stage(b, t0, (j0, w), w, &mut panel[..kc * w]);
                (&panel[..kc * w], w)
            };
            for r in 0..rows {
                let seg = &mut out[r * n + j0..][..w];
                if t0 == 0 {
                    seg.fill(0.0);
                }
                for t in 0..kc {
                    let av = a.at(row0 + r, t0 + t);
                    if av == 0.0 { // lint:allow(float-hygiene): exact-zero sparsity skip, any other value must multiply
                        continue;
                    }
                    for (o, &bv) in seg.iter_mut().zip(&bp[t * bs..][..w]) {
                        *o = av.mul_add(bv, *o);
                    }
                }
            }
        }
    }
}

/// Dot product of two equal-length slices, accumulated in index order
/// with one fused multiply-add per term — the same contraction every
/// GEMM path in this module uses, so all of them agree to the bit.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .fold(0.0, |s, (&x, &y)| x.mul_add(y, s))
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transpose(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                t.set(j, i, m.get(i, j));
            }
        }
        t
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn all_three_products_are_bitwise_dot_chains() {
        // `matmul`, `t_matmul` and `matmul_t` must each produce, for every
        // output element, exactly the ascending-k fma chain `dot` computes,
        // on both sides of GEMM_TILE_MIN_FLOPS and across the pool split.
        // Every fifth `a` element is zeroed the way dropout zeroes an
        // activation (`x * 0.0`, so negative ones become -0.0), which the
        // ikj loop skips and `dot` multiplies.
        let mut rng = Rng::new(13);
        for &(m, k, n) in &[
            (3usize, 4usize, 5usize), // tiny, all three below the cut
            (4, 3, 5),
            (3, 17, 5),
            (7, 64, 3),               // 3-wide head, below the cut
            (1, 64, 64),              // single row
            (20, 30, 40),
            (40, 60, 50),             // above the cut, ragged column tail
            (65, 33, 19),             // ragged row and column tails
            (203, 64, 3),             // narrow tiled path, ragged 4-row tile
            (121, 64, 5),
            (64, 64, 64),             // pool-dispatched
            (30, 45, 70),
            (256, 64, 48),
            (300, 64, 7),             // narrow and pool-dispatched
            (1100, 64, 64),           // more pool tasks than chunk slots
            // Narrow heads (n ≤ 8) at row counts off every row tile,
            // below the cut, above it, and pool-dispatched.
            (1, 64, 1),
            (7, 64, 1),
            (33, 64, 1),
            (517, 64, 1),
            (5, 5, 3),
            (13, 64, 3),
            (37, 64, 3),
            (1031, 64, 3),
            (3, 64, 5),
            (29, 64, 5),
            (7, 33, 5),
            (515, 64, 5),
            (9, 64, 8),
            (61, 64, 8),
            (259, 64, 8),
        ] {
            let mut a = Matrix::he_uniform(m, k, k, &mut rng);
            for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                if i % 5 == 2 {
                    *v *= 0.0;
                }
                if i % 11 == 4 {
                    *v = -0.0;
                }
            }
            let mut b = Matrix::he_uniform(k, n, k, &mut rng);
            for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
                if i % 13 == 6 {
                    *v = -0.0;
                }
            }
            check_products(&a, &b, (m, k, n));
        }
    }

    /// `matmul`, `t_matmul` and `matmul_t` of `a · b` against the
    /// ascending-k chain of every output element, computed directly.
    /// The chain skips exact-zero `a` elements, the ikj loop's sparsity
    /// skip: for a finite `b` that is the chain `dot` computes, since
    /// `fma(±0, b, s)` leaves a sum started at `0.0` unchanged.
    fn check_products(a: &Matrix, b: &Matrix, (m, k, n): (usize, usize, usize)) {
        let bt = transpose(b);
        let chain = |i: usize, j: usize| {
            a.row(i)
                .iter()
                .zip(bt.row(j))
                .fold(0.0f64, |s, (&x, &y)| if x == 0.0 { s } else { x.mul_add(y, s) })
        };
        let results = [
            ("matmul", a.matmul(b).unwrap()),
            ("t_matmul", transpose(a).t_matmul(b).unwrap()),
            ("matmul_t", a.matmul_t(&bt).unwrap()),
        ];
        for (name, c) in &results {
            assert_eq!(c.shape(), (m, n), "{name} shape at ({m},{k},{n})");
            for i in 0..m {
                for j in 0..n {
                    let want = chain(i, j);
                    if bt.row(j).iter().all(|v| v.is_finite()) {
                        assert_eq!(want.to_bits(), dot(a.row(i), bt.row(j)).to_bits());
                    }
                    assert_eq!(
                        c.get(i, j).to_bits(),
                        want.to_bits(),
                        "{name} element ({i},{j}) differs at shape ({m},{k},{n})"
                    );
                }
            }
        }
    }

    #[test]
    fn a_zero_activation_skips_an_infinite_weight() {
        // Dropout zeroes an activation; the weight it would meet is
        // infinite. Narrow products at every size (below the tiled cut,
        // past it and pool-split) and wide ones below the cut leave that
        // term out, so each output is the chain of the other terms, not
        // NaN.
        let mut rng = Rng::new(17);
        for &(m, k, n) in &[
            (7usize, 64usize, 1usize),
            (13, 64, 3),
            (6, 9, 5),
            (9, 64, 8),
            (3, 40, 20),
            (171, 64, 3),  // narrow, past the tiled cut
            (1031, 64, 3), // narrow, pool-split
            (259, 64, 8),
        ] {
            let mut a = Matrix::he_uniform(m, k, k, &mut rng);
            let mut b = Matrix::he_uniform(k, n, k, &mut rng);
            for i in 0..m {
                a.set(i, 3, if i % 2 == 0 { 0.0 } else { -0.0 });
            }
            b.set(3, n - 1, f64::INFINITY);
            b.set(3, 0, f64::NEG_INFINITY);
            check_products(&a, &b, (m, k, n));
            for i in 0..m {
                assert!(a.matmul(&b).unwrap().get(i, n - 1).is_finite(), "({m},{k},{n}) row {i}");
            }
        }
    }

    #[test]
    fn slice_products_handle_empty_and_mismatched_shapes() {
        let mut out = [0.0f64; 0];
        matmul_into(&[0.0; 8], &[], (2, 4, 0), &mut out).unwrap();
        let mut zeros = [1.0f64; 6];
        matmul_t_into(&[], &[], (2, 0, 3), &mut zeros).unwrap();
        assert_eq!(zeros, [0.0; 6], "an empty k sums nothing");
        let mut out2 = [0.0f64; 4];
        assert!(matches!(
            matmul_into(&[0.0; 8], &[0.0; 6], (2, 4, 2), &mut out2),
            Err(LinalgError::ShapeMismatch { op: "matmul_into", .. })
        ));
        assert!(matches!(
            t_matmul_into(&[0.0; 8], &[0.0; 8], (2, 4, 2), &mut out2[..3]),
            Err(LinalgError::ShapeMismatch { op: "t_matmul_into", .. })
        ));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]);
        let b = Matrix::from_rows(&[&[3.0, 1.0], &[-1.0, 2.0]]);
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn hadamard_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        assert_eq!(
            a.hadamard(&b).unwrap(),
            Matrix::from_rows(&[&[2.0, 1.0], &[3.0, -4.0]])
        );
    }

    #[test]
    fn bias_broadcast_and_col_sums() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.add_row_broadcast(&[10.0, 20.0]).unwrap();
        assert_eq!(a, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        assert_eq!(a.col_sums(), vec![24.0, 46.0]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[3, 1]);
        assert_eq!(g, Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn he_init_within_bound() {
        let mut rng = Rng::new(77);
        let fan_in = 10;
        let m = Matrix::he_uniform(10, 10, fan_in, &mut rng);
        let bound = (6.0 / fan_in as f64).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(m.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn slice_helpers() {
        assert!((dot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-12);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
