//! Row-major dense `f64` matrix with the operations the neural-network and
//! solver crates need. Sized for the small/medium matrices of this workspace
//! (layer weights up to a few thousand per side). The three matmul variants
//! share one private product routine: an ikj loop below
//! [`GEMM_TILE_MIN_FLOPS`], a register-tiled kernel past it whose row loop
//! runs on the `le_pool` worker pool past [`GEMM_PAR_MIN_FLOPS`], with
//! bit-identical results on every path and at every pool width.

use crate::rng::Rng;
use crate::{LinalgError, Result};

/// FLOP count (`m·n·k`) from which products run the register-tiled
/// kernel instead of the ikj loop: below it the ikj loop's exact-zero skip
/// and lack of tile setup win, which unoptimized builds feel most.
const GEMM_TILE_MIN_FLOPS: usize = 1 << 15;
/// FLOP count past which the tiled kernel's row loop is dispatched on the
/// worker pool.
const GEMM_PAR_MIN_FLOPS: usize = 1 << 17;
/// Target FLOPs per parallel chunk of output rows (grain for the pool's
/// claiming cursor).
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

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
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

    /// Matrix product `self * rhs`, computed by the one product routine on
    /// `rhs`'s natural `(k, n)` layout.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        product(&self.data, self.rows, self.cols, rhs)
    }

    /// `self^T * rhs`: the product routine on a transposed copy of `self`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        product(&self.transpose().data, self.cols, self.rows, rhs)
    }

    /// `self * rhs^T`: the product routine on a transposed copy of `rhs`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        product(&self.data, self.rows, self.cols, &rhs.transpose())
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
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

    /// Max absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
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

/// The one product routine behind [`Matrix::matmul`],
/// [`Matrix::t_matmul`] and [`Matrix::matmul_t`]: `a * b` for an `(m, k)`
/// row-major slice `a` and a natural-layout `(k, n)` matrix `b`. Below
/// [`GEMM_TILE_MIN_FLOPS`] an ikj loop accumulates into each output row
/// and skips exact-zero `a` elements (dropout zeroes activations); past
/// it the register-tiled [`gemm_rm_into`] kernel runs. On
/// both paths every output element is one ascending-k `mul_add` chain from
/// 0.0 — the skip only leaves out `fma(0, b, s)` terms, which leave a
/// chain started at 0.0 unchanged for every finite `b` — so the two paths
/// agree to the bit with each other and with [`dot`].
fn product(a: &[f64], m: usize, k: usize, b: &Matrix) -> Result<Matrix> {
    let n = b.cols;
    let mut out = Matrix::zeros(m, n);
    if m * n * k >= GEMM_TILE_MIN_FLOPS {
        gemm_rm_into(a, m, k, b, &mut out.data)?;
        return Ok(out);
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (t, &ait) in a_row.iter().enumerate() {
            if ait == 0.0 { // lint:allow(float-hygiene): exact-zero sparsity skip, any other value must multiply
                continue;
            }
            let b_row = &b.data[t * n..(t + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o = ait.mul_add(bv, *o);
            }
        }
    }
    Ok(out)
}

/// Row-tile height of the natural-layout GEMM kernel: two independent
/// output rows share each streamed pass over a `b` row.
const GEMM_RM_MR: usize = 2;
/// Column-tile width of the natural-layout GEMM kernel: sixteen f64 lanes
/// (four AVX2 vectors) accumulate per output row. The 2×16 tile holds
/// eight accumulator vectors plus the four `b` vectors and a broadcast —
/// thirteen of the sixteen AVX registers — giving enough independent FMA
/// chains to hide the latency without spilling (wider row tiles measured
/// slower for exactly that reason).
const GEMM_RM_NR: usize = 16;
/// Padded column width of the narrow-output path: outputs with
/// `n < GEMM_RM_NR / 2` (e.g. a 3-wide regression head) are computed
/// through a zero-padded `(k, 8)` staging copy of `b` so the inner loop
/// stays a fixed-width vectorizable tile. Pad lanes accumulate
/// `fma(a, 0, s)` and are simply not copied out, so the real columns'
/// ascending-k chains are untouched — measured ~5× over a ragged scalar
/// tail on the 64→3 output layer.
const GEMM_RM_NARROW: usize = 8;

/// The register-tiled natural-layout GEMM kernel on raw row-major storage:
/// `out = a * b` where `a` is an `(m, k)` row-major slice, `b` keeps its
/// **natural** `(k, n)` layout (no transpose is ever materialized), and
/// `out` is the caller-owned `(m, n)` row-major output — the wide path
/// allocates nothing; narrow outputs (`n <` [`GEMM_RM_NARROW`]) stage one
/// small zero-padded copy of `b` per call. The loop nest is ikj over
/// [`GEMM_RM_MR`]×[`GEMM_RM_NR`] register tiles: for each `t` in `0..k`
/// the tile reads one contiguous sliver of `b`'s row `t` and feeds
/// [`GEMM_RM_MR`] independent accumulator rows, which the compiler
/// auto-vectorizes (the workspace forbids `unsafe`, so wide registers are
/// reached through codegen, not intrinsics). A ragged column tail
/// (`n % GEMM_RM_NR`) runs the same row-blocked accumulation over the
/// leftover lanes so mid-width shapes keep the cross-row ILP.
///
/// Every output element is accumulated in strictly ascending-`t` order
/// with one **fused multiply-add** per term (`f64::mul_add` — a single
/// rounding, exactly specified by IEEE 754, so the same bits on every
/// conforming host). All inner-product paths in this module use the same
/// contraction, so the result is **bit-identical** to [`dot`], to the ikj
/// loop of [`product`], and between the sequential path and the
/// pool-parallel path used past [`GEMM_PAR_MIN_FLOPS`] —
/// vector width changes how many independent column sums advance
/// together, never the order or rounding of any one sum.
fn gemm_rm_into(
    a: &[f64],
    m: usize,
    k: usize,
    b: &Matrix,
    out: &mut [f64],
) -> Result<()> {
    let n = b.cols;
    if a.len() != m * k || b.rows != k || out.len() != m * n {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm_rm_into",
            lhs: (m, k),
            rhs: b.shape(),
        });
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    let padded: Vec<f64>;
    let narrow = n < GEMM_RM_NARROW;
    if narrow {
        let mut bp = vec![0.0f64; k * GEMM_RM_NARROW];
        for t in 0..k {
            bp[t * GEMM_RM_NARROW..t * GEMM_RM_NARROW + n]
                .copy_from_slice(&b.data[t * n..(t + 1) * n]);
        }
        padded = bp;
    } else {
        padded = Vec::new();
    }
    let kernel = |row0: usize, rows_out: &mut [f64]| {
        if narrow {
            gemm_rm_rows_narrow(a, k, &padded, n, row0, rows_out);
        } else {
            gemm_rm_rows(a, k, &b.data, n, row0, rows_out);
        }
    };
    let flops = m * n * k.max(1);
    if flops >= GEMM_PAR_MIN_FLOPS {
        let rows_per_chunk = (GEMM_CHUNK_FLOPS / (n * k.max(1))).clamp(1, m);
        le_pool::par_for_chunks(out, rows_per_chunk * n, |start, chunk| {
            kernel(start / n, chunk)
        });
    } else {
        kernel(0, out);
    }
    Ok(())
}

/// Worker for [`gemm_rm_into`]: fill `out` (a whole-rows window of the
/// `(m, n)` result starting at absolute row `row0`) from `a` and the
/// natural-layout `b`. Split out so the sequential and pool-chunked paths
/// share one body.
fn gemm_rm_rows(a: &[f64], k: usize, b: &[f64], n: usize, row0: usize, out: &mut [f64]) {
    let rows = out.len() / n;
    let full = n / GEMM_RM_NR * GEMM_RM_NR;
    let mut r0 = 0;
    while r0 < rows {
        let mr = GEMM_RM_MR.min(rows - r0);
        let mut j0 = 0;
        while j0 < full {
            let mut acc = [[0.0f64; GEMM_RM_NR]; GEMM_RM_MR];
            for t in 0..k {
                let brow = &b[t * n + j0..t * n + j0 + GEMM_RM_NR];
                for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                    let av = a[(row0 + r0 + r) * k + t];
                    for (s, &bv) in accr.iter_mut().zip(brow.iter()) {
                        *s = av.mul_add(bv, *s);
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(mr) {
                out[(r0 + r) * n + j0..(r0 + r) * n + j0 + GEMM_RM_NR].copy_from_slice(accr);
            }
            j0 += GEMM_RM_NR;
        }
        if full < n {
            // Ragged column tail (covers every n < GEMM_RM_NR shape too):
            // same row-blocked ascending-t accumulation over the leftover
            // lanes, so even an n=3 output layer keeps `mr` independent
            // chains in flight.
            let rem = n - full;
            let mut acc = [[0.0f64; GEMM_RM_NR]; GEMM_RM_MR];
            for t in 0..k {
                let brow = &b[t * n + full..(t + 1) * n];
                for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                    let av = a[(row0 + r0 + r) * k + t];
                    for (s, &bv) in accr.iter_mut().zip(brow.iter()) {
                        *s = av.mul_add(bv, *s);
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(mr) {
                out[(r0 + r) * n + full..(r0 + r) * n + n].copy_from_slice(&accr[..rem]);
            }
        }
        r0 += mr;
    }
}

/// Narrow-output worker for [`gemm_rm_into`]: `bp` is the zero-padded
/// `(k, GEMM_RM_NARROW)` staging copy of `b`. The tile loop always runs
/// the fixed padded width (vectorizable); only the first `n` lanes of
/// each accumulator row are copied out, and pad lanes never touch them —
/// the real columns' ascending-k fma chains are bit-identical to the
/// generic worker's.
fn gemm_rm_rows_narrow(a: &[f64], k: usize, bp: &[f64], n: usize, row0: usize, out: &mut [f64]) {
    const NP: usize = GEMM_RM_NARROW;
    const MR: usize = 4; // scalar-free tile: more rows per pass hides fma latency
    let rows = out.len() / n;
    let mut r0 = 0;
    while r0 < rows {
        let mr = MR.min(rows - r0);
        let mut acc = [[0.0f64; NP]; MR];
        for (t, brow) in bp.chunks_exact(NP).enumerate() {
            for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                let av = a[(row0 + r0 + r) * k + t];
                for (s, &bv) in accr.iter_mut().zip(brow.iter()) {
                    *s = av.mul_add(bv, *s);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate().take(mr) {
            out[(r0 + r) * n..(r0 + r + 1) * n].copy_from_slice(&accr[..n]);
        }
        r0 += mr;
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

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
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
        ] {
            let mut a = Matrix::he_uniform(m, k, k, &mut rng);
            for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                if i % 5 == 2 {
                    *v *= 0.0;
                }
            }
            let b = Matrix::he_uniform(k, n, k, &mut rng);
            let bt = b.transpose();
            let results = [
                ("matmul", a.matmul(&b).unwrap()),
                ("t_matmul", a.transpose().t_matmul(&b).unwrap()),
                ("matmul_t", a.matmul_t(&bt).unwrap()),
            ];
            for (name, c) in &results {
                assert_eq!(c.shape(), (m, n), "{name} shape at ({m},{k},{n})");
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            c.get(i, j).to_bits(),
                            dot(a.row(i), bt.row(j)).to_bits(),
                            "{name} element ({i},{j}) differs at shape ({m},{k},{n})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_rm_handles_empty_and_mismatched_shapes() {
        let b = Matrix::zeros(4, 0);
        let mut out = [0.0f64; 0];
        gemm_rm_into(&[0.0; 8], 2, 4, &b, &mut out).unwrap();
        let b2 = Matrix::zeros(3, 2);
        let mut out2 = [0.0f64; 4];
        assert!(matches!(
            gemm_rm_into(&[0.0; 8], 2, 4, &b2, &mut out2),
            Err(LinalgError::ShapeMismatch { op: "gemm_rm_into", .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(9);
        let a = Matrix::he_uniform(3, 7, 3, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
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
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    fn slice_helpers() {
        assert!((dot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-12);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
