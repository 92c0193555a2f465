#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over small fixed dimensions (k in 0..3, stencils) are the
// clearer idiom in numeric kernels; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]

//! `le-linalg` — the numeric substrate of the *learning-everywhere* workspace.
//!
//! Provides exactly the dense linear algebra, random-number generation, and
//! statistics that the rest of the workspace needs, with no external
//! dependencies:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the operations used by
//!   the neural-network crate (GEMM, transpose-multiplies, element-wise maps).
//! * [`rng`] — deterministic, splittable random number generation
//!   ([`rng::Xoshiro256`], seeded via [`rng::SplitMix64`]) with uniform,
//!   Gaussian (Box–Muller), exponential and integer-range sampling.
//! * [`stats`] — means, variances, quantiles, autocorrelation, RMSE/MAE/R²,
//!   and online (Welford) accumulators.
//! * [`solve`] — small dense solvers (Gaussian elimination with partial
//!   pivoting, Cholesky) used by calibration and least-squares baselines.
//! * [`Fnv`] — the FNV-1a digest campaigns and golden tests fold their
//!   observable behaviour into.
//! * [`approx`] — tolerance-based float comparison ([`approx::approx_eq`],
//!   [`assert_close!`]) backing the workspace's `float-hygiene` lint rule.
//!
//! Everything is deterministic given a seed; nothing allocates in hot loops
//! beyond what the caller hands in.

pub mod approx;
pub mod fnv;
pub mod matrix;
pub mod rng;
pub mod solve;
pub mod stats;

pub use fnv::Fnv;
pub use matrix::Matrix;
pub use rng::Rng;

/// Workspace-wide numeric error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// The system is singular (or not positive definite for Cholesky).
    Singular,
    /// An argument was empty where data is required.
    Empty,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular => write!(f, "matrix is singular or not positive definite"),
            LinalgError::Empty => write!(f, "empty input where data is required"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
