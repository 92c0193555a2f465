#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over small fixed dimensions (k in 0..3, stencils) are the
// clearer idiom in numeric kernels; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]

//! `le-mlkernels` — parallel machine-learning computation models (§III-A).
//!
//! The paper: "We show that parallel iterative algorithms can be categorized
//! into four types of computation models (a) Locking, (b) Rotation,
//! (c) Allreduce, (d) Asynchronous, based on the synchronization patterns
//! and the effectiveness of the model parameter update", studied over
//! "Gibbs Sampling, Stochastic Gradient Descent (SGD), Cyclic Coordinate
//! Descent (CCD) and K-means clustering".
//!
//! This crate implements exactly that matrix — four kernels × four
//! synchronization models — from scratch on `std::thread` scoped workers,
//! `std::sync` locks, and atomics (the workspace is hermetic: no external
//! crates anywhere, see `le-lint` rule L1):
//!
//! * [`sync`] — the [`sync::SyncModel`] taxonomy, an atomic `f64` cell for
//!   Hogwild-style updates, and shared convergence-history plumbing.
//! * [`sgd`] — logistic-regression SGD.
//! * [`kmeans`] — Lloyd's algorithm with per-model coordination of the
//!   centroid update.
//! * [`gibbs`] — a collapsed Gibbs sampler for a 1-D Gaussian mixture.
//! * [`ccd`] — cyclic coordinate descent for matrix factorization, where
//!   model **Rotation** is the natural scheme.
//!
//! Experiment E7 sweeps all kernels × models × thread counts and compares
//! convergence-versus-time, reproducing the qualitative claim that
//! "optimized collective communication can improve the model update speed,
//! thus allowing the model to converge faster".

pub mod ccd;
pub mod collective;
pub mod gibbs;
pub mod kmeans;
pub mod sgd;
pub mod sync;

pub use sync::{KernelReport, MutexExt, SyncModel};

/// Errors from the kernels crate.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Invalid configuration.
    InvalidConfig(String),
    /// Dataset shape problem.
    Shape(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::InvalidConfig(s) => write!(f, "invalid config: {s}"),
            KernelError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, KernelError>;
