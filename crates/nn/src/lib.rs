#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over small fixed dimensions (k in 0..3, stencils) are the
// clearer idiom in numeric kernels; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]

//! `le-nn` — a from-scratch feed-forward neural-network library.
//!
//! The paper's ML loads are small multi-layer perceptrons — e.g. the
//! nanoconfinement surrogate (5 inputs → 3 density outputs, ref \[26\]) and
//! the MLautotuning net (6 inputs → hidden 30 → hidden 48 → 3 outputs,
//! ref \[9\]). This crate implements exactly that function class with:
//!
//! * dense layers with Xavier initialization ([`layer`]),
//! * tanh hidden layers and an identity output,
//! * inverted dropout usable at inference time for MC-dropout UQ (§III-B),
//! * the MSE loss ([`loss`]),
//! * the Adam optimizer ([`optimizer`]),
//! * one fused, allocation-free training step on a preallocated arena
//!   ([`arena`]),
//! * a mini-batch trainer with shuffling, validation split, early
//!   stopping and a global-norm gradient clip ([`train`]),
//! * feature/target standardization ([`scaler`]),
//! * the standardized regressor every surrogate uses: z-score, fit,
//!   predict through the fused engine of [`batch`], un-scale
//!   ([`regressor`]).
//!
//! Determinism: every stochastic element (init, shuffling, dropout masks)
//! is driven by an explicit [`le_linalg::Rng`].

pub mod arena;
pub mod batch;
pub mod layer;
pub mod loss;
pub mod math;
pub mod model;
pub mod optimizer;
pub mod regressor;
pub mod scaler;
pub mod train;

pub use arena::TrainArena;
pub use batch::BatchScratch;
pub use model::{Mlp, MlpConfig};
pub use regressor::Regressor;
pub use scaler::Scaler;
pub use train::{TrainConfig, TrainReport, Trainer};

/// Errors produced by the neural-network crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Input/target shapes do not match the network or each other.
    Shape(String),
    /// Invalid hyperparameter (e.g. dropout rate outside [0, 1)).
    InvalidConfig(String),
    /// Training data holds a NaN or an infinity.
    NonFinite(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::Shape(s) => write!(f, "shape error: {s}"),
            NnError::InvalidConfig(s) => write!(f, "invalid config: {s}"),
            NnError::NonFinite(s) => write!(f, "non-finite training data: {s}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
