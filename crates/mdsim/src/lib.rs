#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over small fixed dimensions (k in 0..3, stencils) are the
// clearer idiom in numeric kernels; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]

//! `le-mdsim` — the molecular-dynamics substrate (§II-C).
//!
//! The paper's flagship MLaroundHPC example (refs \[26\], \[9\]) learns the
//! outputs of *nanoconfinement* simulations: ions of valency `z_p`/`z_n`,
//! diameter `d`, at salt concentration `c`, confined between two planar
//! walls a distance `h` apart; the quantities of interest are the contact,
//! mid-plane, and peak ionic densities. This crate implements that
//! simulation end to end, from scratch:
//!
//! * [`system`] — particle storage and the slab simulation box (periodic in
//!   x/y, walls in z).
//! * [`forces`] — truncated-shifted Lennard-Jones, screened-Coulomb
//!   (Yukawa) electrostatics, and LJ 9-3 confining walls.
//! * [`celllist`] — linked-cell neighbor search making force evaluation
//!   O(N).
//! * [`integrate`] — velocity-Verlet and Langevin (BAOAB-splitting)
//!   integrators with kinetic/potential energy tracking.
//! * [`sample`] — z-density profiles with block averaging, contact/mid/peak
//!   extraction, autocorrelation-aware sampling (§III-D blocking).
//! * [`nanoconfinement`] — the full scenario: parameters → simulation →
//!   [`nanoconfinement::DensityOutputs`]; this is the "expensive ground
//!   truth" that surrogates learn in E2/E3/E5.
//! * [`reference`] — a deliberately expensive analytic many-body potential
//!   standing in for DFT (the substitution documented in DESIGN.md), used
//!   to train the Behler–Parrinello network of E6.
//! * [`bp`] — Behler–Parrinello symmetry functions and the per-atom NN
//!   potential (paper refs \[30\]–\[33\]).
//! * [`solvent`] — explicit-solvent cost decomposition and the NN-implicit
//!   solvent substitution of E10.

pub mod bp;
pub mod celllist;
pub mod forces;
pub mod integrate;
pub mod nanoconfinement;
pub mod reference;
pub mod sample;
pub mod solvent;
pub mod system;

pub use nanoconfinement::{DensityOutputs, NanoParams, NanoSim, SimConfig};
pub use system::{SlabBox, System};

/// Errors from the MD substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MdError {
    /// A physical parameter is outside its valid range.
    InvalidParam(String),
    /// The integration diverged (NaN/inf or runaway energy).
    Unstable {
        /// Step at which divergence was detected.
        step: usize,
        /// What blew up.
        reason: String,
    },
    /// Internal shape/size mismatch.
    Internal(String),
}

impl std::fmt::Display for MdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdError::InvalidParam(s) => write!(f, "invalid parameter: {s}"),
            MdError::Unstable { step, reason } => {
                write!(f, "simulation unstable at step {step}: {reason}")
            }
            MdError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for MdError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MdError>;

/// Central-difference forces `−∂E/∂r` of `energy` at `pos`: 6N energy
/// evaluations, the oracle the unit tests check forces against.
#[cfg(test)]
pub(crate) fn numerical_forces(
    pos: &[system::Vec3],
    eps: f64,
    energy: impl Fn(&[system::Vec3]) -> f64,
) -> Vec<system::Vec3> {
    let mut forces = vec![[0.0; 3]; pos.len()];
    let mut work = pos.to_vec();
    for i in 0..pos.len() {
        for k in 0..3 {
            work[i][k] = pos[i][k] + eps;
            let e_hi = energy(&work);
            work[i][k] = pos[i][k] - eps;
            let e_lo = energy(&work);
            work[i][k] = pos[i][k];
            forces[i][k] = -(e_hi - e_lo) / (2.0 * eps);
        }
    }
    forces
}
