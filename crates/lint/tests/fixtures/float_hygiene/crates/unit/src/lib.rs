#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate.

/// Converged?
fn converged(delta: f64) -> bool {
    delta == 0.0
}
