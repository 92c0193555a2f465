#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate.

/// Unchecked head.
fn head(v: &[f64]) -> f64 {
    *v.first().unwrap()
}
