#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate: `le-linalg` is used here and `le-obs` by a test;
//! `le-pool` is named only in this comment (le_pool) and a string, and the
//! dev-dependency `le-nn` nowhere. Both of those edges must trip L9.

/// Uses the linear-algebra dependency.
pub fn identity(n: usize) -> le_linalg::Matrix {
    let _label = "le_pool::global()";
    le_linalg::Matrix::identity(n)
}
