#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate.

/// Adds one.
fn add_one(x: f64) -> f64 {
    x + 1.0
}

/// Uses the in-tree dependency the manifest declares.
fn identity(n: usize) -> le_linalg::Matrix {
    le_linalg::Matrix::identity(n)
}

/// Checked head with a justified allow.
fn head(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    *v.first().unwrap() // lint:allow(no-panic): emptiness checked above
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_fine_in_tests() {
        assert!((0.1_f64 + 0.2 - 0.3).abs() < 1e-12);
        Some(1).unwrap();
    }
}
