//! Tolerance-based floating-point comparison.
//!
//! Exact `==` on floats is almost always a bug in numeric code — rounding
//! differences between algebraically equivalent evaluation orders break it
//! silently. The workspace lint (`le-lint`, rule `float-hygiene`) flags
//! exact comparisons and points here: use [`approx_eq`] in library code and
//! [`assert_close!`](crate::assert_close) in tests.

/// Default absolute tolerance for [`approx_eq`]: loose enough to absorb
/// accumulated rounding over the workspace's longest reductions, tight
/// enough to catch real divergence.
pub const DEFAULT_ABS_TOL: f64 = 1e-9;

/// Default relative tolerance for [`approx_eq`].
pub const DEFAULT_REL_TOL: f64 = 1e-9;

/// True when `a` and `b` are equal within a mixed absolute/relative
/// tolerance: `|a - b| <= max(abs_tol, rel_tol * max(|a|, |b|))`.
///
/// Two non-finite values compare equal only when they are the *same*
/// infinity; NaN never compares equal to anything (matching IEEE intent —
/// use explicit `is_nan()` checks for NaN plumbing).
pub fn approx_eq_with(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
    if a == b {
        // lint:allow(float-hygiene): bit-identical fast path, also the only
        // way same-signed infinities compare equal.
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs());
    diff <= abs_tol.max(rel_tol * scale)
}

/// [`approx_eq_with`] at the default tolerances.
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_with(a, b, DEFAULT_ABS_TOL, DEFAULT_REL_TOL)
}

/// Assert two float expressions are close, with a readable failure message.
///
/// `assert_close!(a, b)` uses the default tolerances;
/// `assert_close!(a, b, tol)` uses `tol` as both absolute and relative
/// tolerance. Intended for tests — it panics on failure like `assert_eq!`.
#[macro_export]
macro_rules! assert_close {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = ($a, $b);
        assert!(
            $crate::approx::approx_eq(a, b),
            "assert_close!({}, {}) failed: {a} vs {b} (|diff| = {})",
            stringify!($a),
            stringify!($b),
            (a - b).abs(),
        );
    }};
    ($a:expr, $b:expr, $tol:expr $(,)?) => {{
        let (a, b, tol) = ($a, $b, $tol);
        assert!(
            $crate::approx::approx_eq_with(a, b, tol, tol),
            "assert_close!({}, {}, {tol:e}) failed: {a} vs {b} (|diff| = {})",
            stringify!($a),
            stringify!($b),
            (a - b).abs(),
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_near_values() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(approx_eq(0.0, 1e-12));
        assert!(approx_eq(-0.0, 0.0));
    }

    #[test]
    fn relative_tolerance_scales() {
        // 1e9 vs 1e9 + 1.0: relative error 1e-9, at the edge of tolerance.
        assert!(approx_eq(1e9, 1e9 + 1.0));
        assert!(!approx_eq(1e9, 1e9 + 100.0));
    }

    #[test]
    fn non_finite_semantics() {
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY));
        assert!(!approx_eq(f64::NAN, f64::NAN));
        assert!(!approx_eq(f64::NAN, 0.0));
        assert!(!approx_eq(f64::INFINITY, 1e300));
    }

    #[test]
    fn assert_close_macro() {
        assert_close!(0.1 + 0.2, 0.3);
        assert_close!(1.0, 1.01, 0.1);
        let sum: f64 = (0..10).map(|i| i as f64 * 0.1).sum();
        assert_close!(sum, 4.5);
    }

    #[test]
    #[should_panic(expected = "assert_close!")]
    fn assert_close_macro_fails_loudly() {
        assert_close!(1.0, 2.0);
    }
}
