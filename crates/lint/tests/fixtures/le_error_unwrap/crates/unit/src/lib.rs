#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate: L8 `le-error-unwrap` findings.

/// Swallows the engine's typed error — the L8 hit (the L2 allow keeps the
/// rule isolation clean; L8 fires regardless).
fn bad(engine: &mut Engine, x: &[f64]) -> f64 {
    engine.query(x).unwrap().output[0] // lint:allow(no-panic): fixture isolates L8
}

/// Handled properly: no finding.
fn good(engine: &mut Engine, x: &[f64]) -> Option<f64> {
    engine.query(x).ok().map(|r| r.output[0])
}

/// Suppressed with the L8 escape: no finding.
fn allowed(engine: &mut Engine, x: &[f64]) -> f64 {
    engine.query(x).unwrap().output[0] // lint:allow(le-error-unwrap, no-panic): input validated above
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let mut engine = Engine::default();
        let _ = engine.query(&[0.0]).unwrap();
    }
}
