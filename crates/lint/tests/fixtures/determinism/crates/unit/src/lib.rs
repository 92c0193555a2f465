#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate.

/// Steps and times a fake kernel.
fn step() -> f64 {
    let t = std::time::Instant::now();
    t.elapsed().as_secs_f64()
}
