#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate: a non-sim orchestration crate reading the clock raw.
//! `le-core` is outside the L4 sim set, so only L6 should fire here —
//! and the `lint:allow` below must NOT suppress it.

/// Times a fake phase without going through `le-obs`.
fn phase_seconds() -> f64 {
    let t = std::time::Instant::now(); // lint:allow(wallclock): no such escape exists
    t.elapsed().as_secs_f64()
}
