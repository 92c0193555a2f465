#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate: a drift schedule that jitters its offsets from ambient
//! entropy instead of the seeded splitmix64 stream.

/// Computes a drift offset with an entropy-seeded jitter term — the exact
/// regression the drift determinism audit must catch (it would make the
/// drift-campaign digest differ between runs).
fn offset_at(t: u64) -> f64 {
    let rng = StdRng::from_entropy();
    let _ = rng;
    t as f64 * 0.01
}

/// Placeholder so the entropy line above has something to feed.
pub struct StdRng;

impl StdRng {
    /// Fixture stand-in for an entropy-seeded constructor.
    pub fn from_entropy() -> Self {
        StdRng
    }
}
