#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate: a serving frontend that seeds its batch formation from
//! ambient entropy instead of the seeded schedule.

/// Picks a wave size from ambient entropy — the exact regression the
/// serving determinism audit must catch.
fn wave_size() -> usize {
    let rng = StdRng::from_entropy();
    let _ = rng;
    8
}

/// Placeholder so the entropy line above has something to feed.
pub struct StdRng;

impl StdRng {
    /// Fixture stand-in for an entropy-seeded constructor.
    pub fn from_entropy() -> Self {
        StdRng
    }
}
