#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate: L10 `dead-pub` findings. Exactly three items are dead:
//! `fixtures::in_src_fixtures`, `only_own_tests` and `NAMED_ONLY_IN_DOCS`.

mod fixtures;

/// Called by the binary target: alive.
pub fn called_by_bin() -> u32 {
    1
}

/// Called by this file's own non-test code: alive.
pub fn used_here() -> u32 {
    2
}

/// Only this file's unit tests call it: dead.
pub fn only_own_tests() -> u32 {
    used_here() + 1
}

/// Only another file's test calls it: alive.
pub fn used_by_other_test() -> u32 {
    4
}

/// Read by the benchmark that builds against this crate: alive.
pub static USED_BY_BENCH: u32 = 5;

/// Named only in docs and strings, like `NAMED_ONLY_IN_DOCS`: dead.
pub const NAMED_ONLY_IN_DOCS: &str = "NAMED_ONLY_IN_DOCS";

/// Kept on purpose behind an escape: silent.
pub fn kept_for_callers_elsewhere() {} // lint:allow(dead-pub): fixture escape

/// Restricted visibility is not public surface: silent.
pub(crate) fn restricted() {}

#[cfg(test)]
mod tests {
    #[test]
    fn own_test() {
        assert_eq!(super::only_own_tests(), 3);
    }
}
