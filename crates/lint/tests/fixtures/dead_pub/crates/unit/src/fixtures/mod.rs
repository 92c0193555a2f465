//! A source module that happens to be called `fixtures`: it is code, and
//! its items are checked like any other.

/// Named nowhere else: dead.
pub fn in_src_fixtures() -> u32 {
    6
}
