//! Fixture crate without headers.

fn ok() {}
