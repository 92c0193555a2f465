#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate.

fn ok() {}
