#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixture crate: a non-`le-obs` crate poking the trace journal backends
//! directly instead of going through the guard macros. Every raw call
//! below must trip L7, and the `lint:allow` must NOT suppress it.

/// Drives the journal raw — three L7 findings expected in this body.
fn sneaky_trace(name_id: u32) {
    le_obs::trace::set_enabled(true); // lint:allow(trace-hygiene): no such escape exists
    let _guard = le_obs::trace::enter_span(name_id, true);
    le_obs::trace::mark(name_id);
}

/// The guard macros are the sanctioned surface; these must NOT fire.
fn sanctioned_trace() {
    let _root = le_obs::trace_root!("fixture.root");
    let _span = le_obs::trace_span!("fixture.child");
    le_obs::trace_instant!("fixture.mark");
    let ctx = le_obs::trace::current_ctx();
    let _adopted = ctx.adopt();
}

#[cfg(test)]
mod tests {
    /// Tests may reset and snapshot the journal freely.
    #[test]
    fn test_code_is_exempt() {
        le_obs::trace::reset();
        le_obs::trace::set_enabled(false);
    }
}
