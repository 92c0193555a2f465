#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `le-obs` — the workspace's zero-dependency observability layer.
//!
//! The paper's effective-speedup accounting (§III-D) only means something
//! if wall-clock can be attributed to the right phase — simulate vs. train
//! vs. infer vs. schedule. This crate is the single place where the
//! workspace reads the wall clock (enforced by le-lint's `wallclock` rule):
//! every other crate records timings through the guard APIs here, so phase
//! telemetry and speedup accounting are fed by the *same* measurement and
//! cannot disagree.
//!
//! # Instruments
//!
//! * **Spans** ([`Span`], [`span!`], [`timed_span!`]) — hierarchical RAII
//!   timers. A [`SpanGuard`] records duration, call count, min/max, and the
//!   maximum nesting depth at which the span ran; a [`TimedSpan`] also
//!   *returns* the elapsed seconds so callers (the hybrid engine's
//!   accounting) consume the identical measurement that lands in telemetry.
//! * **Counters** ([`Counter`], [`counter!`]) — monotonic `u64` event
//!   counts.
//! * **Histograms** ([`Histogram`]) — fixed-bucket `u64` counts over
//!   caller-supplied upper bounds (used for simulated-time latency
//!   distributions in `le-sched`).
//!
//! # Determinism by construction
//!
//! Every instrument stores its data in a fixed array of per-thread-shard
//! atomic cells; threads are assigned shard indices round-robin on first
//! use, and snapshots merge shards in ascending shard-index order. All
//! merged quantities are integers (counts, nanoseconds), so merging is
//! exact and order-independent: counter values and histogram bucket counts
//! are bit-identical at any `LE_POOL_THREADS` setting — only durations
//! vary run to run. Snapshot output lists metrics in lexicographic name
//! order, so two snapshots of the same workload differ only in duration
//! fields.
//!
//! # Cost model
//!
//! Recording is allocation-free: handles are registered once (the macros
//! cache them in a `OnceLock`) and each record is one or two relaxed
//! atomic RMWs on a pre-registered cell. When disabled via `LE_OBS=0`
//! every record degenerates to a single relaxed load and a branch, and
//! span guards never read the clock.
//!
//! # Export
//!
//! [`write_snapshot`] renders the global registry to
//! `results/OBS_<run>.json` (plus a `results/OBS_<run>.txt` text summary)
//! at the workspace root — next to the `BENCH_*.json` files the timing
//! harness writes.
//!
//! # Causal tracing
//!
//! The aggregate instruments above lose *which* call caused which: for
//! that, the [`trace`] module keeps a per-thread event journal with
//! `trace_id`/`parent_span_id` causal links ([`trace_root!`],
//! [`trace_span!`], [`trace_instant!`]), propagated across threads by
//! `le-pool`, and exported as Chrome `trace_event` JSON
//! (`results/TRACE_<run>.json`, loadable in Perfetto) plus a
//! deterministic canonical timeline. The `obsctl` binary in this crate
//! renders either artifact and gates regressions (`obsctl diff`).

pub mod diff;
pub mod json;
mod registry;
mod snapshot;
mod span;
pub mod trace;

pub use registry::{Counter, Histogram, Registry, Span};
pub use snapshot::{CounterSnap, HistogramSnap, Snapshot, SpanSnap};
pub use span::{current_depth, SpanGuard, Stopwatch, TimedSpan};
pub use trace::write_trace;

use std::sync::OnceLock;

/// The process-global registry. Created on first use; enabled unless the
/// `LE_OBS` environment variable is set to `0`, `false`, or `off` (read
/// once, at creation). Tests flip recording with [`Registry::set_enabled`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let disabled = matches!(
            std::env::var("LE_OBS").ok().as_deref().map(str::trim),
            Some("0") | Some("false") | Some("off")
        );
        Registry::with_enabled(!disabled)
    })
}

/// Snapshot the global registry (sorted, deterministic content — see the
/// crate docs).
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Write the global registry to `results/OBS_<run>.json` (and a text
/// summary `results/OBS_<run>.txt`) at the workspace root. Returns the
/// JSON path. Never panics; IO problems come back as `Err`.
pub fn write_snapshot(run: &str) -> std::io::Result<std::path::PathBuf> {
    global().write_snapshot(run)
}

/// Enter a span on the global registry: `let _g = le_obs::span!("x.y");`.
///
/// The handle is registered once per call site and cached in a static;
/// subsequent hits cost one atomic load before the guard is created. The
/// guard records on drop; when recording is disabled it never reads the
/// clock.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __LE_OBS_SPAN: ::std::sync::OnceLock<$crate::Span> = ::std::sync::OnceLock::new();
        __LE_OBS_SPAN
            .get_or_init(|| $crate::global().span($name))
            .enter()
    }};
}

/// Enter an always-timing span on the global registry. Unlike [`span!`],
/// the returned [`TimedSpan`] reads the clock even when recording is
/// disabled, because its caller consumes the measurement:
/// `let sp = le_obs::timed_span!("hybrid.simulate"); …;
/// accounting.record(sp.finish_secs());`. It records to the registry only
/// on [`TimedSpan::finish_secs`] — a guard dropped on an error path leaves
/// no trace, exactly like the accounting it feeds.
#[macro_export]
macro_rules! timed_span {
    ($name:expr) => {{
        static __LE_OBS_SPAN: ::std::sync::OnceLock<$crate::Span> = ::std::sync::OnceLock::new();
        __LE_OBS_SPAN
            .get_or_init(|| $crate::global().span($name))
            .enter_timed()
    }};
}

/// A cached counter handle on the global registry:
/// `le_obs::counter!("le_pool.jobs").inc();`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __LE_OBS_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
            ::std::sync::OnceLock::new();
        __LE_OBS_COUNTER.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Open a **root** trace span: a fresh `trace_id` starts here, and every
/// span/instant recorded below it (on any thread, via `le-pool`'s context
/// propagation) carries that id. `let _t = le_obs::trace_root!("hybrid.query");`
///
/// The interned name id is cached per call site; the guard records a
/// `Begin` event now and an `End` event on drop. Inert under `LE_OBS=0`.
#[macro_export]
macro_rules! trace_root {
    ($name:expr) => {{
        static __LE_TRACE_NAME: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::trace::enter_span(
            *__LE_TRACE_NAME.get_or_init(|| $crate::trace::intern_name($name)),
            true,
        )
    }};
}

/// Open a child trace span under the current thread context (or a new
/// root if none is open): `let _t = le_obs::trace_span!("hybrid.simulate");`
/// Records `Begin` now, `End` on drop; inert under `LE_OBS=0`.
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {{
        static __LE_TRACE_NAME: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::trace::enter_span(
            *__LE_TRACE_NAME.get_or_init(|| $crate::trace::intern_name($name)),
            false,
        )
    }};
}

/// Record an instant event under the current span:
/// `le_obs::trace_instant!("sched.task.complete");` Inert under `LE_OBS=0`.
#[macro_export]
macro_rules! trace_instant {
    ($name:expr) => {{
        static __LE_TRACE_NAME: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::trace::mark(*__LE_TRACE_NAME.get_or_init(|| $crate::trace::intern_name($name)))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }

    #[test]
    fn macros_register_and_record() {
        let c = counter!("le_obs.test.macro_counter");
        let before = c.value();
        c.inc();
        c.add(2);
        assert_eq!(c.value(), before + 3);
        {
            let _g = span!("le_obs.test.macro_span");
        }
        let snap = snapshot();
        assert!(snap.span("le_obs.test.macro_span").is_some());
        assert!(snap.counter("le_obs.test.macro_counter").is_some());
    }

    #[test]
    fn timed_span_returns_elapsed_even_when_disabled() {
        let reg = Registry::with_enabled(false);
        let sp = reg.span("t");
        let guard = sp.enter_timed();
        let secs = guard.finish_secs();
        assert!(secs >= 0.0);
        assert_eq!(sp.count(), 0, "disabled registry must not record");
    }
}
