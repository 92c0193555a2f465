//! The metric registry: named instruments backed by sharded atomic cells.
//!
//! Threads are assigned a shard index round-robin on first record; every
//! snapshot merges shards in ascending shard index. All merged quantities
//! are integers, so the merge is exact, associative, and commutative —
//! the property `crates/obs/tests/properties.rs` exercises directly.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of per-thread shards per instrument. Threads beyond this share
/// shards (correctness is unaffected; only contention grows).
pub(crate) const N_SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's shard index, assigned round-robin on first use.
pub(crate) fn shard_index() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
        s.set(v);
        v
    })
}

/// A cache-line-aligned atomic cell, so shards of one instrument do not
/// false-share.
#[repr(align(64))]
pub(crate) struct Pad(AtomicU64);

impl Pad {
    fn zero() -> Self {
        Pad(AtomicU64::new(0))
    }
}

fn shards() -> [Pad; N_SHARDS] {
    std::array::from_fn(|_| Pad::zero())
}

/// Recover a mutex guard whether or not a holder panicked. Every critical
/// section in this crate (registry maps, trace rings and names) is a
/// handful of plain updates, so state stays consistent.
pub(crate) fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

struct CounterCore {
    cells: [Pad; N_SHARDS],
}

/// A monotonic event counter. Cheap to clone (shared core); recording is
/// one relaxed `fetch_add` on this thread's shard.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.cells[shard_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total, merged over shards in ascending shard index.
    pub fn value(&self) -> u64 {
        self.core
            .cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    fn reset(&self) {
        for c in &self.core.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

struct HistogramCore {
    /// Strictly increasing, finite upper bounds. Bucket `i` counts values
    /// `v <= bounds[i]` (and above the previous bound); the final bucket
    /// is the overflow bucket (including NaN).
    bounds: Vec<f64>,
    /// `N_SHARDS` rows of `bounds.len() + 1` bucket cells.
    cells: Vec<Vec<AtomicU64>>,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
    enabled: Arc<AtomicBool>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: f64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let b = self.bucket(v);
        self.core.cells[shard_index()][b].fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket `v` falls into: the first bound `>= v`, else overflow.
    /// NaN observations land in the overflow bucket.
    pub fn bucket(&self, v: f64) -> usize {
        if v.is_nan() {
            return self.core.bounds.len();
        }
        self.core.bounds.partition_point(|b| v > *b)
    }

    /// The registered upper bounds.
    pub fn bounds(&self) -> Vec<f64> {
        self.core.bounds.clone()
    }

    /// Per-bucket counts, merged over shards in ascending shard index.
    pub fn counts(&self) -> Vec<u64> {
        let n = self.core.bounds.len() + 1;
        let mut out = vec![0u64; n];
        for shard in &self.core.cells {
            for (acc, c) in out.iter_mut().zip(shard.iter()) {
                *acc = acc.wrapping_add(c.load(Ordering::Relaxed));
            }
        }
        out
    }

    /// The raw per-shard bucket counts, in shard-index order. Exposed so
    /// the conformance suite can verify that merging shards is associative
    /// and commutative (it is: bucket counts are integers under addition).
    pub fn shard_counts(&self) -> Vec<Vec<u64>> {
        self.core
            .cells
            .iter()
            .map(|shard| shard.iter().map(|c| c.load(Ordering::Relaxed)).collect())
            .collect()
    }

    /// Total observation count.
    pub fn total(&self) -> u64 {
        self.counts().iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    fn reset(&self) {
        for shard in &self.core.cells {
            for c in shard {
                c.store(0, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

pub(crate) struct SpanCore {
    pub(crate) count: [Pad; N_SHARDS],
    pub(crate) total_ns: [Pad; N_SHARDS],
    /// Longest single duration (ns); 0 until the first record.
    pub(crate) max_ns: AtomicU64,
    /// Shortest single duration (ns); `u64::MAX` until the first record.
    pub(crate) min_ns: AtomicU64,
    /// Deepest nesting level this span was entered at (1 = top level).
    pub(crate) max_depth: AtomicU64,
}

/// A named hierarchical timer. Enter with [`Span::enter`] (records on
/// drop) or [`Span::enter_timed`] (returns the elapsed seconds from
/// [`TimedSpan::finish_secs`]); external measurements can be folded in
/// with [`Span::record_ns`].
#[derive(Clone)]
pub struct Span {
    pub(crate) core: Arc<SpanCore>,
    pub(crate) enabled: Arc<AtomicBool>,
}

impl Span {
    /// True when the owning registry currently records.
    #[inline]
    pub fn recording(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Fold an externally measured duration into this span at the current
    /// nesting depth (used by the bench harness, which owns its own
    /// clock reads).
    pub fn record_ns(&self, ns: u64) {
        self.record_at_depth(ns, crate::span::depth_for_record());
    }

    pub(crate) fn record_at_depth(&self, ns: u64, depth: u64) {
        if !self.recording() {
            return;
        }
        let s = shard_index();
        self.core.count[s].0.fetch_add(1, Ordering::Relaxed);
        self.core.total_ns[s].0.fetch_add(ns, Ordering::Relaxed);
        self.core.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.core.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.core.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Times this span was recorded.
    pub fn count(&self) -> u64 {
        self.core
            .count
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Total recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.core
            .total_ns
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Total recorded time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns() as f64 * 1e-9
    }

    /// Deepest nesting level recorded (0 if never recorded).
    pub fn max_depth(&self) -> u64 {
        self.core.max_depth.load(Ordering::Relaxed)
    }

    pub(crate) fn min_ns_raw(&self) -> u64 {
        self.core.min_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn max_ns_raw(&self) -> u64 {
        self.core.max_ns.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for c in &self.core.count {
            c.0.store(0, Ordering::Relaxed);
        }
        for c in &self.core.total_ns {
            c.0.store(0, Ordering::Relaxed);
        }
        self.core.max_ns.store(0, Ordering::Relaxed);
        self.core.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.core.max_depth.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, Span>,
}

/// A set of named instruments. Production code uses the process-global
/// registry behind [`crate::global`] and the `span!`/`counter!` macros;
/// tests construct private registries to isolate state.
pub struct Registry {
    inner: Mutex<Inner>,
    enabled: Arc<AtomicBool>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh registry with recording enabled.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A fresh registry with recording set as given.
    pub fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            enabled: Arc::new(AtomicBool::new(enabled)),
        }
    }

    /// Turn recording on or off. Registration and snapshots work either
    /// way; a disabled registry's instruments drop every record after a
    /// single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = relock(self.inner.lock());
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                core: Arc::new(CounterCore { cells: shards() }),
                enabled: Arc::clone(&self.enabled),
            })
            .clone()
    }

    /// Get or register the histogram `name` with the given upper bounds.
    /// Bounds are sanitized (non-finite dropped, sorted, deduplicated);
    /// if the name already exists the *first* registration's bounds win
    /// and the argument is ignored.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut inner = relock(self.inner.lock());
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| {
                let mut b: Vec<f64> = bounds.iter().copied().filter(|v| v.is_finite()).collect();
                b.sort_by(|x, y| x.total_cmp(y));
                b.dedup_by(|x, y| x.total_cmp(y).is_eq());
                let n = b.len() + 1;
                Histogram {
                    core: Arc::new(HistogramCore {
                        bounds: b,
                        cells: (0..N_SHARDS)
                            .map(|_| (0..n).map(|_| AtomicU64::new(0)).collect())
                            .collect(),
                    }),
                    enabled: Arc::clone(&self.enabled),
                }
            })
            .clone()
    }

    /// Get or register the span `name`.
    pub fn span(&self, name: &str) -> Span {
        let mut inner = relock(self.inner.lock());
        inner
            .spans
            .entry(name.to_string())
            .or_insert_with(|| Span {
                core: Arc::new(SpanCore {
                    count: shards(),
                    total_ns: shards(),
                    max_ns: AtomicU64::new(0),
                    min_ns: AtomicU64::new(u64::MAX),
                    max_depth: AtomicU64::new(0),
                }),
                enabled: Arc::clone(&self.enabled),
            })
            .clone()
    }

    /// Zero every registered instrument, keeping the registrations (and
    /// any cached handles) valid. Intended for tests and between bench
    /// entries.
    pub fn reset(&self) {
        let inner = relock(self.inner.lock());
        for c in inner.counters.values() {
            c.reset();
        }
        for h in inner.histograms.values() {
            h.reset();
        }
        for s in inner.spans.values() {
            s.reset();
        }
    }

    pub(crate) fn with_inner<R>(
        &self,
        f: impl FnOnce(
            &BTreeMap<String, Counter>,
            &BTreeMap<String, Histogram>,
            &BTreeMap<String, Span>,
        ) -> R,
    ) -> R {
        let inner = relock(self.inner.lock());
        f(&inner.counters, &inner.histograms, &inner.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_and_value() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        let again = reg.counter("c");
        assert_eq!(again.value(), 42, "same name shares the core");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::with_enabled(false);
        let c = reg.counter("c");
        c.add(5);
        assert_eq!(c.value(), 0);
        reg.set_enabled(true);
        c.add(5);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[1.0, 10.0, 100.0]);
        // v <= bound lands in that bound's bucket.
        assert_eq!(h.bucket(0.5), 0);
        assert_eq!(h.bucket(1.0), 0);
        assert_eq!(h.bucket(1.0000001), 1);
        assert_eq!(h.bucket(10.0), 1);
        assert_eq!(h.bucket(99.0), 2);
        assert_eq!(h.bucket(1e9), 3);
        assert_eq!(h.bucket(f64::NAN), 3);
        for v in [0.5, 1.0, 5.0, 1e9, -3.0] {
            h.record(v);
        }
        assert_eq!(h.counts(), vec![3, 1, 0, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_bounds_sanitized() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[10.0, 1.0, f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(h.bounds(), vec![1.0, 10.0]);
        // Re-registration with different bounds is ignored.
        let h2 = reg.histogram("h", &[5.0]);
        assert_eq!(h2.bounds(), vec![1.0, 10.0]);
    }

    #[test]
    fn span_manual_record_and_stats() {
        let reg = Registry::new();
        let s = reg.span("s");
        s.record_ns(10);
        s.record_ns(30);
        s.record_ns(20);
        assert_eq!(s.count(), 3);
        assert_eq!(s.total_ns(), 60);
        assert_eq!(s.max_ns_raw(), 30);
        assert_eq!(s.min_ns_raw(), 10);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let s = reg.span("s");
        let h = reg.histogram("h", &[1.0]);
        c.add(7);
        s.record_ns(5);
        h.record(0.5);
        reg.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(s.count(), 0);
        assert_eq!(s.min_ns_raw(), u64::MAX);
        assert_eq!(h.total(), 0);
        c.inc();
        assert_eq!(c.value(), 1, "handle still live after reset");
    }

    #[test]
    fn shard_index_is_stable_per_thread() {
        let a = shard_index();
        let b = shard_index();
        assert_eq!(a, b);
        assert!(a < N_SHARDS);
    }
}
