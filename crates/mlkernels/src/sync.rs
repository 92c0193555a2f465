//! The four synchronization models and shared parallel plumbing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poison-recovering access to [`std::sync::Mutex`].
///
/// The kernels treat a panicked worker as fatal to the run's statistics but
/// not to the process: the data under the lock is plain numeric state, so
/// recovery is always safe, and library code stays panic-free.
pub trait MutexExt<T> {
    /// Lock, recovering the guard if a previous holder panicked.
    fn plock(&self) -> MutexGuard<'_, T>;
    /// Consume the mutex and return its data, ignoring poison.
    fn into_data(self) -> T;
}

impl<T> MutexExt<T> for Mutex<T> {
    #[inline]
    fn plock(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    fn into_data(self) -> T {
        self.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The paper's four computation models for parallel iterative ML.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncModel {
    /// One shared model protected by a lock; workers take the lock for
    /// every update. Maximum consistency, maximum contention.
    Locking,
    /// The model is partitioned into as many shards as workers; shards
    /// rotate through the workers in a ring so each worker updates each
    /// shard once per epoch with exclusive ownership — consistency without
    /// a global lock (Harp/Petuum-style model rotation).
    Rotation,
    /// Bulk-synchronous: every worker updates a private replica, then a
    /// barrier + collective average merges them (the MPI allreduce
    /// pattern).
    Allreduce,
    /// Hogwild-style: a shared model in atomics, updated racily with no
    /// coordination. Maximum speed, bounded staleness.
    Asynchronous,
}

impl SyncModel {
    /// All four models, in the paper's order.
    pub const ALL: [SyncModel; 4] = [
        SyncModel::Locking,
        SyncModel::Rotation,
        SyncModel::Allreduce,
        SyncModel::Asynchronous,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            SyncModel::Locking => "locking",
            SyncModel::Rotation => "rotation",
            SyncModel::Allreduce => "allreduce",
            SyncModel::Asynchronous => "asynchronous",
        }
    }
}

/// An `f64` cell supporting lock-free atomic add via compare-exchange on
/// the bit pattern — the storage for Hogwild-style asynchronous updates.
#[derive(Debug)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// New cell holding `v`.
    pub fn new(v: f64) -> Self {
        Self {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Relaxed load. Hogwild reads tolerate staleness by design.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomic `+= delta` via CAS loop.
    #[inline]
    pub fn fetch_add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

/// A vector of atomic floats (a shared Hogwild model).
pub fn atomic_vec(init: &[f64]) -> Vec<AtomicF64> {
    init.iter().map(|&v| AtomicF64::new(v)).collect()
}

/// Snapshot an atomic vector into a plain one.
pub fn snapshot(v: &[AtomicF64]) -> Vec<f64> {
    v.iter().map(|a| a.load()).collect()
}

/// Convergence history of one kernel run.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Synchronization model used.
    pub model: SyncModel,
    /// Threads used.
    pub threads: usize,
    /// Objective value after each epoch (loss / inertia / negative
    /// log-likelihood — kernel-specific, lower is better).
    pub objective: Vec<f64>,
    /// Wall-clock seconds for the measured loop.
    pub seconds: f64,
}

impl KernelReport {
    /// Final objective value.
    pub fn final_objective(&self) -> f64 {
        self.objective.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Split `n` items into `parts` contiguous ranges of near-equal size.
pub fn partition(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn model_names_distinct() {
        let names: std::collections::HashSet<_> =
            SyncModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn atomic_f64_load_store() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn atomic_f64_concurrent_adds_lose_nothing() {
        // CAS-loop add is exact under contention (unlike racy read-add-write).
        let cell = Arc::new(AtomicF64::new(0.0));
        let threads = 8;
        let adds_per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..adds_per_thread {
                        c.fetch_add(1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(cell.load(), (threads * adds_per_thread) as f64);
    }

    #[test]
    fn atomic_vec_snapshot_roundtrip() {
        let v = atomic_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(snapshot(&v), vec![1.0, 2.0, 3.0]);
        v[1].fetch_add(0.5);
        assert_eq!(snapshot(&v), vec![1.0, 2.5, 3.0]);
    }

    #[test]
    fn partition_covers_everything_evenly() {
        let parts = partition(10, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], 0..4);
        assert_eq!(parts[1], 4..7);
        assert_eq!(parts[2], 7..10);
        // Exhaustive coverage.
        let total: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        // Sizes differ by at most one.
        let min = parts.iter().map(|r| r.len()).min().unwrap();
        let max = parts.iter().map(|r| r.len()).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn partition_more_parts_than_items() {
        let parts = partition(2, 5);
        let total: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(total, 2);
        assert_eq!(parts.len(), 5);
    }

    #[test]
    fn final_objective_is_the_last_epoch() {
        let r = KernelReport {
            model: SyncModel::Locking,
            threads: 2,
            objective: vec![10.0, 5.0, 1.0, 0.5],
            seconds: 1.0,
        };
        assert_eq!(r.final_objective(), 0.5);
    }
}
