//! The seq-ordered MPMC ingress ring.
//!
//! Clients are handed *pre-assigned* global sequence numbers (client `c`
//! of `C` owns `c, c + C, c + 2C, …`), so the set of in-flight requests
//! at any instant is a contiguous window of the logical stream. The queue
//! is a bounded reorder ring of `capacity` slots — one small mutex per
//! slot, so concurrent producers land on disjoint locks and the hot path
//! performs no allocation — plus one control mutex holding the window
//! base for blocking flow control:
//!
//! * a producer publishing `seq` parks (condvar, cold path) while
//!   `seq >= base + capacity` — saturation back-pressures *submission*
//!   without dropping or reordering anything;
//! * the single consumer takes slot `base % capacity` as soon as it is
//!   filled and advances `base`, yielding requests in strict sequence
//!   order no matter how the producer threads interleave.
//!
//! Deadlock freedom under saturation: the producer owning `base` is by
//! definition inside the window, so it can always publish, and the
//! consumer can always advance. Every request is delivered exactly once;
//! `pop` returns `None` only after every registered producer called
//! [`IngressQueue::producer_done`] and the ring is drained.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Recover a usable guard from a poisoned lock: the queue holds plain
/// data, so the invariant cannot be torn by an unwinding holder.
pub(crate) fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Window base + liveness, behind the control mutex.
struct State {
    /// The next sequence number the consumer will deliver.
    base: u64,
    /// Producers registered and not yet done.
    producers: usize,
}

/// Bounded seq-ordered MPMC ingress queue (see module docs).
pub struct IngressQueue<T> {
    slots: Vec<Mutex<Option<T>>>,
    state: Mutex<State>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> IngressQueue<T> {
    /// A ring of `capacity` slots (the saturation window). `capacity`
    /// must be at least 1.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            state: Mutex::new(State {
                base: 0,
                producers: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// The saturation window size.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Announce a producer thread. Must be balanced by
    /// [`IngressQueue::producer_done`].
    pub fn register_producer(&self) {
        relock(self.state.lock()).producers += 1;
    }

    /// A producer finished submitting; when the last one leaves and the
    /// ring drains, `pop` starts returning `None`.
    pub fn producer_done(&self) {
        let mut st = relock(self.state.lock());
        st.producers = st.producers.saturating_sub(1);
        drop(st);
        self.not_empty.notify_all();
    }

    /// Publish the request owning global sequence number `seq`. Blocks
    /// (cold path) while the ring is saturated. Each `seq` must be
    /// published exactly once and each producer must publish its own
    /// sequence numbers in increasing order.
    pub fn push(&self, seq: u64, item: T) {
        let cap = self.slots.len() as u64;
        let mut st = relock(self.state.lock());
        while seq >= st.base + cap {
            st = relock(self.not_full.wait(st));
        }
        drop(st);
        // Disjoint slot locks: concurrent producers in the window do not
        // contend with each other here, and nothing allocates.
        let idx = (seq % cap) as usize;
        *relock(self.slots[idx].lock()) = Some(item);
        // Re-acquire the control lock before signalling so a consumer
        // that just found the slot empty is guaranteed to be parked (or
        // past its recheck) — no lost wakeup.
        drop(relock(self.state.lock()));
        self.not_empty.notify_all();
    }

    /// Take the next request in sequence order. Blocks until slot `base`
    /// fills; returns `None` once all producers are done and the ring is
    /// drained. Single-consumer by convention (the serving loop).
    pub fn pop(&self) -> Option<T> {
        let cap = self.slots.len() as u64;
        let mut st = relock(self.state.lock());
        loop {
            let idx = (st.base % cap) as usize;
            let taken = relock(self.slots[idx].lock()).take();
            if let Some(item) = taken {
                st.base += 1;
                drop(st);
                self.not_full.notify_all();
                return Some(item);
            }
            if st.producers == 0 {
                return None;
            }
            st = relock(self.not_empty.wait(st));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_fifo_roundtrip() {
        let q: IngressQueue<u64> = IngressQueue::new(4);
        q.register_producer();
        for seq in 0..4 {
            q.push(seq, seq * 10);
        }
        for seq in 0..4 {
            assert_eq!(q.pop(), Some(seq * 10));
        }
        q.producer_done();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_producers_reassemble_in_sequence_order() {
        // 3 producers own residue classes of 0..300; a tiny ring forces
        // constant saturation parking. The consumer must still see
        // 0, 1, 2, … 299 exactly.
        let q: IngressQueue<u64> = IngressQueue::new(4);
        let n: u64 = 300;
        let clients: u64 = 3;
        std::thread::scope(|scope| {
            for c in 0..clients {
                q.register_producer();
                let q = &q;
                scope.spawn(move || {
                    let mut seq = c;
                    while seq < n {
                        q.push(seq, seq);
                        seq += clients;
                    }
                    q.producer_done();
                });
            }
            for expect in 0..n {
                assert_eq!(q.pop(), Some(expect));
            }
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn saturated_window_parks_but_never_drops() {
        // Window of 2, one producer racing far ahead of a slow consumer.
        let q: IngressQueue<u64> = IngressQueue::new(2);
        let n: u64 = 50;
        std::thread::scope(|scope| {
            q.register_producer();
            let q = &q;
            scope.spawn(move || {
                for seq in 0..n {
                    q.push(seq, seq + 1);
                }
                q.producer_done();
            });
            let mut got = Vec::new();
            while let Some(v) = q.pop() {
                got.push(v);
            }
            let want: Vec<u64> = (1..=n).collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn pop_drains_the_ring_after_producers_leave() {
        let q: IngressQueue<&'static str> = IngressQueue::new(8);
        q.register_producer();
        q.push(0, "a");
        q.push(1, "b");
        q.producer_done();
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "None is sticky");
    }
}
