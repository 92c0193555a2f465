//! Two threads dispatching to one pool at the same time.
//!
//! The pool has a single job slot. A second dispatcher that arrives while
//! the slot is taken must run its job on its own thread rather than post
//! over the first job: otherwise both dispatchers wait for the same workers
//! and one of them is never woken, or receives the other's worker panic.
//! A barrier starts both dispatchers together, and each result comes back
//! through `recv_timeout`, so a hang fails the test instead of stalling the
//! suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use le_pool::Pool;

const DISPATCHES: usize = 500;
const TIMEOUT: Duration = Duration::from_secs(60);

/// Every `PANIC_EVERY`th dispatch of the panicking thread panics in one task.
const PANIC_EVERY: usize = 25;

#[test]
fn concurrent_dispatchers_finish_and_keep_their_own_panics() {
    let pool = Arc::new(Pool::with_threads(2));
    let expect: Vec<usize> = (0..64).map(|i| i * i + 1).collect();
    let start = Arc::new(Barrier::new(2));

    // Thread A: clean dispatches, each checked for the right answer.
    let (tx_a, rx_a) = mpsc::channel();
    let pool_a = Arc::clone(&pool);
    let expect_a = expect.clone();
    let start_a = Arc::clone(&start);
    let a = thread::spawn(move || {
        start_a.wait();
        let mut bad = 0usize;
        for _ in 0..DISPATCHES {
            let out = catch_unwind(AssertUnwindSafe(|| pool_a.par_map_index(64, |i| i * i + 1)));
            if out.ok().as_ref() != Some(&expect_a) {
                bad += 1;
            }
        }
        let _ = tx_a.send(bad);
    });

    // Thread B: every PANIC_EVERY-th dispatch panics in one task; the panic
    // must reach B on exactly those dispatches and never on the others.
    let (tx_b, rx_b) = mpsc::channel();
    let pool_b = Arc::clone(&pool);
    let b = thread::spawn(move || {
        start.wait();
        let mut wrong = 0usize;
        for k in 0..DISPATCHES {
            let boom = k % PANIC_EVERY == 0;
            let out = catch_unwind(AssertUnwindSafe(|| {
                pool_b.par_for_each(64, |i| {
                    if boom && i == 33 {
                        panic!("dispatch {k} task {i}");
                    }
                })
            }));
            if out.is_err() != boom {
                wrong += 1;
            }
        }
        let _ = tx_b.send(wrong);
    });

    let bad = rx_a.recv_timeout(TIMEOUT).expect("clean dispatcher hung");
    let wrong = rx_b
        .recv_timeout(TIMEOUT)
        .expect("panicking dispatcher hung");
    a.join().expect("clean dispatcher thread");
    b.join().expect("panicking dispatcher thread");
    assert_eq!(
        bad, 0,
        "clean dispatches returned a wrong result or a panic"
    );
    assert_eq!(
        wrong, 0,
        "a worker panic reached the wrong caller or got lost"
    );

    // The pool is still usable by a single dispatcher afterwards.
    assert_eq!(pool.par_map_index(64, |i| i * i + 1), expect);
}
