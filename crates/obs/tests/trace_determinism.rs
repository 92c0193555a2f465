//! Journal determinism across thread counts: the same traced workload run
//! at `threads = 1, 4, 7` must produce the same number of events, the same
//! causal structure (order-normalized canonical text, byte-identical), and
//! zero drops — because `le-pool`'s decompositions are pure functions of
//! the problem size, never of the thread count.
//!
//! Single `#[test]` on purpose: the journal is process-global and this
//! test resets it between runs.

use le_pool::Pool;

/// Fill every byte of a chunk with 1.
fn fill(_: usize, chunk: &mut [u8]) {
    for b in chunk.iter_mut() {
        *b = 1;
    }
}

/// Single-task call `k` (0..3), one per pool helper, so the
/// `n_tasks == 1` route is covered at every width, not only at `threads = 1`.
fn single_task_call(pool: &Pool, k: usize) {
    match k {
        0 => assert_eq!(pool.par_map_index(1, |i| i + 7), vec![7]),
        1 => pool.par_for_chunks(&mut [0u8; 12], 16, fill),
        _ => pool.par_for_each(1, |i| assert_eq!(i, 0)),
    }
}

/// A small mixed workload exercising every pool helper under trace roots.
fn workload(pool: &Pool) {
    for rep in 0..3 {
        let _root = le_obs::trace_root!("req");
        let mapped = pool.par_map_index(100, |i| i * 2 + rep);
        assert_eq!(mapped.len(), 100);
        pool.par_for_each(10, |_| {});
        let mut buf = vec![0u8; 40];
        pool.par_for_chunks(&mut buf, 16, fill);
        assert!(buf.iter().all(|&b| b == 1));
        for k in 0..3 {
            single_task_call(pool, k);
        }
        le_obs::trace_instant!("req.done");
    }
}

/// The `pool.task` spans one call records on its own (the journal is reset
/// first; a single-task call runs on the caller, so it is quiescent after).
fn pool_task_spans(call: impl Fn()) -> usize {
    le_obs::trace::reset();
    call();
    let snap = le_obs::trace::snapshot();
    assert_eq!(snap.dropped, 0);
    let begins = snap
        .events
        .iter()
        .filter(|e| e.kind == le_obs::trace::EventKind::Begin && e.name == "pool.task")
        .count();
    assert_eq!(
        snap.events.len(),
        2 * begins,
        "only pool.task spans expected"
    );
    begins
}

#[test]
fn canonical_timeline_is_identical_across_thread_counts() {
    le_obs::trace::set_enabled(true);
    let mut runs: Vec<(usize, usize, u64, String)> = Vec::new();
    for threads in [1usize, 4, 7] {
        let pool = Pool::with_threads(threads);
        for k in 0..3 {
            let spans = pool_task_spans(|| single_task_call(&pool, k));
            assert_eq!(spans, 1, "single-task call {k} at {threads} threads");
        }
        le_obs::trace::reset();
        workload(&pool);
        drop(pool); // join workers: the journal is quiescent before snapshot
        let snap = le_obs::trace::snapshot();
        runs.push((
            threads,
            snap.events.len(),
            snap.dropped,
            snap.to_canonical_text("det"),
        ));
    }
    let (_, n0, d0, ref text0) = runs[0];
    assert!(n0 > 0, "workload must record events");
    assert_eq!(d0, 0, "workload must fit the ring");
    // Expected structure per `req` root: 25 map chunks (⌈100/⌈100/32⌉⌉) +
    // 10 for_each tasks + 3 for_chunks tasks (⌈40/16⌉) + 3 single-task
    // calls = 41 `pool.task` spans + the root + one instant.
    // 3 roots × (42 spans × 2 events + 1 mark) = 255.
    assert_eq!(n0, 3 * (42 * 2 + 1), "decomposition changed — update test");
    for &(threads, n, dropped, ref text) in &runs[1..] {
        assert_eq!(n, n0, "event count differs at {threads} threads");
        assert_eq!(dropped, 0, "drops at {threads} threads");
        assert_eq!(
            text, text0,
            "canonical timeline differs at {threads} threads"
        );
    }
    // And the canonical text really collapses identical siblings.
    assert!(text0.contains("- req ×3"), "{text0}");
    assert!(text0.contains("- pool.task ×"), "{text0}");
    assert!(text0.contains("* req.done"), "{text0}");
}
