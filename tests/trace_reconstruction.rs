//! End-to-end causal-trace reconstruction over the exported Chrome JSON:
//! a hybrid-engine campaign whose simulator fans out onto `le-pool` must
//! produce a `TRACE_*.json` where **every** `pool.task` event carries the
//! `trace_id` of the `hybrid.query` root that (transitively) submitted it,
//! and where every parent chain resolves back to that root.
//!
//! Single `#[test]` on purpose: the trace journal is process-global, and a
//! dedicated test binary is the cheapest way to keep event counts exact.

use std::collections::HashMap;

use le_bench::campaign::Fanout;
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine};

#[test]
fn exported_trace_links_every_pool_task_to_its_query_root() {
    le_obs::trace::set_enabled(true);
    let mut engine = HybridEngine::new(
        Fanout,
        HybridConfig {
            uncertainty_threshold: 1e-12, // never trust the surrogate:
            // every query simulates, so every query fans out pool tasks
            min_training_runs: 8,
            retrain_growth: 4.0,
            surrogate: SurrogateConfig {
                hidden: vec![8],
                epochs: 5,
                mc_samples: 4,
                seed: 1,
                ..Default::default()
            },
        },
    )
    .expect("valid config");
    for q in 0..12 {
        let x = [0.1 * q as f64, 0.2];
        engine.query(&x).expect("query succeeds");
    }

    let path = le_obs::write_trace("reconstruction_test").expect("trace export");
    let body = std::fs::read_to_string(&path).expect("trace file readable");
    let doc = le_obs::json::parse(&body).expect("exported trace is valid JSON");
    assert_eq!(
        doc.get("otherData").and_then(|o| o.get("dropped")).and_then(|d| d.as_f64()),
        Some(0.0),
        "this workload must fit the default ring capacity"
    );
    let events = doc
        .get("traceEvents")
        .and_then(|t| t.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Index the span forest from Begin events.
    let arg = |e: &le_obs::json::Value, key: &str| -> u64 {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(|v| v.as_f64())
            .map(|v| v as u64)
            .unwrap_or(0)
    };
    let mut span_parent: HashMap<u64, u64> = HashMap::new();
    let mut span_name: HashMap<u64, String> = HashMap::new();
    let mut span_trace: HashMap<u64, u64> = HashMap::new();
    let mut query_roots: Vec<u64> = Vec::new();
    let mut pool_tasks: Vec<u64> = Vec::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("B") {
            continue;
        }
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        let span = arg(e, "span_id");
        span_parent.insert(span, arg(e, "parent_span_id"));
        span_name.insert(span, name.to_string());
        span_trace.insert(span, arg(e, "trace_id"));
        match name {
            "hybrid.query" => {
                assert_eq!(
                    span,
                    arg(e, "trace_id"),
                    "a root span's span_id is its trace_id"
                );
                assert_eq!(arg(e, "parent_span_id"), 0, "roots have no parent");
                query_roots.push(span);
            }
            "pool.task" => pool_tasks.push(span),
            _ => {}
        }
    }
    assert_eq!(query_roots.len(), 12, "one root per engine query");
    assert!(
        pool_tasks.len() >= 12 * 32,
        "every simulated query fans out pool tasks (got {})",
        pool_tasks.len()
    );

    // The acceptance property: each pool.task carries the trace_id of a
    // hybrid.query root, and its parent chain reaches that very root.
    for &task in &pool_tasks {
        let trace = span_trace[&task];
        assert!(
            query_roots.contains(&trace),
            "pool.task {task} has trace_id {trace}, not a hybrid.query root"
        );
        let mut cur = task;
        let mut hops = 0;
        loop {
            let parent = span_parent[&cur];
            if parent == 0 {
                break;
            }
            cur = parent;
            assert!(
                span_parent.contains_key(&cur),
                "broken parent chain at span {cur}"
            );
            hops += 1;
            assert!(hops < 64, "parent chain too deep — cycle?");
        }
        assert_eq!(cur, trace, "parent chain must end at the trace root");
        assert_eq!(
            span_name[&cur], "hybrid.query",
            "chain root must be the engine phase"
        );
    }

    // Every Begin has a matching End per thread (the exporters rely on it).
    let mut depth_by_tid: HashMap<u64, i64> = HashMap::new();
    for e in events {
        let tid = e.get("tid").and_then(|t| t.as_f64()).unwrap_or(0.0) as u64;
        match e.get("ph").and_then(|p| p.as_str()) {
            Some("B") => *depth_by_tid.entry(tid).or_insert(0) += 1,
            Some("E") => *depth_by_tid.entry(tid).or_insert(0) -= 1,
            _ => {}
        }
    }
    assert!(
        depth_by_tid.values().all(|&d| d == 0),
        "unbalanced B/E events: {depth_by_tid:?}"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("txt"));
}
