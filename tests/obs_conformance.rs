//! Observability conformance: the span telemetry the hybrid engine emits
//! and the `CampaignAccounting` it feeds must be two views of the *same*
//! measurements — same event counts, same phase totals (up to the 1 ns
//! truncation each span record applies). The speedup numbers in
//! EXPERIMENTS.md and the OBS snapshots cannot disagree.
//!
//! One test function on purpose: the spans live in the process-global
//! registry, and a single test owns the whole delta.

use le_linalg::Rng;
use learning_everywhere::simulator::SyntheticSimulator;
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine};

/// Per-event tolerance: each span record truncates the shared `Duration`
/// to whole nanoseconds, while accounting keeps the f64 seconds. Over `n`
/// events the totals can drift by at most `n` ns (plus f64 rounding dust).
fn tol(events: u64) -> f64 {
    1e-9 * (events as f64 + 1.0)
}

#[test]
fn span_telemetry_agrees_with_accounting() {
    let mut engine = HybridEngine::new(
        SyntheticSimulator::new(2, 1, 50_000, 0.0),
        HybridConfig {
            uncertainty_threshold: 0.5,
            min_training_runs: 16,
            retrain_growth: 2.0,
            surrogate: SurrogateConfig {
                hidden: vec![16, 16],
                epochs: 40,
                mc_samples: 8,
                ..Default::default()
            },
        },
    )
    .expect("valid config");

    let mut rng = Rng::new(11);
    for _ in 0..150 {
        let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
        engine.query(&x).expect("synthetic sim cannot fail");
    }

    let acct = engine.accounting();
    assert!(acct.n_train() > 0, "campaign must have simulated");
    assert!(acct.n_lookup() > 0, "campaign must have served lookups");
    assert!(acct.learn_events() > 0, "campaign must have retrained");

    let snap = le_obs::snapshot();

    // Event counts: spans and counters mirror the accounting exactly.
    let sim = snap.span("hybrid.simulate").expect("simulate span");
    let retrain = snap.span("hybrid.retrain").expect("retrain span");
    let lookup = snap.span("hybrid.lookup").expect("lookup span");
    assert_eq!(sim.count, acct.n_train(), "simulate span vs n_train");
    assert_eq!(retrain.count, acct.learn_events(), "retrain span vs learn_events");
    assert_eq!(lookup.count, acct.n_lookup(), "lookup span vs n_lookup");
    assert_eq!(snap.counter("hybrid.simulations"), Some(acct.n_train()));
    assert_eq!(snap.counter("hybrid.lookups"), Some(acct.n_lookup()));

    // Phase totals: identical clock reads, so only ns truncation apart.
    let d_sim = (sim.total_secs() - acct.train_sim_seconds()).abs();
    assert!(
        d_sim <= tol(sim.count),
        "simulate total drifted: span {} vs accounting {}",
        sim.total_secs(),
        acct.train_sim_seconds()
    );
    let d_learn = (retrain.total_secs() - acct.learn_seconds()).abs();
    assert!(
        d_learn <= tol(retrain.count),
        "retrain total drifted: span {} vs accounting {}",
        retrain.total_secs(),
        acct.learn_seconds()
    );
    let d_lookup = (lookup.total_secs() - acct.lookup_seconds()).abs();
    assert!(
        d_lookup <= tol(lookup.count),
        "lookup total drifted: span {} vs accounting {}",
        lookup.total_secs(),
        acct.lookup_seconds()
    );

    // The exported snapshot is valid JSON carrying the same numbers.
    let path = le_obs::write_snapshot("conformance").expect("snapshot writes");
    let body = std::fs::read_to_string(&path).expect("snapshot readable");
    let doc = le_obs::json::parse(&body).expect("OBS snapshot is valid JSON");
    let spans = doc.get("spans").and_then(|s| s.as_arr()).expect("spans array");
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("span {name} missing from JSON"))
    };
    let json_sim = find("hybrid.simulate");
    assert_eq!(
        json_sim.get("count").and_then(|v| v.as_usize()),
        Some(sim.count as usize)
    );
    assert_eq!(
        json_sim.get("total_ns").and_then(|v| v.as_f64()),
        Some(sim.total_ns as f64)
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("txt"));
}
