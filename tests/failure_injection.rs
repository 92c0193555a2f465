//! Failure-injection tests: the framework must degrade cleanly when the
//! wrapped simulator fails, returns garbage, or the configuration is
//! hostile — errors propagate as typed errors, never panics or silent
//! corruption. The supervisor's degradation ladder (retry → quarantine →
//! Degraded) is exercised rung by rung.

use learning_everywhere::simulator::SyntheticSimulator;
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{
    HybridConfig, HybridEngine, LeError, QuerySource, Simulator, SupervisorConfig, SupervisorState,
};

/// A simulator that fails on a configurable subset of inputs.
struct FlakySimulator {
    /// Fail when the first input exceeds this.
    fail_above: f64,
}

impl Simulator for FlakySimulator {
    fn input_dim(&self) -> usize {
        2
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, x: &[f64], _seed: u64) -> learning_everywhere::Result<Vec<f64>> {
        if x[0] > self.fail_above {
            return Err(LeError::Simulation(format!(
                "diverged at x0 = {}",
                x[0]
            )));
        }
        Ok(vec![x[0] + x[1]])
    }
    fn name(&self) -> &str {
        "flaky"
    }
}

/// A simulator that returns non-finite outputs sometimes.
struct NanSimulator;

impl Simulator for NanSimulator {
    fn input_dim(&self) -> usize {
        1
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, x: &[f64], _seed: u64) -> learning_everywhere::Result<Vec<f64>> {
        Ok(vec![if x[0] > 0.5 { f64::NAN } else { x[0] }])
    }
    fn name(&self) -> &str {
        "nan-producer"
    }
}

#[test]
fn simulator_failure_propagates_as_typed_error() {
    let mut engine = HybridEngine::new(
        FlakySimulator { fail_above: 0.5 },
        HybridConfig {
            min_training_runs: 8,
            ..Default::default()
        },
    )
    .expect("valid config");
    // A failing query returns Err, does not panic, does not pollute state.
    // The supervisor retries with fresh seeds first — an input-determined
    // failure exhausts the budget — and the simulator's own message
    // surfaces undecorated in the typed error.
    let before = engine.buffered_runs();
    let err = engine.query(&[0.9, 0.0]).expect_err("must fail");
    assert_eq!(err, LeError::Simulation("diverged at x0 = 0.9".into()));
    assert_eq!(engine.buffered_runs(), before, "failed run must not be buffered");
    assert_eq!(
        engine.supervisor().retries(),
        engine.supervisor().config().max_retries as u64,
        "every retry in the budget was spent before giving up"
    );
    // Subsequent good queries still work.
    let ok = engine.query(&[0.1, 0.2]).expect("good input works");
    assert!((ok.output[0] - 0.3).abs() < 1e-12);
}

/// A simulator that fails unless the attempt seed is even — a transient
/// fault from the retry ladder's point of view.
struct SeedFlaky;

impl Simulator for SeedFlaky {
    fn input_dim(&self) -> usize {
        1
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, x: &[f64], seed: u64) -> learning_everywhere::Result<Vec<f64>> {
        if seed % 2 == 1 {
            return Err(LeError::Simulation(format!("transient glitch, seed {seed}")));
        }
        Ok(vec![x[0] * 2.0])
    }
    fn name(&self) -> &str {
        "seed-flaky"
    }
}

#[test]
fn transient_faults_are_recovered_by_seeded_retry() {
    // The engine's serial seed counter keeps advancing across attempts, so
    // a seed-dependent fault clears on the retry: odd first-attempt seeds
    // fail, the even retry succeeds, and the caller never sees an error.
    let mut engine = HybridEngine::new(
        SeedFlaky,
        HybridConfig {
            min_training_runs: 64, // never retrain in this test
            ..Default::default()
        },
    )
    .expect("valid config");
    for q in 0..6 {
        let r = engine.query(&[q as f64]).expect("retry recovers");
        assert_eq!(r.source, QuerySource::Simulated);
        assert!((r.output[0] - 2.0 * q as f64).abs() < 1e-12);
    }
    // Each query burned exactly one retry (odd seed, then even seed).
    assert_eq!(engine.supervisor().retries(), 6);
    assert_eq!(engine.n_simulations(), 6);
    assert_eq!(engine.supervisor().state(), SupervisorState::Normal);
}

#[test]
fn retry_exhaustion_surfaces_typed_error_and_counts() {
    let mut engine = HybridEngine::with_supervisor(
        FlakySimulator { fail_above: -2.0 }, // always fails
        HybridConfig {
            min_training_runs: 8,
            ..Default::default()
        },
        SupervisorConfig {
            max_retries: 3,
            ..Default::default()
        },
    )
    .expect("valid config");
    let err = engine.query(&[0.0, 0.0]).expect_err("budget exhausts");
    assert!(matches!(err, LeError::Simulation(_)));
    assert_eq!(engine.supervisor().retries(), 3, "3 retries after the first attempt");
    assert_eq!(engine.n_simulations(), 0, "no attempt is counted as success");
    // Failures don't touch the ladder state: retries are per-query.
    assert_eq!(engine.supervisor().state(), SupervisorState::Normal);
}

#[test]
fn engine_survives_many_interleaved_failures() {
    let mut engine = HybridEngine::new(
        FlakySimulator { fail_above: 0.0 },
        HybridConfig {
            min_training_runs: 16,
            surrogate: SurrogateConfig {
                epochs: 30,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("valid config");
    let mut rng = le_linalg::Rng::new(3);
    let mut ok = 0;
    let mut failed = 0;
    for _ in 0..120 {
        let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
        match engine.query(&x) {
            Ok(_) => ok += 1,
            Err(LeError::Simulation(_)) => failed += 1,
            Err(other) => panic!("unexpected error type: {other}"),
        }
    }
    assert!(ok > 0 && failed > 0, "both paths exercised: {ok} ok, {failed} failed");
    // Accounting only counts successful work.
    assert_eq!(
        engine.accounting().n_train() + engine.n_lookups(),
        ok as u64
    );
}

#[test]
fn nan_outputs_are_rejected_at_the_query_layer() {
    // A diverged run reporting success (finite inputs, NaN output) is
    // rejected by the finiteness guard before it can reach the training
    // buffer: the query errors after the retry budget, nothing non-finite
    // is ever buffered, and the surrogate that eventually forms from the
    // clean runs serves only finite lookups.
    let mut engine = HybridEngine::new(
        NanSimulator,
        HybridConfig {
            min_training_runs: 8,
            surrogate: SurrogateConfig {
                epochs: 10,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("valid config");
    let mut rng = le_linalg::Rng::new(5);
    let mut rejected = 0;
    let mut served = 0;
    for _ in 0..40 {
        let x = [rng.uniform_in(0.0, 1.0)];
        match engine.query(&x) {
            Ok(r) => {
                served += 1;
                assert!(r.output[0].is_finite(), "served answers are always finite");
            }
            Err(e) => {
                rejected += 1;
                assert!(matches!(e, LeError::Simulation(_)));
            }
        }
    }
    assert!(rejected > 0 && served > 0, "both paths hit: {served} ok, {rejected} rejected");
    // The guard kept the buffer clean, so retraining never saw NaN.
    assert_eq!(engine.supervisor().retrain_failures(), 0, "poison never reaches the trainer");
    assert_eq!(engine.buffered_runs() as u64, engine.n_simulations());
    assert!(engine.has_surrogate(), "clean runs still train a surrogate");
}

#[test]
fn quarantine_round_trip_benches_and_readmits_the_surrogate() {
    // Entry: consecutive gate anomalies (a NaN query input makes the
    // surrogate prediction non-finite) bench the surrogate. While benched,
    // every query is simulator-only. Exit: a successful retrain re-admits.
    let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
    let mut engine = HybridEngine::with_supervisor(
        sim.clone(),
        HybridConfig {
            uncertainty_threshold: 1e6, // gate always admits: gate path runs
            min_training_runs: 8,
            retrain_growth: 100.0, // no automatic retrain after warmup
            surrogate: SurrogateConfig {
                epochs: 20,
                seed: 17,
                ..Default::default()
            },
            ..Default::default()
        },
        SupervisorConfig {
            max_retries: 0,
            quarantine_after: 3,
            degrade_after: 3,
        },
    )
    .expect("valid config");
    // Warm up a trusted surrogate from clean seeded runs.
    let mut rng = le_linalg::Rng::new(19);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..12 {
        let x = vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
        let y = sim.truth(&x);
        xs.push(x);
        ys.push(y);
    }
    engine.seed_training(&xs, &ys).expect("clean seed data trains");
    assert!(engine.has_surrogate());
    assert!(engine.supervisor().trusts_surrogate());

    // Three NaN-input queries: each is a gate anomaly (non-finite
    // prediction), then the simulation fallback also fails (NaN output) —
    // the query errors, and the anomaly streak climbs to quarantine.
    for _ in 0..3 {
        assert!(engine.query(&[f64::NAN, 0.0]).is_err());
    }
    assert_eq!(engine.supervisor().state(), SupervisorState::Quarantined);
    assert_eq!(engine.supervisor().quarantines(), 1);

    // Benched: the surrogate still exists but is never consulted — every
    // query simulates, and the gate reports no uncertainty.
    let r = engine.query(&[0.3, 0.1]).expect("simulation still serves");
    assert_eq!(r.source, QuerySource::Simulated);
    assert!(r.gate_std.is_none(), "benched surrogate is not consulted");
    assert!(engine.has_surrogate());

    // A successful retrain (the buffer holds only clean runs) re-admits.
    engine.retrain().expect("clean buffer retrains fine");
    assert_eq!(engine.supervisor().state(), SupervisorState::Normal);
    assert_eq!(engine.supervisor().readmissions(), 1);
    let r = engine.query(&[0.2, 0.2]).expect("back to normal");
    assert!(r.gate_std.is_some(), "re-admitted surrogate is consulted again");
}

#[test]
fn degraded_mode_serves_every_query_and_keeps_accounting_exact() {
    // Repeated retrain failures (the seed buffer is NaN-poisoned, which
    // `seed_training` deliberately tolerates and `NnSurrogate::fit`
    // rejects) walk Quarantined → Degraded. A Degraded engine is terminal
    // simulator-only: it stops retraining, serves every query, and the
    // §III-D accounting identity still holds.
    let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
    let mut engine = HybridEngine::with_supervisor(
        sim,
        HybridConfig {
            min_training_runs: 64, // seed_training below stays sub-threshold
            ..Default::default()
        },
        SupervisorConfig {
            max_retries: 1,
            quarantine_after: 3,
            degrade_after: 2,
        },
    )
    .expect("valid config");
    let poisoned_x = vec![vec![0.0, 0.0], vec![0.1, 0.1], vec![0.2, 0.2], vec![0.3, 0.3]];
    let poisoned_y = vec![vec![f64::NAN]; 4];
    engine
        .seed_training(&poisoned_x, &poisoned_y)
        .expect("sub-threshold seeding does not train");

    // First failed retrain: the stale surrogate must not stay silently
    // trusted — quarantine immediately, with the typed detail surfaced.
    assert!(engine.retrain().is_err());
    assert_eq!(engine.supervisor().state(), SupervisorState::Quarantined);
    assert!(matches!(
        engine.supervisor().last_retrain_error(),
        Some(LeError::Model(_))
    ));
    // Second consecutive failure: terminal.
    assert!(engine.retrain().is_err());
    assert_eq!(engine.supervisor().state(), SupervisorState::Degraded);
    assert_eq!(engine.supervisor().retrain_failures(), 2);
    assert!(!engine.supervisor().wants_retrain());

    // The Degraded campaign still serves everything, simulator-only.
    let mut rng = le_linalg::Rng::new(23);
    let n = 80;
    for _ in 0..n {
        let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
        let r = engine.query(&x).expect("Degraded mode still serves");
        assert_eq!(r.source, QuerySource::Simulated);
        assert!(r.output[0].is_finite());
    }
    assert_eq!(engine.n_lookups(), 0);
    assert_eq!(engine.n_simulations(), n);
    // Accounting identity: every served query is either trained-on
    // simulation or lookup; Degraded mode never trains again.
    assert_eq!(engine.accounting().n_train(), n);
    assert_eq!(engine.accounting().n_lookup(), 0);
    assert_eq!(engine.supervisor().retrain_failures(), 2, "no further retrain attempts");
}

#[test]
fn active_learning_aborts_on_simulator_failure() {
    use learning_everywhere::active::{run_active_learning, ActiveConfig, UqBackend};
    use le_uq::AcquisitionStrategy;

    let sim = FlakySimulator { fail_above: -2.0 }; // always fails
    let pool: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.01, 0.0]).collect();
    let val: Vec<Vec<f64>> = vec![vec![0.0, 0.0]];
    let val_y: Vec<Vec<f64>> = vec![vec![0.0]];
    let result = run_active_learning(
        &sim,
        &pool,
        &val,
        &val_y,
        &ActiveConfig {
            initial: 8,
            batch: 8,
            budget: 24,
            strategy: AcquisitionStrategy::Random,
            backend: UqBackend::McDropout,
            surrogate: SurrogateConfig::default(),
            seed: 1,
        },
    );
    assert!(matches!(result, Err(LeError::Simulation(_))));
}

#[test]
fn control_campaign_aborts_on_simulator_failure() {
    use learning_everywhere::control::{run_campaign, ControlConfig};
    let sim = FlakySimulator { fail_above: -2.0 };
    let result = run_campaign(
        &sim,
        &[0.0],
        &[(-1.0, 1.0), (-1.0, 1.0)],
        &ControlConfig::default(),
    );
    assert!(matches!(result, Err(LeError::Simulation(_))));
}

#[test]
fn failing_simulator_still_exports_valid_obs_snapshot() {
    // The observability layer must survive error paths untouched: failed
    // simulations increment `hybrid.sim_errors`, leave no phantom span
    // records, and the registry stays exportable (no poison, no panic).
    let errors_before = le_obs::snapshot().counter("hybrid.sim_errors").unwrap_or(0);
    let mut engine = HybridEngine::new(
        FlakySimulator { fail_above: -2.0 }, // always fails
        HybridConfig {
            min_training_runs: 4,
            ..Default::default()
        },
    )
    .expect("valid config");
    let n_failures = 12;
    for i in 0..n_failures {
        let x = [0.1 * i as f64, 0.0];
        assert!(engine.query(&x).is_err(), "every query must fail");
    }

    let snap = le_obs::snapshot();
    let errors_after = snap.counter("hybrid.sim_errors").unwrap_or(0);
    assert!(
        errors_after >= errors_before + n_failures,
        "each failed simulation must be counted ({errors_before} -> {errors_after})"
    );
    // Failed runs record nothing in accounting, so the simulate span (one
    // record per *successful* simulation, process-wide) cannot exceed the
    // successes other tests in this binary produced; our 12 failures add 0.
    assert_eq!(engine.accounting().n_train(), 0);

    // The registry still snapshots and the export parses as JSON.
    let path = le_obs::write_snapshot("failure_injection").expect("snapshot after errors");
    let body = std::fs::read_to_string(&path).expect("snapshot readable");
    let doc = le_obs::json::parse(&body).expect("valid JSON after failure paths");
    assert!(doc.get("counters").is_some());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("txt"));
}

#[test]
fn hostile_configurations_rejected_up_front() {
    let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
    // NaN threshold.
    assert!(HybridEngine::new(
        sim.clone(),
        HybridConfig {
            uncertainty_threshold: f64::NAN,
            ..Default::default()
        }
    )
    .is_err() || {
        // NaN < x is false for all x, so a NaN gate would never serve
        // lookups; constructor may accept it only if the comparison is
        // conservative. Verify conservativeness:
        let mut e = HybridEngine::new(
            sim.clone(),
            HybridConfig {
                uncertainty_threshold: f64::NAN,
                ..Default::default()
            },
        )
        .unwrap();
        let r = e.query(&[0.0, 0.0]).unwrap();
        r.source == learning_everywhere::QuerySource::Simulated
    });
}

#[test]
fn serving_path_walks_the_degradation_ladder_like_the_direct_path() {
    // Drive a `FaultySimulator` through the full `le-serve` frontend with
    // a NaN-poisoned training buffer: the auto-retrains that fire inside
    // serving waves must fail, walk Quarantined → Degraded mid-campaign,
    // and land on *exactly* the same engine/supervisor counters — and the
    // same served bits — as the identical campaign run directly through
    // `query_each`. Supervision is engine-level; the frontend must
    // neither mask nor duplicate any rung of the ladder.
    use le_faults::{FaultPlan, FaultRates, FaultySimulator};
    use le_serve::{serve, LoopMode, ServeConfig, TenantQuota};

    let plan = FaultPlan::new(
        0xFA_5E,
        FaultRates {
            sim_error: 0.08,
            nonfinite: 0.04,
            stall: 0.0,
        },
    )
    .expect("valid fault plan");

    let build = |plan: FaultPlan| -> HybridEngine<FaultySimulator<SyntheticSimulator>> {
        let mut engine = HybridEngine::with_supervisor(
            FaultySimulator::new(SyntheticSimulator::new(2, 1, 0, 0.0), plan),
            HybridConfig {
                uncertainty_threshold: 0.3,
                min_training_runs: 16,
                retrain_growth: 1.25,
                surrogate: SurrogateConfig {
                    hidden: vec![8],
                    epochs: 10,
                    mc_samples: 4,
                    seed: 6,
                    ..Default::default()
                },
            },
            SupervisorConfig {
                max_retries: 2,
                quarantine_after: 3,
                degrade_after: 2,
            },
        )
        .expect("valid config");
        // Sub-threshold poisoned seeding: tolerated by `seed_training`,
        // fatal to every later `NnSurrogate::fit`.
        let poisoned_x = vec![vec![0.0, 0.0], vec![0.1, 0.1], vec![0.2, 0.2], vec![0.3, 0.3]];
        engine
            .seed_training(&poisoned_x, &vec![vec![f64::NAN]; 4])
            .expect("sub-threshold seeding does not train");
        engine
    };

    let workload = le_serve::loadgen::generate(&le_serve::LoadConfig {
        seed: 0xFA_5E,
        requests: 120,
        input_dim: 2,
        domain: (-1.0, 1.0),
        payload_pool: 64,
        tenants: vec![1.0],
        sizes: vec![
            le_serve::SizeClass { rows: 1, weight: 0.6 },
            le_serve::SizeClass { rows: 4, weight: 0.4 },
        ],
        arrival: le_serve::Arrival::Poisson { rate: 2000.0 },
    })
    .expect("valid workload");

    // Direct path: same logical row order, one query_each call.
    let mut direct = build(plan.clone());
    let inputs: Vec<&[f64]> = workload
        .specs
        .iter()
        .flat_map(|s| (s.row_start..s.row_start + s.rows).map(|r| workload.row(r)))
        .collect();
    let direct_rows = direct.query_each(&inputs).expect("direct path serves");

    // Serving path: concurrent clients, tiny waves, unlimited quota.
    let mut served = build(plan);
    let report = serve(
        &mut served,
        &workload,
        &ServeConfig {
            clients: 4,
            queue_capacity: 16,
            batch_max_rows: 12,
            deadline: 0.01,
            mode: LoopMode::Open,
            quotas: vec![TenantQuota::unlimited()],
        },
    )
    .expect("serve run completes under fault injection");

    // The ladder fired — and fired identically.
    assert_eq!(served.supervisor().state(), SupervisorState::Degraded);
    assert_eq!(served.supervisor().state(), direct.supervisor().state());
    assert_eq!(served.supervisor().retrain_failures(), direct.supervisor().retrain_failures());
    assert!(served.supervisor().retrain_failures() >= 2, "both retrain attempts failed");
    assert_eq!(
        served.supervisor().quarantines(),
        direct.supervisor().quarantines()
    );
    assert_eq!(served.supervisor().retries(), direct.supervisor().retries());
    assert_eq!(served.n_lookups(), direct.n_lookups());
    assert_eq!(served.n_simulations(), direct.n_simulations());
    assert_eq!(served.simulator().calls(), direct.simulator().calls());

    // Served bits match the direct campaign row for row (including which
    // rows exhausted their retries and failed with typed errors).
    let mut cursor = 0usize;
    for resp in &report.responses {
        for row in resp.outcome.as_ref().expect("unlimited quota admits all") {
            let want = &direct_rows[cursor];
            cursor += 1;
            match (row, want) {
                (Ok(a), Ok(b)) => {
                    for (x, y) in a.output.iter().zip(&b.output) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    assert_eq!(a.source, b.source);
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("row {cursor} diverged: {a:?} vs {b:?}"),
            }
        }
    }
    assert_eq!(cursor, direct_rows.len());
}

