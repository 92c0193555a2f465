//! The batched query path's determinism contract: one `query_each` wave
//! over N inputs is **bit-identical** to N sequential `query` calls — same
//! per-row results, sources and gate stds, same lookup/simulation counts,
//! same accounting event counts, same supervisor state — including when a
//! retrain fires in the middle of the wave and invalidates it, when failed
//! rows quarantine the surrogate mid-wave, and when audit rows divert
//! admitted rows to the simulator.
//!
//! This holds by construction (stateless per-consult mask substreams; see
//! the determinism contract in `le_nn::batch`), and this suite pins it at
//! the engine's public surface.

use le_linalg::Rng;
use learning_everywhere::hybrid::QueryResult;
use learning_everywhere::simulator::SyntheticSimulator;
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine, LeError, QuerySource, RollingRetrainConfig};

/// The engine settings of this suite. The small `min_training_runs` and
/// `retrain_growth` make retrains land *inside* the waves the tests below
/// issue.
fn config(seed: u64) -> HybridConfig {
    HybridConfig {
        uncertainty_threshold: 0.35,
        min_training_runs: 16,
        retrain_growth: 1.5,
        surrogate: SurrogateConfig {
            hidden: vec![16, 16],
            epochs: 40,
            mc_samples: 8,
            dropout: 0.1,
            seed,
            ..Default::default()
        },
    }
}

/// A fresh engine over the deterministic synthetic simulator.
fn engine(seed: u64) -> HybridEngine<SyntheticSimulator> {
    HybridEngine::new(SyntheticSimulator::new(2, 1, 20_000, 0.0), config(seed))
        .expect("valid config")
}

fn inputs(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)])
        .collect()
}

/// One `query_each` wave over `xs`.
fn wave(
    engine: &mut HybridEngine<SyntheticSimulator>,
    xs: &[Vec<f64>],
) -> Vec<Result<QueryResult, LeError>> {
    let rows: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    engine.query_each(&rows).expect("well-formed rows")
}

/// Answer `xs` with sequential `query` calls on one engine and with a
/// single wave on a twin from `build`, assert every row and every engine
/// count agrees bitwise, and return the wave engine and its answers.
fn assert_wave_matches_sequential(
    build: impl Fn() -> HybridEngine<SyntheticSimulator>,
    xs: &[Vec<f64>],
) -> (
    HybridEngine<SyntheticSimulator>,
    Vec<Result<QueryResult, LeError>>,
) {
    let mut sequential = build();
    let seq: Vec<_> = xs.iter().map(|x| sequential.query(x)).collect();
    let mut batched = build();
    let bat = wave(&mut batched, xs);

    assert_eq!(seq.len(), bat.len());
    for (q, (s, b)) in seq.iter().zip(bat.iter()).enumerate() {
        let (s, b) = match (s, b) {
            (Ok(s), Ok(b)) => (s, b),
            (Err(s), Err(b)) => {
                assert_eq!(s.to_string(), b.to_string(), "query {q} error");
                continue;
            }
            _ => panic!("query {q}: sequential {s:?} vs wave {b:?}"),
        };
        assert_eq!(s.source, b.source, "query {q} source");
        assert_eq!(
            s.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "query {q} output bits"
        );
        assert_eq!(
            s.gate_std.map(f64::to_bits),
            b.gate_std.map(f64::to_bits),
            "query {q} gate std bits"
        );
    }

    // Counters and accounting *counts* are bitwise-equal (timings are
    // wall-clock and amortized differently by design, so only event
    // counts are compared).
    let counts = |e: &HybridEngine<SyntheticSimulator>| {
        [
            e.n_lookups(),
            e.n_simulations(),
            e.accounting().n_train(),
            e.accounting().n_lookup(),
            e.accounting().learn_events(),
            e.runs_seen(),
            e.buffered_runs() as u64,
            e.supervisor().retrain_failures(),
            e.supervisor().retries(),
            e.supervisor().quarantines(),
            e.supervisor().readmissions(),
        ]
    };
    assert_eq!(
        counts(&sequential),
        counts(&batched),
        "lookups, simulations, accounting train/lookup/learn events, runs seen, \
         buffered runs, retrain failures, retries, quarantines, readmissions"
    );
    assert_eq!(
        sequential.supervisor().state(),
        batched.supervisor().state(),
        "supervisor state"
    );
    (batched, bat)
}

#[test]
fn query_each_is_bitwise_identical_to_sequential_queries() {
    // One wave covering the whole campaign: the first `min_training_runs`
    // rows simulate and trigger the initial fit mid-wave, later retrains
    // (growth 1.5) invalidate in-flight waves, and the admitted rows in
    // between ride fused evaluations.
    let (batched, _) = assert_wave_matches_sequential(|| engine(5), &inputs(140, 77));
    assert!(batched.n_lookups() > 0, "campaign must serve lookups");
    assert!(
        batched.n_simulations() >= 16,
        "campaign must simulate the seed design"
    );
    assert!(
        batched.accounting().learn_events() >= 2,
        "a retrain must have fired inside the wave for this test to bite"
    );
}

#[test]
fn a_wave_across_a_quarantine_and_audit_rows_matches_sequential_queries() {
    // NaN-input rows in a warm wave: each is a gate anomaly whose
    // simulation also fails. A lone one (row 50) must leave the wave's
    // cached predictions in place for the rows after it. Three in a row
    // quarantine the surrogate mid-wave; the rows after them simulate
    // until a growth retrain re-admits a fresh surrogate (a new wave).
    let mut xs = inputs(120, 91);
    for r in [50, 70, 71, 72] {
        xs[r][0] = f64::NAN;
    }
    let (batched, rows) = assert_wave_matches_sequential(|| engine(13), &xs);
    assert!(rows[70..73].iter().all(Result::is_err), "NaN rows fail");
    assert!(rows[50].is_err() && rows[51].as_ref().is_ok_and(|r| r.gate_std.is_some()));
    assert_eq!(batched.supervisor().quarantines(), 1, "mid-wave quarantine");
    assert!(
        matches!(&rows[73], Ok(r) if r.source == QuerySource::Simulated && r.gate_std.is_none()),
        "the benched surrogate is not consulted"
    );
    assert_eq!(
        batched.supervisor().readmissions(),
        1,
        "mid-wave re-admission"
    );
    assert!(batched.n_lookups() > 0);

    // A rolling engine auditing every 5th row, with a gate that admits
    // every finite row. No growth retrain falls due (growth 100): rolling
    // mode defers one to the wave boundary, which sequential queries
    // reach after every row. Audit rows still consult the gate — they
    // consume their MC ordinal and report a gate std below τ — yet
    // simulate and join the capped buffer.
    let rolling = || {
        let config = HybridConfig {
            uncertainty_threshold: 1e9,
            retrain_growth: 100.0,
            ..config(17)
        };
        let mut e = HybridEngine::new(SyntheticSimulator::new(2, 1, 20_000, 0.0), config)
            .expect("valid config");
        e.enable_rolling_retrain(RollingRetrainConfig {
            buffer_cap: 48,
            recent_boost: 8,
            audit_every: 5,
        })
        .expect("valid rolling config");
        let seed_x = inputs(32, 5);
        let seed_y: Vec<Vec<f64>> = seed_x.iter().map(|x| e.simulator().truth(x)).collect();
        e.seed_training(&seed_x, &seed_y)
            .expect("seed design trains");
        e
    };
    let mut xs = inputs(64, 92);
    for r in [22, 40, 41, 42] {
        xs[r][1] = f64::NAN;
    }
    let (batched, rows) = assert_wave_matches_sequential(rolling, &xs);
    let audited = rows[..40]
        .iter()
        .filter(
            |r| matches!(r, Ok(r) if r.source == QuerySource::Simulated && r.gate_std.is_some()),
        )
        .count();
    assert_eq!(audited, 8, "every 5th of the first 40 rows is an audit");
    assert_eq!(batched.supervisor().quarantines(), 1, "mid-wave quarantine");
    assert_eq!(batched.accounting().learn_events(), 1, "only the seed fit");
    assert!(
        batched.rolling_evictions() > 0,
        "simulated rows overflowed the capped buffer"
    );
}

#[test]
fn splitting_a_batch_does_not_change_results() {
    // Chunked waves ≡ one big wave ≡ singles: the wave machinery must be
    // invisible at every split granularity.
    let xs = inputs(96, 31);

    let mut whole = engine(9);
    let a = wave(&mut whole, &xs);

    let mut chunked = engine(9);
    let mut b = Vec::new();
    for chunk in xs.chunks(13) {
        b.extend(wave(&mut chunked, chunk));
    }

    assert_eq!(a.len(), b.len());
    for (q, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let ok = "synthetic sim cannot fail";
        let (x, y) = (x.as_ref().expect(ok), y.as_ref().expect(ok));
        assert_eq!(x.source, y.source, "query {q} source");
        assert_eq!(
            x.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "query {q} output bits"
        );
    }
    assert_eq!(whole.n_lookups(), chunked.n_lookups());
    assert_eq!(whole.n_simulations(), chunked.n_simulations());
}

#[test]
fn fused_uncertainty_evaluation_is_replicable() {
    // Two engines with identical seeds answer an identical wave with
    // bit-identical gate decisions — the fused MC-dropout pass draws its
    // masks from stateless substreams, never from shared mutable state.
    let xs = inputs(64, 123);
    let mut a = engine(21);
    let mut b = engine(21);
    let ra = wave(&mut a, &xs);
    let rb = wave(&mut b, &xs);
    for (x, y) in ra.iter().zip(rb.iter()) {
        let ok = "synthetic sim cannot fail";
        let (x, y) = (x.as_ref().expect(ok), y.as_ref().expect(ok));
        assert_eq!(x.source, y.source);
        assert_eq!(x.gate_std.map(f64::to_bits), y.gate_std.map(f64::to_bits));
        assert_eq!(
            x.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
}
