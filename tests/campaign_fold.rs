//! The serve-run digest layout of `le_bench::campaign::fold_serve`, which
//! the serve and drift campaign digests are built on, checked against a
//! reference fold written out byte by byte: a small two-tenant run in
//! which one tenant is shed by its quota and a faulty simulator fails some
//! rows, folded with and without the per-row gate std.

use le_bench::campaign::{fold_serve, warm_smooth3, Smooth3};
use le_faults::{FaultPlan, FaultRates, FaultySimulator};
use le_linalg::Fnv;
use le_serve::{serve, Arrival, LoadConfig, LoopMode, ServeConfig, ServeReport, SizeClass};
use le_serve::{TenantQuota, Workload};
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine, QuerySource, SupervisorConfig};

/// The fold spelled out: workload digest; per response seq and tenant,
/// then tag 4 + message for a rejected request, or per row tag 1/2 +
/// output bits (+ gate std, NaN when absent) or tag 3 + message; then
/// per-tenant submitted/admitted/rejected and the wave/row totals.
fn reference(workload: &Workload, report: &ServeReport, gate_std: bool) -> u64 {
    let mut d = Fnv::new();
    d.u64(workload.digest());
    for resp in &report.responses {
        d.u64(resp.seq);
        d.u64(resp.tenant as u64);
        let Ok(rows) = &resp.outcome else {
            d.byte(4);
            d.str(&resp.outcome.as_ref().unwrap_err().to_string());
            continue;
        };
        for row in rows {
            let Ok(r) = row else {
                d.byte(3);
                d.str(&row.as_ref().unwrap_err().to_string());
                continue;
            };
            d.byte(if r.source == QuerySource::Lookup {
                1
            } else {
                2
            });
            r.output.iter().for_each(|v| d.u64(v.to_bits()));
            if gate_std {
                d.u64(r.gate_std.unwrap_or(f64::NAN).to_bits());
            }
        }
    }
    for t in 0..workload.tenants {
        for count in [&report.submitted, &report.admitted, &report.rejected] {
            d.u64(count[t]);
        }
    }
    for total in [report.waves, report.rows_served, report.row_errors] {
        d.u64(total);
    }
    d.finish()
}

#[test]
fn fold_serve_matches_the_reference_layout() {
    let plan = FaultPlan::new(
        17,
        FaultRates {
            sim_error: 0.5,
            nonfinite: 0.0,
            stall: 0.0,
        },
    )
    .expect("valid rates");
    let config = HybridConfig {
        uncertainty_threshold: 0.05,
        min_training_runs: 8,
        retrain_growth: 8.0,
        surrogate: SurrogateConfig {
            hidden: vec![8],
            epochs: 5,
            mc_samples: 4,
            seed: 5,
            ..Default::default()
        },
    };
    let supervision = SupervisorConfig {
        max_retries: 0,
        quarantine_after: 1000,
        degrade_after: 1000,
    };
    let simulator = FaultySimulator::new(Smooth3, plan);
    let mut engine =
        HybridEngine::with_supervisor(simulator, config, supervision).expect("valid config");
    warm_smooth3(&mut engine, 3, 12).expect("warm-up trains");

    let workload = le_serve::loadgen::generate(&LoadConfig {
        seed: 11,
        requests: 60,
        input_dim: 3,
        domain: (-1.5, 1.5),
        payload_pool: 64,
        tenants: vec![0.5, 0.5],
        sizes: vec![
            SizeClass { rows: 1, weight: 0.5 },
            SizeClass { rows: 4, weight: 0.5 },
        ],
        arrival: Arrival::Poisson { rate: 2000.0 },
    })
    .expect("valid workload");
    let cfg = ServeConfig {
        clients: 2,
        queue_capacity: 16,
        batch_max_rows: 16,
        deadline: 0.01,
        mode: LoopMode::Open,
        quotas: vec![
            TenantQuota::unlimited(),
            TenantQuota { rate: 200.0, burst: 4.0 },
        ],
    };
    let report = serve(&mut engine, &workload, &cfg).expect("serve run completes");

    // Every record kind the fold distinguishes occurs in this run.
    let rows = || {
        report
            .responses
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .flatten()
    };
    assert!(
        report.rejected[1] > 0 && report.rejected[0] == 0,
        "{:?}",
        report.rejected
    );
    assert!(
        report.row_errors > 0,
        "the faulty simulator must fail some rows"
    );
    for source in [QuerySource::Lookup, QuerySource::Simulated] {
        assert!(
            rows().any(|r| r.as_ref().is_ok_and(|r| r.source == source)),
            "no {source:?} row served"
        );
    }

    let folded = |gate_std| {
        let mut digest = Fnv::new();
        fold_serve(&mut digest, &workload, &report, gate_std);
        digest.finish()
    };
    for gate_std in [false, true] {
        assert_eq!(
            folded(gate_std),
            reference(&workload, &report, gate_std),
            "gate_std = {gate_std}"
        );
    }
    assert_ne!(
        folded(false),
        folded(true),
        "the gate std must reach the digest"
    );
}
