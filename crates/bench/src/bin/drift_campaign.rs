//! Deterministic drift campaign for the staleness/rolling-retrain gate.
//!
//! **Phase A (accuracy arms).** A seeded `le-drift` schedule shifts the
//! nanoconfinement parameter distribution over logical time (an h-ramp, a
//! c-oscillation, a d-step — all clamped physical). Two arms consume the
//! same drifted stream:
//!
//! * **frozen** — an `NnSurrogate` fitted once on the pre-drift
//!   distribution and never updated. Its windowed RMSE must degrade ≥3×
//!   between the pre-drift window and the post-saturation window: the
//!   drift is real.
//! * **rolling** — a `HybridEngine` with staleness detection and the
//!   rolling-retrain path enabled. Mid-wave retrain triggers are deferred
//!   (the in-flight wave answers from the frozen snapshot — serving never
//!   pauses) and the swap lands at the wave boundary. Its final-window
//!   answer RMSE must hold within 1.25× of its own pre-drift window.
//!
//! **Phase B (chaos arm).** The same drift machinery applied to a
//! `le-serve` payload pool (logical time = pool row index), composed with
//! `le-faults` injection and multi-tenant traffic at saturation: drifted
//! inputs fall through the gate into a faulty simulator while a tight
//! tenant bucket bounces bursts with typed backpressure — and the whole
//! run stays deterministic.
//!
//! The binary enforces the acceptance thresholds itself (exit 1 on a
//! miss) and prints a canonical `digest 0x…` line folding every served
//! answer bit, both arms' windowed RMSEs, every chaos-arm response, and
//! the thread-invariant drift/rolling/staleness counters.
//! `scripts/verify.sh` runs this at `LE_POOL_THREADS` ∈ {1, 4, 7} and
//! requires the pinned digest at each, then diffs the exported
//! `results/OBS_drift_campaign.json` against the committed baseline.
//!
//! ```sh
//! LE_POOL_THREADS=4 cargo run --release -p le-bench --bin drift_campaign
//! ```

use le_bench::campaign::{
    finish, fold_serve, or_exit, require, three_tenant_load, warm_smooth3, Smooth3,
};
use le_drift::presets::{nanoconfinement, shift_nano};
use le_drift::{AxisDrift, DriftSchedule, DriftWave};
use le_faults::{FaultPlan, FaultRates, FaultySimulator};
use le_linalg::Fnv;
use le_mdsim::nanoconfinement::NanoParams;
use le_serve::{serve, LoopMode, ServeConfig, TenantQuota};
use learning_everywhere::surrogate::{NnSurrogate, SurrogateConfig};
use learning_everywhere::{
    HybridConfig, HybridEngine, QuerySource, RollingRetrainConfig, Simulator, StalenessConfig,
    SupervisorConfig,
};

/// Campaign timeline (logical steps = query indices).
const WARMUP: u64 = 64; // drift-free prefix
const SPAN: u64 = 256; // ramp length; step lands at WARMUP + SPAN/2
const TOTAL: u64 = 896; // whole stream (long settled tail after the ramp)
const WAVE: usize = 16; // rows per serving wave
const WINDOW: u64 = 64; // RMSE window (pre = first, final = last)

/// The nanoconfinement stand-in "physics": a cheap analytic function of
/// the 5 features `[h, z_p, z_n, c, d]`, curved enough in `h` that a
/// surrogate fitted on a narrow pre-drift slab extrapolates badly once
/// the ramp saturates.
struct AnalyticNano;

fn nano_truth(f: &[f64]) -> f64 {
    let (h, zp, zn, c, d) = (f[0], f[1], f[2], f[3], f[4]);
    (1.7 * h).sin() * (1.0 + 0.6 * c) + 0.25 * (h - 2.4) * (h - 2.4) + 1.2 * d + 0.08 * zp
        - 0.05 * zn
}

impl Simulator for AnalyticNano {
    fn input_dim(&self) -> usize {
        5
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, input: &[f64], _seed: u64) -> learning_everywhere::Result<Vec<f64>> {
        Ok(vec![nano_truth(input)])
    }
}

/// The thread-invariant drift/rolling/staleness counters folded into the
/// digest (thread-*variant* pool metrics `le_pool.*` and wall-clock
/// `serve.latency*` histograms are excluded here and `--ignore`d in the
/// obsctl gate).
const DRIFT_COUNTERS: [&str; 16] = [
    "staleness.flagged",
    "staleness.std_inflation",
    "staleness.calibration_decay",
    "supervisor.stale",
    "supervisor.retrain_failed",
    "hybrid.rolling.swaps",
    "hybrid.rolling.deferred",
    "hybrid.rolling.evicted",
    "faults.injected.sim_error",
    "faults.injected.nonfinite",
    "serve.submitted",
    "serve.admitted",
    "serve.rejected",
    "serve.waves",
    "serve.rows_served",
    "serve.row_errors",
];

/// A pre-drift nanoconfinement parameter point: the *narrow* slab the
/// frozen surrogate is trained on, well inside the physical ranges, so the
/// clamped drift schedule still leaves it and lands genuinely
/// out-of-distribution.
fn base_point(rng: &mut le_linalg::Rng) -> NanoParams {
    NanoParams {
        h: rng.uniform_in(2.1, 2.7),
        z_p: 1 + rng.below(3) as u32,
        z_n: 1 + rng.below(2) as u32,
        c: rng.uniform_in(0.4, 0.6),
        d: rng.uniform_in(0.52, 0.6),
    }
}

fn rmse(errs: &[f64]) -> f64 {
    if errs.is_empty() {
        return f64::NAN;
    }
    (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt()
}

fn main() {
    let mut digest = Fnv::new();
    let schedule = nanoconfinement(0xD21F_7, WARMUP, SPAN);

    // The drifted query stream, fixed up front: point t is a narrow-slab
    // base point shifted by the schedule at logical time t.
    let mut stream_rng = le_linalg::Rng::substream(0xD21F_7, 1);
    let stream: Vec<Vec<f64>> = (0..TOTAL)
        .map(|t| {
            let p = shift_nano(&schedule, &base_point(&mut stream_rng), t);
            p.to_features().to_vec()
        })
        .collect();

    // Pre-drift training set: 256 clean narrow-slab runs.
    let mut train_rng = le_linalg::Rng::substream(0xD21F_7, 2);
    let train: Vec<Vec<f64>> = (0..256)
        .map(|_| base_point(&mut train_rng).to_features().to_vec())
        .collect();
    let train_y: Vec<Vec<f64>> = train.iter().map(|f| vec![nano_truth(f)]).collect();

    let surrogate_cfg = SurrogateConfig {
        hidden: vec![32, 32],
        epochs: 200,
        mc_samples: 8,
        seed: 7,
        ..Default::default()
    };

    // ---- Phase A, arm 1: the frozen surrogate. ----
    let x = le_linalg::Matrix::from_rows(&train.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
    let y = le_linalg::Matrix::from_rows(&train_y.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
    let frozen = or_exit(
        NnSurrogate::fit(&x, &y, &surrogate_cfg),
        "frozen surrogate fit",
    );
    let mut pre_errs = Vec::new();
    let mut post_errs = Vec::new();
    for (t, row) in stream.iter().enumerate() {
        let err = or_exit(frozen.predict(row), "frozen predict")[0] - nano_truth(row);
        if (t as u64) < WINDOW {
            pre_errs.push(err);
        } else if t as u64 >= TOTAL - 2 * WINDOW {
            post_errs.push(err);
        }
    }
    let frozen_pre = rmse(&pre_errs);
    let frozen_post = rmse(&post_errs);
    let frozen_ratio = frozen_post / frozen_pre;
    println!("frozen rmse: pre {frozen_pre:.4} post {frozen_post:.4} ratio {frozen_ratio:.1}");
    digest.f64(frozen_pre);
    digest.f64(frozen_post);

    // ---- Phase A, arm 2: the rolling-retrain engine. ----
    let rolling_cfg = HybridConfig {
        uncertainty_threshold: 0.30,
        min_training_runs: 192,
        retrain_growth: 1.1,
        surrogate: surrogate_cfg.clone(),
    };
    let supervision = SupervisorConfig {
        max_retries: 2,
        quarantine_after: 5,
        degrade_after: 5,
    };
    let mut engine = or_exit(
        HybridEngine::with_supervisor(AnalyticNano, rolling_cfg, supervision),
        "rolling engine rejected",
    );
    let rolling = RollingRetrainConfig {
        buffer_cap: 192,
        recent_boost: 96,
        audit_every: 3,
    };
    or_exit(
        engine.enable_rolling_retrain(rolling),
        "rolling config rejected",
    );
    let staleness = StalenessConfig {
        window: 12,
        baseline: 12,
        std_ratio: 1.4,
        nominal_coverage: 0.9,
        min_coverage: 0.5,
        min_labelled: 12,
    };
    or_exit(
        engine.enable_staleness(staleness),
        "staleness config rejected",
    );
    // The capped buffer keeps 192 of the 256 runs, exactly `min_training_runs`,
    // so seeding either trains the surrogate or fails here.
    or_exit(
        engine.seed_training(&train, &train_y),
        "rolling seed training",
    );

    let mut served = 0u64;
    let mut pre = (Vec::new(), 0u64); // (errors, lookups)
    let mut fin = (Vec::new(), 0u64);
    for (w, wave) in stream.chunks(WAVE).enumerate() {
        let results = match engine.query_batch(wave) {
            Ok(r) => r,
            // Acceptance: the rolling engine answers every wave.
            Err(e) => return require(false, &format!("wave {w} failed under drift: {e}")),
        };
        for (k, r) in results.iter().enumerate() {
            let t = (w * WAVE + k) as u64;
            served += 1;
            digest.u64(t);
            digest.byte(match r.source {
                QuerySource::Lookup => 1,
                QuerySource::Simulated => 2,
            });
            for v in &r.output {
                digest.f64(*v);
            }
            let err = r.output[0] - nano_truth(&stream[t as usize]);
            let bucket = if t < WINDOW {
                Some(&mut pre)
            } else if t >= TOTAL - WINDOW {
                Some(&mut fin)
            } else {
                None
            };
            if let Some((errs, lookups)) = bucket {
                errs.push(err);
                if r.source == QuerySource::Lookup {
                    *lookups += 1;
                }
            }
        }
    }
    let rolling_pre = rmse(&pre.0);
    let rolling_fin = rmse(&fin.0);
    println!(
        "rolling rmse: pre {rolling_pre:.4} final {rolling_fin:.4} ratio {:.2}",
        rolling_fin / rolling_pre
    );
    println!(
        "rolling: served {served}/{TOTAL}, swaps {} deferrals {} evictions {} stale_flags {} \
         lookup fraction {:.2} (final window {}/{WINDOW} lookups)",
        engine.rolling_swaps(),
        engine.rolling_deferrals(),
        engine.rolling_evictions(),
        engine.supervisor().stale_flags(),
        engine.lookup_fraction(),
        fin.1,
    );
    digest.f64(rolling_pre);
    digest.f64(rolling_fin);
    digest.u64(engine.rolling_swaps());
    digest.u64(engine.rolling_deferrals());
    digest.u64(engine.supervisor().stale_flags());

    // The acceptance thresholds the gate rests on.
    require(
        served == TOTAL,
        "rolling arm must answer every query (serving never pauses)",
    );
    require(
        frozen_ratio >= 3.0,
        "frozen surrogate RMSE must degrade >= 3x under the drift schedule",
    );
    require(
        rolling_fin <= 1.25 * rolling_pre,
        "rolling-retrain engine must hold final RMSE within 1.25x of pre-drift",
    );
    require(
        engine.rolling_swaps() >= 1,
        "rolling engine must actually swap snapshots at a wave boundary",
    );
    require(
        engine.supervisor().stale_flags() >= 1,
        "staleness detector must flag the drift",
    );
    require(
        fin.1 > 0,
        "recovered surrogate must serve lookups in the final window",
    );

    // ---- Phase B: the chaos arm — drifted payloads + fault injection
    // ---- under multi-tenant serving at saturation.
    let rates = FaultRates {
        sim_error: 0.05,
        nonfinite: 0.03,
        stall: 0.0,
    };
    let plan = or_exit(FaultPlan::new(0xD21F_FA, rates), "fault plan rejected");
    let chaos_cfg = HybridConfig {
        uncertainty_threshold: 0.35,
        min_training_runs: 48,
        retrain_growth: 1.5,
        surrogate: SurrogateConfig {
            hidden: vec![16],
            epochs: 30,
            mc_samples: 4,
            seed: 9,
            ..Default::default()
        },
    };
    let supervision = SupervisorConfig {
        max_retries: 3,
        quarantine_after: 4,
        degrade_after: 4,
    };
    let simulator = FaultySimulator::new(Smooth3, plan.clone());
    let mut chaos = or_exit(
        HybridEngine::with_supervisor(simulator, chaos_cfg, supervision),
        "chaos engine rejected",
    );
    let rolling = RollingRetrainConfig {
        buffer_cap: 512,
        recent_boost: 64,
        audit_every: 16,
    };
    or_exit(
        chaos.enable_rolling_retrain(rolling),
        "chaos rolling config",
    );
    let staleness = StalenessConfig {
        window: 64,
        baseline: 64,
        std_ratio: 1.5,
        nominal_coverage: 0.9,
        min_coverage: 0.5,
        min_labelled: 64,
    };
    or_exit(chaos.enable_staleness(staleness), "chaos staleness config");
    or_exit(warm_smooth3(&mut chaos, 7, 64), "chaos seed training");

    let mut workload = or_exit(
        le_serve::loadgen::generate(&three_tenant_load(20_000, 2048)),
        "chaos workload rejected",
    );
    // Drift the payload pool in place: logical time = pool row index, so
    // late rows are far from the training distribution. Deterministic —
    // the same row drifts identically at any thread count.
    let axes = vec![
        AxisDrift {
            axis: 0,
            wave: DriftWave::Ramp {
                start: 256,
                end: 1536,
                amplitude: 1.8,
            },
        },
        AxisDrift {
            axis: 1,
            wave: DriftWave::Step {
                at: 1024,
                amplitude: -1.2,
            },
        },
        AxisDrift {
            axis: 2,
            wave: DriftWave::Oscillation {
                period: 512,
                amplitude: 0.6,
            },
        },
    ];
    let pool_schedule = or_exit(
        DriftSchedule::new(0xD21F_9, axes, 0.01),
        "pool schedule rejected",
    );
    let dim = workload.input_dim;
    for i in 0..workload.pool.len() / dim {
        pool_schedule.shift_row(&mut workload.pool[i * dim..(i + 1) * dim], i as u64);
    }

    // Saturation: a tight ingress ring plus one under-provisioned tenant
    // bucket — a deterministic slice of the traffic bounces with typed
    // backpressure while drifted rows fall through the gate into the
    // faulty simulator.
    let cfg = ServeConfig {
        clients: 4,
        queue_capacity: 512,
        batch_max_rows: 2048,
        deadline: 0.02,
        mode: LoopMode::Open,
        quotas: vec![
            TenantQuota::unlimited(),
            TenantQuota::unlimited(),
            TenantQuota { rate: 50_000.0, burst: 384.0 },
        ],
    };
    let report = or_exit(serve(&mut chaos, &workload, &cfg), "chaos serve run failed");

    fold_serve(&mut digest, &workload, &report, false);
    digest.u64(chaos.n_lookups());
    digest.u64(chaos.n_simulations());
    digest.u64(chaos.rolling_swaps());
    digest.u64(chaos.supervisor().stale_flags());
    digest.u64(chaos.supervisor().retries());
    digest.u64(chaos.supervisor().quarantines());

    let total_sub: u64 = report.submitted.iter().sum();
    let total_rej: u64 = report.rejected.iter().sum();
    println!(
        "chaos: {} requests ({} rejected), {} waves, rows_served {}, row_errors {}, \
         injected calls {}, swaps {}, stale_flags {}, state {:?}",
        total_sub,
        total_rej,
        report.waves,
        report.rows_served,
        report.row_errors,
        chaos.simulator().calls(),
        chaos.rolling_swaps(),
        chaos.supervisor().stale_flags(),
        chaos.supervisor().state(),
    );
    require(
        total_rej > 0,
        "chaos arm must exercise backpressure at saturation",
    );
    require(
        report.rows_served > 0,
        "chaos arm must serve rows despite drift and faults",
    );

    finish(digest, &DRIFT_COUNTERS, "drift_campaign");
}
