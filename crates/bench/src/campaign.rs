//! The campaign kit: what the deterministic campaign binaries
//! (`fault_campaign`, `serve_campaign`, `drift_campaign`, `obs_baseline`)
//! share — their simulators, engine and load settings, the digest folds,
//! and the exit helpers.
//!
//! Each campaign folds every served answer and its thread-invariant
//! counters into one FNV digest. `scripts/verify.sh` pins that digest and
//! requires it at every `LE_POOL_THREADS` width, so any change here that
//! moves a folded byte moves every campaign digest that uses it.
//!
//! Exit statuses: [`or_exit`] exits 2 (setup failed), [`require`] exits 1
//! (an acceptance threshold was missed).

use le_linalg::{Fnv, Rng};
use le_sched::WorkloadConfig;
use le_serve::{Arrival, LoadConfig, ServeReport, SizeClass, Workload};
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine, LeError, QuerySource, Simulator};

/// A simulator whose "physics" is a 64-wide parallel map over 2 inputs:
/// every simulated query dispatches `pool.task` spans carrying its trace
/// id, the surface an armed worker panic fires on.
pub struct Fanout;

impl Simulator for Fanout {
    fn input_dim(&self) -> usize {
        2
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, input: &[f64], seed: u64) -> learning_everywhere::Result<Vec<f64>> {
        let parts = le_pool::par_map_index(64, |i| {
            let x = input[0] + input[1] * (i as f64 + seed as f64 * 1e-6);
            (x * 0.01).sin()
        });
        Ok(vec![parts.iter().sum::<f64>() / 64.0])
    }
}

/// A cheap analytic "physics" over 3 inputs, `sin(0.7x)·cos(0.4y) + 0.1z`:
/// smooth enough that a small surrogate generalizes and serving stays in
/// the lookup fast path.
pub struct Smooth3;

impl Smooth3 {
    fn eval(input: &[f64]) -> f64 {
        let (x, y, z) = (input[0], input[1], input[2]);
        (0.7 * x).sin() * (0.4 * y).cos() + 0.1 * z
    }
}

impl Simulator for Smooth3 {
    fn input_dim(&self) -> usize {
        3
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, input: &[f64], _seed: u64) -> learning_everywhere::Result<Vec<f64>> {
        Ok(vec![Self::eval(input)])
    }
}

/// The engine settings of the [`Fanout`] campaigns (`obs_baseline`,
/// `fault_campaign`).
pub fn fanout_config() -> HybridConfig {
    HybridConfig {
        uncertainty_threshold: 0.3,
        min_training_runs: 8,
        retrain_growth: 2.0,
        surrogate: SurrogateConfig {
            hidden: vec![16],
            epochs: 10,
            mc_samples: 8,
            seed: 3,
            ..Default::default()
        },
    }
}

/// The mixed learnt/unlearnt DES workload of the [`Fanout`] campaigns:
/// 60% of tasks learnt (1e5× faster than the 8 s simulations), arriving
/// every 0.35 s on average.
pub fn des_workload(n_tasks: usize) -> WorkloadConfig {
    WorkloadConfig {
        n_tasks,
        mean_interarrival: 0.35,
        sim_service: 8.0,
        learnt_speedup: 1e5,
        learnt_fraction_start: 0.6,
        learnt_fraction_end: 0.6,
    }
}

/// Seed `engine` with `runs` exact [`Smooth3`] runs drawn uniformly from
/// `[-1.5, 1.5]^3` (substream `stream` of the warm-up seed) and train it.
/// Fails unless a surrogate is trained afterwards.
pub fn warm_smooth3<S: Simulator>(
    engine: &mut HybridEngine<S>,
    stream: u64,
    runs: usize,
) -> learning_everywhere::Result<()> {
    let mut rng = Rng::substream(0x5EED_CAFE, stream);
    let x: Vec<Vec<f64>> = (0..runs)
        .map(|_| (0..3).map(|_| rng.uniform_in(-1.5, 1.5)).collect())
        .collect();
    let y: Vec<Vec<f64>> = x.iter().map(|x| vec![Smooth3::eval(x)]).collect();
    engine.seed_training(&x, &y)?;
    if !engine.has_surrogate() {
        return Err(LeError::InsufficientData(format!(
            "surrogate did not train from {runs} seeded runs"
        )));
    }
    Ok(())
}

/// The three-tenant [`Smooth3`] serving load: Poisson arrivals at 40k
/// req/s, tenant shares 0.5/0.3/0.2, requests of 2, 8 or 32 rows
/// (~11.6 rows per request on average).
pub fn three_tenant_load(requests: usize, payload_pool: usize) -> LoadConfig {
    LoadConfig {
        seed: crate::BENCH_SEED,
        requests,
        input_dim: 3,
        domain: (-1.5, 1.5),
        payload_pool,
        tenants: vec![0.5, 0.3, 0.2],
        sizes: vec![
            SizeClass { rows: 2, weight: 0.40 },
            SizeClass { rows: 8, weight: 0.35 },
            SizeClass { rows: 32, weight: 0.25 },
        ],
        arrival: Arrival::Poisson { rate: 40_000.0 },
    }
}

/// Fold one serve run: the workload identity, then every response in
/// sequence order (seq, tenant, and per row its source tag and output
/// bits — plus the gate std when `gate_std` is set — or a typed error by
/// its message), then the per-tenant admission counts and the wave/row
/// totals.
pub fn fold_serve(digest: &mut Fnv, workload: &Workload, report: &ServeReport, gate_std: bool) {
    digest.u64(workload.digest());
    for resp in &report.responses {
        digest.u64(resp.seq);
        digest.u64(resp.tenant as u64);
        let rows = match &resp.outcome {
            Ok(rows) => rows,
            Err(e) => {
                digest.byte(4);
                digest.str(&e.to_string());
                continue;
            }
        };
        for row in rows {
            match row {
                Ok(r) => {
                    digest.byte(match r.source {
                        QuerySource::Lookup => 1,
                        QuerySource::Simulated => 2,
                    });
                    for v in &r.output {
                        digest.f64(*v);
                    }
                    if gate_std {
                        digest.f64(r.gate_std.unwrap_or(f64::NAN));
                    }
                }
                Err(e) => {
                    digest.byte(3);
                    digest.str(&e.to_string());
                }
            }
        }
    }
    for t in 0..workload.tenants {
        digest.u64(report.submitted[t]);
        digest.u64(report.admitted[t]);
        digest.u64(report.rejected[t]);
    }
    digest.u64(report.waves);
    digest.u64(report.rows_served);
    digest.u64(report.row_errors);
}

/// Close a campaign: fold each named le-obs counter (name, then value; 0
/// when absent), print the canonical `digest 0x…` line and export
/// `results/OBS_<run>.json`.
pub fn finish(mut digest: Fnv, counters: &[&str], run: &str) {
    let snap = le_obs::snapshot();
    for &name in counters {
        digest.str(name);
        digest.u64(snap.counter(name).unwrap_or(0));
    }
    println!("digest 0x{:016x}", digest.finish());
    match le_obs::write_snapshot(run) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write OBS snapshot: {e}"),
    }
}

/// Unwrap a setup step, or report `what` and exit with status 2.
pub fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(2)
    })
}

/// Check an acceptance threshold, or report `what` and exit with status 1.
pub fn require(ok: bool, what: &str) {
    if !ok {
        eprintln!("ACCEPTANCE FAILED: {what}");
        std::process::exit(1);
    }
}
