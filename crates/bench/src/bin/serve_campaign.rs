//! Deterministic serving campaign for the `le-serve` frontend.
//!
//! Generates a seeded multi-tenant workload (Poisson arrivals, mixed
//! request sizes, cached payload pool), drives it through the full
//! serving path — concurrent client threads → seq-ordered ingress ring →
//! logical-time admission → size/deadline wave formation →
//! `HybridEngine::query_each` — against a warm surrogate, and prints a
//! canonical `digest 0x…` line folding the workload identity, every
//! served output bit, every typed rejection, and the deterministic
//! serve/engine/supervisor counters.
//!
//! `scripts/verify.sh` runs this at `LE_POOL_THREADS` ∈ {1, 4, 7} and
//! requires byte-identical digests — the serving path, like the batch
//! engine underneath, must be bit-reproducible at any thread count and
//! any client interleaving. Wall-clock latency (the one non-deterministic
//! observable) is reported as p50/p99/p999 and recorded under the
//! `serve.latency` histogram prefix, which the obsctl gate `--ignore`s.
//!
//! ```sh
//! LE_POOL_THREADS=4 cargo run --release -p le-bench --bin serve_campaign
//! ```

use le_linalg::Fnv;
use le_serve::{serve, Arrival, LoadConfig, LoopMode, ServeConfig, SizeClass, TenantQuota};
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine, QuerySource, Simulator};

/// A cheap analytic "physics": smooth in the inputs so a small surrogate
/// generalizes, letting the campaign stay in the lookup fast path and
/// push ≥1M rows through the serving waves in seconds.
struct SyntheticSimulator;

impl Simulator for SyntheticSimulator {
    fn input_dim(&self) -> usize {
        3
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, input: &[f64], _seed: u64) -> learning_everywhere::Result<Vec<f64>> {
        let (x, y, z) = (input[0], input[1], input[2]);
        Ok(vec![(0.7 * x).sin() * (0.4 * y).cos() + 0.1 * z])
    }
}

/// The thread-invariant serving counters folded into the digest (the
/// thread-*variant* pool metrics `le_pool.*` and the wall-clock
/// `serve.latency*` histograms are deliberately excluded here and
/// `--ignore`d in the obsctl gate).
const SERVE_COUNTERS: [&str; 7] = [
    "serve.submitted",
    "serve.admitted",
    "serve.rejected",
    "serve.waves",
    "serve.rows_served",
    "serve.row_errors",
    "hybrid.sim_errors",
];

fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("{what}: {e}");
    std::process::exit(2);
}

fn main() {
    // A warm engine: seed enough smooth training data that the surrogate
    // trains immediately and the generous gate keeps the whole campaign
    // in the fused lookup path.
    let mut engine = match HybridEngine::new(
        SyntheticSimulator,
        HybridConfig {
            uncertainty_threshold: 5.0,
            min_training_runs: 32,
            retrain_growth: 8.0,
            surrogate: SurrogateConfig {
                hidden: vec![16],
                epochs: 30,
                mc_samples: 4,
                seed: 9,
                ..Default::default()
            },
        },
    ) {
        Ok(e) => e,
        Err(e) => fail("engine rejected", e),
    };
    let mut warm_rng = le_linalg::Rng::substream(0x5EED_CAFE, 0);
    let warm_x: Vec<Vec<f64>> = (0..48)
        .map(|_| (0..3).map(|_| warm_rng.uniform_in(-1.5, 1.5)).collect())
        .collect();
    let warm_y: Vec<Vec<f64>> = warm_x
        .iter()
        .map(|x| SyntheticSimulator.simulate(x, 0).unwrap_or_default())
        .collect();
    if let Err(e) = engine.seed_training(&warm_x, &warm_y) {
        fail("seed training rejected", e);
    }
    if !engine.has_surrogate() {
        fail("warmup", "surrogate did not train from the seeded runs");
    }

    // The workload: 100k requests, ~11.6 rows/request → ~1.16M rows, three
    // tenants, Poisson arrivals at 40k req/s (~2.5 logical seconds).
    let workload = match le_serve::loadgen::generate(&LoadConfig {
        seed: le_bench::BENCH_SEED,
        requests: 100_000,
        input_dim: 3,
        domain: (-1.5, 1.5),
        payload_pool: 4096,
        tenants: vec![0.5, 0.3, 0.2],
        sizes: vec![
            SizeClass { rows: 2, weight: 0.40 },
            SizeClass { rows: 8, weight: 0.35 },
            SizeClass { rows: 32, weight: 0.25 },
        ],
        arrival: Arrival::Poisson { rate: 40_000.0 },
    }) {
        Ok(w) => w,
        Err(e) => fail("workload rejected", e),
    };

    // Tenants 0/1 are unconstrained; tenant 2's bucket is sized below its
    // offered row rate, so a deterministic slice of its bursts bounces
    // with typed backpressure — the rejection path is part of the digest.
    let cfg = ServeConfig {
        clients: 6,
        queue_capacity: 1024,
        batch_max_rows: 4096,
        deadline: 0.02,
        mode: LoopMode::Open,
        quotas: vec![
            TenantQuota::unlimited(),
            TenantQuota::unlimited(),
            TenantQuota { rate: 70_000.0, burst: 512.0 },
        ],
    };

    let sw = le_obs::Stopwatch::start();
    let report = match serve(&mut engine, &workload, &cfg) {
        Ok(r) => r,
        Err(e) => fail("serve run failed", e),
    };
    let wall = sw.elapsed_secs();

    // Fold the deterministic surface: workload identity, every response
    // in sequence order (outputs bit-exact, rejections by their typed
    // message), then the serve/engine/supervisor counters.
    let mut digest = Fnv::new();
    digest.u64(workload.digest());
    for resp in &report.responses {
        digest.u64(resp.seq);
        digest.u64(resp.tenant as u64);
        match &resp.outcome {
            Ok(rows) => {
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
                            digest.f64(r.gate_std.unwrap_or(f64::NAN));
                        }
                        Err(e) => {
                            digest.byte(3);
                            digest.str(&e.to_string());
                        }
                    }
                }
            }
            Err(e) => {
                digest.byte(4);
                digest.str(&e.to_string());
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
    digest.u64(engine.n_lookups());
    digest.u64(engine.n_simulations());
    digest.u64(engine.supervisor().retries());
    digest.u64(engine.supervisor().quarantines());
    let snap = le_obs::snapshot();
    for name in SERVE_COUNTERS {
        digest.str(name);
        digest.u64(snap.counter(name).unwrap_or(0));
    }

    let total_sub: u64 = report.submitted.iter().sum();
    let total_rej: u64 = report.rejected.iter().sum();
    println!(
        "serve: {} requests ({} rejected), {} waves, lookup fraction {:.3}",
        total_sub,
        total_rej,
        report.waves,
        engine.lookup_fraction(),
    );
    println!("rows_served {}", report.rows_served);
    println!(
        "latency: p50_us {:.1} p99_us {:.1} p999_us {:.1} max_us {:.1} mean_us {:.1}",
        report.latency.p50 * 1e6,
        report.latency.p99 * 1e6,
        report.latency.p999 * 1e6,
        report.latency.max * 1e6,
        report.latency.mean * 1e6,
    );
    println!(
        "throughput: {:.0} rows/s over {:.2}s wall",
        report.rows_served as f64 / wall.max(1e-9),
        wall
    );
    println!("digest 0x{:016x}", digest.finish());

    match le_obs::write_snapshot("serve_campaign") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write OBS snapshot: {e}"),
    }
}
