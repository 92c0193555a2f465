//! Deterministic fault campaign for the supervision/degradation gate.
//!
//! Replays a seeded campaign against a hybrid engine whose simulator is
//! wrapped in `le-faults` injection — ≥10% injected simulator errors plus
//! NaN-poisoned outputs plus one armed `le-pool` worker panic — followed by
//! a DES run with injected logical-time stalls under a deadline budget.
//! The supervision layer must absorb all of it: the campaign completes
//! without a process panic and every query is served.
//!
//! The binary prints a canonical `digest 0x…` line folding every served
//! answer (bit-exact) together with the thread-invariant degradation
//! counters. `scripts/verify.sh` runs this at `LE_POOL_THREADS` ∈ {1, 4, 7}
//! and requires all three digests to be byte-identical — the fault ladder,
//! like the happy path, must be bit-reproducible at any thread count — and
//! then diffs the exported `results/OBS_fault_campaign.json` against the
//! committed copy under `results/baselines/faults/`.
//!
//! ```sh
//! LE_POOL_THREADS=4 cargo run --release -p le-bench --bin fault_campaign
//! ```

use le_faults::{FaultPlan, FaultRates, FaultySimulator};
use le_linalg::Fnv;
use le_sched::{simulate_with, Policy, SimOptions, Workload, WorkloadConfig};
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine, Simulator, SupervisorConfig};

/// A simulator whose "physics" is a 64-wide parallel map (the same fan-out
/// substrate as `obs_baseline`), so every simulated query dispatches pool
/// tasks — the surface the armed worker panic fires on.
struct FanoutSimulator;

impl Simulator for FanoutSimulator {
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

/// The thread-invariant degradation counters folded into the digest (the
/// thread-*variant* pool-schedule metrics, `le_pool.*`, are deliberately
/// excluded here and `--ignore`d in the obsctl gate).
const DEGRADATION_COUNTERS: [&str; 13] = [
    "faults.injected.sim_error",
    "faults.injected.nonfinite",
    "faults.injected.worker_panic",
    "gate.nonfinite",
    "gate.model_error",
    "hybrid.sim_errors",
    "hybrid.sim_nonfinite",
    "hybrid.sim_panics",
    "pool.task_respawn",
    "supervisor.retry",
    "supervisor.quarantine",
    "supervisor.readmit",
    "supervisor.degraded",
];

fn main() {
    let plan = match FaultPlan::new(
        0xFA_17,
        FaultRates {
            sim_error: 0.10,
            nonfinite: 0.05,
            stall: 0.12,
        },
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fault plan rejected: {e}");
            std::process::exit(2);
        }
    };

    // Phase 1: a hybrid campaign over the faulty fan-out simulator, with
    // one worker panic armed to fire inside an early simulate dispatch
    // (each simulate is 32 pool tasks; index < 64 lands in the first two).
    plan.arm_pool_panic(64);
    let engine = HybridEngine::with_supervisor(
        FaultySimulator::new(FanoutSimulator, plan.clone()),
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
        },
        SupervisorConfig {
            max_retries: 3,
            quarantine_after: 3,
            degrade_after: 3,
        },
    );
    let mut engine = match engine {
        Ok(e) => e,
        Err(e) => {
            eprintln!("engine rejected: {e}");
            std::process::exit(2);
        }
    };

    let mut digest = Fnv::new();
    let n_queries = 64u64;
    let mut served = 0u64;
    // Queries flow through the batched gate in waves of 16: by the
    // `query_batch` contract the served answers are bit-identical to
    // sequential `query` calls, and this campaign exercises that contract
    // under fault injection (mid-batch retrains, quarantines, and an armed
    // worker panic all land inside batches).
    let inputs: Vec<Vec<f64>> = (0..n_queries)
        .map(|q| vec![0.05 * (q % 24) as f64, 0.2 + 0.003 * q as f64])
        .collect();
    for (c, chunk) in inputs.chunks(16).enumerate() {
        match engine.query_batch(chunk) {
            Ok(results) => {
                for (k, r) in results.iter().enumerate() {
                    served += 1;
                    digest.u64((c * 16 + k) as u64);
                    for v in &r.output {
                        digest.f64(*v);
                    }
                }
            }
            Err(e) => {
                // Acceptance: the supervised campaign serves every query.
                eprintln!("batch {c} failed despite supervision: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "hybrid: served {served}/{n_queries}, lookup fraction {:.2}, \
         retries {}, injected calls {}",
        engine.lookup_fraction(),
        engine.supervisor().retries(),
        engine.simulator().calls(),
    );

    // Phase 2: the DES under injected stalls and a deadline budget —
    // stragglers time out at the budget and their bounded re-dispatches
    // complete.
    let workload = match Workload::generate(
        &WorkloadConfig {
            n_tasks: 600,
            mean_interarrival: 0.35,
            sim_service: 8.0,
            learnt_speedup: 1e5,
            learnt_fraction_start: 0.6,
            learnt_fraction_end: 0.6,
        },
        le_bench::BENCH_SEED,
    ) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("workload rejected: {e}");
            std::process::exit(2);
        }
    };
    let deadline = 12.0;
    let opts = SimOptions {
        deadline: Some(deadline),
        max_redispatch: 2,
        stalls: plan.stalls(workload.tasks.len(), deadline),
    };
    match simulate_with(&workload, 8, Policy::WorkStealing, &opts) {
        Ok(m) => {
            if m.n_completed != workload.tasks.len() {
                eprintln!(
                    "DES lost tasks under stalls: {}/{}",
                    m.n_completed,
                    workload.tasks.len()
                );
                std::process::exit(1);
            }
            println!(
                "sched: {} stalls injected, makespan {:.1}s, all {} tasks completed",
                opts.stalls.len(),
                m.makespan,
                m.n_completed
            );
            digest.f64(m.makespan);
            digest.f64(m.total_busy);
        }
        Err(e) => {
            eprintln!("DES run failed: {e}");
            std::process::exit(1);
        }
    }

    // Fold the thread-invariant degradation counters into the digest.
    let snap = le_obs::snapshot();
    for name in DEGRADATION_COUNTERS {
        digest.str(name);
        digest.u64(snap.counter(name).unwrap_or(0));
    }
    println!("degraded state: {:?}", engine.supervisor().state());
    println!("digest 0x{:016x}", digest.finish());

    match le_obs::write_snapshot("fault_campaign") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write OBS snapshot: {e}"),
    }
}
