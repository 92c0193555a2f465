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
//! and requires the pinned digest at each width — the fault ladder,
//! like the happy path, must be bit-reproducible at any thread count — and
//! then diffs the exported `results/OBS_fault_campaign.json` against the
//! committed copy under `results/baselines/faults/`.
//!
//! ```sh
//! LE_POOL_THREADS=4 cargo run --release -p le-bench --bin fault_campaign
//! ```

use le_bench::campaign::{des_workload, fanout_config, finish, or_exit, require, Fanout};
use le_faults::{FaultPlan, FaultRates, FaultySimulator};
use le_linalg::Fnv;
use le_sched::{simulate_with, Policy, SimOptions, Workload};
use learning_everywhere::{HybridEngine, SupervisorConfig};

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
    let rates = FaultRates {
        sim_error: 0.10,
        nonfinite: 0.05,
        stall: 0.12,
    };
    let plan = or_exit(FaultPlan::new(0xFA_17, rates), "fault plan rejected");

    // Phase 1: a hybrid campaign over the faulty fan-out simulator, with
    // one worker panic armed to fire inside an early simulate dispatch
    // (each simulate is 32 pool tasks; index < 64 lands in the first two).
    plan.arm_pool_panic(64);
    let supervision = SupervisorConfig {
        max_retries: 3,
        quarantine_after: 3,
        degrade_after: 3,
    };
    let simulator = FaultySimulator::new(Fanout, plan.clone());
    let mut engine = or_exit(
        HybridEngine::with_supervisor(simulator, fanout_config(), supervision),
        "engine rejected",
    );

    let mut digest = Fnv::new();
    let n_queries = 64u64;
    let mut served = 0u64;
    // Queries flow through the batched gate in waves of 16: by the
    // `query_each` contract the served answers are bit-identical to
    // sequential `query` calls, and this campaign exercises that contract
    // under fault injection (mid-batch retrains, quarantines, and an armed
    // worker panic all land inside batches).
    let inputs: Vec<Vec<f64>> = (0..n_queries)
        .map(|q| vec![0.05 * (q % 24) as f64, 0.2 + 0.003 * q as f64])
        .collect();
    for (c, chunk) in inputs.chunks(16).enumerate() {
        let answered = engine.query_each(&chunk.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let results: Vec<_> = match answered.and_then(|r| r.into_iter().collect()) {
            Ok(r) => r,
            // Acceptance: the supervised campaign serves every query.
            Err(e) => return require(false, &format!("batch {c} failed despite supervision: {e}")),
        };
        for (k, r) in results.iter().enumerate() {
            served += 1;
            digest.u64((c * 16 + k) as u64);
            for v in &r.output {
                digest.f64(*v);
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
    let workload = or_exit(
        Workload::generate(&des_workload(600), le_bench::BENCH_SEED),
        "workload rejected",
    );
    let deadline = 12.0;
    let opts = SimOptions {
        deadline: Some(deadline),
        max_redispatch: 2,
        stalls: plan.stalls(workload.tasks.len(), deadline),
    };
    let m = match simulate_with(&workload, 8, Policy::WorkStealing, &opts) {
        Ok(m) => m,
        Err(e) => return require(false, &format!("DES run failed: {e}")),
    };
    require(
        m.n_completed == workload.tasks.len(),
        &format!(
            "DES lost tasks under stalls: {}/{}",
            m.n_completed,
            workload.tasks.len()
        ),
    );
    println!(
        "sched: {} stalls injected, makespan {:.1}s, all {} tasks completed",
        opts.stalls.len(),
        m.makespan,
        m.n_completed
    );
    digest.f64(m.makespan);
    digest.f64(m.total_busy);

    println!("degraded state: {:?}", engine.supervisor().state());
    finish(digest, &DEGRADATION_COUNTERS, "fault_campaign");
}
