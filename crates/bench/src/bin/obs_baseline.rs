//! Deterministic observability baseline for the `obsctl diff` gate.
//!
//! Replays a fixed three-phase campaign — a short MD run, a hybrid-engine
//! query loop whose simulator fans out onto `le-pool`, and two DES
//! scheduling runs — then exports `results/OBS_baseline.json` (counters,
//! spans, histograms) and `results/TRACE_baseline.json` (the causal event
//! journal, Chrome `trace_event` format).
//!
//! `scripts/verify.sh` runs this binary with `LE_POOL_THREADS=4` pinned and
//! diffs the fresh snapshot against the committed copy under
//! `results/baselines/`: counter values and span counts are exact replicas
//! of the committed baseline whenever the workload, the pool decomposition,
//! and the numerics are unchanged, so any silent drift in those trips the
//! gate. (Schedule-dependent worker metrics are excluded with `--ignore`;
//! span *timings* are gated only by a generous one-sided tolerance.)
//!
//! ```sh
//! LE_POOL_THREADS=4 cargo run --release -p le-bench --bin obs_baseline
//! ```

use le_bench::campaign::{des_workload, fanout_config, or_exit, require, Fanout};
use le_bench::BENCH_SEED;
use le_mdsim::nanoconfinement::NanoParams;
use le_mdsim::{NanoSim, SimConfig};
use le_sched::{simulate, Policy, Workload};
use learning_everywhere::HybridEngine;

fn main() {
    // Phase 1: a short MD trajectory (trimmed preset so the whole campaign
    // fits the default trace ring with zero drops).
    let sim = NanoSim::new(SimConfig {
        equil_steps: 50,
        prod_steps: 150,
        ..SimConfig::fast()
    });
    let probe = NanoParams {
        h: 3.0,
        z_p: 1,
        z_n: 1,
        c: 0.5,
        d: 0.6,
    };
    let (obs, _) = or_exit(sim.run(&probe, BENCH_SEED), "md probe run");
    println!("md: contact density {:.4}", obs.contact);

    // Phase 2: a hybrid-engine campaign over the fan-out simulator.
    let mut engine = or_exit(
        HybridEngine::new(Fanout, fanout_config()),
        "engine rejected",
    );
    for q in 0..24 {
        let x = [0.05 * q as f64, 0.2];
        if let Err(e) = engine.query(&x) {
            return require(false, &format!("query {q} failed: {e}"));
        }
    }
    println!("hybrid: lookup fraction {:.2}", engine.lookup_fraction());

    // Phase 3: the mixed learnt/unlearnt workload under two DES policies.
    let workload = or_exit(
        Workload::generate(&des_workload(1200), BENCH_SEED),
        "workload rejected",
    );
    for policy in [Policy::SingleQueue, Policy::WorkStealing] {
        let m = or_exit(simulate(&workload, 8, policy), "DES run failed");
        println!("sched: {} makespan {:.1}s", policy.name(), m.makespan);
    }

    match le_obs::write_snapshot("baseline") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write OBS snapshot: {e}"),
    }
    match le_obs::write_trace("baseline") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write trace: {e}"),
    }
}
