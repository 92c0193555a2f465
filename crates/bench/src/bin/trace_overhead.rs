//! Trace-overhead smoke: runs the same MD step loop with the event journal
//! enabled and disabled, interleaved, and fails (exit 1) if the journaled
//! median regresses by more than `GATE_PCT` percent.
//!
//! The journal's design budget is <100 ns per event and a single relaxed
//! atomic load per guard when disabled; relative to a real force loop that
//! is noise.
//!
//! ```sh
//! cargo run --release -p le-bench --bin trace_overhead
//! ```

use std::process::ExitCode;
use std::time::Instant;

use le_bench::BENCH_SEED;
use le_mdsim::nanoconfinement::NanoParams;
use le_mdsim::{NanoSim, SimConfig};

/// One timed MD run (the hot loop emits `mdsim.step` trace spans plus one
/// `pool.task` span per force chunk).
fn timed_run(sim: &NanoSim, probe: &NanoParams, seed: u64) -> f64 {
    let t = Instant::now();
    let out = sim.run(probe, seed).expect("probe params are valid");
    std::hint::black_box(out);
    t.elapsed().as_secs_f64()
}

/// Largest tolerated journal-on slowdown of the median run, in percent.
const GATE_PCT: f64 = 5.0;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() -> ExitCode {
    let sim = NanoSim::new(SimConfig::fast());
    let probe = NanoParams {
        h: 3.0,
        z_p: 1,
        z_n: 1,
        c: 0.5,
        d: 0.6,
    };

    // Warm up the pool, the allocator, and both journal states.
    le_obs::trace::set_enabled(true);
    timed_run(&sim, &probe, BENCH_SEED);
    le_obs::trace::set_enabled(false);
    timed_run(&sim, &probe, BENCH_SEED);

    // Interleave the two states so slow drift (thermal, co-tenants) hits
    // both distributions equally; medians absorb the outliers.
    let reps = 7;
    let mut on = Vec::with_capacity(reps);
    let mut off = Vec::with_capacity(reps);
    for rep in 0..reps {
        le_obs::trace::set_enabled(false);
        off.push(timed_run(&sim, &probe, BENCH_SEED + rep as u64));
        le_obs::trace::set_enabled(true);
        le_obs::trace::reset(); // start each journaled rep with empty rings
        on.push(timed_run(&sim, &probe, BENCH_SEED + rep as u64));
    }
    le_obs::trace::reset();
    le_obs::trace::set_enabled(false);

    let m_on = median(&mut on);
    let m_off = median(&mut off);
    let overhead_pct = 100.0 * (m_on - m_off) / m_off;
    println!(
        "trace overhead: journal on {:.2} ms, off {:.2} ms → {:+.2}% (gate {:.1}%)",
        m_on * 1e3,
        m_off * 1e3,
        overhead_pct,
        GATE_PCT
    );
    if overhead_pct > GATE_PCT {
        eprintln!("trace_overhead: FAIL — journaling regressed the MD step loop");
        return ExitCode::FAILURE;
    }
    println!("trace_overhead: OK");
    ExitCode::SUCCESS
}
