//! End-to-end and per-layer benchmark of the MLaroundHPC serving path.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every round sets the workload up from scratch (timed as `setup_s`) and
//! makes one deterministic pass over it; rounds repeat until the passes
//! add up to `--seconds`. `--trace 0` runs every round with
//! observability off and prints the end-to-end metrics. `--trace 1`
//! alternates rounds with observability off and on, and prints the
//! per-layer metrics of the traced rounds together with what turning
//! observability on cost. Every round must reproduce the first round's
//! output digest; any correctness violation exits with code 1. The last
//! line of standard output is the JSON result. See README.md.

mod campaign;
mod serve_wl;
mod sim;
mod stats;
mod workload;

use std::time::Instant;

use stats::{median, percentile, rank_clear_of_modes};
use workload::{Pass, Workload};

/// Fewest rounds in a run: `setup_s` is a median over at least this many
/// set-ups.
const MIN_ROUNDS: usize = 3;
/// Stop starting rounds after this much wall time, to stay inside the
/// per-run limit however slow the host is.
const WALL_CAP_S: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A fixed scalar loop whose time says how fast the host ran this round.
/// Diagnostic only: it never scales a reported metric.
fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..5_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn set_obs(on: bool) {
    le_obs::global().set_enabled(on);
    le_obs::trace::set_enabled(on);
    le_obs::global().reset();
    le_obs::trace::reset();
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    stats::parse_vmhwm_mb(&status).ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// What the round loop collected.
struct Rounds {
    setup_s: Vec<f64>,
    probe_ms: Vec<f64>,
    /// Passes with observability off.
    timed: Vec<Pass>,
    /// Passes with observability on.
    traced: Vec<Pass>,
    problems: Vec<String>,
    rmse: f64,
    /// `VmHWM` after the first round: one set-up and one pass.
    peak_rss_mb: f64,
}

fn run_rounds<W: Workload>(w: &W, args: &Args) -> Result<Rounds, String> {
    let start = Instant::now();
    let mut r = Rounds {
        setup_s: Vec::new(),
        probe_ms: Vec::new(),
        timed: Vec::new(),
        traced: Vec::new(),
        problems: Vec::new(),
        rmse: f64::NAN,
        peak_rss_mb: f64::NAN,
    };
    let mut first: Option<(W::State, u64)> = None;
    let mut measured = 0.0;
    for round in 0.. {
        let traced = args.trace && round % 2 == 1;
        let enough =
            measured >= args.seconds && round >= MIN_ROUNDS && (!args.trace || round % 2 == 0);
        if enough || (round >= 2 && start.elapsed().as_secs_f64() > WALL_CAP_S) {
            break;
        }
        r.probe_ms.push(host_probe_ms());
        set_obs(traced);
        let t = Instant::now();
        let mut state = w.setup(args.seed)?;
        r.setup_s.push(t.elapsed().as_secs_f64());
        let pass = w.pass(&mut state, traced)?;
        set_obs(false);
        measured += pass.secs;
        r.problems.extend(pass.problems.iter().cloned());
        match &first {
            None => {
                r.peak_rss_mb = peak_rss_mb()?;
                first = Some((state, pass.digest));
            }
            Some((_, d)) if *d != pass.digest => r.problems.push(format!(
                "round {round} ({}) digest {:016x} differs from round 0 {d:016x}",
                if traced { "traced" } else { "timed" },
                pass.digest
            )),
            Some(_) => {}
        }
        if traced { &mut r.traced } else { &mut r.timed }.push(pass);
    }
    let (state, _) = first.ok_or("no round ran")?;
    r.rmse = w.rmse(&state, &r.timed[0])?;
    Ok(r)
}

/// Metrics printed as `name -> (value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn rows_per_s(p: &Pass) -> f64 {
    p.ok as f64 / p.secs
}

/// Latency percentile `q` of one pass, refused when too few samples lie
/// beyond it or when its rank sits near a boundary between cost modes.
fn pass_percentile(p: &Pass, q: f64) -> Result<f64, String> {
    if !p.modes.is_empty() && !rank_clear_of_modes(&p.modes, q) {
        return Err(format!(
            "p{} falls between cost modes {:?}",
            q * 100.0,
            p.modes
        ));
    }
    let mut lat = p.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    percentile(&lat, q).ok_or_else(|| {
        format!(
            "p{} has fewer than ten samples beyond it ({} samples)",
            q * 100.0,
            lat.len()
        )
    })
}

/// End-to-end metrics: medians over the untraced rounds.
fn end_to_end(r: &Rounds, problems: &mut Vec<String>) -> Metrics {
    let each = |f: &dyn Fn(&Pass) -> f64| median(&r.timed.iter().map(f).collect::<Vec<_>>());
    let mut pct = |q: f64| {
        let per_round: Result<Vec<f64>, String> =
            r.timed.iter().map(|p| pass_percentile(p, q)).collect();
        per_round.map(|v| median(&v)).unwrap_or_else(|e| {
            problems.push(e);
            f64::NAN
        })
    };
    let (p50, p90) = (pct(0.5), pct(0.9));
    if let Ok(p99) = r
        .timed
        .iter()
        .map(|p| pass_percentile(p, 0.99))
        .collect::<Result<Vec<_>, _>>()
    {
        println!("latency p99 {:.4} ms", median(&p99));
    }
    vec![
        ("rows_per_s", each(&rows_per_s), "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p90_ms", p90, "ms"),
        ("rmse", r.rmse, "1"),
        ("setup_s", median(&r.setup_s), "s"),
        ("peak_rss_mb", r.peak_rss_mb, "MiB"),
    ]
}

fn per_layer(r: &Rounds) -> Metrics {
    let traced = &r.traced;
    let sum = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
    let l0 = &traced[0].layers;
    let rows = sum(&|p| p.layers.rows as f64);
    let secs = sum(&|p| p.secs);
    let gate_us = median(
        &traced
            .iter()
            .map(|p| p.layers.gate_us_per_row)
            .collect::<Vec<_>>(),
    );
    let gate_s = sum(&|p| p.layers.lookup_s);
    let sim_s = sum(&|p| p.layers.sim.secs);
    let learn_s = sum(&|p| p.layers.learn_s);
    let engine_s = sum(&|p| p.layers.engine_s);
    let per_row_us = |s: f64| s * 1e6 / rows;
    let sim_all_calls = sum(&|p| p.layers.sim_all.calls as f64);
    let fits_all = sum(&|p| p.layers.fits_all as f64);
    // Pair each traced round with the untraced round before it.
    let ratios: Vec<f64> = r
        .timed
        .iter()
        .zip(traced)
        .map(|(off, on)| rows_per_s(on) / rows_per_s(off))
        .collect();
    vec![
        (
            "serve.frontend_us_per_row",
            per_row_us(sum(&|p| p.layers.frontend_s)),
            "us",
        ),
        (
            "serve.rows_per_wave",
            l0.rows as f64 / l0.waves.max(1) as f64,
            "rows",
        ),
        (
            "serve.refused_frac",
            l0.refused as f64 / l0.submitted.max(1) as f64,
            "1",
        ),
        (
            "hybrid.self_us_per_row",
            per_row_us(stats::self_time(engine_s, &[gate_s, sim_s, learn_s])),
            "us",
        ),
        (
            "hybrid.lookup_frac",
            l0.lookups as f64 / (l0.lookups + l0.simulations).max(1) as f64,
            "1",
        ),
        ("gate.us_per_row", gate_us, "us"),
        ("gate.flops_per_row", l0.gate_flops_per_row, "flop"),
        (
            "gate.gflops",
            l0.gate_flops_per_row / (gate_us * 1e3),
            "Gflop/s",
        ),
        ("simulate.calls", l0.sim.calls as f64, "count"),
        (
            "simulate.ms_per_call",
            sum(&|p| p.layers.sim_all.secs) * 1e3 / sim_all_calls.max(1.0),
            "ms",
        ),
        ("simulate.failed", l0.sim.failed as f64, "count"),
        ("simulate.busy_frac", sim_s / secs, "1"),
        ("learn.fits", l0.fits as f64, "count"),
        (
            "learn.ms_per_fit",
            sum(&|p| p.layers.learn_s_all) * 1e3 / fits_all.max(1.0),
            "ms",
        ),
        ("learn.busy_frac", learn_s / secs, "1"),
        ("drift.stale_flags", l0.stale_flags as f64, "count"),
        ("drift.audits", l0.audits as f64, "count"),
        ("drift.evictions", l0.evictions as f64, "count"),
        ("obs.overhead_frac", 1.0 - median(&ratios), "1"),
        ("host.probe_ms", median(&r.probe_ms), "ms"),
    ]
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no NaN; a non-finite value is already a correctness failure.
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<bool, String> {
    let (clients, servers) = w.threads();
    let pool = le_pool::Pool::global().threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pool workers beyond the first run beside the calling thread.
    let busy = clients + servers + pool - 1;
    println!(
        "threads: clients {clients} server {servers} LE_POOL_THREADS {pool} busy {busy} nproc {nproc}"
    );
    if busy > nproc {
        return Err(format!("{busy} busy threads exceed the {nproc} available"));
    }
    let r = run_rounds(w, args)?;
    let mut problems = r.problems.clone();
    let metrics = if args.trace {
        per_layer(&r)
    } else {
        end_to_end(&r, &mut problems)
    };
    let passes: Vec<&Pass> = r.timed.iter().chain(&r.traced).collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let ok: u64 = passes.iter().map(|p| p.ok).sum();
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            problems.push(format!("{name} is not finite"));
        }
    }
    let l = &passes[0].layers;
    println!(
        "pass: {} rows in {} waves, {} lookups, {} simulations ({:.3} s), {} fits ({:.3} s), {} stale flags",
        l.rows, l.waves, l.lookups, l.simulations, l.sim.secs, l.fits, l.learn_s, l.stale_flags
    );
    let rates: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", rows_per_s(p)))
        .collect();
    println!("rows/s per round (untraced first): {}", rates.join(" "));
    println!(
        "rounds: {} timed, {} traced; setup_s {:?}; host probe ms {:?}",
        r.timed.len(),
        r.traced.len(),
        r.setup_s,
        r.probe_ms
    );
    for p in &problems {
        println!("INCORRECT: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        json_result(correct, attempted, attempted - ok, &metrics)
    );
    Ok(correct)
}

fn main() {
    // End-to-end rounds run with observability off and one pool thread
    // unless the caller asks otherwise; both are read once, on first use.
    for (key, default) in [("LE_OBS", "0"), ("LE_POOL_THREADS", "1")] {
        if std::env::var_os(key).is_none() {
            std::env::set_var(key, default);
        }
    }
    let outcome = parse_args().and_then(|args| match args.workload.as_str() {
        "serve_small" => run(&serve_wl::small(), &args),
        "serve_nano" => run(&serve_wl::nano(), &args),
        "campaign_md" => run(&campaign::CampaignWorkload, &args),
        other => Err(format!("unknown workload {other}")),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
