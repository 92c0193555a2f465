//! `campaign_md`: the MLaroundHPC loop on the real nanoconfinement MD
//! code. A closed-loop caller sends a drifting parameter stream through
//! `HybridEngine::query_each` in small waves, with rolling retrain,
//! staleness detection and an audit cadence; `le-serve` is not involved.

use std::time::Instant;

use le_drift::presets::{nanoconfinement, shift_nano};
use le_linalg::{Matrix, Rng};
use le_mdsim::nanoconfinement::{NanoParams, SimConfig};
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{
    HybridConfig, HybridEngine, QuerySource, RollingRetrainConfig, Simulator, StalenessConfig,
};

use crate::sim::{NanoMd, Timed};
use crate::stats::Digest;
use crate::workload::{err, gate_flops_per_row, matrices, time_gate, Layers, Pass, Workload};

/// Rows per `query_each` wave.
const WAVE: usize = 8;
/// Queries per pass.
const QUERIES: usize = 1024;
/// Drift-free prefix and ramp length of the drift schedule, in queries.
const WARMUP: u64 = 128;
const SPAN: u64 = 640;
/// MD runs behind the initial fit.
const SEED_RUNS: usize = 48;
/// Pre-drift rows that calibrate the gate threshold (and warm the engine).
const CALIBRATION_ROWS: usize = 64;
/// The gate threshold as a multiple of the largest calibration gate std.
const TAU_SCALE: f64 = 1.2;
/// Looked-up rows re-run through MD for the error figure.
const RMSE_SAMPLE: usize = 256;
/// Seed of the training design, surrogate and ground-truth runs: fixed,
/// so `--seed` moves only the query stream.
const MODEL_SEED: u64 = 0x00D5_1A7E;

/// Reduced-step MD: the physics of `SimConfig::fast` at a fraction of the
/// steps, so a run costs milliseconds and a pass a few seconds.
fn md_config() -> SimConfig {
    SimConfig {
        equil_steps: 100,
        prod_steps: 400,
        sample_interval: 10,
        snapshots_per_block: 5,
        lateral: 2.5,
        ..SimConfig::fast()
    }
}

fn surrogate() -> SurrogateConfig {
    SurrogateConfig {
        hidden: vec![64, 64],
        epochs: 60,
        mc_samples: 30,
        seed: 7,
        ..Default::default()
    }
}

/// Pre-drift point `i`: a narrow slab inside the physical ranges, so the
/// drift schedule carries the stream out of the training distribution.
/// Valencies, which set the ion count and so the cost of a run, cycle with
/// `i` rather than being drawn, so every seed asks for the same mix.
fn base_point(rng: &mut Rng, i: usize) -> NanoParams {
    NanoParams {
        h: rng.uniform_in(2.1, 2.7),
        z_p: 1 + (i % 3) as u32,
        z_n: 1 + (i / 3 % 2) as u32,
        c: rng.uniform_in(0.4, 0.6),
        d: rng.uniform_in(0.52, 0.6),
    }
}

/// The query stream for `seed`: pre-drift points moved by the seeded
/// nanoconfinement drift schedule as of their position in the stream.
pub fn stream(seed: u64) -> Vec<Vec<f64>> {
    let schedule = nanoconfinement(seed, WARMUP, SPAN);
    let mut rng = Rng::substream(seed, 1);
    (0..QUERIES as u64)
        .map(|t| {
            shift_nano(&schedule, &base_point(&mut rng, t as usize), t)
                .to_features()
                .to_vec()
        })
        .collect()
}

/// The MD campaign workload.
pub struct CampaignWorkload;

/// A set-up campaign: a freshly fitted engine and the query stream.
pub struct CampaignState {
    engine: HybridEngine<Timed<NanoMd>>,
    stream: Vec<Vec<f64>>,
    train: (Matrix, Matrix),
    /// Looked-up rows and their served answers, for the error figure.
    probe: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Workload for CampaignWorkload {
    type State = CampaignState;

    fn threads(&self) -> (usize, usize) {
        (0, 1)
    }

    fn setup(&self, seed: u64) -> Result<CampaignState, String> {
        let stream = stream(seed);

        let sim = Timed::new(NanoMd::new(md_config()));
        let mut design = Rng::substream(MODEL_SEED, 1);
        let x: Vec<Vec<f64>> = (0..SEED_RUNS)
            .map(|i| base_point(&mut design, i).to_features().to_vec())
            .collect();
        let y = x
            .iter()
            .enumerate()
            .map(|(i, r)| sim.simulate(r, MODEL_SEED + i as u64))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err("seed simulation"))?;
        let mut engine = HybridEngine::new(
            sim,
            HybridConfig {
                uncertainty_threshold: f64::MAX,
                min_training_runs: 32,
                retrain_growth: 1.08,
                surrogate: surrogate(),
            },
        )
        .map_err(err("engine"))?;
        engine.seed_training(&x, &y).map_err(err("seed training"))?;

        let calib: Vec<Vec<f64>> = (0..CALIBRATION_ROWS)
            .map(|i| base_point(&mut design, i).to_features().to_vec())
            .collect();
        let refs: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
        let stds: Vec<f64> = engine
            .query_each(&refs)
            .map_err(err("calibration"))?
            .into_iter()
            .map(|r| r.ok().and_then(|r| r.gate_std).unwrap_or(f64::NAN))
            .collect();
        let tau = TAU_SCALE * stds.iter().copied().fold(f64::NAN, f64::max);
        engine
            .set_uncertainty_threshold(tau)
            .map_err(err("threshold"))?;
        engine
            .enable_rolling_retrain(RollingRetrainConfig {
                buffer_cap: 128,
                recent_boost: 32,
                audit_every: 4,
            })
            .map_err(err("rolling"))?;
        engine
            .enable_staleness(StalenessConfig {
                window: 16,
                baseline: 16,
                std_ratio: 1.4,
                nominal_coverage: 0.9,
                min_coverage: 0.5,
                min_labelled: 16,
            })
            .map_err(err("staleness"))?;
        Ok(CampaignState {
            engine,
            stream,
            train: matrices(&x, &y),
            probe: Vec::new(),
        })
    }

    fn pass(&self, st: &mut CampaignState, traced: bool) -> Result<Pass, String> {
        let engine = &mut st.engine;
        let (lookups0, sims0) = (engine.n_lookups(), engine.n_simulations());
        let sim0 = engine.simulator().totals();
        let acct = engine.accounting();
        let (fits0, learn0, lookup0) = (
            acct.learn_events(),
            acct.learn_seconds(),
            acct.lookup_seconds(),
        );
        let (stale0, evict0) = (
            engine.supervisor().stale_flags(),
            engine.rolling_evictions(),
        );
        let audits0 = le_obs::snapshot()
            .counter("hybrid.audit.simulated")
            .unwrap_or(0);

        let mut pass = Pass::default();
        let mut digest = Digest::default();
        // (latency ms, whether the wave ran the simulator or refit).
        let mut waves: Vec<(f64, bool)> = Vec::with_capacity(QUERIES / WAVE + 1);
        let mut engine_s = 0.0;
        let mut lookups_seen = 0usize;
        // About three rows in four are looked up; spread the sample over all.
        let stride = (QUERIES * 3 / 4 / RMSE_SAMPLE).max(1);
        let t = Instant::now();
        for wave in st.stream.chunks(WAVE) {
            let refs: Vec<&[f64]> = wave.iter().map(Vec::as_slice).collect();
            let work = (engine.n_simulations(), engine.accounting().learn_events());
            let tw = Instant::now();
            let results = engine.query_each(&refs).map_err(err("query_each"))?;
            let dt = tw.elapsed().as_secs_f64();
            engine_s += dt;
            waves.push((
                dt * 1e3,
                (engine.n_simulations(), engine.accounting().learn_events()) != work,
            ));
            pass.attempted += wave.len() as u64;
            for (input, r) in wave.iter().zip(results) {
                let Ok(r) = r else {
                    digest.byte(3);
                    continue;
                };
                pass.ok += 1;
                digest.byte(match r.source {
                    QuerySource::Lookup => 1,
                    QuerySource::Simulated => 2,
                });
                for v in &r.output {
                    digest.f64(*v);
                }
                if r.source == QuerySource::Lookup {
                    if lookups_seen.is_multiple_of(stride) && st.probe.len() < RMSE_SAMPLE {
                        st.probe.push((input.clone(), r.output));
                    }
                    lookups_seen += 1;
                }
            }
        }
        pass.secs = t.elapsed().as_secs_f64();

        // Cost modes: lookup-only waves cost microseconds, a wave that runs
        // MD or refits costs milliseconds, so the sorted latencies list
        // every lookup-only wave first.
        let heavy = waves.iter().filter(|w| w.1).count();
        pass.modes = vec![waves.len() - heavy, heavy];
        pass.latencies_ms = waves.iter().map(|w| w.0).collect();

        let lookups = engine.n_lookups() - lookups0;
        let simulations = engine.n_simulations() - sims0;
        if lookups + simulations != pass.ok {
            pass.problems.push(format!(
                "lookups {lookups} + simulations {simulations} != rows {}",
                pass.ok
            ));
        }
        if pass.ok != pass.attempted {
            pass.problems.push(format!(
                "{} of {} rows failed",
                pass.attempted - pass.ok,
                pass.attempted
            ));
        }
        let acct = engine.accounting();
        let sim_all = engine.simulator().totals();
        let layers = Layers {
            rows: pass.ok,
            waves: waves.len() as u64,
            frontend_s: pass.secs - engine_s,
            engine_s,
            gate_flops_per_row: gate_flops_per_row(
                5,
                &surrogate().hidden,
                3,
                surrogate().mc_samples,
            ),
            sim: sim_all.since(sim0),
            sim_all,
            fits: acct.learn_events() - fits0,
            learn_s: acct.learn_seconds() - learn0,
            lookup_s: acct.lookup_seconds() - lookup0,
            fits_all: acct.learn_events(),
            learn_s_all: acct.learn_seconds(),
            lookups,
            simulations,
            stale_flags: engine.supervisor().stale_flags() - stale0,
            audits: le_obs::snapshot()
                .counter("hybrid.audit.simulated")
                .unwrap_or(0)
                - audits0,
            evictions: engine.rolling_evictions() - evict0,
            ..Layers::default()
        };
        for v in [
            lookups,
            simulations,
            layers.fits,
            layers.stale_flags,
            layers.evictions,
        ] {
            digest.u64(v);
        }
        pass.digest = digest.0;
        pass.layers = layers;
        if traced {
            let rows: Vec<&[f64]> = st.stream.iter().map(Vec::as_slice).collect();
            pass.layers.gate_us_per_row =
                time_gate(&st.train.0, &st.train.1, &surrogate(), &rows, WAVE)?;
        }
        Ok(pass)
    }

    fn rmse(&self, st: &CampaignState, _first: &Pass) -> Result<f64, String> {
        if st.probe.is_empty() {
            return Err("no looked-up rows to check".into());
        }
        let truth = st.engine.simulator().inner();
        let mut sq = 0.0;
        let mut n = 0usize;
        for (i, (input, served)) in st.probe.iter().enumerate() {
            let want = truth
                .simulate(input, MODEL_SEED ^ (i as u64 + 1))
                .map_err(err("ground-truth run"))?;
            for (v, w) in served.iter().zip(&want) {
                sq += (v - w) * (v - w);
                n += 1;
            }
        }
        Ok((sq / n as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_the_seed() {
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
        assert_eq!(stream(3).len(), QUERIES);
    }
}
