//! `serve_small` and `serve_nano`: seeded multi-tenant traffic through
//! `le_serve::serve` in front of a warm `HybridEngine`.

use std::time::Instant;

use le_linalg::{Matrix, Rng};
use le_mdsim::nanoconfinement::NanoParams;
use le_serve::{serve, Arrival, LoadConfig, LoopMode, ServeConfig, SizeClass, TenantQuota};
use learning_everywhere::surrogate::SurrogateConfig;
use learning_everywhere::{HybridConfig, HybridEngine, QuerySource, Simulator};

use crate::sim::{NanoAnalytic, Smooth3, Timed};
use crate::stats::Digest;
use crate::workload::{err, gate_flops_per_row, matrices, time_gate, Layers, Pass, Workload};

/// Seed of the training design and the surrogate: the model side is fixed,
/// so `--seed` moves only the traffic and errors compare across seeds.
const MODEL_SEED: u64 = 0x5EED_CAFE;
/// Request share of each tenant; tenant 1 is the one under a quota.
const TENANTS: [f64; 2] = [0.7, 0.3];
/// Scheduled arrivals per logical second. Admission and wave deadlines
/// read this schedule; clients submit as fast as the ingress ring allows.
const ARRIVAL_RATE: f64 = 40_000.0;

/// A serving workload over simulator `S`.
pub struct ServeWorkload<S> {
    sim: std::marker::PhantomData<S>,
    /// Draw one input row (the payload distribution).
    draw: fn(&mut Rng) -> Vec<f64>,
    surrogate: SurrogateConfig,
    train_rows: usize,
    requests: usize,
    sizes: &'static [(usize, f64)],
    batch_max_rows: usize,
    queue_capacity: usize,
    /// Share of rows the gate sends to the simulator; the threshold is
    /// set at this upper quantile of calibration gate stds.
    fallback_share: f64,
}

/// The frontend-bound workload: a 3→16→1 surrogate with 4 MC passes,
/// requests of 1, 2 or 8 rows, every row a lookup.
pub fn small() -> ServeWorkload<Smooth3> {
    ServeWorkload {
        sim: std::marker::PhantomData,
        draw: |rng| (0..3).map(|_| rng.uniform_in(-1.5, 1.5)).collect(),
        surrogate: SurrogateConfig {
            hidden: vec![16],
            epochs: 100,
            mc_samples: 4,
            seed: 9,
            ..Default::default()
        },
        train_rows: 2048,
        requests: 400_000,
        sizes: &[(1, 0.60), (2, 0.30), (8, 0.10)],
        batch_max_rows: 512,
        queue_capacity: 1024,
        fallback_share: 0.0,
    }
}

/// The gate-bound workload: the paper's 5→64→64→3 surrogate with 30 MC
/// passes, requests of tens of rows, 2% of rows falling back to the
/// analytic nano simulator.
pub fn nano() -> ServeWorkload<NanoAnalytic> {
    ServeWorkload {
        sim: std::marker::PhantomData,
        draw: |rng| NanoParams::sample(rng).to_features().to_vec(),
        surrogate: SurrogateConfig {
            hidden: vec![64, 64],
            epochs: 100,
            mc_samples: 30,
            seed: 7,
            ..Default::default()
        },
        train_rows: 256,
        requests: 2_000,
        sizes: &[(16, 0.30), (32, 0.40), (64, 0.30)],
        batch_max_rows: 256,
        queue_capacity: 64,
        fallback_share: 0.02,
    }
}

/// A set-up serving workload.
pub struct ServeState<S: Simulator> {
    engine: HybridEngine<Timed<S>>,
    workload: le_serve::Workload,
    cfg: ServeConfig,
    train: (Matrix, Matrix),
}

impl<S: Simulator + Default> ServeWorkload<S> {
    /// The request stream for `seed`: arrivals, tenants, sizes and payload
    /// rows drawn from the workload's input distribution.
    pub fn traffic(&self, seed: u64) -> Result<le_serve::Workload, String> {
        let dim = S::default().input_dim();
        let mut workload = le_serve::loadgen::generate(&LoadConfig {
            seed,
            requests: self.requests,
            input_dim: dim,
            domain: (-1.5, 1.5),
            payload_pool: 4096,
            tenants: TENANTS.to_vec(),
            sizes: self
                .sizes
                .iter()
                .map(|&(rows, weight)| SizeClass { rows, weight })
                .collect(),
            arrival: Arrival::Poisson { rate: ARRIVAL_RATE },
        })
        .map_err(err("workload"))?;
        let mut rng = Rng::substream(seed, 0xB0D1);
        for row in workload.pool.chunks_mut(dim) {
            row.copy_from_slice(&(self.draw)(&mut rng));
        }
        Ok(workload)
    }
}

impl<S: Simulator + Default> Workload for ServeWorkload<S> {
    type State = ServeState<S>;

    fn threads(&self) -> (usize, usize) {
        (1, 1)
    }

    fn setup(&self, seed: u64) -> Result<ServeState<S>, String> {
        let workload = self.traffic(seed)?;
        let sim = Timed::new(S::default());

        // Seed simulations and the initial fit.
        let mut design = Rng::substream(MODEL_SEED, 1);
        let x: Vec<Vec<f64>> = (0..self.train_rows)
            .map(|_| (self.draw)(&mut design))
            .collect();
        let y = x
            .iter()
            .map(|r| sim.simulate(r, 0))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err("seed simulation"))?;
        let mut engine = HybridEngine::new(
            sim,
            HybridConfig {
                uncertainty_threshold: f64::MAX,
                min_training_runs: 32,
                // Fallback rows join the buffer but never trigger a refit.
                retrain_growth: f64::MAX,
                surrogate: self.surrogate.clone(),
            },
        )
        .map_err(err("engine"))?;
        engine.seed_training(&x, &y).map_err(err("seed training"))?;

        // Calibrate the gate on fresh rows; this wave also sizes the
        // inference scratch before anything is timed.
        let calib: Vec<Vec<f64>> = (0..512).map(|_| (self.draw)(&mut design)).collect();
        let refs: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
        let mut stds: Vec<f64> = engine
            .query_each(&refs)
            .map_err(err("calibration"))?
            .into_iter()
            .map(|r| r.ok().and_then(|r| r.gate_std).unwrap_or(f64::NAN))
            .collect();
        if self.fallback_share > 0.0 {
            stds.sort_by(f64::total_cmp);
            let i = ((1.0 - self.fallback_share) * stds.len() as f64) as usize;
            engine
                .set_uncertainty_threshold(stds[i.min(stds.len() - 1)])
                .map_err(err("threshold"))?;
        }

        // Tenant 1 is held to a token bucket at twice its offered row
        // rate: admission runs for every request and refuses none.
        let rows_per_request: f64 = self.sizes.iter().map(|&(r, w)| r as f64 * w).sum();
        let offered = TENANTS[1] * ARRIVAL_RATE * rows_per_request;
        let cfg = ServeConfig {
            clients: 1,
            queue_capacity: self.queue_capacity,
            batch_max_rows: self.batch_max_rows,
            deadline: 0.005,
            mode: LoopMode::Open,
            quotas: vec![
                TenantQuota::unlimited(),
                TenantQuota {
                    rate: 2.0 * offered,
                    burst: 64.0 * rows_per_request,
                },
            ],
        };
        Ok(ServeState {
            engine,
            workload,
            cfg,
            train: matrices(&x, &y),
        })
    }

    fn pass(&self, st: &mut ServeState<S>, traced: bool) -> Result<Pass, String> {
        let engine = &mut st.engine;
        let (lookups0, sims0) = (engine.n_lookups(), engine.n_simulations());
        let sim0 = engine.simulator().totals();
        let acct = engine.accounting();
        let (fits0, learn0, lookup0) = (
            acct.learn_events(),
            acct.learn_seconds(),
            acct.lookup_seconds(),
        );

        let t = Instant::now();
        let report = serve(engine, &st.workload, &st.cfg).map_err(err("serve"))?;
        let secs = t.elapsed().as_secs_f64();

        let mut pass = Pass {
            secs,
            ..Pass::default()
        };
        let mut digest = Digest::default();
        let wl = &st.workload;
        let truth = engine.simulator().inner();
        let mut admitted_rows: Vec<&[f64]> = Vec::new();
        for (resp, spec) in report.responses.iter().zip(&wl.specs) {
            pass.attempted += spec.rows as u64;
            digest.u64(resp.seq);
            let Ok(rows) = &resp.outcome else {
                digest.byte(4);
                continue;
            };
            pass.latencies_ms.push(resp.latency * 1e3);
            if rows.len() != spec.rows {
                pass.problems.push(format!(
                    "request {} answered {} of {} rows",
                    resp.seq,
                    rows.len(),
                    spec.rows
                ));
            }
            for (k, row) in rows.iter().enumerate() {
                let input = wl.row(spec.row_start + k);
                admitted_rows.push(input);
                let Ok(r) = row else {
                    digest.byte(3);
                    continue;
                };
                pass.ok += 1;
                digest.byte(match r.source {
                    QuerySource::Lookup => 1,
                    QuerySource::Simulated => 2,
                });
                let want = truth.simulate(input, 0).map_err(err("truth"))?;
                for (v, w) in r.output.iter().zip(&want) {
                    digest.f64(*v);
                    pass.sq_err += (v - w) * (v - w);
                    pass.n_err += 1;
                }
            }
        }

        let submitted: u64 = report.submitted.iter().sum();
        let refused: u64 = report.rejected.iter().sum();
        for t in 0..report.submitted.len() {
            if report.admitted[t] + report.rejected[t] != report.submitted[t] {
                pass.problems
                    .push(format!("tenant {t}: admitted + rejected != submitted"));
            }
        }
        if report.rows_served + report.row_errors != admitted_rows.len() as u64 {
            pass.problems
                .push("not every admitted row was answered".into());
        }
        let lookups = engine.n_lookups() - lookups0;
        let simulations = engine.n_simulations() - sims0;
        if lookups + simulations != pass.ok {
            pass.problems.push(format!(
                "lookups {lookups} + simulations {simulations} != rows {}",
                pass.ok
            ));
        }
        for v in [submitted, refused, report.waves, lookups, simulations] {
            digest.u64(v);
        }
        pass.digest = digest.0;

        let acct = engine.accounting();
        let sim_all = engine.simulator().totals();
        let mut layers = Layers {
            rows: pass.ok,
            waves: report.waves,
            submitted,
            refused,
            sim: sim_all.since(sim0),
            sim_all,
            fits: acct.learn_events() - fits0,
            learn_s: acct.learn_seconds() - learn0,
            lookup_s: acct.lookup_seconds() - lookup0,
            fits_all: acct.learn_events(),
            learn_s_all: acct.learn_seconds(),
            lookups,
            simulations,
            gate_flops_per_row: gate_flops_per_row(
                wl.input_dim,
                &self.surrogate.hidden,
                engine.simulator().output_dim(),
                self.surrogate.mc_samples.max(2),
            ),
            ..Layers::default()
        };
        if traced {
            let snap = le_obs::snapshot();
            layers.engine_s = snap.span("serve.wave").map_or(0.0, |s| s.total_secs());
            layers.frontend_s = secs - layers.engine_s;
            let wave = (admitted_rows.len() as f64 / report.waves.max(1) as f64).round() as usize;
            layers.gate_us_per_row = time_gate(
                &st.train.0,
                &st.train.1,
                &self.surrogate,
                &admitted_rows,
                wave,
            )?;
        }
        pass.layers = layers;
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        for w in [small().traffic(1), small().traffic(2), nano().traffic(1)] {
            assert!(w.is_ok());
        }
        let small = small();
        let a = small.traffic(1).map(|w| w.digest());
        assert_eq!(a, small.traffic(1).map(|w| w.digest()));
        assert_ne!(a, small.traffic(2).map(|w| w.digest()));
        let nano = nano();
        let a = nano.traffic(7).map(|w| (w.digest(), w.pool));
        assert_eq!(a, nano.traffic(7).map(|w| (w.digest(), w.pool)));
        assert_ne!(a, nano.traffic(8).map(|w| (w.digest(), w.pool)));
    }
}
