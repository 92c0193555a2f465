#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `le-faults` — deterministic, seeded fault injection for the MLaroundHPC
//! stack.
//!
//! The paper's §II-C1 stance — "no run is wasted. Training needs both
//! successful and unsuccessful runs" — only holds if the campaign *survives*
//! unsuccessful runs. This crate supplies the reproducible failure stimulus
//! the supervision layer (the degradation ladder in `le-core`, the deadline
//! budgets in `le-sched`, the panic recovery in `le-pool`) is tested and
//! gated against:
//!
//! * [`FaultPlan`] — a seed plus a [`FaultRates`] table. Every decision is a
//!   pure function of `(seed, fault kind, index)` via a splitmix64-style
//!   hash: no state, no wall clock, no ambient entropy, so the exact same
//!   query/task indices fault at any thread count, in any execution order.
//! * [`FaultySimulator`] — a decorator over any
//!   [`learning_everywhere::Simulator`] that turns plan decisions into
//!   injected [`LeError::Simulation`] errors and NaN-poisoned outputs,
//!   counted via `faults.injected.sim_error` / `faults.injected.nonfinite`.
//! * [`FaultPlan::stalls`] — a logical-time stall schedule for
//!   `le_sched::des::simulate_with`, stretching chosen tasks past their
//!   deadline budget so the timeout/re-dispatch rungs fire.
//! * [`FaultPlan::arm_pool_panic`] — arms `le-pool`'s single-shot injected
//!   worker panic at a plan-chosen task index.
//!
//! Everything here passes the le-lint determinism and wallclock rules by
//! construction: the only inputs are the seed and the indices the engine
//! already counts.

use std::sync::atomic::{AtomicU64, Ordering};

use le_linalg::rng::splitmix64;
use learning_everywhere::{LeError, Result, Simulator};

/// Per-kind injection probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability a simulator call returns [`LeError::Simulation`].
    pub sim_error: f64,
    /// Probability a simulator call's output is poisoned with a NaN.
    pub nonfinite: f64,
    /// Probability a scheduler task receives a logical-time stall.
    pub stall: f64,
}

/// Domain-separation salts: one per fault kind, so the per-index decision
/// streams are independent of each other.
const SALT_SIM_ERROR: u64 = 0x5105_3E8A_11CE_0001;
const SALT_NONFINITE: u64 = 0x5105_3E8A_11CE_0002;
const SALT_STALL: u64 = 0x5105_3E8A_11CE_0003;
const SALT_STALL_LEN: u64 = 0x5105_3E8A_11CE_0004;
const SALT_PANIC: u64 = 0x5105_3E8A_11CE_0005;

/// A seeded fault schedule: which call/task indices fault, decided
/// statelessly so injection reproduces bit-for-bit across runs, thread
/// counts, and execution orders.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// Build a plan from a seed and a rate table.
    pub fn new(seed: u64, rates: FaultRates) -> Result<Self> {
        for (name, r) in [
            ("sim_error", rates.sim_error),
            ("nonfinite", rates.nonfinite),
            ("stall", rates.stall),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(LeError::InvalidConfig(format!(
                    "fault rate `{name}` must be in [0, 1], got {r}"
                )));
            }
        }
        Ok(Self { seed, rates })
    }

    /// A plan that injects nothing (useful as a control arm).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            rates: FaultRates::default(),
        }
    }

    /// The plan's rate table.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A uniform variate in `[0, 1)` for `(kind salt, index)` — the one
    /// source of randomness behind every decision below.
    fn unit(&self, salt: u64, index: u64) -> f64 {
        let h = splitmix64(self.seed ^ splitmix64(salt ^ splitmix64(index)));
        // 53 high bits -> [0, 1) exactly as le_linalg's Rng does.
        (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Does simulator call `index` fail with an injected error?
    pub fn injects_sim_error(&self, index: u64) -> bool {
        self.unit(SALT_SIM_ERROR, index) < self.rates.sim_error
    }

    /// Does simulator call `index` produce a NaN-poisoned output?
    pub fn injects_nonfinite(&self, index: u64) -> bool {
        self.unit(SALT_NONFINITE, index) < self.rates.nonfinite
    }

    /// Does scheduler task `index` receive a logical-time stall?
    pub fn injects_stall(&self, index: u64) -> bool {
        self.unit(SALT_STALL, index) < self.rates.stall
    }

    /// The stall schedule for a DES run of `n_tasks` tasks under a
    /// per-attempt `deadline` budget: every plan-chosen task gets its first
    /// attempt stretched by `deadline * (1 + u)` extra logical seconds
    /// (u in `[0, 1)`), which guarantees the attempt overruns its budget
    /// and exercises the timeout + re-dispatch rung; the retry runs
    /// unstalled and completes.
    pub fn stalls(&self, n_tasks: usize, deadline: f64) -> Vec<le_sched::des::Stall> {
        let mut out = Vec::new();
        for task in 0..n_tasks {
            if self.injects_stall(task as u64) {
                let extra = deadline * (1.0 + self.unit(SALT_STALL_LEN, task as u64));
                out.push(le_sched::des::Stall {
                    task,
                    attempt: 0,
                    extra,
                });
            }
        }
        out
    }

    /// The pool-task index (within the next `within` tasks) at which the
    /// plan's single injected worker panic fires.
    pub fn worker_panic_task(&self, within: u64) -> u64 {
        if within == 0 {
            return 0;
        }
        splitmix64(self.seed ^ splitmix64(SALT_PANIC)) % within
    }

    /// Arm `le-pool`'s single-shot injected worker panic at
    /// [`FaultPlan::worker_panic_task`]`(within)` tasks from now. The panic
    /// fires once, on whichever thread claims that task, and is then
    /// disarmed; `le-pool` carries it back to the dispatching caller like
    /// any genuine worker panic.
    pub fn arm_pool_panic(&self, within: u64) {
        le_pool::fault::arm_worker_panic(self.worker_panic_task(within));
    }
}

/// A decorator injecting plan-scheduled faults into any [`Simulator`].
///
/// Call indices are assigned by a process-wide-free atomic counter owned by
/// this instance: the i-th `simulate` call on this wrapper consults the
/// plan's decisions for index i, whether it runs on the caller thread or a
/// pool worker. Injected failures are typed [`LeError::Simulation`] errors
/// (what a diverged run reports) and NaN-poisoned outputs (what a silently
/// broken run reports) — the two stimuli the engine's degradation ladder
/// must absorb.
pub struct FaultySimulator<S: Simulator> {
    inner: S,
    plan: FaultPlan,
    calls: AtomicU64,
}

impl<S: Simulator> FaultySimulator<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            calls: AtomicU64::new(0),
        }
    }

    /// The wrapped simulator.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The plan driving the injection.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of `simulate` calls seen so far (== the next call's index).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<S: Simulator> Simulator for FaultySimulator<S> {
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn simulate(&self, input: &[f64], seed: u64) -> Result<Vec<f64>> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.plan.injects_sim_error(call) {
            le_obs::counter!("faults.injected.sim_error").inc();
            return Err(LeError::Simulation(format!(
                "injected fault at call {call}"
            )));
        }
        let mut out = self.inner.simulate(input, seed)?;
        if self.plan.injects_nonfinite(call) && !out.is_empty() {
            le_obs::counter!("faults.injected.nonfinite").inc();
            let k = (call as usize) % out.len();
            out[k] = f64::NAN;
        }
        Ok(out)
    }

    fn name(&self) -> &str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learning_everywhere::simulator::SyntheticSimulator;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(
            seed,
            FaultRates {
                sim_error: 0.2,
                nonfinite: 0.1,
                stall: 0.15,
            },
        )
        .unwrap()
    }

    #[test]
    fn rates_are_validated() {
        for bad in [-0.1, 1.1, f64::NAN] {
            assert!(FaultPlan::new(
                1,
                FaultRates {
                    sim_error: bad,
                    ..Default::default()
                }
            )
            .is_err());
        }
        assert!(FaultPlan::new(
            1,
            FaultRates {
                sim_error: 0.0,
                nonfinite: 1.0,
                stall: 0.5,
            }
        )
        .is_ok());
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_index() {
        let a = plan(7);
        let b = plan(7);
        for i in 0..500 {
            assert_eq!(a.injects_sim_error(i), b.injects_sim_error(i));
            assert_eq!(a.injects_nonfinite(i), b.injects_nonfinite(i));
            assert_eq!(a.injects_stall(i), b.injects_stall(i));
        }
        // And order-independent: querying backwards gives the same stream.
        let fwd: Vec<bool> = (0..100).map(|i| a.injects_sim_error(i)).collect();
        let bwd: Vec<bool> = (0..100).rev().map(|i| a.injects_sim_error(i)).collect();
        let bwd: Vec<bool> = bwd.into_iter().rev().collect();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn empirical_rates_match_the_table() {
        let p = plan(42);
        let n = 20_000u64;
        let errs = (0..n).filter(|&i| p.injects_sim_error(i)).count() as f64 / n as f64;
        let nans = (0..n).filter(|&i| p.injects_nonfinite(i)).count() as f64 / n as f64;
        assert!((errs - 0.2).abs() < 0.02, "sim_error rate {errs}");
        assert!((nans - 0.1).abs() < 0.02, "nonfinite rate {nans}");
        // Streams are independent: the overlap is ~product, not ~min.
        let both = (0..n)
            .filter(|&i| p.injects_sim_error(i) && p.injects_nonfinite(i))
            .count() as f64
            / n as f64;
        assert!((both - 0.02).abs() < 0.01, "joint rate {both}");
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = FaultPlan::quiet(3);
        assert!((0..1000).all(|i| !p.injects_sim_error(i)
            && !p.injects_nonfinite(i)
            && !p.injects_stall(i)));
        assert!(p.stalls(100, 5.0).is_empty());
    }

    #[test]
    fn stall_schedule_overruns_the_deadline() {
        let p = plan(11);
        let deadline = 4.0;
        let stalls = p.stalls(200, deadline);
        assert!(!stalls.is_empty(), "15% of 200 tasks should stall");
        for s in &stalls {
            assert!(s.task < 200);
            assert_eq!(s.attempt, 0);
            assert!(
                s.extra > deadline,
                "stall {} must push any service past the budget",
                s.extra
            );
        }
    }

    #[test]
    fn faulty_simulator_injects_at_plan_indices() {
        let p = plan(5);
        let sim = FaultySimulator::new(SyntheticSimulator::new(2, 1, 0, 0.0), p.clone());
        let mut outcomes = Vec::new();
        for i in 0..200u64 {
            let r = sim.simulate(&[0.1, 0.2], i);
            outcomes.push(match r {
                Err(_) => 'e',
                Ok(v) if v.iter().any(|x| !x.is_finite()) => 'n',
                Ok(_) => 'o',
            });
        }
        assert_eq!(sim.calls(), 200);
        for (i, &o) in outcomes.iter().enumerate() {
            let i = i as u64;
            if p.injects_sim_error(i) {
                assert_eq!(o, 'e', "call {i} must fail");
            } else if p.injects_nonfinite(i) {
                assert_eq!(o, 'n', "call {i} must be NaN-poisoned");
            } else {
                assert_eq!(o, 'o', "call {i} must pass through");
            }
        }
        // Some of each outcome at these rates over 200 calls.
        assert!(outcomes.contains(&'e') && outcomes.contains(&'n') && outcomes.contains(&'o'));
    }

    #[test]
    fn faulty_simulator_passes_dims_through() {
        let sim = FaultySimulator::new(SyntheticSimulator::new(3, 2, 0, 0.0), FaultPlan::quiet(1));
        assert_eq!(sim.input_dim(), 3);
        assert_eq!(sim.output_dim(), 2);
        assert_eq!(sim.name(), "faulty");
        assert_eq!(sim.inner().input_dim(), 3);
    }

    #[test]
    fn worker_panic_task_is_stable_and_in_range() {
        let p = plan(9);
        let t = p.worker_panic_task(64);
        assert_eq!(t, p.worker_panic_task(64));
        assert!(t < 64);
        assert_eq!(p.worker_panic_task(0), 0);
    }
}
