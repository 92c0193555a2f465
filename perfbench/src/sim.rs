//! The simulators behind each workload, and the benchmark-owned wrapper
//! that times every call from outside the engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use le_mdsim::nanoconfinement::{NanoParams, NanoSim, SimConfig};
use learning_everywhere::{LeError, Result, Simulator};

/// Running totals of a [`Timed`] simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Wall time inside `simulate`, seconds.
    pub secs: f64,
}

impl SimTotals {
    /// Totals accumulated since `earlier`.
    pub fn since(self, earlier: SimTotals) -> SimTotals {
        SimTotals {
            calls: self.calls - earlier.calls,
            failed: self.failed - earlier.failed,
            secs: self.secs - earlier.secs,
        }
    }
}

/// Counts and times every `simulate` call of the wrapped simulator.
pub struct Timed<S> {
    inner: S,
    calls: AtomicU64,
    failed: AtomicU64,
    nanos: AtomicU64,
}

impl<S> Timed<S> {
    /// Wrap `inner` with zeroed totals.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// The wrapped simulator.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Totals so far.
    pub fn totals(&self) -> SimTotals {
        SimTotals {
            calls: self.calls.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            secs: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl<S: Simulator> Simulator for Timed<S> {
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }
    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }
    fn simulate(&self, input: &[f64], seed: u64) -> Result<Vec<f64>> {
        let t = Instant::now();
        let out = self.inner.simulate(input, seed);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if out.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A smooth analytic response over three inputs, cheap enough that the
/// serving frontend, not the physics, is what a run measures.
#[derive(Default)]
pub struct Smooth3;

impl Simulator for Smooth3 {
    fn input_dim(&self) -> usize {
        3
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn simulate(&self, x: &[f64], _seed: u64) -> Result<Vec<f64>> {
        Ok(vec![(0.7 * x[0]).sin() * (0.4 * x[1]).cos() + 0.1 * x[2]])
    }
}

/// An analytic stand-in for the nanoconfinement densities over the five
/// features `[h, z_p, z_n, c, d]`: the paper's input and output shape at
/// nanosecond cost.
#[derive(Default)]
pub struct NanoAnalytic;

impl Simulator for NanoAnalytic {
    fn input_dim(&self) -> usize {
        5
    }
    fn output_dim(&self) -> usize {
        3
    }
    fn simulate(&self, f: &[f64], _seed: u64) -> Result<Vec<f64>> {
        let (h, zp, zn, c, d) = (f[0], f[1], f[2], f[3], f[4]);
        Ok(vec![
            c * (1.0 + 0.4 * zn) * (2.0 - (1.3 * h).cos()) + 0.5 * d,
            c * (0.8 + 0.1 * zp) * (1.0 + 0.2 * (2.0 * h).sin()),
            c * (1.5 + 0.3 * zn) * (1.0 + (d - 0.6).powi(2)) + 0.05 * h * h,
        ])
    }
    fn name(&self) -> &str {
        "nano-analytic"
    }
}

/// The nanoconfinement molecular-dynamics run itself ([`NanoSim`]),
/// outputs `[contact, mid, peak]` cation density.
pub struct NanoMd(NanoSim);

impl NanoMd {
    /// A run at the given fidelity.
    pub fn new(config: SimConfig) -> Self {
        NanoMd(NanoSim::new(config))
    }
}

impl Simulator for NanoMd {
    fn input_dim(&self) -> usize {
        5
    }
    fn output_dim(&self) -> usize {
        3
    }
    fn simulate(&self, f: &[f64], seed: u64) -> Result<Vec<f64>> {
        let params =
            NanoParams::from_features(f).map_err(|e| LeError::Simulation(e.to_string()))?;
        let (out, _) = self
            .0
            .run(&params, seed)
            .map_err(|e| LeError::Simulation(e.to_string()))?;
        Ok(out.to_vec())
    }
    fn name(&self) -> &str {
        "nanoconfinement-md"
    }
}
