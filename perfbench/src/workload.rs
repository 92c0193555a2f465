//! What every workload reports, and the interface the round loop drives.

use std::time::Instant;

use le_linalg::Matrix;
use learning_everywhere::surrogate::{NnSurrogate, SurrogateConfig};

use crate::sim::SimTotals;

/// Per-layer totals of one pass, read from outside the program: timed
/// calls into public functions, the benchmark's simulator wrapper,
/// `HybridEngine` accessors and, on traced passes, `le_obs::snapshot()`.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Rows answered.
    pub rows: u64,
    /// `query_each` waves.
    pub waves: u64,
    /// Requests submitted to admission.
    pub submitted: u64,
    /// Requests refused by admission.
    pub refused: u64,
    /// Time outside `query_each` (the frontend), seconds.
    pub frontend_s: f64,
    /// Time inside `query_each`, seconds.
    pub engine_s: f64,
    /// Gate cost per row, timed on a same-config surrogate, microseconds.
    pub gate_us_per_row: f64,
    /// Multiply-adds ×2 per gated row for the fused MC-dropout pass.
    pub gate_flops_per_row: f64,
    /// Simulator calls during the pass.
    pub sim: SimTotals,
    /// Simulator calls over set-up and pass.
    pub sim_all: SimTotals,
    /// Surrogate fits during the pass.
    pub fits: u64,
    /// Fit time during the pass, seconds.
    pub learn_s: f64,
    /// Gate time the engine booked to lookups during the pass, seconds.
    pub lookup_s: f64,
    /// Fits over set-up and pass.
    pub fits_all: u64,
    /// Fit time over set-up and pass, seconds.
    pub learn_s_all: f64,
    /// Rows served by lookup.
    pub lookups: u64,
    /// Rows served by simulation.
    pub simulations: u64,
    /// Staleness flags raised.
    pub stale_flags: u64,
    /// Rows simulated by the audit cadence.
    pub audits: u64,
    /// Runs evicted from the rolling training window.
    pub evictions: u64,
}

/// One deterministic pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the measured part, seconds.
    pub secs: f64,
    /// Rows submitted.
    pub attempted: u64,
    /// Rows answered successfully.
    pub ok: u64,
    /// Latency samples, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Latency samples per cost mode, cheapest first; empty when the
    /// samples share one cost mode.
    pub modes: Vec<usize>,
    /// Digest of every served output and deterministic counter.
    pub digest: u64,
    /// Sum of squared errors against ground truth, and its term count.
    pub sq_err: f64,
    /// Terms in `sq_err`.
    pub n_err: u64,
    /// Per-layer totals (times are meaningful on traced passes).
    pub layers: Layers,
    /// Correctness violations found while checking the pass.
    pub problems: Vec<String>,
}

/// A workload the round loop can set up and pass over repeatedly. Each
/// round sets up from scratch, so every pass of one seed must produce the
/// same digest.
pub trait Workload {
    /// Everything a pass needs, built by `setup`.
    type State;

    /// Client threads and server threads the workload keeps busy, not
    /// counting pool workers.
    fn threads(&self) -> (usize, usize);

    /// Generate inputs from `seed`, run seed simulations and the initial fit.
    fn setup(&self, seed: u64) -> Result<Self::State, String>;

    /// Run one pass. `traced` passes also time the gate on its own.
    fn pass(&self, state: &mut Self::State, traced: bool) -> Result<Pass, String>;

    /// Root-mean-square error of served answers against ground truth.
    fn rmse(&self, _state: &Self::State, first: &Pass) -> Result<f64, String> {
        Ok((first.sq_err / first.n_err.max(1) as f64).sqrt())
    }
}

/// Cap on rows replayed through the stand-alone gate timing.
const GATE_SAMPLE_ROWS: usize = 8192;

/// Time `predict_with_uncertainty_rows` on `rows`, in waves of `wave`,
/// with a surrogate fitted exactly as the engine's first one was.
/// Returns microseconds per row.
pub fn time_gate(
    x: &Matrix,
    y: &Matrix,
    cfg: &SurrogateConfig,
    rows: &[&[f64]],
    wave: usize,
) -> Result<f64, String> {
    let mut s = NnSurrogate::fit(x, y, cfg).map_err(|e| format!("gate replica fit: {e}"))?;
    let rows = &rows[..rows.len().min(GATE_SAMPLE_ROWS)];
    let wave = wave.max(1);
    // Warm the scratch arena at full wave size first.
    s.predict_with_uncertainty_rows(&rows[..wave.min(rows.len())])
        .map_err(|e| format!("gate replica: {e}"))?;
    let t = Instant::now();
    for chunk in rows.chunks(wave) {
        let p = s
            .predict_with_uncertainty_rows(chunk)
            .map_err(|e| format!("gate replica: {e}"))?;
        std::hint::black_box(p);
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / rows.len().max(1) as f64)
}

/// Flops per gated row of the fused MC-dropout evaluation: the first layer
/// runs once per row (no dropout precedes it), every later layer once per
/// MC pass.
pub fn gate_flops_per_row(in_dim: usize, hidden: &[usize], out_dim: usize, mc: usize) -> f64 {
    let mut widths = vec![in_dim];
    widths.extend_from_slice(hidden);
    widths.push(out_dim);
    let layer = |i: usize| 2.0 * (widths[i] * widths[i + 1]) as f64;
    layer(0) + mc as f64 * (1..widths.len() - 1).map(layer).sum::<f64>()
}

/// Prefix an engine error with what was being done.
pub fn err(what: &str) -> impl Fn(learning_everywhere::LeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Rows of `(x, y)` as a pair of matrices.
pub fn matrices(x: &[Vec<f64>], y: &[Vec<f64>]) -> (Matrix, Matrix) {
    let rx: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
    let ry: Vec<&[f64]> = y.iter().map(Vec::as_slice).collect();
    (Matrix::from_rows(&rx), Matrix::from_rows(&ry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_flops_count_first_layer_once() {
        // 5→64→64→3 with 30 passes: 2·5·64 + 30·(2·64·64 + 2·64·3).
        assert_eq!(
            gate_flops_per_row(5, &[64, 64], 3, 30),
            640.0 + 30.0 * 8576.0
        );
        // 3→16→1 with 4 passes: 2·3·16 + 4·2·16.
        assert_eq!(gate_flops_per_row(3, &[16], 1, 4), 96.0 + 128.0);
    }
}
