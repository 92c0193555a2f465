#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `le-bench` — shared fixtures for the experiment harness.
//!
//! Each experiment from DESIGN.md has (a) a plain timing bench under
//! `benches/` measuring its primitive operations, and (b) a harness binary
//! under `src/bin/` (`e1_…` through `e12_…`) that regenerates the
//! experiment's table/series for EXPERIMENTS.md. The fixtures here keep
//! both views of one experiment using identical setups; [`campaign`] holds
//! what the deterministic campaign binaries share.

use le_linalg::{Matrix, Rng};
use le_mdsim::nanoconfinement::NanoParams;
use le_mdsim::{NanoSim, SimConfig};
use learning_everywhere::surrogate::{NnSurrogate, SurrogateConfig};

pub mod campaign;
pub mod timing;

/// Standard seed for all benches (fixtures must be identical across runs).
pub const BENCH_SEED: u64 = 20190415; // the paper's IPDPS-workshop year

/// Build a labelled nanoconfinement dataset of `n` runs at the fast preset.
pub fn nano_dataset(n: usize, seed: u64) -> (Vec<NanoParams>, Vec<Vec<f64>>) {
    let sim = NanoSim::new(SimConfig::fast());
    let mut rng = Rng::new(seed);
    let params: Vec<NanoParams> = (0..n).map(|_| NanoParams::sample(&mut rng)).collect();
    let outputs: Vec<Vec<f64>> =
        le_pool::par_map_index(params.len(), |i| {
            sim.run(&params[i], seed ^ (i as u64 + 1)).expect("valid params").0.to_vec() // lint:allow(no-panic): fixture params are constructed valid above
        });
    (params, outputs)
}

/// Train a nanoconfinement surrogate from a labelled dataset.
pub fn nano_surrogate(
    params: &[NanoParams],
    outputs: &[Vec<f64>],
    epochs: usize,
    seed: u64,
) -> NnSurrogate {
    let n = params.len();
    let mut x = Matrix::zeros(n, 5);
    let mut y = Matrix::zeros(n, 3);
    for i in 0..n {
        x.row_mut(i).copy_from_slice(&params[i].to_features());
        y.row_mut(i).copy_from_slice(&outputs[i]);
    }
    NnSurrogate::fit(
        &x,
        &y,
        &SurrogateConfig {
            hidden: vec![64, 64],
            dropout: 0.05,
            epochs,
            seed,
            ..Default::default()
        },
    )
    .expect("well-formed dataset") // lint:allow(no-panic): dataset shape fixed by the generator above
}

/// Format a markdown table row.
pub fn md_row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let (p1, o1) = nano_dataset(4, 9);
        let (p2, o2) = nano_dataset(4, 9);
        assert_eq!(p1, p2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn surrogate_fixture_trains() {
        let (p, o) = nano_dataset(24, 10);
        let s = nano_surrogate(&p, &o, 30, 1);
        let pred = s.predict(&p[0].to_features()).unwrap();
        assert_eq!(pred.len(), 3);
    }

    #[test]
    fn md_row_formats() {
        assert_eq!(md_row(&["a".into(), "b".into()]), "| a | b |");
    }
}
