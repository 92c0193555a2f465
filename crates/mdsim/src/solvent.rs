//! Explicit-solvent cost decomposition and the NN-implicit-solvent
//! substitution (experiment E10).
//!
//! §II-C2 of the paper: "replacing solvent-solvent and solvent-solute
//! interactions, which typically make up 80%-90% of the computational effort
//! in a classical all-atom, explicit solvent simulation, with a NN potential
//! promises large performance gains at a fraction of the cost of traditional
//! implicit solvent models". This module provides:
//!
//! * [`pair_share`] / [`measure_cost_shares`] — the analytic and measured
//!   decomposition of pair-interaction work into solute–solute,
//!   solute–solvent, and solvent–solvent categories;
//! * [`SolvatedSystem`] — a mixture of big solute and small solvent LJ
//!   particles in a slab, with a dedicated Langevin loop that tallies pair
//!   work by category;
//! * [`pmf_from_rdf`] + [`PmfPotential`] — a learned solute–solute
//!   potential of mean force: an MLP is trained on `r → −ln g(r)` sampled
//!   from the explicit simulation, then drives a solvent-free simulation.

use le_linalg::{Matrix, Rng};
use le_nn::{Regressor, TrainConfig};

use crate::forces::ForceField;
use crate::system::SlabBox;
use crate::{MdError, Result};

/// Fraction of pair interactions by category for given particle counts.
/// Categories: (solute–solute, solute–solvent, solvent–solvent).
pub fn pair_share(n_solute: usize, n_solvent: usize) -> (f64, f64, f64) {
    let uu = n_solute * n_solute.saturating_sub(1) / 2;
    let uv = n_solute * n_solvent;
    let vv = n_solvent * n_solvent.saturating_sub(1) / 2;
    let total = (uu + uv + vv) as f64;
    if total == 0.0 { // lint:allow(float-hygiene): integer-cast count, exact zero means no pairs
        return (0.0, 0.0, 0.0);
    }
    (uu as f64 / total, uv as f64 / total, vv as f64 / total)
}

/// Measured pair-work tallies from an explicit-solvent run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostShares {
    /// Solute–solute pair evaluations.
    pub uu: u64,
    /// Solute–solvent pair evaluations.
    pub uv: u64,
    /// Solvent–solvent pair evaluations.
    pub vv: u64,
}

impl CostShares {
    /// Fraction of pair work that involves solvent (the part the NN
    /// replaces).
    pub fn solvent_fraction(&self) -> f64 {
        let total = (self.uu + self.uv + self.vv) as f64;
        if total == 0.0 { // lint:allow(float-hygiene): integer-cast count, exact zero means no pairs
            return 0.0;
        }
        (self.uv + self.vv) as f64 / total
    }
}

/// Configuration of the solvated test system.
#[derive(Debug, Clone, Copy)]
pub struct SolvatedConfig {
    /// Number of solute particles.
    pub n_solute: usize,
    /// Number of solvent particles.
    pub n_solvent: usize,
    /// Solute LJ diameter.
    pub solute_diameter: f64,
    /// Solvent LJ diameter.
    pub solvent_diameter: f64,
    /// Cubic-ish box side (slab with h = side).
    pub side: f64,
    /// Timestep.
    pub dt: f64,
    /// Langevin friction.
    pub gamma: f64,
    /// Temperature (kT).
    pub temperature: f64,
}

impl SolvatedConfig {
    /// Small, test-speed system with a solvent-dominated pair count.
    pub fn small() -> Self {
        Self {
            n_solute: 12,
            n_solvent: 60,
            solute_diameter: 0.5,
            solvent_diameter: 0.25,
            side: 4.0,
            dt: 0.004,
            gamma: 1.0,
            temperature: 1.0,
        }
    }
}

/// The mixture system with a category-tallying force loop.
#[derive(Debug)]
pub struct SolvatedSystem {
    bbox: SlabBox,
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    /// `true` for solute particles (stored first).
    is_solute: Vec<bool>,
    diameter: Vec<f64>,
    cfg: SolvatedConfig,
    ff: ForceField,
    /// Pair-work tallies accumulated across force evaluations.
    pub shares: CostShares,
}

impl SolvatedSystem {
    /// Build and randomly place the mixture.
    pub fn new(cfg: SolvatedConfig, rng: &mut Rng) -> Result<Self> {
        let bbox = SlabBox::new(cfg.side, cfg.side, cfg.side)?;
        let n = cfg.n_solute + cfg.n_solvent;
        let mut pos = Vec::with_capacity(n);
        let mut vel = Vec::with_capacity(n);
        let mut is_solute = Vec::with_capacity(n);
        let mut diameter = Vec::with_capacity(n);
        for i in 0..n {
            let solute = i < cfg.n_solute;
            let dia = if solute {
                cfg.solute_diameter
            } else {
                cfg.solvent_diameter
            };
            let margin = 0.5 * dia;
            pos.push([
                rng.uniform_in(0.0, cfg.side),
                rng.uniform_in(0.0, cfg.side),
                rng.uniform_in(margin, cfg.side - margin),
            ]);
            let v_std = cfg.temperature.sqrt();
            vel.push([
                rng.gaussian() * v_std,
                rng.gaussian() * v_std,
                rng.gaussian() * v_std,
            ]);
            is_solute.push(solute);
            diameter.push(dia);
        }
        let ff = ForceField {
            // Neutral mixture: no electrostatics.
            coulomb_cutoff: 0.0,
            wall_sigma: 0.5 * cfg.solvent_diameter,
            ..Default::default()
        };
        Ok(Self {
            bbox,
            pos,
            vel,
            is_solute,
            diameter,
            cfg,
            ff,
            shares: CostShares::default(),
        })
    }

    /// All-pairs force evaluation with category tallies.
    /// (Particle counts here are small; the tally itself is the point.)
    fn forces(&mut self) -> Vec<[f64; 3]> {
        let n = self.pos.len();
        let mut f = vec![[0.0f64; 3]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.bbox.min_image(&self.pos[i], &self.pos[j]);
                let r2 = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).max(1e-6);
                let sigma = 0.5 * (self.diameter[i] + self.diameter[j]);
                let rc = self.ff.lj_cutoff_factor * sigma;
                match (self.is_solute[i], self.is_solute[j]) {
                    (true, true) => self.shares.uu += 1,
                    (false, false) => self.shares.vv += 1,
                    _ => self.shares.uv += 1,
                }
                if r2 > rc * rc {
                    continue;
                }
                let (_, f_over_r) = self.ff.pair(r2, 0.0, 0.0, sigma);
                for k in 0..3 {
                    let fk = f_over_r * d[k];
                    f[i][k] += fk;
                    f[j][k] -= fk;
                }
            }
            // Confining walls.
            let (_, fz) = self.ff.wall(self.pos[i][2], self.bbox.h);
            f[i][2] += fz;
        }
        f
    }

    /// Run Langevin dynamics for `steps`, recording the solute–solute RDF
    /// every `sample_interval` steps after `equil` steps. Returns the RDF.
    pub fn run(
        &mut self,
        steps: usize,
        equil: usize,
        sample_interval: usize,
        rdf_bins: usize,
        rdf_rmax: f64,
        rng: &mut Rng,
    ) -> Result<Rdf> {
        let dt = self.cfg.dt;
        let half = 0.5 * dt;
        let c1 = (-self.cfg.gamma * dt).exp();
        let c2 = ((1.0 - c1 * c1) * self.cfg.temperature).sqrt();
        let mut f = self.forces();
        let mut rdf = Rdf::new(rdf_bins, rdf_rmax);
        for step in 0..steps {
            for i in 0..self.pos.len() {
                for k in 0..3 {
                    self.vel[i][k] += half * f[i][k];
                    self.pos[i][k] += half * self.vel[i][k];
                }
            }
            for v in &mut self.vel {
                for k in 0..3 {
                    v[k] = c1 * v[k] + c2 * rng.gaussian();
                }
            }
            for i in 0..self.pos.len() {
                for k in 0..3 {
                    self.pos[i][k] += half * self.vel[i][k];
                }
                let mut r = self.pos[i];
                self.bbox.wrap(&mut r);
                self.pos[i] = r;
            }
            f = self.forces();
            for i in 0..self.pos.len() {
                for k in 0..3 {
                    self.vel[i][k] += half * f[i][k];
                }
            }
            if step >= equil && (step - equil).is_multiple_of(sample_interval) {
                self.record_solute_rdf(&mut rdf);
            }
            // Instability guard.
            if step % 200 == 0 {
                let ke: f64 = self
                    .vel
                    .iter()
                    .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
                    .sum();
                if !ke.is_finite() {
                    return Err(MdError::Unstable {
                        step,
                        reason: "non-finite kinetic energy".into(),
                    });
                }
            }
        }
        Ok(rdf)
    }

    fn record_solute_rdf(&self, rdf: &mut Rdf) {
        let solutes: Vec<usize> = (0..self.pos.len()).filter(|&i| self.is_solute[i]).collect();
        for (a, &i) in solutes.iter().enumerate() {
            for &j in &solutes[a + 1..] {
                let d = self.bbox.min_image(&self.pos[i], &self.pos[j]);
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                rdf.record(r);
            }
        }
        rdf.snapshots += 1;
        rdf.pairs_per_snapshot = solutes.len() * (solutes.len() - 1) / 2;
        rdf.volume = self.bbox.volume();
        rdf.n_particles = solutes.len();
    }
}

/// A radial distribution function accumulator.
#[derive(Debug, Clone)]
pub struct Rdf {
    /// Histogram counts.
    pub counts: Vec<u64>,
    /// Maximum radius.
    pub rmax: f64,
    /// Snapshots recorded.
    pub snapshots: usize,
    /// Unordered pairs per snapshot.
    pub pairs_per_snapshot: usize,
    /// System volume (for ideal-gas normalization).
    pub volume: f64,
    /// Number of particles of the tracked species.
    pub n_particles: usize,
}

impl Rdf {
    /// New empty accumulator.
    pub fn new(bins: usize, rmax: f64) -> Self {
        Self {
            counts: vec![0; bins],
            rmax,
            snapshots: 0,
            pairs_per_snapshot: 0,
            volume: 1.0,
            n_particles: 0,
        }
    }

    /// Record one pair separation.
    pub fn record(&mut self, r: f64) {
        if r < self.rmax {
            let b = (r / self.rmax * self.counts.len() as f64) as usize;
            let last = self.counts.len() - 1;
            self.counts[b.min(last)] += 1;
        }
    }

    /// Bin centers.
    pub fn bin_centers(&self) -> Vec<f64> {
        let w = self.rmax / self.counts.len() as f64;
        (0..self.counts.len()).map(|i| (i as f64 + 0.5) * w).collect()
    }

    /// Normalized g(r) against the ideal-gas expectation.
    pub fn g(&self) -> Vec<f64> {
        if self.snapshots == 0 || self.n_particles < 2 {
            return vec![0.0; self.counts.len()];
        }
        let w = self.rmax / self.counts.len() as f64;
        let density = self.n_particles as f64 / self.volume;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let r_lo = i as f64 * w;
                let r_hi = r_lo + w;
                let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
                let ideal =
                    0.5 * self.n_particles as f64 * density * shell * self.snapshots as f64;
                if ideal > 0.0 {
                    c as f64 / ideal
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Extract (r, PMF) training pairs from a measured g(r):
/// `PMF(r) = −kT ln g(r)`, keeping only bins with enough statistics.
pub fn pmf_from_rdf(rdf: &Rdf, min_count: u64) -> Vec<(f64, f64)> {
    let g = rdf.g();
    let centers = rdf.bin_centers();
    centers
        .into_iter()
        .zip(g)
        .zip(rdf.counts.iter().copied())
        .filter(|&((_, gv), c)| c >= min_count && gv > 1e-6)
        .map(|((r, gv), _)| (r, -gv.ln()))
        .collect()
}

/// A learned solute–solute potential of mean force: an MLP over r.
#[derive(Debug, Clone)]
pub struct PmfPotential {
    /// The PMF sits in the pair loop of a solvent-free simulation, so its
    /// evaluation reuses the regressor's preallocated engine.
    reg: Regressor,
    /// Validity range of the fit; outside it the PMF is extrapolated flat.
    pub r_range: (f64, f64),
}

impl PmfPotential {
    /// Fit an MLP to (r, PMF) samples.
    pub fn train(samples: &[(f64, f64)], seed: u64) -> Result<Self> {
        if samples.len() < 8 {
            return Err(MdError::InvalidParam(format!(
                "need at least 8 PMF samples, got {}",
                samples.len()
            )));
        }
        let n = samples.len();
        let mut x = Matrix::zeros(n, 1);
        let mut y = Matrix::zeros(n, 1);
        for (i, &(r, u)) in samples.iter().enumerate() {
            x.set(i, 0, r);
            y.set(i, 0, u);
        }
        let train = TrainConfig {
            epochs: 400,
            patience: Some(60),
            ..Default::default()
        };
        let reg = Regressor::fit(&x, &y, &[16, 16], 0.0, train, &mut Rng::new(seed))
            .map_err(|e| MdError::Internal(e.to_string()))?;
        let r_min = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
        let r_max = samples.iter().map(|s| s.0).fold(0.0f64, f64::max);
        Ok(Self {
            reg,
            r_range: (r_min, r_max),
        })
    }

    /// PMF values at many separations (each clamped to the fitted range),
    /// evaluated as one fused batch through the preallocated engine.
    pub fn energy_batch(&self, rs: &[f64], out: &mut Vec<f64>) {
        let x: Vec<f64> = rs
            .iter()
            .map(|&r| r.clamp(self.r_range.0, self.r_range.1))
            .collect();
        out.clear();
        out.resize(rs.len(), 0.0);
        self.reg
            .predict_into(&x, rs.len(), out)
            .expect("1 in 1 out"); // lint:allow(no-panic): regressor fitted 1-in/1-out
    }

    /// PMF value at separation r (clamped to the fitted range).
    pub fn energy(&self, r: f64) -> f64 {
        let mut out = Vec::with_capacity(1);
        self.energy_batch(std::slice::from_ref(&r), &mut out);
        out[0]
    }

    /// Radial force −dPMF/dr via central difference (zero outside range).
    /// Both stencil points ride one fused batch evaluation.
    pub fn force(&self, r: f64) -> f64 {
        if r <= self.r_range.0 || r >= self.r_range.1 {
            return 0.0;
        }
        let eps = 1e-4;
        let mut out = Vec::with_capacity(2);
        self.energy_batch(&[r + eps, r - eps], &mut out);
        -(out[0] - out[1]) / (2.0 * eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_share_matches_combinatorics() {
        let (uu, uv, vv) = pair_share(10, 0);
        assert!((uu - 1.0).abs() < 1e-12 && uv == 0.0 && vv == 0.0);
        // N_v = 3 N_u → solvent-involving share is high.
        let (uu, uv, vv) = pair_share(20, 60);
        assert!((uu + uv + vv - 1.0).abs() < 1e-12);
        assert!(
            uv + vv > 0.85,
            "solvent share {} should dominate at 1:3 ratio",
            uv + vv
        );
        assert_eq!(pair_share(0, 0), (0.0, 0.0, 0.0));
    }

    #[test]
    fn measured_shares_match_analytic() {
        let cfg = SolvatedConfig::small();
        let mut rng = Rng::new(91);
        let mut sys = SolvatedSystem::new(cfg, &mut rng).unwrap();
        let _ = sys.run(50, 0, 10, 20, 2.0, &mut rng).unwrap();
        let measured = sys.shares;
        let (uu_a, uv_a, vv_a) = pair_share(cfg.n_solute, cfg.n_solvent);
        let total = (measured.uu + measured.uv + measured.vv) as f64;
        assert!((measured.uu as f64 / total - uu_a).abs() < 1e-9);
        assert!((measured.uv as f64 / total - uv_a).abs() < 1e-9);
        assert!((measured.vv as f64 / total - vv_a).abs() < 1e-9);
        // The paper's 80–90% claim at this composition.
        assert!(
            measured.solvent_fraction() > 0.8,
            "solvent fraction {}",
            measured.solvent_fraction()
        );
    }

    #[test]
    fn explicit_run_produces_rdf() {
        let cfg = SolvatedConfig::small();
        let mut rng = Rng::new(92);
        let mut sys = SolvatedSystem::new(cfg, &mut rng).unwrap();
        let rdf = sys.run(600, 200, 10, 30, 2.0, &mut rng).unwrap();
        assert!(rdf.snapshots > 0);
        let g = rdf.g();
        assert_eq!(g.len(), 30);
        // Excluded volume: g(r) ≈ 0 well inside the solute diameter.
        assert!(g[0] < 0.5, "hard core should suppress g at tiny r, got {}", g[0]);
        // Some structure exists.
        assert!(g.iter().any(|&v| v > 0.2), "g(r) should be nonzero somewhere");
    }

    #[test]
    fn rdf_of_ideal_gas_is_flat() {
        // Random points → g(r) ≈ 1 at intermediate r.
        let mut rdf = Rdf::new(20, 2.0);
        let bbox = SlabBox::new(6.0, 6.0, 6.0).unwrap();
        let mut rng = Rng::new(93);
        let n = 40;
        for _ in 0..300 {
            let pos: Vec<[f64; 3]> = (0..n)
                .map(|_| {
                    [
                        rng.uniform_in(0.0, 6.0),
                        rng.uniform_in(0.0, 6.0),
                        rng.uniform_in(0.0, 6.0),
                    ]
                })
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = bbox.min_image(&pos[i], &pos[j]);
                    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    rdf.record(r);
                }
            }
            rdf.snapshots += 1;
        }
        rdf.volume = 216.0;
        rdf.n_particles = n;
        let g = rdf.g();
        // Note: z is not periodic in SlabBox::min_image, so distances along
        // z near the box scale are undersampled; test mid-range bins only.
        for (i, &gv) in g.iter().enumerate().skip(3).take(10) {
            assert!(
                (gv - 1.0).abs() < 0.25,
                "ideal-gas g at bin {i} = {gv}, expected ≈1"
            );
        }
    }

    #[test]
    fn pmf_extraction_filters_low_statistics() {
        let mut rdf = Rdf::new(10, 2.0);
        rdf.snapshots = 100;
        rdf.n_particles = 10;
        rdf.volume = 100.0;
        rdf.counts = vec![0, 1, 500, 600, 700, 800, 900, 1000, 1100, 1200];
        let samples = pmf_from_rdf(&rdf, 100);
        assert!(samples.len() == 8, "two low-count bins dropped, got {}", samples.len());
        assert!(samples.iter().all(|&(r, _)| r > 0.0 && r < 2.0));
    }

    #[test]
    fn pmf_potential_learns_and_differentiates() {
        // Synthetic PMF: harmonic well centred at r = 1.
        let samples: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                let r = 0.5 + 1.2 * i as f64 / 59.0;
                (r, 2.0 * (r - 1.0) * (r - 1.0))
            })
            .collect();
        let pot = PmfPotential::train(&samples, 5).unwrap();
        // Value near the well.
        assert!(pot.energy(1.0).abs() < 0.25, "well bottom {}", pot.energy(1.0));
        assert!(pot.energy(0.6) > pot.energy(1.0));
        // Force points toward the minimum.
        assert!(pot.force(0.7) > 0.0, "left of well pushes right");
        assert!(pot.force(1.4) < 0.0, "right of well pushes left");
        // Out of range: zero force.
        assert_eq!(pot.force(0.1), 0.0);
        assert_eq!(pot.force(5.0), 0.0);
    }

    #[test]
    fn pmf_training_needs_enough_samples() {
        let few = vec![(1.0, 0.0); 5];
        assert!(PmfPotential::train(&few, 1).is_err());
    }
}
