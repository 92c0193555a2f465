//! Behler–Parrinello neural-network potential (paper refs \[30\]–\[33\]).
//!
//! The key insight the paper quotes: "represent the total energy as a sum of
//! atomic contributions and represent the chemical environment around each
//! atom by an identically structured NN, which takes as input appropriate
//! symmetry functions that are rotation and translation invariant as well as
//! invariant to exchange of atoms."
//!
//! * [`SymmetryFunctions`] — radial G² and angular G⁴ descriptors with the
//!   required invariances.
//! * [`BpPotential`] — one shared per-atom MLP; total energy is the sum of
//!   per-atom outputs. Trained on the per-atom energies of
//!   [`crate::reference::ReferencePotential`] (which is exactly how DFT
//!   reference data is used, via its atomic-energy partitioning).
//! * [`generate_training_set`] — random clusters → (descriptor, per-atom
//!   energy) pairs, parallelized with Rayon.

use le_linalg::{Matrix, Rng};
use le_nn::{Regressor, TrainConfig};
use le_pool as pool;

use crate::reference::{random_cluster, ReferencePotential};
use crate::system::Vec3;
use crate::{MdError, Result};

/// Parameters of the atom-centered symmetry-function descriptor set.
#[derive(Debug, Clone)]
pub struct SymmetryFunctions {
    /// Cutoff radius (must match the reference potential's locality).
    pub rc: f64,
    /// Gaussian widths η for the radial G² set.
    pub radial_etas: Vec<f64>,
    /// Gaussian centers r_s for the radial G² set (paired with each η).
    pub radial_shifts: Vec<f64>,
    /// ζ exponents for the angular G⁴ set.
    pub angular_zetas: Vec<f64>,
    /// λ = ±1 signs for the angular G⁴ set.
    pub angular_lambdas: Vec<f64>,
    /// η for the angular set.
    pub angular_eta: f64,
}

impl SymmetryFunctions {
    /// A standard small descriptor set (8 radial + 4 angular = 12 features).
    pub fn standard(rc: f64) -> Self {
        Self {
            rc,
            radial_etas: vec![0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0],
            radial_shifts: vec![0.8, 1.2, 0.8, 1.6, 1.0, 2.0, 1.0, 1.4],
            angular_zetas: vec![1.0, 2.0, 1.0, 2.0],
            angular_lambdas: vec![1.0, 1.0, -1.0, -1.0],
            angular_eta: 0.5,
        }
    }

    /// Number of features per atom.
    pub fn n_features(&self) -> usize {
        self.radial_etas.len() + self.angular_zetas.len()
    }

    /// Smooth cosine cutoff.
    #[inline]
    fn fc(&self, r: f64) -> f64 {
        if r >= self.rc {
            0.0
        } else {
            0.5 * ((std::f64::consts::PI * r / self.rc).cos() + 1.0)
        }
    }

    /// 2^(1-ζ) prefactor with exact shortcuts for the common integer ζ.
    #[inline]
    fn zeta_prefactor(zeta: f64) -> f64 {
        if zeta == 1.0 { // lint:allow(float-hygiene): exact dispatch on a literal config value
            1.0
        } else if zeta == 2.0 { // lint:allow(float-hygiene): exact dispatch on a literal config value
            0.5
        } else {
            2.0f64.powf(1.0 - zeta)
        }
    }

    /// base^ζ with multiply shortcuts for the common integer ζ (`powf` costs
    /// an `exp`+`ln` pair; ζ ∈ {1, 2} covers every standard descriptor set).
    #[inline]
    fn zeta_pow(base: f64, zeta: f64) -> f64 {
        if zeta == 1.0 { // lint:allow(float-hygiene): exact dispatch on a literal config value
            base
        } else if zeta == 2.0 { // lint:allow(float-hygiene): exact dispatch on a literal config value
            base * base
        } else {
            base.powf(zeta)
        }
    }

    /// Descriptor vector for atom `i` in configuration `pos`.
    pub fn describe_atom(&self, pos: &[Vec3], i: usize) -> Vec<f64> {
        let mut features = vec![0.0; self.n_features()];
        // Collect neighbors of i within rc, with the cutoff value hoisted:
        // fc(r) is reused by every radial feature and every angular pair the
        // neighbor participates in, so one cosine here replaces dozens below.
        let mut nbrs: Vec<(f64, f64, Vec3)> = Vec::new();
        for (j, rj) in pos.iter().enumerate() {
            if j == i {
                continue;
            }
            let d = [
                rj[0] - pos[i][0],
                rj[1] - pos[i][1],
                rj[2] - pos[i][2],
            ];
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            if r < self.rc {
                nbrs.push((r, self.fc(r), d));
            }
        }
        // Radial G2: Σ_j exp(-η (r_ij - r_s)²) fc(r_ij).
        for (k, (&eta, &rs)) in self
            .radial_etas
            .iter()
            .zip(self.radial_shifts.iter())
            .enumerate()
        {
            features[k] = nbrs
                .iter()
                .map(|&(r, fcr, _)| (-eta * (r - rs) * (r - rs)).exp() * fcr)
                .sum();
        }
        // Angular G4: 2^(1-ζ) Σ_{j<k} (1 + λ cosθ)^ζ
        //             · exp(-η(r_ij² + r_ik² + r_jk²)) fc(r_ij) fc(r_ik) fc(r_jk).
        let off = self.radial_etas.len();
        for a in 0..nbrs.len() {
            for b in (a + 1)..nbrs.len() {
                let (rj, fcj, dj) = nbrs[a];
                let (rk, fck, dk) = nbrs[b];
                let djk = [dk[0] - dj[0], dk[1] - dj[1], dk[2] - dj[2]];
                let rjk = (djk[0] * djk[0] + djk[1] * djk[1] + djk[2] * djk[2]).sqrt();
                if rjk >= self.rc {
                    continue;
                }
                let cosang = (dj[0] * dk[0] + dj[1] * dk[1] + dj[2] * dk[2]) / (rj * rk);
                let gauss = (-self.angular_eta * (rj * rj + rk * rk + rjk * rjk)).exp();
                let cuts = fcj * fck * self.fc(rjk);
                let weight = gauss * cuts;
                for (m, (&zeta, &lambda)) in self
                    .angular_zetas
                    .iter()
                    .zip(self.angular_lambdas.iter())
                    .enumerate()
                {
                    let base = (1.0 + lambda * cosang).max(0.0);
                    features[off + m] +=
                        Self::zeta_prefactor(zeta) * Self::zeta_pow(base, zeta) * weight;
                }
            }
        }
        features
    }

    /// Descriptor matrix for every atom in the configuration. Atoms are
    /// described in parallel; rows are stitched in atom order, so the result
    /// is identical at every thread count.
    pub fn describe_all(&self, pos: &[Vec3]) -> Matrix {
        let nf = self.n_features();
        let mut m = Matrix::zeros(pos.len(), nf);
        let rows = pool::par_map_index(pos.len(), |i| self.describe_atom(pos, i));
        for (i, f) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(f);
        }
        m
    }
}

/// A labelled training set: per-atom descriptors and per-atom energies.
#[derive(Debug, Clone)]
pub struct BpDataset {
    /// One row per atom across all configurations.
    pub features: Matrix,
    /// Per-atom reference energy, one row per atom.
    pub energies: Matrix,
    /// Number of source configurations.
    pub n_configs: usize,
}

/// Generate `n_configs` random clusters of `atoms_per_config` atoms, label
/// them with the reference potential, and assemble the per-atom dataset.
/// Configurations are labelled in parallel (this is the expensive
/// "simulation campaign" that MLaroundHPC amortizes).
pub fn generate_training_set(
    sf: &SymmetryFunctions,
    reference: &ReferencePotential,
    n_configs: usize,
    atoms_per_config: usize,
    seed: u64,
) -> BpDataset {
    let rows: Vec<(Vec<f64>, f64)> = pool::par_map_index(n_configs, |cfg| {
            let mut rng = Rng::new(seed.wrapping_add(cfg as u64).wrapping_mul(0x2545_F491));
            let pos = random_cluster(atoms_per_config, reference.r0, 1.4, &mut rng);
            let e = reference.energy(&pos);
            (0..pos.len())
                .map(|i| (sf.describe_atom(&pos, i), e.per_atom[i]))
                .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let nf = sf.n_features();
    let mut features = Matrix::zeros(rows.len(), nf);
    let mut energies = Matrix::zeros(rows.len(), 1);
    for (r, (f, e)) in rows.iter().enumerate() {
        features.row_mut(r).copy_from_slice(f);
        energies.set(r, 0, *e);
    }
    BpDataset {
        features,
        energies,
        n_configs,
    }
}

/// The trained Behler–Parrinello potential: the descriptor set and one
/// shared per-atom regressor.
#[derive(Debug, Clone)]
pub struct BpPotential {
    sf: SymmetryFunctions,
    reg: Regressor,
}

impl BpPotential {
    /// Train a BP potential on a labelled dataset. `hidden` gives the
    /// hidden-layer widths of the shared atomic network.
    pub fn train(
        sf: SymmetryFunctions,
        data: &BpDataset,
        hidden: &[usize],
        train_config: TrainConfig,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = Rng::new(seed);
        let reg = Regressor::fit(&data.features, &data.energies, hidden, 0.0, train_config, &mut rng)
            .map_err(|e| MdError::Internal(e.to_string()))?;
        Ok(Self { sf, reg })
    }

    /// Predicted total energy of a configuration: Σ_i NN(G_i).
    ///
    /// Evaluated with [`le_nn::Mlp::predict`] between the regressor's
    /// scalers rather than through [`Regressor::predict_into`]: the two
    /// agree to the bit, but in an unoptimized build the fused engine
    /// costs about 1.6× as much on a 16-atom call, which sinks the
    /// debug-build speed check in `tests/bp_potential_pipeline.rs`.
    pub fn energy(&self, pos: &[Vec3]) -> f64 {
        let feats = self.sf.describe_all(pos);
        let energy = || -> le_nn::Result<f64> {
            let mut per_atom = self.reg.model().predict(&self.reg.x_scaler().transform(&feats)?)?;
            per_atom
                .as_mut_slice()
                .chunks_exact_mut(1)
                .try_for_each(|e| self.reg.y_scaler().inverse_transform_slice(e))?;
            Ok(per_atom.as_slice().iter().sum())
        };
        energy().expect("descriptor width fixed at train time") // lint:allow(no-panic): descriptor width and 1-wide output fixed at train time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_training() -> (SymmetryFunctions, ReferencePotential, BpPotential, BpDataset) {
        let reference = ReferencePotential::default();
        let sf = SymmetryFunctions::standard(reference.rc);
        let data = generate_training_set(&sf, &reference, 120, 8, 42);
        let pot = BpPotential::train(
            sf.clone(),
            &data,
            &[24, 24],
            TrainConfig {
                epochs: 150,
                patience: Some(30),
                ..Default::default()
            },
            7,
        )
        .unwrap();
        (sf, reference, pot, data)
    }

    #[test]
    fn descriptors_are_translation_invariant() {
        let sf = SymmetryFunctions::standard(2.5);
        let mut rng = Rng::new(81);
        let pos = random_cluster(6, 1.0, 1.3, &mut rng);
        let shifted: Vec<Vec3> = pos.iter().map(|p| [p[0] + 5.0, p[1], p[2] - 2.0]).collect();
        for i in 0..pos.len() {
            let a = sf.describe_atom(&pos, i);
            let b = sf.describe_atom(&shifted, i);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn descriptors_are_rotation_invariant() {
        let sf = SymmetryFunctions::standard(2.5);
        let mut rng = Rng::new(82);
        let pos = random_cluster(6, 1.0, 1.3, &mut rng);
        let rotated: Vec<Vec3> = pos.iter().map(|p| [p[1], -p[0], p[2]]).collect();
        for i in 0..pos.len() {
            let a = sf.describe_atom(&pos, i);
            let b = sf.describe_atom(&rotated, i);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn descriptors_are_neighbor_permutation_invariant() {
        let sf = SymmetryFunctions::standard(2.5);
        let pos: Vec<Vec3> = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.1, 0.0],
            [0.0, 0.0, 0.9],
        ];
        let a = sf.describe_atom(&pos, 0);
        // Swap two neighbors.
        let swapped: Vec<Vec3> = vec![pos[0], pos[2], pos[1], pos[3]];
        let b = sf.describe_atom(&swapped, 0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn isolated_atom_has_zero_descriptor() {
        let sf = SymmetryFunctions::standard(2.5);
        let pos: Vec<Vec3> = vec![[0.0; 3], [10.0, 0.0, 0.0]];
        let d = sf.describe_atom(&pos, 0);
        assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn descriptor_count_matches() {
        let sf = SymmetryFunctions::standard(2.5);
        assert_eq!(sf.n_features(), 12);
        let pos: Vec<Vec3> = vec![[0.0; 3], [1.0, 0.0, 0.0]];
        assert_eq!(sf.describe_atom(&pos, 0).len(), 12);
        assert_eq!(sf.describe_all(&pos).shape(), (2, 12));
    }

    #[test]
    fn training_set_shapes() {
        let reference = ReferencePotential::default();
        let sf = SymmetryFunctions::standard(reference.rc);
        let data = generate_training_set(&sf, &reference, 10, 6, 1);
        assert_eq!(data.features.shape(), (60, 12));
        assert_eq!(data.energies.shape(), (60, 1));
        assert_eq!(data.n_configs, 10);
    }

    #[test]
    fn training_set_generation_is_deterministic() {
        let reference = ReferencePotential::default();
        let sf = SymmetryFunctions::standard(reference.rc);
        let a = generate_training_set(&sf, &reference, 6, 5, 9);
        let b = generate_training_set(&sf, &reference, 6, 5, 9);
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        assert_eq!(a.energies.as_slice(), b.energies.as_slice());
    }

    #[test]
    fn bp_learns_reference_energies() {
        let (_, reference, pot, _) = quick_training();
        // Held-out configurations.
        let mut rng = Rng::new(83);
        let mut rel_errors = Vec::new();
        for _ in 0..20 {
            let pos = random_cluster(8, 1.0, 1.4, &mut rng);
            let e_ref = reference.energy(&pos).total;
            let e_nn = pot.energy(&pos);
            rel_errors.push((e_nn - e_ref).abs() / (e_ref.abs() + 1.0));
        }
        let mean_rel = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
        assert!(
            mean_rel < 0.25,
            "BP potential should roughly track the reference, rel err {mean_rel}"
        );
    }

    #[test]
    fn bp_empty_configuration() {
        let (_, _, pot, _) = quick_training();
        assert_eq!(pot.energy(&[]), 0.0);
    }

    #[test]
    fn bp_forces_point_downhill_on_nn_surface() {
        let (_, _, pot, _) = quick_training();
        let mut rng = Rng::new(86);
        let pos = random_cluster(6, 1.0, 1.5, &mut rng);
        let forces = crate::numerical_forces(&pos, 1e-4, |p| pot.energy(p));
        let e0 = pot.energy(&pos);
        let norm: f64 = forces
            .iter()
            .flat_map(|f| f.iter())
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt();
        if norm > 1e-6 {
            let step = 1e-3 / norm;
            let moved: Vec<Vec3> = pos
                .iter()
                .zip(forces.iter())
                .map(|(r, f)| [r[0] + step * f[0], r[1] + step * f[1], r[2] + step * f[2]])
                .collect();
            assert!(
                pot.energy(&moved) < e0,
                "NN forces must descend the NN energy surface"
            );
        }
    }

    #[test]
    fn bp_is_much_faster_than_reference() {
        let (_, reference, pot, _) = quick_training();
        let mut rng = Rng::new(85);
        let pos = random_cluster(12, 1.0, 1.3, &mut rng);
        // Warm up then time both. The debug-mode margin is thin, so the two
        // arms are interleaved per round (a scheduler stall lands on both)
        // and the gate is the median per-round ratio, not one mean that a
        // single load spike can sink — same scheme, and the same nine
        // rounds, as the pipeline test in tests/bp_potential_pipeline.rs:
        // host load must cover five of them to move the median.
        let _ = reference.energy(&pos);
        let _ = pot.energy(&pos);
        let (rounds, reps) = (9, 4);
        let mut ratios = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                let _ = reference.energy(&pos);
            }
            let t_ref = t0.elapsed().as_secs_f64() / reps as f64;
            let t1 = std::time::Instant::now();
            for _ in 0..reps {
                let _ = pot.energy(&pos);
            }
            let t_nn = t1.elapsed().as_secs_f64() / reps as f64;
            ratios.push(t_ref / t_nn);
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let median = ratios[ratios.len() / 2];
        assert!(
            median > 1.0,
            "NN should beat the reference: median reference/NN ratio {median:.2} (rounds: {ratios:?})"
        );
    }
}
