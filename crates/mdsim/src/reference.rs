//! An expensive analytic many-body reference potential standing in for
//! quantum-mechanical (DFT) energy evaluation — the substitution documented
//! in DESIGN.md for experiment E6.
//!
//! The paper (§II-C2, refs \[30\]–\[33\]) describes NN potentials trained on
//! DFT energies that run >1000× faster than the reference they learn. What
//! that experiment needs from the reference is (a) genuine many-body
//! structure, (b) smoothness, (c) a per-atom energy decomposition (the
//! Behler–Parrinello ansatz requires atomic contributions), and (d) a
//! computational cost orders of magnitude above an MLP forward pass. This
//! potential has all four:
//!
//! * a two-body Morse-like term,
//! * a three-body Stillinger–Weber-style angular term (O(N·k²) over
//!   neighbors), and
//! * a *self-consistent charge-equilibration loop*: fictitious per-atom
//!   charges are iterated to a fixed point of a screened coupling (the
//!   analogue of a DFT SCF loop), then contribute an electrostatic energy.
//!
//! The SCF loop dominates the cost, exactly like real DFT.

use crate::system::Vec3;

/// Parameters of the reference potential. Costs scale with `scf_max_iter`.
#[derive(Debug, Clone, Copy)]
pub struct ReferencePotential {
    /// Morse well depth.
    pub de: f64,
    /// Morse width.
    pub a: f64,
    /// Morse equilibrium distance.
    pub r0: f64,
    /// Three-body strength.
    pub lambda: f64,
    /// Interaction cutoff.
    pub rc: f64,
    /// SCF coupling strength (< 1 for contraction).
    pub scf_coupling: f64,
    /// SCF convergence tolerance.
    pub scf_tol: f64,
    /// Maximum SCF iterations.
    pub scf_max_iter: usize,
    /// Electrostatic weight of the converged SCF charges.
    pub elec_weight: f64,
}

impl Default for ReferencePotential {
    fn default() -> Self {
        Self {
            de: 1.0,
            a: 2.0,
            r0: 1.0,
            lambda: 0.4,
            rc: 2.5,
            scf_coupling: 0.6,
            scf_tol: 1e-13,
            scf_max_iter: 200,
            elec_weight: 0.3,
        }
    }
}

/// Result of one reference evaluation.
#[derive(Debug, Clone)]
pub struct ReferenceEnergy {
    /// Total energy.
    pub total: f64,
    /// Per-atom energy decomposition (sums to `total`).
    pub per_atom: Vec<f64>,
    /// SCF iterations used.
    pub scf_iterations: usize,
}

impl ReferencePotential {
    /// Smooth cosine cutoff function f_c(r): 1 at r = 0, 0 at r ≥ rc, C¹.
    #[inline]
    pub fn fc(&self, r: f64) -> f64 {
        if r >= self.rc {
            0.0
        } else {
            0.5 * ((std::f64::consts::PI * r / self.rc).cos() + 1.0)
        }
    }

    /// Evaluate total energy with per-atom decomposition for a free cluster
    /// (no periodic boundary).
    pub fn energy(&self, pos: &[Vec3]) -> ReferenceEnergy {
        let n = pos.len();
        let mut per_atom = vec![0.0; n];
        if n == 0 {
            return ReferenceEnergy {
                total: 0.0,
                per_atom,
                scf_iterations: 0,
            };
        }
        // Pairwise distances within cutoff (cached for the 3-body term and
        // the SCF loop).
        let mut neighbors: Vec<Vec<(usize, f64, Vec3)>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = [
                    pos[i][0] - pos[j][0],
                    pos[i][1] - pos[j][1],
                    pos[i][2] - pos[j][2],
                ];
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                if r < self.rc {
                    neighbors[i].push((j, r, d));
                    neighbors[j].push((i, r, [-d[0], -d[1], -d[2]]));
                }
            }
        }
        // Two-body Morse, half to each atom.
        for i in 0..n {
            for &(j, r, _) in &neighbors[i] {
                if j < i {
                    continue; // each unordered pair once
                }
                let x = (-self.a * (r - self.r0)).exp();
                let u = self.de * (x * x - 2.0 * x) * self.fc(r);
                per_atom[i] += 0.5 * u;
                per_atom[j] += 0.5 * u;
            }
        }
        // Three-body angular term centred on each atom:
        // λ Σ_{j<k} fc(r_ij) fc(r_ik) (cosθ_jik + 1/3)².
        for (i, nbrs) in neighbors.iter().enumerate() {
            for aa in 0..nbrs.len() {
                for bb in (aa + 1)..nbrs.len() {
                    let (_, rj, dj) = nbrs[aa];
                    let (_, rk, dk) = nbrs[bb];
                    let cosang = (dj[0] * dk[0] + dj[1] * dk[1] + dj[2] * dk[2]) / (rj * rk);
                    let term = cosang + 1.0 / 3.0;
                    per_atom[i] += self.lambda * self.fc(rj) * self.fc(rk) * term * term;
                }
            }
        }
        // SCF charge equilibration — the DFT-cost stand-in. Each iteration
        // rebuilds the full long-range coupling kernel over *all* pairs
        // (the analogue of a Fock-matrix rebuild: O(N²) transcendental work
        // per iteration), then damps the fixed-point update
        // q_i ← ½ q_i + ½ tanh(g Σ_j w(r_ij) q_j + s_i).
        let source: Vec<f64> = neighbors
            .iter()
            .map(|nbrs| {
                let coord: f64 = nbrs.iter().map(|&(_, r, _)| self.fc(r)).sum();
                0.1 * (coord - 2.0)
            })
            .collect();
        let mut q = vec![0.0f64; n];
        let mut coupled = vec![0.0f64; n];
        let mut iterations = 0;
        for it in 0..self.scf_max_iter {
            iterations = it + 1;
            // Long-range kernel, recomputed every iteration like a Fock
            // rebuild: a small contracted basis (Gaussian-type shells plus
            // a damped Coulomb tail) is evaluated per pair, as a real
            // integral rebuild would. The kernel is symmetric (w_ij =
            // w_ji), so — as real SCF codes do for Hermitian matrices —
            // each pair integral is evaluated once and scattered to both
            // rows; each row still accumulates its terms in ascending-j
            // order, so the sums match the full square loop bitwise.
            coupled.fill(0.0);
            for i in 0..n {
                for j in (i + 1)..n {
                    let dx = pos[i][0] - pos[j][0];
                    let dy = pos[i][1] - pos[j][1];
                    let dz = pos[i][2] - pos[j][2];
                    let r = (dx * dx + dy * dy + dz * dz).sqrt();
                    // t = exp(-r/2rc); the damped-Coulomb tail reuses it as
                    // t² = exp(-r/rc), saving one transcendental per pair.
                    let t = (-r / (2.0 * self.rc)).exp();
                    let s0 = t / (1.0 + r);
                    let s1 = (-0.8 * r * r).exp();
                    let s2 = (-0.3 * r * r).exp() * (1.0 + r * r).ln();
                    let s3 = (1.0 + r).sqrt().recip() * (t * t);
                    let w = s0 + 0.05 * s1 + 0.02 * s2 + 0.03 * s3;
                    coupled[i] += w * q[j];
                    coupled[j] += w * q[i];
                }
            }
            // Damped Jacobi update: `coupled` is built entirely from the
            // previous iterate, so the in-place write is still Jacobi.
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let target = (self.scf_coupling * coupled[i] + source[i]).tanh();
                let qi = 0.5 * q[i] + 0.5 * target;
                max_delta = max_delta.max((qi - q[i]).abs());
                q[i] = qi;
            }
            if max_delta < self.scf_tol {
                break;
            }
        }
        // Electrostatic energy of the converged charges, half per atom.
        for i in 0..n {
            for &(j, r, _) in &neighbors[i] {
                if j < i {
                    continue;
                }
                let u = self.elec_weight * q[i] * q[j] * self.fc(r) / r.max(0.1);
                per_atom[i] += 0.5 * u;
                per_atom[j] += 0.5 * u;
            }
        }
        let total = per_atom.iter().sum();
        ReferenceEnergy {
            total,
            per_atom,
            scf_iterations: iterations,
        }
    }
}

/// Generate a random compact cluster of `n` atoms with interatomic spacing
/// near `r0` (rejection of overlaps tighter than `0.7 r0`).
pub fn random_cluster(n: usize, r0: f64, spread: f64, rng: &mut le_linalg::Rng) -> Vec<Vec3> {
    let box_side = spread * (n as f64).cbrt() * r0;
    let mut pos: Vec<Vec3> = Vec::with_capacity(n);
    'outer: for _ in 0..n {
        for _ in 0..500 {
            let cand = [
                rng.uniform_in(0.0, box_side),
                rng.uniform_in(0.0, box_side),
                rng.uniform_in(0.0, box_side),
            ];
            let ok = pos.iter().all(|p| {
                let d2 = (p[0] - cand[0]).powi(2)
                    + (p[1] - cand[1]).powi(2)
                    + (p[2] - cand[2]).powi(2);
                d2 > (0.7 * r0) * (0.7 * r0)
            });
            if ok {
                pos.push(cand);
                continue 'outer;
            }
        }
        // Saturated: place anyway.
        pos.push([
            rng.uniform_in(0.0, box_side),
            rng.uniform_in(0.0, box_side),
            rng.uniform_in(0.0, box_side),
        ]);
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use le_linalg::Rng;

    #[test]
    fn empty_and_single_atom() {
        let pot = ReferencePotential::default();
        assert_eq!(pot.energy(&[]).total, 0.0);
        let e1 = pot.energy(&[[0.0, 0.0, 0.0]]);
        assert_eq!(e1.total, 0.0, "isolated atom has zero energy");
        assert_eq!(e1.per_atom, vec![0.0]);
    }

    #[test]
    fn per_atom_decomposition_sums_to_total() {
        let pot = ReferencePotential::default();
        let mut rng = Rng::new(71);
        let pos = random_cluster(12, 1.0, 1.3, &mut rng);
        let e = pot.energy(&pos);
        let sum: f64 = e.per_atom.iter().sum();
        assert!((sum - e.total).abs() < 1e-10);
    }

    #[test]
    fn dimer_energy_minimum_near_r0() {
        let pot = ReferencePotential {
            lambda: 0.0,
            elec_weight: 0.0,
            ..Default::default()
        };
        let e_at = |r: f64| pot.energy(&[[0.0; 3], [r, 0.0, 0.0]]).total;
        let mut best_r = 0.0;
        let mut best_e = f64::INFINITY;
        let mut r = 0.6;
        while r < 2.4 {
            let e = e_at(r);
            if e < best_e {
                best_e = e;
                best_r = r;
            }
            r += 0.01;
        }
        // The cutoff function shifts the Morse minimum slightly inward.
        assert!(
            (best_r - pot.r0).abs() < 0.15,
            "dimer minimum at {best_r}, expected near {}",
            pot.r0
        );
        assert!(best_e < 0.0, "bound dimer");
    }

    #[test]
    fn energy_is_translation_invariant() {
        let pot = ReferencePotential::default();
        let mut rng = Rng::new(72);
        let pos = random_cluster(8, 1.0, 1.3, &mut rng);
        let shifted: Vec<_> = pos
            .iter()
            .map(|p| [p[0] + 10.0, p[1] - 3.0, p[2] + 0.5])
            .collect();
        let e1 = pot.energy(&pos).total;
        let e2 = pot.energy(&shifted).total;
        assert!((e1 - e2).abs() < 1e-9);
    }

    #[test]
    fn energy_is_permutation_invariant() {
        let pot = ReferencePotential::default();
        let mut rng = Rng::new(73);
        let mut pos = random_cluster(7, 1.0, 1.3, &mut rng);
        let e1 = pot.energy(&pos).total;
        pos.reverse();
        pos.swap(1, 3);
        let e2 = pot.energy(&pos).total;
        assert!((e1 - e2).abs() < 1e-9);
    }

    #[test]
    fn energy_is_rotation_invariant() {
        let pot = ReferencePotential::default();
        let mut rng = Rng::new(74);
        let pos = random_cluster(6, 1.0, 1.3, &mut rng);
        // Rotate 90° about z.
        let rotated: Vec<Vec3> = pos.iter().map(|p| [-p[1], p[0], p[2]]).collect();
        let e1 = pot.energy(&pos).total;
        let e2 = pot.energy(&rotated).total;
        assert!((e1 - e2).abs() < 1e-9);
    }

    #[test]
    fn scf_converges() {
        let pot = ReferencePotential::default();
        let mut rng = Rng::new(75);
        let pos = random_cluster(15, 1.0, 1.2, &mut rng);
        let e = pot.energy(&pos);
        assert!(
            e.scf_iterations < pot.scf_max_iter,
            "SCF should converge before the iteration cap, used {}",
            e.scf_iterations
        );
        assert!(e.scf_iterations > 1, "SCF should need several iterations");
    }

    #[test]
    fn beyond_cutoff_atoms_do_not_interact() {
        let pot = ReferencePotential::default();
        let pos = vec![[0.0; 3], [pot.rc + 0.1, 0.0, 0.0]];
        assert_eq!(pot.energy(&pos).total, 0.0);
    }

    #[test]
    fn cutoff_function_properties() {
        let pot = ReferencePotential::default();
        assert!((pot.fc(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(pot.fc(pot.rc), 0.0);
        assert_eq!(pot.fc(pot.rc + 1.0), 0.0);
        // Monotone decreasing.
        assert!(pot.fc(0.5) > pot.fc(1.0));
        assert!(pot.fc(1.0) > pot.fc(2.0));
    }

    #[test]
    fn numerical_forces_are_consistent_with_energy_descent() {
        // Moving along the force direction must lower the energy.
        let pot = ReferencePotential::default();
        let mut rng = Rng::new(76);
        let pos = random_cluster(5, 1.0, 1.4, &mut rng);
        let forces = crate::numerical_forces(&pos, 1e-5, |p| pot.energy(p).total);
        let e0 = pot.energy(&pos).total;
        let step = 1e-3;
        let norm: f64 = forces
            .iter()
            .flat_map(|f| f.iter())
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt();
        if norm > 1e-8 {
            let moved: Vec<Vec3> = pos
                .iter()
                .zip(forces.iter())
                .map(|(p, f)| {
                    [
                        p[0] + step * f[0] / norm,
                        p[1] + step * f[1] / norm,
                        p[2] + step * f[2] / norm,
                    ]
                })
                .collect();
            let e1 = pot.energy(&moved).total;
            assert!(e1 < e0, "descent along forces must lower energy: {e0} -> {e1}");
        }
    }

    #[test]
    fn random_cluster_respects_min_separation_mostly() {
        let mut rng = Rng::new(77);
        let pos = random_cluster(20, 1.0, 1.5, &mut rng);
        assert_eq!(pos.len(), 20);
        let mut violations = 0;
        for i in 0..20 {
            for j in (i + 1)..20 {
                let d2 = (pos[i][0] - pos[j][0]).powi(2)
                    + (pos[i][1] - pos[j][1]).powi(2)
                    + (pos[i][2] - pos[j][2]).powi(2);
                if d2 < 0.49 {
                    violations += 1;
                }
            }
        }
        assert_eq!(violations, 0, "clusters should respect 0.7 r0 separation");
    }
}
