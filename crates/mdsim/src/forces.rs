//! Force field for the confined-electrolyte system: truncated-shifted
//! Lennard-Jones excluded volume, screened-Coulomb (Yukawa) electrostatics,
//! and LJ 9-3 confining walls.
//!
//! Units: lengths nm, energies kT, charges in units of e. Electrostatics is
//! parameterized by the Bjerrum length `l_b` (0.714 nm for water at 298 K)
//! and inverse Debye screening length `kappa` derived from the salt
//! concentration, which is how the implicit solvent enters.

use crate::celllist::CellList;
use crate::system::System;

/// Bjerrum length of water at room temperature (nm).
pub const BJERRUM_WATER: f64 = 0.714;

/// Avogadro-based conversion: ions per nm³ per mol/L.
pub const IONS_PER_NM3_PER_MOLAR: f64 = 0.602214;

/// Debye screening parameter κ (1/nm) for a symmetric electrolyte of molar
/// concentration `c` with valencies `z_p`, `z_n` (positive integers).
///
/// κ² = 4π l_B Σ_i n_i z_i², with n_i in ions/nm³.
pub fn debye_kappa(c_molar: f64, z_p: u32, z_n: u32, l_b: f64) -> f64 {
    let n_pairs = c_molar * IONS_PER_NM3_PER_MOLAR;
    // Electroneutral pair: n_+ z_+ = n_- z_- ; per "pair" of formula units
    // n_+ = n_pairs * z_n, n_- = n_pairs * z_p (e.g. CaCl2: 1 Ca, 2 Cl).
    let n_p = n_pairs * z_n as f64;
    let n_n = n_pairs * z_p as f64;
    let ionic = n_p * (z_p as f64).powi(2) + n_n * (z_n as f64).powi(2);
    (4.0 * std::f64::consts::PI * l_b * ionic).sqrt()
}

/// Force-field parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForceField {
    /// LJ well depth (kT).
    pub epsilon: f64,
    /// LJ cutoff as a multiple of the pair σ.
    pub lj_cutoff_factor: f64,
    /// Bjerrum length (nm).
    pub l_b: f64,
    /// Inverse Debye length (1/nm).
    pub kappa: f64,
    /// Electrostatic cutoff (nm).
    pub coulomb_cutoff: f64,
    /// Wall LJ 9-3 energy scale (kT).
    pub wall_epsilon: f64,
    /// Wall LJ σ (nm).
    pub wall_sigma: f64,
}

impl Default for ForceField {
    fn default() -> Self {
        Self {
            epsilon: 1.0,
            lj_cutoff_factor: 2.5,
            l_b: BJERRUM_WATER,
            kappa: 1.0,
            coulomb_cutoff: 3.5,
            wall_epsilon: 1.0,
            wall_sigma: 0.25,
        }
    }
}

impl ForceField {
    /// The largest pair cutoff (sets the cell-list bin size).
    pub fn max_cutoff(&self, max_diameter: f64) -> f64 {
        (self.lj_cutoff_factor * max_diameter).max(self.coulomb_cutoff)
    }

    /// Pair potential energy and force magnitude divided by r (so the force
    /// vector is `f_over_r * d`), for separation `r` between particles with
    /// charges `qi`, `qj` and mean diameter `sigma`.
    ///
    /// Both terms use the *force-shifted* truncation
    /// `U_sf(r) = U(r) − U(rc) − (r − rc) U'(rc)`, which makes energy and
    /// force continuous at the cutoff — essential for low NVE energy drift.
    #[inline]
    pub fn pair(&self, r2: f64, qi: f64, qj: f64, sigma: f64) -> (f64, f64) {
        let mut energy = 0.0;
        let mut f_over_r = 0.0;
        let r = r2.sqrt();
        // Force-shifted LJ.
        let rc_lj = self.lj_cutoff_factor * sigma;
        if r < rc_lj {
            let lj = |rr: f64| -> (f64, f64) {
                // Returns (U, F) with F = -dU/dr.
                let sr2 = sigma * sigma / (rr * rr);
                let sr6 = sr2 * sr2 * sr2;
                let sr12 = sr6 * sr6;
                let u = 4.0 * self.epsilon * (sr12 - sr6);
                let f = 24.0 * self.epsilon * (2.0 * sr12 - sr6) / rr;
                (u, f)
            };
            let (u, f) = lj(r);
            let (u_c, f_c) = lj(rc_lj);
            energy += u - u_c + (r - rc_lj) * f_c;
            f_over_r += (f - f_c) / r;
        }
        // Force-shifted screened Coulomb (Yukawa).
        // Zero charge means "no Coulomb term", an exact sentinel.
        if qi != 0.0 && qj != 0.0 && r < self.coulomb_cutoff { // lint:allow(float-hygiene): exact sentinel
            let pref = self.l_b * qi * qj;
            let yuk = |rr: f64| -> (f64, f64) {
                let u = pref * (-self.kappa * rr).exp() / rr;
                let f = u * (self.kappa + 1.0 / rr);
                (u, f)
            };
            let (u, f) = yuk(r);
            let (u_c, f_c) = yuk(self.coulomb_cutoff);
            energy += u - u_c + (r - self.coulomb_cutoff) * f_c;
            f_over_r += (f - f_c) / r;
        }
        (energy, f_over_r)
    }

    /// Wall potential for a particle at height `z` in a slab of height `h`:
    /// repulsive LJ 9-3 from both walls, cut at its minimum so it is purely
    /// confining (WCA-style). Returns `(energy, force_z)`.
    #[inline]
    pub fn wall(&self, z: f64, h: f64) -> (f64, f64) {
        let (e_lo, f_lo) = self.wall_one_side(z);
        let (e_hi, f_hi) = self.wall_one_side(h - z);
        (e_lo + e_hi, f_lo - f_hi)
    }

    /// One-sided LJ 9-3 repulsion as a function of distance `dz` from the
    /// wall plane. Zero beyond the potential minimum; diverges as dz → 0.
    #[inline]
    fn wall_one_side(&self, dz: f64) -> (f64, f64) {
        // Minimum of the 9-3 potential: z* = (2/5)^(1/6) σ ≈ 0.858 σ.
        let z_min = 0.858_374_2 * self.wall_sigma;
        if dz >= z_min {
            return (0.0, 0.0);
        }
        // Guard against division blowups when a particle tunnels into the
        // wall during early equilibration.
        let dz = dz.max(0.05 * self.wall_sigma);
        let s3 = (self.wall_sigma / dz).powi(3);
        let s9 = s3 * s3 * s3;
        // U = ε_w [ (2/15) s^9 − s^3 ], shifted so U(z_min) = 0. At the
        // minimum s³ = (5/2)^(1/2), s⁹ = (5/2)^(3/2).
        let u_min = self.wall_epsilon * ((2.0 / 15.0) * 2.5f64.powf(1.5) - 2.5f64.sqrt());
        let u = self.wall_epsilon * ((2.0 / 15.0) * s9 - s3) - u_min;
        // F = -dU/ddz = ε_w [ (6/5) s^9 − 3 s^3 ] / dz  (positive = away
        // from wall).
        let f = self.wall_epsilon * ((6.0 / 5.0) * s9 - 3.0 * s3) / dz;
        (u, f)
    }
}

/// Per-group force buffer for the parallel pair loop: forces accumulate
/// here, group-locally, and are merged in fixed group order.
#[derive(Debug, Default, Clone)]
struct GroupBuf {
    force: Vec<[f64; 3]>,
    energy: f64,
}

/// Reusable scratch for [`compute_forces_with`]: per-group force buffers
/// and the gathered position snapshot persist across steps, so after the
/// first call the buffers are never reallocated. A call still allocates
/// once: `le_pool::par_for_chunks` builds a slot `Vec` per call to hand
/// the group buffers to its tasks (ROADMAP item 3 tracks removing it). One
/// scratch per trajectory; do not share across concurrently integrated
/// systems.
#[derive(Debug, Default)]
pub struct ForceScratch {
    groups: Vec<GroupBuf>,
    /// Cell-ordered position snapshot (see [`CellList::gather`]), refreshed
    /// every call so it never goes stale between cell-list rebuilds.
    gathered: Vec<[f64; 3]>,
}

impl ForceScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure `n_groups` buffers of `n` zeroed entries, reusing capacity.
    /// Buffers are zeroed by the merge pass after each use, so only fresh
    /// or resized buffers need explicit clearing here.
    fn reset(&mut self, n_groups: usize, n: usize) {
        self.groups.resize_with(n_groups, GroupBuf::default);
        for g in &mut self.groups {
            if g.force.len() != n {
                g.force.clear();
                g.force.resize(n, [0.0; 3]);
            }
            g.energy = 0.0;
        }
    }
}

/// How many pair-task groups the force loop uses: enough to feed the pool
/// on irregular occupancy, capped so the O(groups · n) merge stays a small
/// fraction of the pair work. A pure function of the cell grid and `n` —
/// never of the thread count — so the accumulation order (group-local
/// sums, merged in group order) is bit-identical for any pool size,
/// including the sequential path.
fn n_force_groups(n_tasks: usize, n: usize) -> usize {
    n_tasks.min(16).min((n / 128).max(1)).max(1)
}

/// Compute all forces into `sys.force` and return total potential energy.
/// Uses the provided cell list (built at the current positions) and
/// `scratch` for per-group accumulation buffers that are reused across
/// calls; the only per-call allocation is `le_pool::par_for_chunks`'s slot
/// `Vec` (see [`ForceScratch`]).
///
/// Pair tasks (cell rows) are grouped into [`n_force_groups`] contiguous
/// ranges; each group accumulates ±f into its own buffer on whichever pool
/// thread claims it, and buffers are merged into `sys.force` in group
/// order. Both the grouping and the merge order are independent of the
/// thread count, so the result is bit-identical to the sequential path.
pub fn compute_forces_with(
    sys: &mut System,
    ff: &ForceField,
    cells: &CellList,
    scratch: &mut ForceScratch,
) -> f64 {
    let n = sys.len();
    let n_tasks = cells.n_pair_tasks();
    let n_groups = n_force_groups(n_tasks, n);
    let tasks_per_group = n_tasks.div_ceil(n_groups.max(1)).max(1);
    scratch.reset(n_groups, n);
    cells.gather(&sys.pos, &mut scratch.gathered);
    {
        let pos = &sys.pos;
        let gathered: &[[f64; 3]] = &scratch.gathered;
        let charge = &sys.charge;
        let diameter = &sys.diameter;
        le_pool::par_for_chunks(&mut scratch.groups, 1, |g, group| {
            let buf = &mut group[0];
            let acc = &mut buf.force;
            let mut energy = 0.0;
            let lo = g * tasks_per_group;
            let hi = (lo + tasks_per_group).min(n_tasks);
            for task in lo..hi {
                cells.for_each_pair_dist_in_task(task, pos, gathered, |i, j, d, r2| {
                    let sigma = 0.5 * (diameter[i] + diameter[j]);
                    let max_cut = ff.max_cutoff(sigma);
                    if r2 > max_cut * max_cut {
                        return;
                    }
                    // Guard r² against overlap-singularity at insertion time.
                    let r2 = r2.max(1e-6);
                    let (e, f_over_r) = ff.pair(r2, charge[i], charge[j], sigma);
                    energy += e;
                    for k in 0..3 {
                        let fk = f_over_r * d[k];
                        acc[i][k] += fk;
                        acc[j][k] -= fk;
                    }
                });
            }
            buf.energy = energy;
        });
    }
    // Merge group buffers in group order (and zero them for the next call),
    // then add the wall forces.
    for f in &mut sys.force {
        *f = [0.0; 3];
    }
    let mut potential = 0.0;
    for buf in &mut scratch.groups {
        potential += buf.energy;
        for (f, acc) in sys.force.iter_mut().zip(buf.force.iter_mut()) {
            for k in 0..3 {
                f[k] += acc[k];
            }
            *acc = [0.0; 3];
        }
    }
    let h = sys.bbox.h;
    for i in 0..n {
        let (e, fz) = ff.wall(sys.pos[i][2], h);
        potential += e;
        sys.force[i][2] += fz;
    }
    potential
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{SlabBox, Species, System};
    use le_linalg::Rng;

    #[test]
    fn debye_kappa_monotone_in_concentration() {
        let k1 = debye_kappa(0.1, 1, 1, BJERRUM_WATER);
        let k2 = debye_kappa(0.4, 1, 1, BJERRUM_WATER);
        assert!(k2 > k1, "higher salt → stronger screening");
        // 4x concentration → 2x kappa.
        assert!((k2 / k1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn debye_kappa_known_value() {
        // 0.1 M 1:1 electrolyte in water: Debye length ≈ 0.96 nm.
        let kappa = debye_kappa(0.1, 1, 1, BJERRUM_WATER);
        let debye_len = 1.0 / kappa;
        assert!(
            (debye_len - 0.96).abs() < 0.05,
            "Debye length {debye_len} nm should be ≈0.96"
        );
    }

    #[test]
    fn kappa_multivalent_exceeds_monovalent() {
        let k11 = debye_kappa(0.1, 1, 1, BJERRUM_WATER);
        let k21 = debye_kappa(0.1, 2, 1, BJERRUM_WATER);
        assert!(k21 > k11, "divalent salt screens more strongly");
    }

    #[test]
    fn lj_repulsive_inside_attractive_outside_minimum() {
        let ff = ForceField::default();
        let sigma = 0.3;
        // Inside the minimum (r < 2^(1/6) σ) the force pushes apart
        // (positive f_over_r).
        let r_in = 0.9 * sigma;
        let (_, f_in) = ff.pair(r_in * r_in, 0.0, 0.0, sigma);
        assert!(f_in > 0.0);
        // Between minimum and cutoff: attractive.
        let r_out = 1.5 * sigma;
        let (_, f_out) = ff.pair(r_out * r_out, 0.0, 0.0, sigma);
        assert!(f_out < 0.0);
    }

    #[test]
    fn lj_energy_continuous_at_cutoff() {
        let ff = ForceField::default();
        let sigma = 0.3;
        let rc = ff.lj_cutoff_factor * sigma;
        let (e_in, _) = ff.pair((rc * 0.999) * (rc * 0.999), 0.0, 0.0, sigma);
        let (e_out, _) = ff.pair((rc * 1.001) * (rc * 1.001), 0.0, 0.0, sigma);
        assert!(e_in.abs() < 1e-3, "shifted LJ ≈ 0 just inside cutoff: {e_in}");
        assert_eq!(e_out, 0.0);
    }

    #[test]
    fn yukawa_sign_follows_charges() {
        let ff = ForceField {
            kappa: 1.0,
            ..Default::default()
        };
        let r = 1.0;
        // Like charges repel: positive energy, positive f_over_r.
        let (e_pp, f_pp) = ff.pair(r * r, 1.0, 1.0, 0.01);
        assert!(e_pp > 0.0 && f_pp > 0.0);
        // Opposite charges attract.
        let (e_pn, f_pn) = ff.pair(r * r, 1.0, -1.0, 0.01);
        assert!(e_pn < 0.0 && f_pn < 0.0);
    }

    #[test]
    fn yukawa_screening_reduces_energy() {
        let weak = ForceField {
            kappa: 0.5,
            ..Default::default()
        };
        let strong = ForceField {
            kappa: 3.0,
            ..Default::default()
        };
        let r: f64 = 1.2;
        let (e_weak, _) = weak.pair(r * r, 1.0, 1.0, 0.01);
        let (e_strong, _) = strong.pair(r * r, 1.0, 1.0, 0.01);
        assert!(e_strong < e_weak, "stronger screening → weaker interaction");
    }

    #[test]
    fn pair_force_matches_numerical_derivative() {
        let ff = ForceField {
            kappa: 1.3,
            ..Default::default()
        };
        let sigma = 0.3;
        for &r in &[0.28, 0.33, 0.5, 1.0, 2.0] {
            let eps = 1e-7;
            let (e_hi, _) = ff.pair((r + eps) * (r + eps), 1.0, -1.0, sigma);
            let (e_lo, _) = ff.pair((r - eps) * (r - eps), 1.0, -1.0, sigma);
            let f_numeric = -(e_hi - e_lo) / (2.0 * eps);
            let (_, f_over_r) = ff.pair(r * r, 1.0, -1.0, sigma);
            let f_analytic = f_over_r * r;
            assert!(
                (f_numeric - f_analytic).abs() < 1e-4 * (1.0 + f_analytic.abs()),
                "r={r}: numeric {f_numeric} vs analytic {f_analytic}"
            );
        }
    }

    #[test]
    fn wall_confines_from_both_sides() {
        let ff = ForceField::default();
        let h = 3.0;
        // Near the lower wall: pushed up.
        let (_, f_lo) = ff.wall(0.05, h);
        assert!(f_lo > 0.0, "lower wall pushes up, got {f_lo}");
        // Near the upper wall: pushed down.
        let (_, f_hi) = ff.wall(h - 0.05, h);
        assert!(f_hi < 0.0, "upper wall pushes down, got {f_hi}");
        // Mid-slab: free.
        let (e_mid, f_mid) = ff.wall(h / 2.0, h);
        assert_eq!(e_mid, 0.0);
        assert_eq!(f_mid, 0.0);
    }

    #[test]
    fn wall_force_matches_numerical_derivative() {
        let ff = ForceField::default();
        let h = 2.0;
        for &z in &[0.1, 0.15, 0.2] {
            let eps = 1e-7;
            let (e_hi, _) = ff.wall(z + eps, h);
            let (e_lo, _) = ff.wall(z - eps, h);
            let f_numeric = -(e_hi - e_lo) / (2.0 * eps);
            let (_, f_analytic) = ff.wall(z, h);
            assert!(
                (f_numeric - f_analytic).abs() < 1e-3 * (1.0 + f_analytic.abs()),
                "z={z}: numeric {f_numeric} vs analytic {f_analytic}"
            );
        }
    }

    #[test]
    fn newtons_third_law_total_force_zero() {
        // With only pair forces (no walls active mid-slab), total force = 0.
        let bbox = SlabBox::new(8.0, 8.0, 8.0).unwrap();
        let mut sys = System::new(bbox);
        let mut rng = Rng::new(21);
        sys.insert_species(
            Species {
                valency: 1,
                diameter: 0.3,
                mass: 1.0,
            },
            30,
            1.0,
            &mut rng,
        )
        .unwrap();
        sys.insert_species(
            Species {
                valency: -1,
                diameter: 0.3,
                mass: 1.0,
            },
            30,
            1.0,
            &mut rng,
        )
        .unwrap();
        // Keep all particles away from walls so wall forces vanish.
        for r in &mut sys.pos {
            r[2] = 2.0 + 4.0 * (r[2] / 8.0);
        }
        let ff = ForceField {
            kappa: debye_kappa(0.2, 1, 1, BJERRUM_WATER),
            ..Default::default()
        };
        let cells = CellList::build(bbox, ff.max_cutoff(0.3), &sys.pos);
        compute_forces_with(&mut sys, &ff, &cells, &mut ForceScratch::new());
        let mut total = [0.0f64; 3];
        for f in &sys.force {
            for k in 0..3 {
                total[k] += f[k];
            }
        }
        for k in 0..3 {
            assert!(
                total[k].abs() < 1e-9,
                "Newton's third law violated in component {k}: {}",
                total[k]
            );
        }
    }

    #[test]
    fn chunked_forces_match_bruteforce_and_are_repeatable() {
        let bbox = SlabBox::new(7.0, 7.0, 5.0).unwrap();
        let mut sys = System::new(bbox);
        let mut rng = Rng::new(23);
        for valency in [1i32, -1] {
            sys.insert_species(
                Species {
                    valency,
                    diameter: 0.3,
                    mass: 1.0,
                },
                35,
                1.0,
                &mut rng,
            )
            .unwrap();
        }
        let ff = ForceField {
            kappa: 1.2,
            ..Default::default()
        };
        let n = sys.len();
        // Reference: O(N²) double loop with min_image, same pair math.
        let mut ref_force = vec![[0.0f64; 3]; n];
        let mut ref_energy = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let d = bbox.min_image(&sys.pos[i], &sys.pos[j]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let sigma = 0.5 * (sys.diameter[i] + sys.diameter[j]);
                let max_cut = ff.max_cutoff(sigma);
                if r2 > max_cut * max_cut {
                    continue;
                }
                let (e, f_over_r) = ff.pair(r2.max(1e-6), sys.charge[i], sys.charge[j], sigma);
                ref_energy += e;
                for k in 0..3 {
                    ref_force[i][k] += f_over_r * d[k];
                    ref_force[j][k] -= f_over_r * d[k];
                }
            }
        }
        for i in 0..n {
            let (e, fz) = ff.wall(sys.pos[i][2], bbox.h);
            ref_energy += e;
            ref_force[i][2] += fz;
        }
        let cells = CellList::build(bbox, ff.max_cutoff(0.3), &sys.pos);
        let mut scratch = ForceScratch::new();
        let e1 = compute_forces_with(&mut sys, &ff, &cells, &mut scratch);
        assert!((e1 - ref_energy).abs() < 1e-9 * (1.0 + ref_energy.abs()));
        for i in 0..n {
            for k in 0..3 {
                assert!(
                    (sys.force[i][k] - ref_force[i][k]).abs() < 1e-9,
                    "force mismatch at particle {i} axis {k}"
                );
            }
        }
        // Scratch reuse must be bit-identical call over call.
        let forces_1 = sys.force.clone();
        let e2 = compute_forces_with(&mut sys, &ff, &cells, &mut scratch);
        assert_eq!(e1.to_bits(), e2.to_bits());
        for (a, b) in forces_1.iter().zip(sys.force.iter()) {
            for k in 0..3 {
                assert_eq!(a[k].to_bits(), b[k].to_bits());
            }
        }
    }

    #[test]
    fn compute_forces_returns_finite_energy() {
        let bbox = SlabBox::new(5.0, 5.0, 3.0).unwrap();
        let mut sys = System::new(bbox);
        let mut rng = Rng::new(22);
        sys.insert_species(
            Species {
                valency: 1,
                diameter: 0.3,
                mass: 1.0,
            },
            40,
            1.0,
            &mut rng,
        )
        .unwrap();
        sys.insert_species(
            Species {
                valency: -1,
                diameter: 0.3,
                mass: 1.0,
            },
            40,
            1.0,
            &mut rng,
        )
        .unwrap();
        let ff = ForceField {
            kappa: 1.0,
            ..Default::default()
        };
        let cells = CellList::build(bbox, ff.max_cutoff(0.3), &sys.pos);
        let e = compute_forces_with(&mut sys, &ff, &cells, &mut ForceScratch::new());
        assert!(e.is_finite());
        assert!(sys.force.iter().all(|f| f.iter().all(|x| x.is_finite())));
    }
}
