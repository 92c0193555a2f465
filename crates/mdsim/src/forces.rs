//! Force field for the confined-electrolyte system: truncated-shifted
//! Lennard-Jones excluded volume, screened-Coulomb (Yukawa) electrostatics,
//! and LJ 9-3 confining walls.
//!
//! Units: lengths nm, energies kT, charges in units of e. Electrostatics is
//! parameterized by the Bjerrum length `l_b` (0.714 nm for water at 298 K)
//! and inverse Debye screening length `kappa` derived from the salt
//! concentration, which is how the implicit solvent enters.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use crate::celllist::CellList;
use crate::system::{System, Vec3};

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
    /// The law itself is [`PairLaw::lane`], the per-lane function of the
    /// row kernel that [`compute_forces_with`] runs; this is the one-pair
    /// entry to it.
    pub fn pair(&self, r2: f64, qi: f64, qj: f64, sigma: f64) -> (f64, f64) {
        let law = PairLaw::new(self);
        let r = r2.sqrt();
        law.lane(
            sigma,
            law.l_b * qi * qj,
            charged(qi, qj),
            r,
            (-law.kappa * r).exp(),
        )
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

/// Zero charge means "no Coulomb term", an exact sentinel.
#[inline(always)]
fn charged(qi: f64, qj: f64) -> bool {
    qi != 0.0 && qj != 0.0 // lint:allow(float-hygiene): exact sentinel
}

/// The pair law with every term that does not depend on the pair hoisted
/// out of it: built once per force call, it holds `4ε`, `24ε` and the
/// Yukawa cutoff's `exp(-κ·r_c)` and `κ + 1/r_c`. Each hoisted value is
/// the expression the per-pair law would evaluate, with the same operands
/// in the same order, so hoisting moves no bit.
struct PairLaw {
    eps4: f64,
    eps24: f64,
    lj_cutoff_factor: f64,
    l_b: f64,
    kappa: f64,
    /// Coulomb cutoff `r_c`, `exp(-κ·r_c)` and `κ + 1/r_c`.
    rc: f64,
    exp_rc: f64,
    kappa_rc: f64,
}

impl PairLaw {
    fn new(ff: &ForceField) -> Self {
        Self {
            eps4: 4.0 * ff.epsilon,
            eps24: 24.0 * ff.epsilon,
            lj_cutoff_factor: ff.lj_cutoff_factor,
            l_b: ff.l_b,
            kappa: ff.kappa,
            rc: ff.coulomb_cutoff,
            exp_rc: (-ff.kappa * ff.coulomb_cutoff).exp(),
            kappa_rc: ff.kappa + 1.0 / ff.coulomb_cutoff,
        }
    }

    /// Square of [`ForceField::max_cutoff`] for pair σ `sigma`: pairs
    /// beyond it are skipped.
    #[inline(always)]
    fn max_cut2(&self, sigma: f64) -> f64 {
        let max_cut = (self.lj_cutoff_factor * sigma).max(self.rc);
        max_cut * max_cut
    }

    /// LJ `(U, F)` at `r` (`F = -dU/dr`), given `σ²`.
    #[inline(always)]
    fn lj(&self, sigma2: f64, r: f64) -> (f64, f64) {
        let sr2 = sigma2 / (r * r);
        let sr6 = sr2 * sr2 * sr2;
        let sr12 = sr6 * sr6;
        (
            self.eps4 * (sr12 - sr6),
            self.eps24 * (2.0 * sr12 - sr6) / r,
        )
    }

    /// Energy and `F/r` of one pair at distance `r`, given its σ, its
    /// Coulomb prefactor `l_B·q_i·q_j`, the zero-charge test and
    /// `exp(-κ·r)`. Branch-free: both terms and their cutoff values are
    /// always evaluated and the cutoff tests select them. Each term keeps
    /// its operations and their order, so a select yields the bits a branch
    /// that computed only the selected term would.
    #[inline(always)]
    fn lane(&self, sigma: f64, pref: f64, charged: bool, r: f64, exp_r: f64) -> (f64, f64) {
        // Force-shifted LJ.
        let sigma2 = sigma * sigma;
        let rc = self.lj_cutoff_factor * sigma;
        let (u_c, f_c) = self.lj(sigma2, rc);
        let (u, f) = self.lj(sigma2, r);
        let e_lj = u - u_c + (r - rc) * f_c;
        let f_lj = (f - f_c) / r;
        let in_lj = r < rc;
        let energy = if in_lj { 0.0 + e_lj } else { 0.0 };
        let f_over_r = if in_lj { 0.0 + f_lj } else { 0.0 };
        // Force-shifted screened Coulomb (Yukawa).
        let u_c = pref * self.exp_rc / self.rc;
        let f_c = u_c * self.kappa_rc;
        let u = pref * exp_r / r;
        let f = u * (self.kappa + 1.0 / r);
        let e_yk = u - u_c + (r - self.rc) * f_c;
        let f_yk = (f - f_c) / r;
        let in_yk = charged && r < self.rc;
        (
            if in_yk { energy + e_yk } else { energy },
            if in_yk { f_over_r + f_yk } else { f_over_r },
        )
    }
}

/// Partners per kernel block: a row runs its passes over blocks of at most
/// this many lanes.
const BLOCK: usize = 64;

/// The slot-ordered particle data a row reads (see [`CellList::gather`]).
struct Slots<'a> {
    pos: &'a [Vec3],
    charge: &'a [f64],
    diameter: &'a [f64],
}

/// Lane arrays of one kernel block, one array per quantity so the
/// lane-wise passes vectorize.
struct Lanes {
    d: [[f64; BLOCK]; 3],
    r2: [f64; BLOCK],
    r: [f64; BLOCK],
    exp_r: [f64; BLOCK],
    /// Square of the pair's largest cutoff: pairs beyond it are skipped.
    max_cut2: [f64; BLOCK],
    energy: [f64; BLOCK],
    f_over_r: [f64; BLOCK],
}

impl Default for Lanes {
    fn default() -> Self {
        let z = [0.0; BLOCK];
        Self {
            d: [z; 3],
            r2: z,
            r: z,
            exp_r: z,
            max_cut2: z,
            energy: z,
            f_over_r: z,
        }
    }
}

impl std::fmt::Debug for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Lanes")
    }
}

/// One force group's state: its slot-indexed force buffer and energy,
/// merged in fixed group order, and its kernel lane arrays.
#[derive(Debug, Default)]
struct GroupBuf {
    force: Vec<Vec3>,
    energy: f64,
    lanes: Lanes,
}

/// The row kernel: origin slot `o` against the partner slots `partners`.
/// Adds the pair energies to `buf.energy` and ±f to the slot-indexed
/// `buf.force`, in the pair order of a one-pair-at-a-time walk. Per block
/// of partners it runs four passes:
///
/// 1. displacement, r² and `r = sqrt(max(r², 1e-6))`, lane-wise;
/// 2. `exp(-κ·r)` (libm), in its own scalar pass;
/// 3. [`PairLaw::lane`], lane-wise and branch-free;
/// 4. energy and ±f, accumulated in pair order; a pair beyond its σ's
///    largest cutoff adds nothing, not even a `+0.0`.
fn row(
    law: &PairLaw,
    cells: &CellList,
    slots: &Slots<'_>,
    o: usize,
    partners: Range<usize>,
    buf: &mut GroupBuf,
) {
    let ln = &mut buf.lanes;
    let pi = slots.pos[o];
    let qi = slots.charge[o];
    let di = slots.diameter[o];
    let pref_i = law.l_b * qi;
    let neg_kappa = -law.kappa;
    let mut fi = buf.force[o];
    let mut lo = partners.start;
    while lo < partners.end {
        let m = (partners.end - lo).min(BLOCK);
        let pos = &slots.pos[lo..lo + m];
        let q = &slots.charge[lo..lo + m];
        let dia = &slots.diameter[lo..lo + m];
        for l in 0..m {
            let d = cells.disp(&pi, &pos[l]);
            ln.d[0][l] = d[0];
            ln.d[1][l] = d[1];
            ln.d[2][l] = d[2];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            ln.r2[l] = r2;
            // Guard r² against overlap-singularity at insertion time.
            ln.r[l] = r2.max(1e-6).sqrt();
        }
        for l in 0..m {
            ln.exp_r[l] = (neg_kappa * ln.r[l]).exp();
        }
        for l in 0..m {
            let sigma = 0.5 * (di + dia[l]);
            ln.max_cut2[l] = law.max_cut2(sigma);
            let (e, f) = law.lane(
                sigma,
                pref_i * q[l],
                charged(qi, q[l]),
                ln.r[l],
                ln.exp_r[l],
            );
            ln.energy[l] = e;
            ln.f_over_r[l] = f;
        }
        let acc = &mut buf.force[lo..lo + m];
        for l in 0..m {
            if ln.r2[l] > ln.max_cut2[l] {
                continue;
            }
            buf.energy += ln.energy[l];
            for k in 0..3 {
                let fk = ln.f_over_r[l] * ln.d[k][l];
                fi[k] += fk;
                acc[l][k] -= fk;
            }
        }
        lo += m;
    }
    buf.force[o] = fi;
}

/// Reusable scratch for [`compute_forces_with`]: per-group buffers (each
/// behind its own lock, which only its group's task takes) and the
/// slot-ordered snapshots persist across steps, so a warm force call
/// allocates nothing. One scratch per trajectory; do not share across
/// concurrently integrated systems.
#[derive(Debug, Default)]
pub struct ForceScratch {
    groups: Vec<Mutex<GroupBuf>>,
    /// Slot-ordered positions, charges and diameters (see
    /// [`CellList::gather`]), refreshed every call so they never go stale
    /// between cell-list rebuilds.
    pos: Vec<Vec3>,
    charge: Vec<f64>,
    diameter: Vec<f64>,
}

impl ForceScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure `n_groups` buffers of `n` zeroed entries, reusing capacity.
    /// Every buffer is zeroed here, so a call that a panicking task cut
    /// short (which also poisons that group's lock) leaves nothing behind
    /// for the next call.
    fn reset(&mut self, n_groups: usize, n: usize) {
        self.groups.resize_with(n_groups, Mutex::default);
        for g in &mut self.groups {
            let g = g.get_mut().unwrap_or_else(PoisonError::into_inner);
            g.force.clear();
            g.force.resize(n, [0.0; 3]);
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
/// `scratch` for the slot-ordered snapshots and per-group buffers, which
/// are reused across calls: a warm call allocates nothing.
///
/// Pair tasks (cell rows) are grouped into [`n_force_groups`] contiguous
/// ranges, one `le_pool::par_for_each` task per group; each group runs its
/// rows through the row kernel into its own buffer on whichever pool
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
    cells.gather(&sys.pos, &mut scratch.pos);
    cells.gather(&sys.charge, &mut scratch.charge);
    cells.gather(&sys.diameter, &mut scratch.diameter);
    let law = PairLaw::new(ff);
    {
        let slots = Slots {
            pos: &scratch.pos,
            charge: &scratch.charge,
            diameter: &scratch.diameter,
        };
        let groups = &scratch.groups;
        le_pool::par_for_each(n_groups, |g| {
            // Only this task takes group `g`'s lock. A poisoned one comes
            // from an earlier call that a panic cut short, whose partial
            // sums `reset` has already cleared.
            let mut buf = groups[g].lock().unwrap_or_else(PoisonError::into_inner);
            let lo = g * tasks_per_group;
            for task in lo..(lo + tasks_per_group).min(n_tasks) {
                cells.for_each_row_in_task(task, |o, partners| {
                    row(&law, cells, &slots, o, partners, &mut buf)
                });
            }
        });
    }
    // Merge group buffers in group order, then add the wall forces.
    for f in &mut sys.force {
        *f = [0.0; 3];
    }
    let mut potential = 0.0;
    for buf in &mut scratch.groups {
        let buf = buf.get_mut().unwrap_or_else(PoisonError::into_inner);
        potential += buf.energy;
        for (&i, acc) in cells.items().iter().zip(&buf.force) {
            for k in 0..3 {
                sys.force[i][k] += acc[k];
            }
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

    /// The scalar oracle: a plain loop over [`ForceField::pair`] in the
    /// row walk's pair order (through the pair-at-a-time adapter), merged
    /// the way [`compute_forces_with`] merges a single force group.
    fn scalar_forces(sys: &System, ff: &ForceField, cells: &CellList) -> (f64, Vec<Vec3>) {
        let n = sys.len();
        let mut acc = vec![[0.0f64; 3]; n];
        let mut pair_energy = 0.0;
        cells.for_each_pair_dist(&sys.pos, |i, j, d, r2| {
            let sigma = 0.5 * (sys.diameter[i] + sys.diameter[j]);
            let max_cut = ff.max_cutoff(sigma);
            if r2 > max_cut * max_cut {
                return;
            }
            let (e, f_over_r) = ff.pair(r2.max(1e-6), sys.charge[i], sys.charge[j], sigma);
            pair_energy += e;
            for k in 0..3 {
                let fk = f_over_r * d[k];
                acc[i][k] += fk;
                acc[j][k] -= fk;
            }
        });
        let mut potential = 0.0;
        potential += pair_energy;
        let mut force = vec![[0.0f64; 3]; n];
        for (f, a) in force.iter_mut().zip(&acc) {
            for k in 0..3 {
                f[k] += a[k];
            }
        }
        for i in 0..n {
            let (e, fz) = ff.wall(sys.pos[i][2], sys.bbox.h);
            potential += e;
            force[i][2] += fz;
        }
        (potential, force)
    }

    /// Three species (charges +1, −2, 0; diameters 0.5, 0.7, 0.6 nm) in an
    /// `l × l × h` box, plus hand-placed pairs of 0.5 nm ions: one closer
    /// than the `1e-3` nm overlap guard, one exactly at the LJ cutoff
    /// (2.5 σ = 1.25 nm) and one exactly at the 3.5 nm Coulomb cutoff. With
    /// `nan`, one more ion sits at a NaN x.
    fn edge_case_system(l: f64, h: f64, nan: bool) -> System {
        let mut sys = System::new(SlabBox::new(l, l, h).unwrap());
        let mut rng = Rng::new(61);
        for (valency, diameter) in [(1, 0.5), (-2, 0.7), (0, 0.6)] {
            sys.insert_species(
                Species {
                    valency,
                    diameter,
                    mass: 1.0,
                },
                25,
                1.0,
                &mut rng,
            )
            .unwrap();
        }
        let z = 0.5 * h;
        let mut place = |x: f64, y: f64, valency: i32| {
            let mut one = System::new(sys.bbox);
            one.insert_species(
                Species {
                    valency,
                    diameter: 0.5,
                    mass: 1.0,
                },
                1,
                1.0,
                &mut rng,
            )
            .unwrap();
            sys.pos.push([x, y, z]);
            sys.vel.push(one.vel[0]);
            sys.force.push([0.0; 3]);
            sys.charge.push(valency as f64);
            sys.diameter.push(0.5);
            sys.mass.push(1.0);
        };
        place(1.0, 1.0, 1);
        place(1.0 + 1e-4, 1.0, -2);
        place(2.0, 2.0, 1);
        place(3.25, 2.0, 1);
        place(1.0, 3.0, -2);
        place(4.5, 3.0, 1);
        if nan {
            place(f64::NAN, 1.5, 1);
        }
        sys
    }

    #[test]
    fn row_kernel_is_bitwise_the_scalar_pair_loop() {
        let ff = ForceField {
            kappa: 0.9,
            wall_sigma: 0.3,
            ..Default::default()
        };
        let bin = 1.15 * ff.max_cutoff(0.7);
        // An 8 nm box is one cell (the all-pairs walk); the 12.5 nm cube
        // holds 3 bins per axis (the stencil walk). Both stay under 128
        // ions, so one force group.
        for (l, h, shape) in [(8.0, 4.0, (1, 1, 1)), (12.5, 12.5, (3, 3, 3))] {
            for nan in [false, true] {
                let mut sys = edge_case_system(l, h, nan);
                let cells = CellList::build(sys.bbox, bin, &sys.pos);
                assert_eq!(cells.shape(), shape);
                let (e_ref, f_ref) = scalar_forces(&sys, &ff, &cells);
                let e = compute_forces_with(&mut sys, &ff, &cells, &mut ForceScratch::new());
                let case = format!("{l} nm box, nan {nan}");
                assert_eq!(
                    e.to_bits(),
                    e_ref.to_bits(),
                    "{case}: energy {e} vs {e_ref}"
                );
                for (i, (f, g)) in sys.force.iter().zip(&f_ref).enumerate() {
                    for k in 0..3 {
                        assert_eq!(
                            f[k].to_bits(),
                            g[k].to_bits(),
                            "{case}: particle {i} axis {k}"
                        );
                    }
                }
                // The NaN x reaches every partner's x force; r² = NaN is
                // clamped by the overlap guard, so the energy stays finite.
                assert_eq!(sys.force.iter().any(|f| f[0].is_nan()), nan, "{case}");
                assert!(e.is_finite(), "{case}");
            }
        }
    }

    #[test]
    fn pair_covers_both_cutoffs_and_the_zero_charge_sentinel() {
        let ff = ForceField::default();
        let sigma = 0.5;
        let rc_lj = ff.lj_cutoff_factor * sigma;
        // Exactly at the LJ cutoff only the Coulomb term is left.
        assert_eq!(ff.pair(rc_lj * rc_lj, 0.0, 1.0, sigma), (0.0, 0.0));
        assert_ne!(ff.pair(rc_lj * rc_lj, 1.0, 1.0, sigma).0, 0.0);
        // Exactly at the Coulomb cutoff nothing is left.
        let rc = ff.coulomb_cutoff;
        assert_eq!(ff.pair(rc * rc, 1.0, -2.0, sigma), (0.0, 0.0));
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
