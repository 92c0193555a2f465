//! Time integration: velocity-Verlet (NVE) and Langevin dynamics via the
//! BAOAB splitting (Leimkuhler & Matthews), which samples the canonical
//! ensemble accurately even at fairly large timesteps — exactly the
//! stability-vs-timestep trade-off the MLautotuning experiment (E3) probes.

use le_linalg::Rng;

use crate::celllist::CellList;
use crate::forces::{compute_forces_with, ForceField, ForceScratch};
use crate::system::System;
use crate::{MdError, Result};

/// Integrator configuration.
#[derive(Debug, Clone, Copy)]
pub struct Integrator {
    /// Timestep (reduced time units).
    pub dt: f64,
    /// Langevin friction γ (1/time); 0 gives pure NVE velocity-Verlet.
    pub gamma: f64,
    /// Target temperature (kT).
    pub temperature: f64,
    /// Rebuild the cell list every this many steps.
    pub cell_rebuild_interval: usize,
    /// Abort if |KE per particle| exceeds this bound (instability guard).
    pub max_ke_per_particle: f64,
    /// Speed limit (length/time): velocities are clamped to this magnitude
    /// after every kick. 0 disables. Used during equilibration to relax
    /// insertion overlaps without the LJ core catapulting particles
    /// (the `nve/limit` idiom).
    pub max_speed: f64,
}

impl Default for Integrator {
    fn default() -> Self {
        Self {
            dt: 0.005,
            gamma: 1.0,
            temperature: 1.0,
            cell_rebuild_interval: 10,
            max_ke_per_particle: 1e4,
            max_speed: 0.0,
        }
    }
}

/// Rolling observables produced by [`run`].
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// Potential energy at each sample step.
    pub potential: Vec<f64>,
    /// Kinetic energy at each sample step.
    pub kinetic: Vec<f64>,
    /// Instantaneous temperature at each sample step.
    pub temperature: Vec<f64>,
}

/// Advance `sys` by `n_steps`, sampling energies every `sample_interval`
/// steps and invoking `on_sample(step, &sys)` at each sample point (the
/// density profiler hooks in here). Returns the recorded trajectory.
///
/// Errors with [`MdError::Unstable`] if energies diverge or positions go
/// non-finite — the signal the autotuner uses to find the maximum stable
/// timestep.
pub fn run(
    sys: &mut System,
    ff: &ForceField,
    integ: &Integrator,
    n_steps: usize,
    sample_interval: usize,
    rng: &mut Rng,
    mut on_sample: impl FnMut(usize, &System),
) -> Result<Trajectory> {
    if integ.dt <= 0.0 {
        return Err(MdError::InvalidParam(format!("dt must be > 0, got {}", integ.dt)));
    }
    if sys.is_empty() {
        return Err(MdError::InvalidParam("empty system".into()));
    }
    let sample_interval = sample_interval.max(1);
    let max_diameter = sys
        .diameter
        .iter()
        .fold(0.0f64, |m, &d| m.max(d));
    let cutoff = ff.max_cutoff(max_diameter);
    // Cell bins must cover the cutoff plus particle drift between rebuilds;
    // pad by 15%.
    let bin = cutoff * 1.15;
    let mut cells = CellList::build(sys.bbox, bin, &sys.pos);
    // Force scratch lives for the whole trajectory: the per-step force
    // call reuses its accumulation buffers instead of allocating.
    let mut scratch = ForceScratch::new();
    // Initial forces; the per-step recompute below refreshes the potential.
    let _ = compute_forces_with(sys, ff, &cells, &mut scratch);
    let mut potential;
    let mut traj = Trajectory::default();

    // OU coefficients for the O-step of BAOAB: `c1` and, per particle,
    // `c2 = sqrt((1 − c1²)·T/m)` (masses are fixed for the run).
    let c1 = (-integ.gamma * integ.dt).exp();
    let c2: Vec<f64> = sys
        .mass
        .iter()
        .map(|&m| ((1.0 - c1 * c1) * integ.temperature / m).sqrt())
        .collect();
    let half_dt = 0.5 * integ.dt;
    let clamp_speed = |vel: &mut [crate::system::Vec3]| {
        if integ.max_speed <= 0.0 {
            return;
        }
        let vmax2 = integ.max_speed * integ.max_speed;
        for v in vel.iter_mut() {
            let v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
            if v2 > vmax2 {
                let scale = integ.max_speed / v2.sqrt();
                for vk in v.iter_mut() {
                    *vk *= scale;
                }
            }
        }
    };

    for step in 0..n_steps {
        let _step_sp = le_obs::span!("mdsim.step");
        // One causal trace span per step: pool tasks dispatched by the
        // force kernel below inherit this span's trace_id.
        let _step_tr = le_obs::trace_span!("mdsim.step");
        {
            // B-A-O-A half of the BAOAB splitting, timed as "integrate".
            let _sp = le_obs::span!("mdsim.integrate");
            // B: half kick.
            for i in 0..sys.len() {
                let inv_m = 1.0 / sys.mass[i];
                for k in 0..3 {
                    sys.vel[i][k] += half_dt * sys.force[i][k] * inv_m;
                }
            }
            clamp_speed(&mut sys.vel);
            // A: half drift.
            for i in 0..sys.len() {
                for k in 0..3 {
                    sys.pos[i][k] += half_dt * sys.vel[i][k];
                }
            }
            // O: Ornstein-Uhlenbeck exact solve (skipped when gamma = 0 → NVE).
            if integ.gamma > 0.0 {
                for (v, &c2) in sys.vel.iter_mut().zip(&c2) {
                    for vk in v.iter_mut() {
                        *vk = c1 * *vk + c2 * rng.gaussian();
                    }
                }
            }
            // A: half drift.
            for i in 0..sys.len() {
                for k in 0..3 {
                    sys.pos[i][k] += half_dt * sys.vel[i][k];
                }
                let mut r = sys.pos[i];
                sys.bbox.wrap(&mut r);
                sys.pos[i] = r;
            }
        }
        // Force refresh (cell list rebuilt periodically).
        if step % integ.cell_rebuild_interval == 0 {
            let _sp = le_obs::span!("mdsim.celllist");
            cells.rebuild(&sys.pos);
        }
        {
            let _sp = le_obs::span!("mdsim.force");
            potential = compute_forces_with(sys, ff, &cells, &mut scratch);
        }
        {
            // Final B half-kick belongs to the integrate budget too.
            let _sp = le_obs::span!("mdsim.integrate");
            for i in 0..sys.len() {
                let inv_m = 1.0 / sys.mass[i];
                for k in 0..3 {
                    sys.vel[i][k] += half_dt * sys.force[i][k] * inv_m;
                }
            }
            clamp_speed(&mut sys.vel);
        }

        // Stability guard.
        let ke = sys.kinetic_energy();
        if !ke.is_finite() || ke / sys.len() as f64 > integ.max_ke_per_particle {
            return Err(MdError::Unstable {
                step,
                reason: format!("kinetic energy per particle = {}", ke / sys.len() as f64),
            });
        }
        if step % 100 == 0 {
            if let Err(i) = sys.validate_finite() {
                return Err(MdError::Unstable {
                    step,
                    reason: format!("non-finite state at particle {i}"),
                });
            }
        }

        if step % sample_interval == 0 {
            traj.potential.push(potential);
            traj.kinetic.push(ke);
            traj.temperature.push(sys.temperature());
            on_sample(step, sys);
        }
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::debye_kappa;
    use crate::system::{SlabBox, Species, System};
    use le_linalg::stats;

    fn small_system(seed: u64, n_each: usize) -> (System, ForceField) {
        let bbox = SlabBox::new(4.0, 4.0, 3.0).unwrap();
        let mut sys = System::new(bbox);
        let mut rng = Rng::new(seed);
        let cation = Species {
            valency: 1,
            diameter: 0.3,
            mass: 1.0,
        };
        let anion = Species {
            valency: -1,
            diameter: 0.3,
            mass: 1.0,
        };
        sys.insert_species(cation, n_each, 1.0, &mut rng).unwrap();
        sys.insert_species(anion, n_each, 1.0, &mut rng).unwrap();
        sys.zero_momentum();
        let ff = ForceField {
            kappa: debye_kappa(0.3, 1, 1, crate::forces::BJERRUM_WATER),
            ..Default::default()
        };
        (sys, ff)
    }

    #[test]
    fn nve_conserves_energy() {
        let (mut sys, ff) = small_system(31, 20);
        // Equilibrate briefly with thermostat first to remove overlaps.
        let mut rng = Rng::new(32);
        let eq = Integrator {
            dt: 0.002,
            gamma: 5.0,
            ..Default::default()
        };
        run(&mut sys, &ff, &eq, 500, 100, &mut rng, |_, _| {}).unwrap();
        // NVE run: total energy drift must be small.
        let nve = Integrator {
            dt: 0.001,
            gamma: 0.0,
            ..Default::default()
        };
        let traj = run(&mut sys, &ff, &nve, 2000, 10, &mut rng, |_, _| {}).unwrap();
        let e: Vec<f64> = traj
            .potential
            .iter()
            .zip(&traj.kinetic)
            .map(|(p, k)| p + k)
            .collect();
        let e0 = e[1]; // skip the very first sample
        let max_drift = e
            .iter()
            .skip(1)
            .fold(0.0f64, |m, &x| m.max((x - e0).abs()));
        let scale = e0.abs().max(sys.len() as f64);
        assert!(
            max_drift / scale < 0.02,
            "NVE drift {max_drift} vs scale {scale}"
        );
    }

    #[test]
    fn langevin_thermostats_to_target() {
        let (mut sys, ff) = small_system(33, 30);
        let mut rng = Rng::new(34);
        let integ = Integrator {
            dt: 0.005,
            gamma: 2.0,
            temperature: 1.0,
            ..Default::default()
        };
        // Equilibrate, then measure.
        run(&mut sys, &ff, &integ, 1000, 100, &mut rng, |_, _| {}).unwrap();
        let traj = run(&mut sys, &ff, &integ, 4000, 20, &mut rng, |_, _| {}).unwrap();
        let t_mean = stats::mean(&traj.temperature).unwrap();
        assert!(
            (t_mean - 1.0).abs() < 0.12,
            "Langevin should hold T≈1.0, got {t_mean}"
        );
    }

    #[test]
    fn langevin_reaches_different_target_temperature() {
        let (mut sys, ff) = small_system(35, 30);
        let mut rng = Rng::new(36);
        let integ = Integrator {
            dt: 0.005,
            gamma: 2.0,
            temperature: 2.0,
            ..Default::default()
        };
        run(&mut sys, &ff, &integ, 1500, 100, &mut rng, |_, _| {}).unwrap();
        let traj = run(&mut sys, &ff, &integ, 4000, 20, &mut rng, |_, _| {}).unwrap();
        let t_mean = stats::mean(&traj.temperature).unwrap();
        assert!((t_mean - 2.0).abs() < 0.25, "T target 2.0, got {t_mean}");
    }

    #[test]
    fn oversized_timestep_detected_as_unstable() {
        let (mut sys, ff) = small_system(37, 30);
        let mut rng = Rng::new(38);
        let integ = Integrator {
            dt: 0.5, // absurdly large
            gamma: 1.0,
            max_ke_per_particle: 100.0,
            ..Default::default()
        };
        let result = run(&mut sys, &ff, &integ, 2000, 100, &mut rng, |_, _| {});
        assert!(
            matches!(result, Err(MdError::Unstable { .. })),
            "dt=0.5 should blow up, got {result:?}"
        );
    }

    #[test]
    fn particles_stay_in_slab() {
        let (mut sys, ff) = small_system(39, 25);
        let mut rng = Rng::new(40);
        let integ = Integrator::default();
        run(&mut sys, &ff, &integ, 2000, 100, &mut rng, |_, _| {}).unwrap();
        for (i, r) in sys.pos.iter().enumerate() {
            assert!(
                r[2] > -0.2 && r[2] < sys.bbox.h + 0.2,
                "particle {i} escaped the slab: z = {}",
                r[2]
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let (mut sys, ff) = small_system(41, 5);
        let mut rng = Rng::new(42);
        let bad_dt = Integrator {
            dt: 0.0,
            ..Default::default()
        };
        assert!(run(&mut sys, &ff, &bad_dt, 10, 1, &mut rng, |_, _| {}).is_err());
        let mut empty = System::new(sys.bbox);
        assert!(run(
            &mut empty,
            &ff,
            &Integrator::default(),
            10,
            1,
            &mut rng,
            |_, _| {}
        )
        .is_err());
    }

    #[test]
    fn sampling_callback_fires_at_interval() {
        let (mut sys, ff) = small_system(43, 10);
        let mut rng = Rng::new(44);
        let mut samples = Vec::new();
        let traj = run(
            &mut sys,
            &ff,
            &Integrator::default(),
            100,
            25,
            &mut rng,
            |step, _| samples.push(step),
        )
        .unwrap();
        assert_eq!(samples, vec![0, 25, 50, 75]);
        assert_eq!(traj.potential.len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run_once = || {
            let (mut sys, ff) = small_system(45, 15);
            let mut rng = Rng::new(46);
            run(
                &mut sys,
                &ff,
                &Integrator::default(),
                300,
                50,
                &mut rng,
                |_, _| {},
            )
            .unwrap();
            sys.pos[0]
        };
        assert_eq!(run_once(), run_once());
    }
}
