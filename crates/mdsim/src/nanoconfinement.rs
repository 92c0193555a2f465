//! The nanoconfinement scenario of paper ref \[26\] (Kadupitiya, Fox,
//! Jadhao): ions between two planar walls, with the five control parameters
//! the surrogate learns —
//!
//! * `h`   — confinement length (wall separation, nm),
//! * `z_p` — positive-ion valency,
//! * `z_n` — negative-ion valency (stored as a positive magnitude),
//! * `c`   — salt concentration (mol/L),
//! * `d`   — ion diameter (nm),
//!
//! and the three learned outputs: contact, mid-plane, and peak densities of
//! the positive species. One [`NanoSim::run`] call is one "expensive HPC
//! simulation"; the MLaroundHPC machinery in `learning-everywhere` wraps it.

use le_linalg::Rng;

use crate::forces::{debye_kappa, ForceField, BJERRUM_WATER, IONS_PER_NM3_PER_MOLAR};
use crate::integrate::{run, Integrator};
use crate::sample::{extract_features_at_contact, DensityProfiler};
use crate::system::{SlabBox, Species, System};
use crate::{MdError, Result};

/// The five input features of the nanoconfinement surrogate (D = 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NanoParams {
    /// Wall separation h (nm).
    pub h: f64,
    /// Positive ion valency (1–3).
    pub z_p: u32,
    /// Negative ion valency magnitude (1–2).
    pub z_n: u32,
    /// Salt concentration (mol/L).
    pub c: f64,
    /// Ion diameter (nm).
    pub d: f64,
}

impl NanoParams {
    /// Parameter ranges matching the companion study's sweep.
    pub const H_RANGE: (f64, f64) = (2.0, 4.0);
    /// Valid salt concentrations (mol/L).
    pub const C_RANGE: (f64, f64) = (0.3, 0.9);
    /// Valid ion diameters (nm).
    pub const D_RANGE: (f64, f64) = (0.5, 0.75);

    /// Validate physical ranges.
    pub fn validate(&self) -> Result<()> {
        if !(0.5..=10.0).contains(&self.h) {
            return Err(MdError::InvalidParam(format!("h = {} nm out of range", self.h)));
        }
        if !(1..=3).contains(&self.z_p) || !(1..=3).contains(&self.z_n) {
            return Err(MdError::InvalidParam(format!(
                "valencies z_p={}, z_n={} out of range",
                self.z_p, self.z_n
            )));
        }
        if !(0.01..=5.0).contains(&self.c) {
            return Err(MdError::InvalidParam(format!("c = {} M out of range", self.c)));
        }
        if !(0.1..=1.0).contains(&self.d) {
            return Err(MdError::InvalidParam(format!("d = {} nm out of range", self.d)));
        }
        if self.d >= self.h / 2.0 {
            return Err(MdError::InvalidParam(format!(
                "ion diameter {} too large for slab height {}",
                self.d, self.h
            )));
        }
        Ok(())
    }

    /// Flatten to the D = 5 feature vector `[h, z_p, z_n, c, d]`.
    pub fn to_features(&self) -> [f64; 5] {
        [self.h, self.z_p as f64, self.z_n as f64, self.c, self.d]
    }

    /// Inverse of [`NanoParams::to_features`]; valencies are rounded.
    pub fn from_features(f: &[f64]) -> Result<Self> {
        if f.len() != 5 {
            return Err(MdError::InvalidParam(format!(
                "expected 5 features, got {}",
                f.len()
            )));
        }
        let p = Self {
            h: f[0],
            z_p: f[1].round().max(1.0) as u32,
            z_n: f[2].round().max(1.0) as u32,
            c: f[3],
            d: f[4],
        };
        p.validate()?;
        Ok(p)
    }

    /// Draw a random parameter point from the study's ranges.
    pub fn sample(rng: &mut Rng) -> Self {
        Self {
            h: rng.uniform_in(Self::H_RANGE.0, Self::H_RANGE.1),
            z_p: 1 + rng.below(3) as u32,
            z_n: 1 + rng.below(2) as u32,
            c: rng.uniform_in(Self::C_RANGE.0, Self::C_RANGE.1),
            d: rng.uniform_in(Self::D_RANGE.0, Self::D_RANGE.1),
        }
    }
}

/// Simulation fidelity knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Equilibration steps (discarded).
    pub equil_steps: usize,
    /// Production steps (sampled).
    pub prod_steps: usize,
    /// Steps between density snapshots (the §III-D blocking interval).
    pub sample_interval: usize,
    /// Snapshots averaged per block.
    pub snapshots_per_block: usize,
    /// z-histogram bins.
    pub bins: usize,
    /// Integrator timestep.
    pub dt: f64,
    /// Langevin friction.
    pub gamma: f64,
    /// Temperature (kT).
    pub temperature: f64,
    /// Lateral box size (nm); sets the particle count together with `c`.
    pub lateral: f64,
}

impl SimConfig {
    /// Test-speed preset (seconds per run ≪ 1).
    pub fn fast() -> Self {
        Self {
            equil_steps: 400,
            prod_steps: 1200,
            sample_interval: 10,
            snapshots_per_block: 6,
            bins: 25,
            dt: 0.005,
            gamma: 1.0,
            temperature: 1.0,
            lateral: 3.0,
        }
    }

    /// Benchmark-fidelity preset.
    pub fn standard() -> Self {
        Self {
            equil_steps: 2_000,
            prod_steps: 10_000,
            sample_interval: 20,
            snapshots_per_block: 10,
            bins: 50,
            dt: 0.005,
            gamma: 1.0,
            temperature: 1.0,
            lateral: 3.5,
        }
    }
}

/// The learned outputs (contact / mid-plane / peak cation density, 1/nm³).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityOutputs {
    /// Cation density at wall contact.
    pub contact: f64,
    /// Cation density at the slab mid-plane.
    pub mid: f64,
    /// Peak cation density.
    pub peak: f64,
}

impl DensityOutputs {
    /// Flatten to the 3-vector the surrogate predicts.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![self.contact, self.mid, self.peak]
    }
}

/// Extra diagnostics from one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall-clock seconds for the full run.
    pub wall_seconds: f64,
    /// Particle count simulated.
    pub n_particles: usize,
    /// Full cation density profile.
    pub profile: Vec<f64>,
    /// Standard error per profile bin.
    pub profile_se: Vec<f64>,
    /// Mean temperature over production (thermostat check).
    pub mean_temperature: f64,
}

/// The nanoconfinement simulator.
#[derive(Debug, Clone)]
pub struct NanoSim {
    config: SimConfig,
}

impl NanoSim {
    /// New simulator with the given fidelity.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// The fidelity configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of ions that `params` implies at this fidelity.
    pub fn ion_counts(&self, params: &NanoParams) -> (usize, usize) {
        let volume = self.config.lateral * self.config.lateral * params.h;
        let n_units = (params.c * IONS_PER_NM3_PER_MOLAR * volume).round().max(1.0) as usize;
        // Electroneutral z_p:z_n salt — n_units formula units give
        // n_units*z_n cations and n_units*z_p anions.
        (n_units * params.z_n as usize, n_units * params.z_p as usize)
    }

    /// Run one full simulation: build, equilibrate, produce, extract
    /// densities.
    pub fn run(&self, params: &NanoParams, seed: u64) -> Result<(DensityOutputs, RunStats)> {
        params.validate()?;
        // Wall-clock for the report only; never feeds the dynamics. The
        // timed span also lands the run in the OBS snapshot.
        let sp = le_obs::timed_span!("mdsim.nanosim_run");
        let cfg = &self.config;
        let bbox = SlabBox::new(cfg.lateral, cfg.lateral, params.h)?;
        let mut sys = System::new(bbox);
        let mut rng = Rng::new(seed);
        let (n_p, n_n) = self.ion_counts(params);
        sys.insert_species(
            Species {
                valency: params.z_p as i32,
                diameter: params.d,
                mass: 1.0,
            },
            n_p,
            cfg.temperature,
            &mut rng,
        )?;
        sys.insert_species(
            Species {
                valency: -(params.z_n as i32),
                diameter: params.d,
                mass: 1.0,
            },
            n_n,
            cfg.temperature,
            &mut rng,
        )?;
        sys.zero_momentum();
        debug_assert!(sys.net_charge().abs() < 1e-9);

        let ff = ForceField {
            kappa: debye_kappa(params.c, params.z_p, params.z_n, BJERRUM_WATER),
            wall_sigma: 0.5 * params.d,
            ..Default::default()
        };
        let integ = Integrator {
            dt: cfg.dt,
            gamma: cfg.gamma,
            temperature: cfg.temperature,
            ..Default::default()
        };
        // Equilibration: tighter thermostat plus a speed limit so that
        // residual insertion overlaps relax instead of detonating
        // (max displacement ≈ 0.02 nm per step).
        let eq_dt = cfg.dt * 0.5;
        let eq_integ = Integrator {
            gamma: 5.0,
            dt: eq_dt,
            max_speed: 0.02 / eq_dt,
            max_ke_per_particle: f64::INFINITY,
            ..integ
        };
        run(
            &mut sys,
            &ff,
            &eq_integ,
            cfg.equil_steps,
            cfg.equil_steps.max(1),
            &mut rng,
            |_, _| {},
        )?;
        // Production with density sampling.
        let area = cfg.lateral * cfg.lateral;
        let mut profiler =
            DensityProfiler::new(cfg.bins, params.h, area, 1, cfg.snapshots_per_block);
        let traj = run(
            &mut sys,
            &ff,
            &integ,
            cfg.prod_steps,
            cfg.sample_interval,
            &mut rng,
            |_, s| profiler.record(s),
        )?;
        let profile = profiler.profile();
        let profile_se = profiler.standard_error();
        // The contact plane sits at the wall potential's onset (the 9-3
        // minimum, 0.858 σ_wall from the wall), where ions can actually
        // reach — inside that the profile is empty by construction.
        let z_contact = 0.858_374_2 * ff.wall_sigma;
        let features = extract_features_at_contact(&profile, params.h, z_contact);
        let mean_temperature = if traj.temperature.is_empty() {
            0.0
        } else {
            traj.temperature.iter().sum::<f64>() / traj.temperature.len() as f64
        };
        let outputs = DensityOutputs {
            contact: features.contact,
            mid: features.mid,
            peak: features.peak,
        };
        let stats = RunStats {
            wall_seconds: sp.finish_secs(),
            n_particles: sys.len(),
            profile,
            profile_se,
            mean_temperature,
        };
        Ok((outputs, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid_params() -> NanoParams {
        NanoParams {
            h: 3.0,
            z_p: 1,
            z_n: 1,
            c: 0.5,
            d: 0.6,
        }
    }

    #[test]
    fn params_validation() {
        assert!(mid_params().validate().is_ok());
        assert!(NanoParams { h: 0.1, ..mid_params() }.validate().is_err());
        assert!(NanoParams { z_p: 5, ..mid_params() }.validate().is_err());
        assert!(NanoParams { c: 0.0, ..mid_params() }.validate().is_err());
        assert!(NanoParams { d: 2.0, ..mid_params() }.validate().is_err());
        // Diameter vs slab height coupling.
        assert!(NanoParams { h: 1.0, d: 0.6, ..mid_params() }.validate().is_err());
    }

    #[test]
    fn features_roundtrip() {
        let p = mid_params();
        let f = p.to_features();
        assert_eq!(f, [3.0, 1.0, 1.0, 0.5, 0.6]);
        let back = NanoParams::from_features(&f).unwrap();
        assert_eq!(back, p);
        assert!(NanoParams::from_features(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn sampled_params_are_valid() {
        let mut rng = Rng::new(61);
        for _ in 0..100 {
            assert!(NanoParams::sample(&mut rng).validate().is_ok());
        }
    }

    #[test]
    fn ion_counts_electroneutral_and_scale_with_c() {
        let sim = NanoSim::new(SimConfig::fast());
        let p1 = NanoParams { c: 0.3, ..mid_params() };
        let p2 = NanoParams { c: 0.9, ..mid_params() };
        let (np1, nn1) = sim.ion_counts(&p1);
        let (np2, nn2) = sim.ion_counts(&p2);
        assert!(np2 > np1, "more salt, more ions");
        // 1:1 salt: equal counts.
        assert_eq!(np1, nn1);
        assert_eq!(np2, nn2);
        // 2:1 salt: twice as many anions as cations.
        let p3 = NanoParams { z_p: 2, ..mid_params() };
        let (np3, nn3) = sim.ion_counts(&p3);
        assert_eq!(nn3, 2 * np3);
    }

    #[test]
    fn run_produces_physical_densities() {
        let sim = NanoSim::new(SimConfig::fast());
        let (out, stats) = sim.run(&mid_params(), 7).unwrap();
        assert!(out.contact >= 0.0 && out.mid >= 0.0);
        assert!(out.peak >= out.mid, "peak is a maximum");
        assert!(out.peak >= out.contact * 0.999);
        assert!(out.peak > 0.0, "some cations must exist");
        assert!(stats.n_particles > 0);
        assert!(stats.wall_seconds > 0.0);
        // Thermostat held.
        assert!(
            (stats.mean_temperature - 1.0).abs() < 0.25,
            "T = {}",
            stats.mean_temperature
        );
        // Profile integrates to the cation count.
        let bin_w = mid_params().h / stats.profile.len() as f64;
        let area = sim.config().lateral * sim.config().lateral;
        let total: f64 = stats.profile.iter().map(|&d| d * area * bin_w).sum();
        let (n_p, _) = sim.ion_counts(&mid_params());
        assert!(
            (total - n_p as f64).abs() < 0.15 * n_p as f64,
            "profile integral {total} vs {n_p} cations"
        );
    }

    #[test]
    fn run_is_deterministic_given_seed() {
        let sim = NanoSim::new(SimConfig::fast());
        let (a, _) = sim.run(&mid_params(), 99).unwrap();
        let (b, _) = sim.run(&mid_params(), 99).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_close_but_not_identical_outputs() {
        let sim = NanoSim::new(SimConfig::fast());
        let (a, _) = sim.run(&mid_params(), 1).unwrap();
        let (b, _) = sim.run(&mid_params(), 2).unwrap();
        assert_ne!(a, b, "different noise realizations");
        // But the physics is the same: outputs within a factor ~2.
        assert!(a.peak > 0.3 * b.peak && a.peak < 3.0 * b.peak);
    }

    #[test]
    fn higher_concentration_gives_higher_density() {
        let sim = NanoSim::new(SimConfig::fast());
        let lo = NanoParams { c: 0.3, ..mid_params() };
        let hi = NanoParams { c: 0.9, ..mid_params() };
        let (out_lo, _) = sim.run(&lo, 11).unwrap();
        let (out_hi, _) = sim.run(&hi, 11).unwrap();
        assert!(
            out_hi.peak > out_lo.peak,
            "3x salt should raise peak density: {} vs {}",
            out_hi.peak,
            out_lo.peak
        );
    }

    #[test]
    fn invalid_params_rejected_by_run() {
        let sim = NanoSim::new(SimConfig::fast());
        let bad = NanoParams { h: 0.2, ..mid_params() };
        assert!(sim.run(&bad, 1).is_err());
    }
}
