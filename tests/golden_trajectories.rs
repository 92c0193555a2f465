//! Golden-trajectory regression tests: bit-exact hashes of seeded kernel
//! runs, committed as constants. Any change to the MD integrator, force
//! loop, cell list, pool chunking, the SEIR dynamics or the training-side
//! matrix products that perturbs a single bit of output fails here —
//! including nondeterminism introduced by the worker pool, because
//! `scripts/verify.sh` runs this suite at `LE_POOL_THREADS=1`, 4 and 7
//! and every width must reproduce the same committed hash.
//!
//! To re-baseline after an *intentional* numerical change, run with
//! `--nocapture` and copy the printed hashes.

use le_mdsim::forces::ForceField;
use le_mdsim::integrate::{run, Integrator};
use le_mdsim::nanoconfinement::{NanoParams, NanoSim, SimConfig};
use le_mdsim::system::{SlabBox, Species, System};
use le_netdyn::seir::{simulate, SeirConfig};
use le_netdyn::{Population, PopulationConfig};
use le_linalg::{Fnv, Matrix, Rng};
use le_nn::{Mlp, MlpConfig, TrainConfig, Trainer};

/// FNV-1a over a sequence of f64 bit patterns: sensitive to every bit.
fn fold_f64s<'a, I: IntoIterator<Item = &'a f64>>(h: &mut Fnv, vals: I) {
    for v in vals {
        h.f64(*v);
    }
}

/// 200 Langevin (BAOAB) steps of a 48-ion slab system, seeded; hash of the
/// final positions + velocities and every sampled energy.
fn md_trajectory_hash() -> u64 {
    let bbox = SlabBox::new(4.0, 4.0, 3.0).expect("valid box");
    let mut sys = System::new(bbox);
    let mut rng = Rng::new(42);
    sys.insert_species(
        Species { valency: 1, diameter: 0.5, mass: 1.0 },
        24,
        1.0,
        &mut rng,
    )
    .expect("cations fit");
    sys.insert_species(
        Species { valency: -1, diameter: 0.5, mass: 1.0 },
        24,
        1.0,
        &mut rng,
    )
    .expect("anions fit");
    sys.zero_momentum();

    let ff = ForceField { kappa: 1.0, wall_sigma: 0.25, ..Default::default() };
    let dt = 0.002;
    let integ = Integrator {
        dt,
        gamma: 2.0,
        temperature: 1.0,
        // Insertion overlaps relax under a speed limit instead of
        // detonating (the same idiom NanoSim uses for equilibration).
        max_speed: 0.02 / dt,
        max_ke_per_particle: f64::INFINITY,
        ..Default::default()
    };
    let traj = run(&mut sys, &ff, &integ, 200, 20, &mut rng, |_, _| {}).expect("stable run");

    let mut h = Fnv::new();
    for p in &sys.pos {
        fold_f64s(&mut h, p);
    }
    for v in &sys.vel {
        fold_f64s(&mut h, v);
    }
    fold_f64s(&mut h, &traj.potential);
    fold_f64s(&mut h, &traj.kinetic);
    fold_f64s(&mut h, &traj.temperature);
    h.finish()
}

/// 150 Langevin steps of a 300-particle system on the cell-list *stencil*
/// path: the MD goldens above and below run 1-bin-wide boxes, which take
/// the small-grid all-pairs path. The 12.5 nm cube holds 3 bins of
/// 1.15 × 3.5 nm per axis; three species mix diameters (0.5, 0.6, 0.7 nm)
/// and masses, and one is uncharged, so per-pair σ and the zero-charge
/// sentinel both enter. 300 particles split the pair rows into 2 force
/// groups, so the group merge runs on the pool at 4 and 7 threads.
fn md_stencil_trajectory_hash() -> u64 {
    let bbox = SlabBox::new(12.5, 12.5, 12.5).expect("valid box");
    let mut sys = System::new(bbox);
    let mut rng = Rng::new(77);
    for (valency, diameter, mass) in [(1, 0.5, 1.0), (-1, 0.7, 1.5), (0, 0.6, 2.0)] {
        sys.insert_species(
            Species {
                valency,
                diameter,
                mass,
            },
            100,
            1.0,
            &mut rng,
        )
        .expect("species fits");
    }
    sys.zero_momentum();

    let ff = ForceField {
        kappa: 0.8,
        wall_sigma: 0.3,
        ..Default::default()
    };
    let dt = 0.002;
    let integ = Integrator {
        dt,
        gamma: 2.0,
        temperature: 1.0,
        max_speed: 0.02 / dt,
        max_ke_per_particle: f64::INFINITY,
        ..Default::default()
    };
    let traj = run(&mut sys, &ff, &integ, 150, 15, &mut rng, |_, _| {}).expect("stable run");

    let mut h = Fnv::new();
    for p in &sys.pos {
        fold_f64s(&mut h, p);
    }
    for v in &sys.vel {
        fold_f64s(&mut h, v);
    }
    fold_f64s(&mut h, &traj.potential);
    fold_f64s(&mut h, &traj.kinetic);
    fold_f64s(&mut h, &traj.temperature);
    h.finish()
}

/// One `NanoSim::run` at the perfbench `campaign_md` fidelity (lateral
/// 2.5 nm, 100 equilibration + 400 production steps) for a 3:2 salt; hash
/// of the three learned densities, the full profile with its standard
/// errors, the particle count and the mean temperature.
fn nanosim_campaign_hash() -> u64 {
    let config = SimConfig {
        equil_steps: 100,
        prod_steps: 400,
        sample_interval: 10,
        snapshots_per_block: 5,
        lateral: 2.5,
        ..SimConfig::fast()
    };
    let params = NanoParams {
        h: 3.0,
        z_p: 3,
        z_n: 2,
        c: 0.6,
        d: 0.6,
    };
    let (out, stats) = NanoSim::new(config).run(&params, 5).expect("stable run");
    let mut h = Fnv::new();
    fold_f64s(&mut h, &out.to_vec());
    fold_f64s(&mut h, &stats.profile);
    fold_f64s(&mut h, &stats.profile_se);
    h.u64(stats.n_particles as u64);
    h.f64(stats.mean_temperature);
    h.finish()
}

/// One seeded stochastic SEIR realization on a 4-county block-model
/// population; hash of the full county-by-day incidence plus the summary
/// statistics.
fn epidemic_curve_hash() -> u64 {
    let pop = Population::generate(&PopulationConfig::uniform(4, 250), 7).expect("population");
    let out = simulate(&pop, &SeirConfig::default(), 11).expect("epidemic");
    let mut h = Fnv::new();
    for county in &out.incidence {
        fold_f64s(&mut h, county);
    }
    h.f64(out.attack_rate);
    h.u64(out.peak_day as u64);
    h.finish()
}

/// Eight epochs of the paper's 5→64→64→3 dropout surrogate on a seeded
/// 600-row set; hash of every epoch's train/validation loss, the final
/// weights and biases, and a prediction over the whole set. The products
/// land on both sides of the matmul size cut: in training (batches of
/// 64) the input and 3-wide head layers stay below it and the 64×64
/// hidden layer runs the tiled kernel split across the pool, in all three
/// of `matmul`, `t_matmul` and `matmul_t`; the 180-row validation pass
/// and the final prediction send the head through the narrow tiled path.
/// Dropout zeros hidden activations, so the small path's exact-zero skip
/// is exercised too.
fn training_hash() -> u64 {
    let mut rng = Rng::new(19);
    let n = 600;
    let mut x = Matrix::zeros(n, 5);
    let mut y = Matrix::zeros(n, 3);
    for i in 0..n {
        let f: Vec<f64> = (0..5).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        x.row_mut(i).copy_from_slice(&f);
        y.set(i, 0, (2.0 * f[0]).sin() * f[1]);
        y.set(i, 1, f[2] * f[3] - 0.5 * f[4]);
        y.set(i, 2, (f[0] + f[4]).tanh());
    }
    let mut model = Mlp::new(MlpConfig::regression_with_dropout(&[5, 64, 64, 3], 0.1), &mut rng)
        .expect("valid net");
    let report = Trainer::new(TrainConfig {
        epochs: 8,
        batch_size: 64,
        lr: 3e-3,
        validation_fraction: 0.3,
        patience: Some(100),
        seed: 23,
        ..Default::default()
    })
    .fit(&mut model, &x, &y)
    .expect("training runs");

    let mut h = Fnv::new();
    fold_f64s(&mut h, &report.train_loss);
    fold_f64s(&mut h, &report.val_loss);
    for layer in model.layers() {
        fold_f64s(&mut h, layer.w.as_slice());
        fold_f64s(&mut h, &layer.b);
    }
    fold_f64s(&mut h, model.predict(&x).expect("prediction").as_slice());
    h.finish()
}

/// Committed baseline: 200-step nanoconfinement-style MD trajectory.
const GOLDEN_MD_HASH: u64 = 0x0987_f3ad_7767_956c;

/// Committed baseline: 150-step MD trajectory on the stencil path.
const GOLDEN_MD_STENCIL_HASH: u64 = 0x3471_5f1c_8b12_832a;

/// Committed baseline: one `NanoSim::run` at the `campaign_md` fidelity.
const GOLDEN_NANOSIM_CAMPAIGN_HASH: u64 = 0xe887_2e52_c718_edec;

/// Committed baseline: seeded SEIR epidemic curve.
const GOLDEN_EPIDEMIC_HASH: u64 = 0x65d2_c945_05f1_c856;

/// Committed baseline: seeded 5→64→64→3 dropout-net training run.
const GOLDEN_TRAINING_HASH: u64 = 0xf4a3_1d07_f1e7_8484;

#[test]
fn md_trajectory_matches_golden_hash() {
    let h = md_trajectory_hash();
    println!("md trajectory hash: {h:#018x}");
    assert_eq!(
        h, GOLDEN_MD_HASH,
        "MD trajectory diverged from the committed baseline (got {h:#018x}); \
         if the numerical change is intentional, re-baseline GOLDEN_MD_HASH"
    );
}

#[test]
fn md_trajectory_hash_is_reproducible_in_process() {
    assert_eq!(md_trajectory_hash(), md_trajectory_hash());
}

#[test]
fn md_stencil_trajectory_matches_golden_hash() {
    let h = md_stencil_trajectory_hash();
    println!("md stencil trajectory hash: {h:#018x}");
    assert_eq!(
        h, GOLDEN_MD_STENCIL_HASH,
        "stencil-path MD trajectory diverged from the committed baseline (got {h:#018x}); \
         if the numerical change is intentional, re-baseline GOLDEN_MD_STENCIL_HASH"
    );
}

#[test]
fn nanosim_campaign_run_matches_golden_hash() {
    let h = nanosim_campaign_hash();
    println!("nanosim campaign hash: {h:#018x}");
    assert_eq!(
        h, GOLDEN_NANOSIM_CAMPAIGN_HASH,
        "NanoSim run at the campaign fidelity diverged from the committed baseline \
         (got {h:#018x}); if the numerical change is intentional, re-baseline \
         GOLDEN_NANOSIM_CAMPAIGN_HASH"
    );
}

#[test]
fn epidemic_curve_matches_golden_hash() {
    let h = epidemic_curve_hash();
    println!("epidemic curve hash: {h:#018x}");
    assert_eq!(
        h, GOLDEN_EPIDEMIC_HASH,
        "SEIR epidemic curve diverged from the committed baseline (got {h:#018x}); \
         if the change is intentional, re-baseline GOLDEN_EPIDEMIC_HASH"
    );
}

#[test]
fn epidemic_curve_hash_is_reproducible_in_process() {
    assert_eq!(epidemic_curve_hash(), epidemic_curve_hash());
}

#[test]
fn training_matches_golden_hash() {
    let h = training_hash();
    println!("training hash: {h:#018x}");
    assert_eq!(
        h, GOLDEN_TRAINING_HASH,
        "surrogate training diverged from the committed baseline (got {h:#018x}); \
         if the numerical change is intentional, re-baseline GOLDEN_TRAINING_HASH"
    );
}
