//! Property-based tests on cross-crate invariants.
//!
//! These were originally `proptest` cases; the hermetic workspace replaces
//! the shrinking framework with seeded-loop property checks: each property
//! is exercised over `CASES` deterministic pseudo-random parameter draws,
//! so failures are reproducible from the printed case seed alone.

use le_linalg::{stats, Matrix, Rng};
use le_nn::Scaler;
use le_perfmodel::speedup::{effective_speedup, lookup_limit, SpeedupTimes};

/// Number of random parameter draws per property.
const CASES: u64 = 64;

/// Per-case generator: distinct, deterministic stream per (property, case).
fn case_rng(property: u64, case: u64) -> Rng {
    Rng::new(0x5EED_0000u64 ^ (property << 32) ^ case)
}

/// The effective speedup always lies between min and max of its two
/// degenerate "pure" rates, for any positive times and counts.
#[test]
fn effective_speedup_is_bounded_by_pure_rates() {
    for case in 0..CASES {
        let mut g = case_rng(1, case);
        let times = SpeedupTimes {
            t_seq: g.uniform_in(1e-3, 1e3),
            t_train: g.uniform_in(1e-3, 1e3),
            t_learn: g.uniform_in(0.0, 10.0),
            t_lookup: g.uniform_in(1e-9, 1.0),
        };
        let n_lookup = g.uniform_in(0.0, 1e6);
        let n_train = g.uniform_in(1.0, 1e4);
        let s = effective_speedup(&times, n_lookup, n_train).unwrap().speedup;
        let pure_train = times.t_seq / (times.t_train + times.t_learn);
        let pure_lookup = lookup_limit(&times).unwrap();
        let lo = pure_train.min(pure_lookup) * (1.0 - 1e-9);
        let hi = pure_train.max(pure_lookup) * (1.0 + 1e-9);
        assert!(s >= lo && s <= hi, "case {case}: S = {s} outside [{lo}, {hi}]");
    }
}

/// Speedup is monotone in N_lookup when lookups are cheaper than
/// simulations.
#[test]
fn effective_speedup_monotone_when_lookup_cheaper() {
    for case in 0..CASES {
        let mut g = case_rng(2, case);
        let t_seq = g.uniform_in(0.1, 100.0);
        let ratio = g.uniform_in(1.01, 1e6);
        let n1 = g.uniform_in(0.0, 1e5);
        let extra = g.uniform_in(1.0, 1e5);
        let t_train = t_seq;
        let t_lookup = t_train / ratio;
        let times = SpeedupTimes { t_seq, t_train, t_learn: 0.0, t_lookup };
        let s1 = effective_speedup(&times, n1, 100.0).unwrap().speedup;
        let s2 = effective_speedup(&times, n1 + extra, 100.0).unwrap().speedup;
        assert!(s2 >= s1 * (1.0 - 1e-12), "case {case}: {s2} < {s1}");
    }
}

/// Scaler round-trip is the identity for any well-conditioned data.
#[test]
fn scaler_roundtrip_identity() {
    for case in 0..CASES {
        let mut g = case_rng(3, case);
        let rows = 2 + g.below(28);
        let cols = 1 + g.below(5);
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, g.uniform_in(-100.0, 100.0));
            }
        }
        let scaler = Scaler::fit(&m).unwrap();
        let back = scaler.inverse_transform(&scaler.transform(&m).unwrap()).unwrap();
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "case {case}: {a} != {b}"
            );
        }
    }
}

/// Matrix multiplication is associative (within tolerance).
#[test]
fn matmul_associative() {
    for case in 0..CASES {
        let mut g = case_rng(4, case);
        let a = Matrix::he_uniform(4, 3, 4, &mut g);
        let b = Matrix::he_uniform(3, 5, 3, &mut g);
        let c = Matrix::he_uniform(5, 2, 5, &mut g);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-10, "case {case}: {x} != {y}");
        }
    }
}

/// Welford accumulation matches batch statistics for arbitrary data.
#[test]
fn welford_matches_batch() {
    for case in 0..CASES {
        let mut g = case_rng(5, case);
        let n = 2 + g.below(198);
        let values: Vec<f64> = (0..n).map(|_| g.uniform_in(-1e4, 1e4)).collect();
        let mut w = stats::Welford::new();
        for &v in &values {
            w.push(v);
        }
        let mean = stats::mean(&values).unwrap();
        let std = stats::sample_std(&values).unwrap();
        assert!(
            (w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "case {case}: mean"
        );
        assert!(
            (w.sample_std() - std).abs() < 1e-6 * (1.0 + std),
            "case {case}: std"
        );
    }
}

/// The RNG's uniform_in always lands inside the interval.
#[test]
fn uniform_in_respects_bounds() {
    for case in 0..CASES {
        let mut g = case_rng(6, case);
        let lo = g.uniform_in(-1e6, 1e6);
        let width = g.uniform_in(1e-6, 1e6);
        let hi = lo + width;
        let mut rng = Rng::new(case);
        for _ in 0..100 {
            let v = rng.uniform_in(lo, hi);
            assert!(
                (lo..hi).contains(&v) || v == lo,
                "case {case}: {v} outside [{lo}, {hi})"
            );
        }
    }
}

/// The cell list finds exactly the brute-force neighbor pairs for
/// arbitrary particle configurations and cutoffs.
#[test]
fn celllist_matches_brute_force() {
    use le_mdsim::celllist::CellList;
    use le_mdsim::system::SlabBox;
    for case in 0..CASES {
        let mut g = case_rng(7, case);
        let n = 2 + g.below(58);
        let cutoff = g.uniform_in(0.5, 3.0);
        let lx = g.uniform_in(4.0, 12.0);
        let h = g.uniform_in(2.0, 8.0);
        let bbox = SlabBox::new(lx, lx, h).unwrap();
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    g.uniform_in(0.0, lx),
                    g.uniform_in(0.0, lx),
                    g.uniform_in(0.0, h),
                ]
            })
            .collect();
        let mut brute = std::collections::HashSet::new();
        for i in 0..n {
            for j in i + 1..n {
                let d = bbox.min_image(&pos[i], &pos[j]);
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= cutoff * cutoff {
                    brute.insert((i, j));
                }
            }
        }
        let cl = CellList::build(bbox, cutoff, &pos);
        let mut found = std::collections::HashSet::new();
        cl.for_each_pair_dist(&pos, |i, j, d, r2| {
            let m = bbox.min_image(&pos[i], &pos[j]);
            assert!(
                (0..3).all(|k| (d[k] - m[k]).abs() < 1e-12),
                "case {case}: displacement of ({i}, {j})"
            );
            if r2 <= cutoff * cutoff {
                found.insert((i.min(j), i.max(j)));
            }
        });
        assert_eq!(found, brute, "case {case}");
    }
}

/// No-flux diffusion conserves mass for arbitrary fields and stable
/// solver parameters.
#[test]
fn diffusion_conserves_mass() {
    use le_tissue::{DiffusionSolver, Field};
    for case in 0..CASES {
        let mut g = case_rng(8, case);
        let w = 4 + g.below(16);
        let h = 4 + g.below(16);
        let d = g.uniform_in(0.1, 1.0);
        let steps = 1 + g.below(39);
        let dt = 0.9 * 1.0 / (4.0 * d); // just inside the CFL bound
        let solver = DiffusionSolver::diffusion_only(d, 1.0, dt).unwrap();
        let data: Vec<f64> = (0..w * h).map(|_| g.uniform_in(0.0, 5.0)).collect();
        let field = Field::from_vec(w, h, data).unwrap();
        let sources = Field::zeros(w, h);
        let advanced = solver.advance(&field, &sources, steps).unwrap();
        assert!(
            (advanced.total() - field.total()).abs() < 1e-8 * field.total().max(1.0),
            "case {case}: mass"
        );
        assert!(advanced.min() >= 0.0, "case {case}: negativity");
    }
}

/// SEIR bookkeeping: attack rate bounded by 1, incidence non-negative,
/// and total incidence consistent with the attack rate.
#[test]
fn seir_invariants() {
    use le_netdyn::seir::{simulate, SeirConfig};
    use le_netdyn::{Population, PopulationConfig};
    for case in 0..CASES {
        let mut g = case_rng(9, case);
        let tau = g.uniform_in(0.0, 0.3);
        let seeds_n = 1 + g.below(9);
        let pop = Population::generate(&PopulationConfig::uniform(3, 120), case).unwrap();
        let cfg = SeirConfig {
            transmissibility: tau,
            initial_infections: seeds_n,
            days: 60,
            ..Default::default()
        };
        let out = simulate(&pop, &cfg, case ^ 0xF00D).unwrap();
        assert!(
            out.attack_rate >= 0.0 && out.attack_rate <= 1.0,
            "case {case}: attack rate"
        );
        assert!(
            out.incidence.iter().all(|c| c.iter().all(|&v| v >= 0.0)),
            "case {case}: negative incidence"
        );
        let total: f64 = out.state_incidence().iter().sum();
        let expected = out.attack_rate * pop.size() as f64 - seeds_n as f64;
        assert!((total - expected).abs() < 1e-9, "case {case}: totals");
    }
}

/// Allreduce algorithms agree for arbitrary participant counts and
/// vector lengths.
#[test]
fn allreduce_algorithms_agree() {
    use le_mlkernels::collective::{allreduce_flat, allreduce_ring, allreduce_tree};
    for case in 0..CASES {
        let mut g = case_rng(10, case);
        let p = 1 + g.below(9);
        let n = 1 + g.below(39);
        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..n).map(|_| g.uniform_in(-10.0, 10.0)).collect())
            .collect();
        let flat = allreduce_flat(&inputs);
        let tree = allreduce_tree(&inputs);
        let ring = allreduce_ring(&inputs);
        for i in 0..n {
            assert!((flat[i] - tree[i]).abs() < 1e-9, "case {case}: tree[{i}]");
            assert!((flat[i] - ring[i]).abs() < 1e-9, "case {case}: ring[{i}]");
        }
    }
}

/// Scheduler work conservation holds for arbitrary workloads.
#[test]
fn scheduler_conserves_work() {
    use le_sched::{simulate, Policy, Workload, WorkloadConfig};
    for case in 0..CASES {
        let mut g = case_rng(11, case);
        let n_workers = 1 + g.below(7);
        let learnt_frac = g.uniform_in(0.0, 1.0);
        let w = Workload::generate(
            &WorkloadConfig {
                n_tasks: 200,
                mean_interarrival: 0.1,
                sim_service: 1.0,
                learnt_speedup: 100.0,
                learnt_fraction_start: learnt_frac,
                learnt_fraction_end: learnt_frac,
            },
            case,
        )
        .unwrap();
        let m = simulate(&w, n_workers, Policy::SingleQueue).unwrap();
        assert_eq!(m.n_completed, 200, "case {case}");
        assert!(
            (m.total_busy - w.total_service()).abs() < 1e-6,
            "case {case}: busy time"
        );
        assert!(m.utilization <= 1.0 + 1e-9, "case {case}: utilization");
    }
}
