//! The paper's flagship MLaroundHPC example (§II-C1, ref [26]): learn the
//! contact, mid-plane, and peak ionic densities of ions confined between
//! walls, as a function of (h, z_p, z_n, c, d), from completed MD runs —
//! then answer un-simulated statepoints from the network.
//!
//! ```sh
//! cargo run --release --example nanoconfinement_surrogate
//! ```

use le_linalg::{stats, Matrix, Rng};
use le_mdsim::nanoconfinement::NanoParams;
use le_mdsim::{NanoSim, SimConfig};
use learning_everywhere::surrogate::{NnSurrogate, SurrogateConfig};

fn main() {
    let sim = NanoSim::new(SimConfig::fast());
    let mut rng = Rng::new(2026);

    // Training campaign: random statepoints over the study's ranges.
    // (The companion paper ran 6864 simulations; scale with --release.)
    let n_train = 220;
    let n_test = 40;
    println!("running {n_train} training + {n_test} test MD simulations…");
    let params: Vec<NanoParams> = (0..n_train + n_test)
        .map(|_| NanoParams::sample(&mut rng))
        .collect();
    let t0 = std::time::Instant::now();
    let results: Vec<Vec<f64>> =
        le_pool::par_map_index(params.len(), |i| {
            sim.run(&params[i], 1000 + i as u64).expect("valid params").0.to_vec()
        });
    let sim_wall = t0.elapsed().as_secs_f64();
    let per_sim = sim_wall / (n_train + n_test) as f64;
    println!("  {sim_wall:.1}s total, {:.1} ms/simulation", per_sim * 1e3);

    // Train the surrogate (inputs D = 5, outputs 3 — exactly ref [26]).
    let mut x = Matrix::zeros(n_train, 5);
    let mut y = Matrix::zeros(n_train, 3);
    for i in 0..n_train {
        x.row_mut(i).copy_from_slice(&params[i].to_features());
        y.row_mut(i).copy_from_slice(&results[i]);
    }
    let t1 = std::time::Instant::now();
    let surrogate = NnSurrogate::fit(
        &x,
        &y,
        &SurrogateConfig {
            hidden: vec![64, 64],
            dropout: 0.05,
            epochs: 400,
            ..Default::default()
        },
    )
    .expect("training data is well-formed");
    println!("surrogate trained in {:.1}s", t1.elapsed().as_secs_f64());

    // Evaluate on held-out statepoints.
    let names = ["contact", "mid    ", "peak   "];
    let mut per_output: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
    for i in n_train..n_train + n_test {
        let pred = surrogate
            .predict(&params[i].to_features())
            .expect("5 features");
        for k in 0..3 {
            per_output[k].push((pred[k], results[i][k]));
        }
    }
    println!("\nheld-out accuracy (density units, 1/nm^3):");
    for (k, name) in names.iter().enumerate() {
        let (p, t): (Vec<f64>, Vec<f64>) = per_output[k].iter().cloned().unzip();
        let rmse = stats::rmse(&p, &t).expect("non-empty");
        let r2 = stats::r2(&p, &t).expect("non-empty");
        println!("  {name}: RMSE {rmse:.4}, R² {r2:.3}");
    }

    // Lookup-vs-simulation speed.
    let probe = params[0].to_features();
    let t2 = std::time::Instant::now();
    let lookups = 10_000;
    for _ in 0..lookups {
        let _ = surrogate.predict(&probe).expect("probe");
    }
    let per_lookup = t2.elapsed().as_secs_f64() / lookups as f64;
    println!(
        "\nper-simulation {:.2e}s vs per-lookup {:.2e}s — surrogate is {:.0}x faster",
        per_sim,
        per_lookup,
        per_sim / per_lookup
    );
    println!("(the paper's production-scale runs reached ~1e5x)");
}
