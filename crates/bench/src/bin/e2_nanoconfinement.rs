//! E2: the nanoconfinement MLaroundHPC study (paper ref [26]): train on a
//! 70/30 split of a parameter sweep, report per-output accuracy and the
//! simulation-vs-lookup speedup.

use le_bench::{md_row, nano_surrogate, BENCH_SEED};
use le_linalg::stats;
use le_mdsim::nanoconfinement::NanoParams;
use le_mdsim::{NanoSim, SimConfig};

fn main() {
    // Scaled-down sweep (the paper's companion used 6864 runs; grid(11)
    // reproduces that size — use a subsample for minutes-scale runtime).
    let n_total = 560;
    let split = (n_total as f64 * 0.7) as usize; // 70/30 like ref [26]
    let sim = NanoSim::new(SimConfig::fast());
    let mut rng = le_linalg::Rng::new(BENCH_SEED);
    let params: Vec<NanoParams> = (0..n_total).map(|_| NanoParams::sample(&mut rng)).collect();
    eprintln!("running {n_total} MD simulations…");
    let t0 = std::time::Instant::now();
    let outputs: Vec<Vec<f64>> =
        le_pool::par_map_index(params.len(), |i| {
            sim.run(&params[i], BENCH_SEED ^ (i as u64 + 1)).expect("valid").0.to_vec()
        });
    let per_sim = t0.elapsed().as_secs_f64() / n_total as f64;

    let surrogate = nano_surrogate(&params[..split], &outputs[..split], 400, BENCH_SEED);

    println!("## E2 — nanoconfinement surrogate (S = {split} train / {} test)\n", n_total - split);
    println!(
        "{}",
        md_row(&["output".into(), "RMSE (1/nm³)".into(), "R²".into(), "Pearson".into()])
    );
    println!("{}", md_row(&["---".into(), "---".into(), "---".into(), "---".into()]));
    // One fused batch over the whole test split (the old loop re-predicted
    // every point once per output column).
    let test_x: Vec<f64> = (split..n_total).flat_map(|i| params[i].to_features()).collect();
    let mut test_pred = vec![0.0; (n_total - split) * 3];
    surrogate
        .predict_batch_into(&test_x, n_total - split, &mut test_pred)
        .expect("5 features");
    for (k, name) in ["contact", "mid", "peak"].iter().enumerate() {
        let mut pred = Vec::new();
        let mut truth = Vec::new();
        for i in split..n_total {
            pred.push(test_pred[(i - split) * 3 + k]);
            truth.push(outputs[i][k]);
        }
        println!(
            "{}",
            md_row(&[
                name.to_string(),
                format!("{:.4}", stats::rmse(&pred, &truth).expect("non-empty")),
                format!("{:.3}", stats::r2(&pred, &truth).expect("non-empty")),
                format!("{:.3}", stats::pearson(&pred, &truth).expect("non-empty")),
            ])
        );
    }

    // Speedup: lookups batched through the fused engine, buffers reused.
    let feats = params[0].to_features();
    let lookups = 50_000;
    let chunk = 256;
    let mut batch_x = Vec::with_capacity(chunk * feats.len());
    for _ in 0..chunk {
        batch_x.extend_from_slice(&feats);
    }
    let mut batch_y = vec![0.0; chunk * surrogate.output_dim()];
    let t1 = std::time::Instant::now();
    let mut done = 0;
    while done < lookups {
        let rows = chunk.min(lookups - done);
        surrogate
            .predict_batch_into(
                &batch_x[..rows * feats.len()],
                rows,
                &mut batch_y[..rows * surrogate.output_dim()],
            )
            .expect("probe");
        done += rows;
    }
    let per_lookup = t1.elapsed().as_secs_f64() / lookups as f64;
    println!(
        "\nper-simulation {per_sim:.3e}s vs per-lookup {per_lookup:.3e}s → **{:.0}x** \
         (paper's production runs: ~1e5x; shape holds — the factor is set by \
         simulation length, which is reduced here)",
        per_sim / per_lookup
    );
}
