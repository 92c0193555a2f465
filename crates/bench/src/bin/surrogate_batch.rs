//! Batched-vs-single surrogate lookup throughput on the E2 workload.
//!
//! The "single-query path" being beaten is the engine as it existed
//! *before* the batch-first rework: per-query `Vec`/`Matrix` allocations
//! in every layer, the scalar ikj matmul, the platform libm `tanh`, and
//! `mc_samples` *separate* stochastic passes per uncertainty query. That
//! path no longer exists in the library (today even `predict` rides the
//! arena engine, the register-tiled GEMM, and the hermetic rational
//! tanh), so this bench carries a **frozen replica** of it —
//! [`FrozenSeedSurrogate`] — rebuilt from the trained model's own weights
//! and scalers. Comparing against the replica pins the baseline to the
//! pre-batching implementation; it cannot silently inherit engine
//! speedups. A startup cross-check asserts the replica agrees with the
//! live engine to within the documented 2.6e-8 tanh tolerance.
//!
//! Measured arms: the frozen single-query path (deterministic and
//! MC-dropout), the live engine's single-row path, and live fused batches
//! of 8/64/256 (deterministic) and 64 (MC). The headline numbers — gated
//! ≥ 5× by `scripts/verify.sh` — are the per-lookup speedups of live
//! batch 64 and batch 256 over the frozen single-query path.
//!
//! The binary also prints a canonical `digest 0x…` line folding the
//! deterministic batch outputs and one fused MC-dropout evaluation
//! (bit-exact). `scripts/verify.sh` runs this at `LE_POOL_THREADS` ∈
//! {1, 4, 7} and requires identical digests — the batch engine's
//! determinism contract (`le_nn::batch`) holds at any pool width.
//!
//! ```sh
//! cargo run --release -p le-bench --bin surrogate_batch -- --json
//! ```

use le_bench::timing::Harness;
use le_bench::{nano_dataset, nano_surrogate, BENCH_SEED};
use le_linalg::{Fnv, Rng};
use le_mdsim::nanoconfinement::NanoParams;
use le_nn::{Activation, Scaler};
use learning_everywhere::surrogate::NnSurrogate;
use std::time::Instant;

/// Frozen replica of the pre-batch-engine `NnSurrogate` query path, built
/// from a trained surrogate's weights and scalers. Faithful to the seed
/// implementation in every cost that mattered:
///
/// * a fresh activation buffer is allocated per layer per query (the old
///   `Matrix`-chaining `Dense::infer` path),
/// * the affine map is the scalar ikj loop with the exact-zero skip (the
///   sub-threshold `Matrix::matmul` small path — a 1-row query never
///   reached the blocked kernel),
/// * hidden activations call the platform libm `tanh`,
/// * `predict_with_uncertainty` runs `mc_samples` *separate* stochastic
///   passes, each drawing a fresh boxed dropout mask from a stateful RNG
///   (the old `Mlp::predict_mc` + `Dropout::forward` pair),
/// * mean/std use the seed's sum/sum-of-squares reduction.
struct FrozenSeedSurrogate {
    /// Per layer: natural-layout weights `(in, out)` flattened row-major,
    /// `(in_dim, out_dim)`, bias, and whether the activation is tanh.
    layers: Vec<(Vec<f64>, usize, usize, Vec<f64>, bool)>,
    drop_rate: f64,
    mc_samples: usize,
    x_scaler: Scaler,
    y_scaler: Scaler,
    mc_rng: Rng,
}

impl FrozenSeedSurrogate {
    fn new(s: &NnSurrogate, mc_seed: u64) -> Self {
        let layers = s
            .model()
            .layers()
            .iter()
            .map(|d| {
                (
                    d.w.as_slice().to_vec(),
                    d.w.rows(),
                    d.w.cols(),
                    d.b.clone(),
                    d.activation == Activation::Tanh,
                )
            })
            .collect();
        Self {
            layers,
            drop_rate: s.model().config().dropout,
            mc_samples: s.mc_samples(),
            x_scaler: s.x_scaler().clone(),
            y_scaler: s.y_scaler().clone(),
            mc_rng: Rng::new(mc_seed),
        }
    }

    /// One affine layer + activation, allocating the output like the old
    /// per-layer `Matrix` chain did.
    fn layer_forward(cur: &[f64], w: &[f64], out_dim: usize, b: &[f64], tanh: bool) -> Vec<f64> {
        let mut out = vec![0.0; out_dim];
        for (t, &a) in cur.iter().enumerate() {
            if a == 0.0 {
                continue; // the seed small-matmul exact-zero skip
            }
            let brow = &w[t * out_dim..(t + 1) * out_dim];
            for (o, &bv) in out.iter_mut().zip(brow.iter()) {
                *o += a * bv;
            }
        }
        for (o, &bias) in out.iter_mut().zip(b.iter()) {
            *o += bias;
        }
        if tanh {
            for o in out.iter_mut() {
                *o = o.tanh(); // libm, as the seed activation did
            }
        }
        out
    }

    /// The seed's deterministic `predict`: scale, layer chain, unscale.
    fn predict(&self, input: &[f64]) -> Vec<f64> {
        let mut cur = input.to_vec();
        self.x_scaler.transform_slice(&mut cur).expect("probe row");
        for (w, _in_dim, out_dim, b, tanh) in &self.layers {
            cur = Self::layer_forward(&cur, w, *out_dim, b, *tanh);
        }
        self.y_scaler
            .inverse_transform_slice(&mut cur)
            .expect("probe row");
        cur
    }

    /// The seed's `predict_with_uncertainty`: `mc_samples` separate
    /// stochastic passes, a fresh dropout mask drawn per hidden layer per
    /// pass from the stateful RNG.
    fn predict_with_uncertainty(&mut self, input: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut x = input.to_vec();
        self.x_scaler.transform_slice(&mut x).expect("probe row");
        let out_dim = self.layers[self.layers.len() - 1].2;
        let n = self.mc_samples;
        let keep = 1.0 - self.drop_rate;
        let scale = 1.0 / keep;
        let mut sums = vec![0.0; out_dim];
        let mut sq = vec![0.0; out_dim];
        let last = self.layers.len() - 1;
        for _ in 0..n {
            let mut cur = x.clone();
            for (l, (w, _in_dim, od, b, tanh)) in self.layers.iter().enumerate() {
                cur = Self::layer_forward(&cur, w, *od, b, *tanh);
                if l < last {
                    // The old Dropout::forward: a fresh mask matrix plus a
                    // hadamard product per pass.
                    let mut mask = vec![0.0; cur.len()];
                    for m in mask.iter_mut() {
                        *m = if self.mc_rng.bernoulli(keep) { scale } else { 0.0 };
                    }
                    for (v, &m) in cur.iter_mut().zip(mask.iter()) {
                        *v *= m;
                    }
                }
            }
            for (k, &v) in cur.iter().enumerate() {
                sums[k] += v;
                sq[k] += v * v;
            }
        }
        let nf = n as f64;
        let mut mean: Vec<f64> = sums.iter().map(|&s| s / nf).collect();
        let mut std: Vec<f64> = sq
            .iter()
            .zip(mean.iter())
            .map(|(&s, &m)| (((s - nf * m * m) / (nf - 1.0)).max(0.0)).sqrt())
            .collect();
        self.y_scaler
            .inverse_transform_slice(&mut mean)
            .expect("probe row");
        for (k, s) in std.iter_mut().enumerate() {
            *s = self.y_scaler.inverse_scale_std(k, *s);
        }
        (mean, std)
    }
}

fn main() {
    let harness = Harness::new();

    // E2 workload: train the nanoconfinement surrogate on a small labelled
    // sweep (identical fixture to E1's timing section).
    let (params, outputs) = nano_dataset(48, BENCH_SEED);
    let surrogate = nano_surrogate(&params, &outputs, 150, BENCH_SEED);
    let in_dim = surrogate.input_dim();
    let out_dim = surrogate.output_dim();
    let mut frozen = FrozenSeedSurrogate::new(&surrogate, BENCH_SEED ^ 0x5EED);

    // Probe set: 256 fresh parameter points (distinct rows, so batched
    // evaluation cannot cheat by caching one input).
    let mut rng = Rng::new(BENCH_SEED ^ 0xABCD);
    let probes: Vec<Vec<f64>> = (0..256)
        .map(|_| NanoParams::sample(&mut rng).to_features().to_vec())
        .collect();

    // The frozen replica must agree with the live engine up to the
    // documented rational-tanh tolerance (2.6e-8 per hidden unit) — if it
    // drifts, the baseline arm is no longer measuring the same function.
    for probe in probes.iter().take(8) {
        let old = frozen.predict(probe);
        let new = surrogate.predict(probe).expect("probe row");
        for (a, b) in old.iter().zip(new.iter()) {
            assert!(
                (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                "frozen replica diverged from live engine: {a} vs {b}"
            );
        }
    }

    // Determinism digest before any timed work: deterministic batch outputs
    // plus one fused MC-dropout evaluation at ordinals 0..64 on a fresh
    // clone (so bench iteration counts cannot shift the mask streams).
    let mut digest = Fnv::new();
    let det = surrogate.predict_batch(&probes[..64]).expect("probe rows");
    for row in &det {
        for &v in row {
            digest.f64(v);
        }
    }
    let mut mc_probe = surrogate.clone();
    let mc_rows: Vec<&[f64]> = probes[..64].iter().map(Vec::as_slice).collect();
    let fused = mc_probe
        .predict_with_uncertainty_rows(&mc_rows)
        .expect("probe rows");
    for p in &fused {
        for &v in p.mean.iter().chain(p.std.iter()) {
            digest.f64(v);
        }
    }

    // The frozen single-query path (the bench's baseline arms).
    let mut i = 0usize;
    let t_frozen_single = harness.bench("surrogate_batch/frozen_point/1", || {
        i = (i + 1) % probes.len();
        frozen.predict(&probes[i])[0]
    });
    let mut j = 0usize;
    let t_frozen_mc = harness.bench("surrogate_batch/frozen_mc_point/1", || {
        j = (j + 1) % probes.len();
        frozen.predict_with_uncertainty(&probes[j]).0[0]
    });

    // Live engine: single lookups vs fused batches, deterministic path.
    let mut point_out = vec![0.0; out_dim];
    let mut p = 0usize;
    let t_single = harness.bench("surrogate_batch/point/1", || {
        p = (p + 1) % probes.len();
        surrogate
            .predict_into(&probes[p], &mut point_out)
            .expect("probe row");
        point_out[0]
    });

    let mut per_lookup = Vec::new();
    for &batch in &[8usize, 64, 256] {
        let mut x = Vec::with_capacity(batch * in_dim);
        for row in &probes[..batch] {
            x.extend_from_slice(row);
        }
        let mut y = vec![0.0; batch * out_dim];
        let t_batch = harness.bench(&format!("surrogate_batch/batch/{batch}"), || {
            surrogate
                .predict_batch_into(&x, batch, &mut y)
                .expect("probe rows");
            y[0]
        });
        per_lookup.push((batch, t_batch / batch as f64));
    }

    // Fused MC-dropout path: the gate's cost, batched.
    let mut mc_batch = surrogate.clone();
    let t_mc_batch = harness.bench("surrogate_batch/mc_batch/64", || {
        mc_batch
            .predict_with_uncertainty_rows(&mc_rows)
            .expect("probe rows")
            .len()
    });

    // ---- Interleaved A/B rounds: the gated headline ratios. ----
    //
    // The harness arms above time each path in isolation, seconds apart;
    // on a busy host a frequency or scheduler shift between arms skews
    // their ratio by tens of percent. The gated numbers therefore come
    // from interleaved rounds: every round times the frozen path and the
    // batched paths back-to-back with fixed iteration counts, each ratio
    // is formed *within* its round (both sides see the same machine
    // state), and the reported speedup is the median of the per-round
    // ratios — a disturbed round shifts one sample, not the verdict.
    const ROUNDS: usize = 11; // odd → true median; preceded by one discarded warmup round
    const F_ITERS: usize = 384; // frozen deterministic lookups per round
    const B64_REPS: usize = 24; // batch-64 engine passes per round
    const B256_REPS: usize = 6; // batch-256 engine passes per round
    const FMC_ITERS: usize = 12; // frozen MC lookups per round
    const MC64_REPS: usize = 1; // fused MC batch-64 passes per round

    let mut x64 = Vec::with_capacity(64 * in_dim);
    for row in &probes[..64] {
        x64.extend_from_slice(row);
    }
    let mut x256 = Vec::with_capacity(256 * in_dim);
    for row in &probes[..256] {
        x256.extend_from_slice(row);
    }
    let mut y64 = vec![0.0; 64 * out_dim];
    let mut y256 = vec![0.0; 256 * out_dim];

    let (mut t_fro, mut t_b64, mut t_b256, mut t_fmc, mut t_m64) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut r64, mut r256, mut rmc) = (Vec::new(), Vec::new(), Vec::new());
    let mut sink = 0.0f64;
    let (mut fi, mut fj) = (0usize, 0usize);
    for round in 0..=ROUNDS {
        let t = Instant::now();
        for _ in 0..F_ITERS {
            fi = (fi + 1) % probes.len();
            sink += frozen.predict(&probes[fi])[0];
        }
        let fro = t.elapsed().as_secs_f64() / F_ITERS as f64;

        let t = Instant::now();
        for _ in 0..B64_REPS {
            surrogate
                .predict_batch_into(&x64, 64, &mut y64)
                .expect("probe rows");
            sink += y64[0];
        }
        let b64 = t.elapsed().as_secs_f64() / (B64_REPS * 64) as f64;

        let t = Instant::now();
        for _ in 0..B256_REPS {
            surrogate
                .predict_batch_into(&x256, 256, &mut y256)
                .expect("probe rows");
            sink += y256[0];
        }
        let b256 = t.elapsed().as_secs_f64() / (B256_REPS * 256) as f64;

        let t = Instant::now();
        for _ in 0..FMC_ITERS {
            fj = (fj + 1) % probes.len();
            sink += frozen.predict_with_uncertainty(&probes[fj]).0[0];
        }
        let fmc = t.elapsed().as_secs_f64() / FMC_ITERS as f64;

        let t = Instant::now();
        for _ in 0..MC64_REPS {
            sink += mc_batch
                .predict_with_uncertainty_rows(&mc_rows)
                .expect("probe rows")[0]
                .mean[0];
        }
        let m64 = t.elapsed().as_secs_f64() / (MC64_REPS * 64) as f64;

        if round == 0 {
            continue; // warmup: pools spun up, arenas sized, caches warm
        }
        t_fro.push(fro);
        t_b64.push(b64);
        t_b256.push(b256);
        t_fmc.push(fmc);
        t_m64.push(m64);
        r64.push(fro / b64);
        r256.push(fro / b256);
        rmc.push(fmc / m64);
    }
    std::hint::black_box(sink);

    // Per-lookup medians land in the BENCH json next to the harness arms,
    // so the committed document itself shows the frozen-vs-batched gap.
    let i_fro = harness.record("surrogate_batch/interleaved/frozen_point/1", &t_fro, F_ITERS);
    let i_b64 = harness.record("surrogate_batch/interleaved/batch/64", &t_b64, B64_REPS * 64);
    let i_b256 = harness.record("surrogate_batch/interleaved/batch/256", &t_b256, B256_REPS * 256);
    let i_fmc = harness.record("surrogate_batch/interleaved/frozen_mc_point/1", &t_fmc, FMC_ITERS);
    let i_m64 = harness.record("surrogate_batch/interleaved/mc_batch/64", &t_m64, MC64_REPS * 64);

    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };

    println!();
    println!("frozen single-query path: {t_frozen_single:.3e}s det, {t_frozen_mc:.3e}s mc");
    for &(batch, per) in &per_lookup {
        println!(
            "per-lookup at batch {batch}: {:.3e}s ({:.1}x vs frozen single, {:.1}x vs live single {:.3e}s)",
            per,
            t_frozen_single / per,
            t_single / per,
            t_single
        );
    }
    println!(
        "mc per-lookup at batch 64: {:.3e}s ({:.1}x vs frozen single {:.3e}s)",
        t_mc_batch / 64.0,
        t_frozen_mc / (t_mc_batch / 64.0),
        t_frozen_mc
    );
    println!(
        "interleaved ({ROUNDS} rounds): frozen {i_fro:.3e}s det / {i_fmc:.3e}s mc; \
         per-lookup batch64 {i_b64:.3e}s, batch256 {i_b256:.3e}s, mc_batch64 {i_m64:.3e}s"
    );
    // Machine-checked by scripts/verify.sh (≥ 5× acceptance at 64 and 256):
    // medians of the per-round interleaved ratios.
    println!("single_vs_batch64_ratio {:.2}", med(&mut r64));
    println!("single_vs_batch256_ratio {:.2}", med(&mut r256));
    println!("mc_single_vs_batch64_ratio {:.2}", med(&mut rmc));
    println!("digest 0x{:016x}", digest.finish());

    harness.finish("surrogate_batch");
}
