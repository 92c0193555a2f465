//! Pins the training step allocation-free: once warm, a fused step of the
//! paper's 5→64→64→3 dropout net (forward with dropout, MSE gradient,
//! backward, clip, Adam) and the per-epoch validation pass must not touch
//! the heap, on a 32-row batch whose 64-wide products run on the pool
//! workers at `LE_POOL_THREADS` > 1, and on a ragged 13-row batch. Whole
//! fits of 2 and 8 epochs must allocate the same number of times, so an
//! epoch of `Trainer::fit` allocates nothing either. `scripts/verify.sh`
//! runs this binary at `LE_POOL_THREADS=1`, 4 and 7.
//!
//! A counting global allocator sees every allocation on every thread, so
//! this binary holds a single test: a concurrently running test would
//! count too.

#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use le_linalg::{Matrix, Rng};
use le_nn::optimizer::OptimizerState;
use le_nn::{loss, Mlp, MlpConfig, TrainArena, TrainConfig, Trainer};

/// Heap allocations (including reallocations) made by any thread.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting each allocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each call carries exactly the guarantees its caller gave;
// the only addition is a relaxed counter bump, which touches no memory the
// allocator hands out.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A seeded `(rows, 5) → (rows, 3)` regression set.
fn data(rows: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = Rng::new(seed);
    let x = Matrix::from_vec(rows, 5, (0..rows * 5).map(|_| rng.uniform_in(-1.0, 1.0)).collect()).expect("x");
    let y = Matrix::from_vec(rows, 3, (0..rows * 3).map(|i| (0.37 * i as f64).sin()).collect()).expect("y");
    (x, y)
}

/// `steps` training steps on `rows`-row batches, each followed by one
/// validation pass over `val`: what one batch and one epoch end of
/// `Trainer::fit` run. Returns the summed losses.
#[allow(clippy::too_many_arguments)]
fn steps(
    arena: &mut TrainArena,
    model: &mut Mlp,
    opt: &mut OptimizerState,
    rng: &mut Rng,
    (x, y): (&Matrix, &Matrix),
    (xv, yv): (&Matrix, &Matrix),
    rows: usize,
    steps: usize,
) -> f64 {
    let mut total = 0.0;
    for step in 0..steps {
        let r0 = (step * 7) % (x.rows() - rows);
        arena.input_mut(rows).copy_from_slice(&x.as_slice()[r0 * 5..(r0 + rows) * 5]);
        arena.forward(model, Some(rng)).expect("forward");
        total += arena.mse_grad(&y.as_slice()[r0 * 3..(r0 + rows) * 3]).expect("loss");
        arena.backward(model).expect("backward");
        arena.clip_grad_norm(10.0);
        opt.begin_step();
        arena.update(model, opt, 0);
        arena.input_mut(xv.rows()).copy_from_slice(xv.as_slice());
        total += loss::mse_value(arena.forward(model, None).expect("validation"), yv.as_slice()).expect("val loss");
    }
    total
}

/// Allocations made by one `Trainer::fit` of `epochs` epochs.
fn fit_allocations(x: &Matrix, y: &Matrix, epochs: usize) -> usize {
    let mut model = Mlp::new(MlpConfig::regression_with_dropout(&[5, 64, 64, 3], 0.1), &mut Rng::new(3)).expect("net");
    let trainer = Trainer::new(TrainConfig {
        epochs,
        patience: Some(1000),
        seed: 11,
        ..Default::default()
    });
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    trainer.fit(&mut model, x, y).expect("fit");
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_training_steps_and_validation_passes_allocate_nothing() {
    // Every pool thread records its first trace event (which registers its
    // journal ring) here: each of `threads` tasks holds its thread at the
    // barrier until all threads have claimed one.
    let pool = le_pool::Pool::global();
    let barrier = Barrier::new(pool.threads());
    pool.par_for_each(pool.threads(), |_| {
        barrier.wait();
    });

    let (x, y) = data(256, 41);
    let (xv, yv) = data(38, 42);
    let mut model = Mlp::new(MlpConfig::regression_with_dropout(&[5, 64, 64, 3], 0.1), &mut Rng::new(7)).expect("net");
    let mut opt = OptimizerState::new(1e-3, model.n_param_blocks());
    let mut arena = TrainArena::new(&model);
    let mut rng = Rng::new(9);
    for rows in [32, 13] {
        steps(&mut arena, &mut model, &mut opt, &mut rng, (&x, &y), (&xv, &yv), rows, 3);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let total = steps(&mut arena, &mut model, &mut opt, &mut rng, (&x, &y), (&xv, &yv), rows, 20);
        let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert!(total.is_finite(), "{rows}-row batches: losses {total}");
        assert_eq!(allocated, 0, "{rows}-row batches: 20 warm steps and validation passes allocated {allocated} times");
    }

    let (short, long) = (fit_allocations(&x, &y, 2), fit_allocations(&x, &y, 8));
    assert_eq!(short, long, "a fit of 8 epochs allocated {long} times, one of 2 epochs {short}");
}
