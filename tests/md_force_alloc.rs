//! Pins the MD force call allocation-free: once warm, a cell-list rebuild
//! plus `compute_forces_with` must not touch the heap, on the single-cell
//! all-pairs path (a `campaign_md`-sized system) or on the stencil path
//! with two force groups, whose pool dispatch runs on the workers at
//! `LE_POOL_THREADS` > 1. `scripts/verify.sh` runs this binary at
//! `LE_POOL_THREADS=1`, 4 and 7.
//!
//! A counting global allocator sees every allocation on every thread, so
//! this binary holds a single test: a concurrently running test would
//! count too.

#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use le_linalg::Rng;
use le_mdsim::celllist::CellList;
use le_mdsim::forces::{compute_forces_with, ForceField, ForceScratch};
use le_mdsim::system::{SlabBox, Species, System};

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

/// A seeded system of `n_each` ions per species in an `l × l × h` box.
fn system(l: f64, h: f64, n_each: usize, seed: u64) -> System {
    let mut sys = System::new(SlabBox::new(l, l, h).expect("valid box"));
    let mut rng = Rng::new(seed);
    for (valency, diameter) in [(2, 0.6), (-1, 0.5), (0, 0.7)] {
        sys.insert_species(
            Species {
                valency,
                diameter,
                mass: 1.0,
            },
            n_each,
            1.0,
            &mut rng,
        )
        .expect("species fits");
    }
    sys
}

/// `steps` force+rebuild steps; positions drift a little between steps
/// (wrapped into the box) so every rebuild re-bins moved particles.
fn run_steps(
    sys: &mut System,
    ff: &ForceField,
    cells: &mut CellList,
    scratch: &mut ForceScratch,
    steps: usize,
) -> f64 {
    let mut energy = 0.0;
    for step in 0..steps {
        for (i, p) in sys.pos.iter_mut().enumerate() {
            let shift = 0.01 * (((i + step) % 7) as f64 - 3.0);
            p[0] += shift;
            p[1] -= shift;
            sys.bbox.wrap(p);
        }
        cells.rebuild(&sys.pos);
        energy += compute_forces_with(sys, ff, cells, scratch);
    }
    energy
}

#[test]
fn warm_force_and_rebuild_steps_allocate_nothing() {
    // Every pool thread records its first trace event (which registers its
    // journal ring) here: each of `threads` tasks holds its thread at the
    // barrier until all threads have claimed one.
    let pool = le_pool::Pool::global();
    let barrier = Barrier::new(pool.threads());
    pool.par_for_each(pool.threads(), |_| {
        barrier.wait();
    });

    let ff = ForceField {
        kappa: 1.1,
        ..Default::default()
    };
    // 3 × 12 ions in a 2.5 nm box: one cell, the all-pairs path.
    // 3 × 100 in a 12.5 nm cube: 3 bins per axis, two force groups.
    for (l, h, n_each) in [(2.5, 3.0, 12), (12.5, 12.5, 100)] {
        let mut sys = system(l, h, n_each, 41);
        let bin = 1.15 * ff.max_cutoff(0.7);
        let mut cells = CellList::build(sys.bbox, bin, &sys.pos);
        let mut scratch = ForceScratch::new();
        run_steps(&mut sys, &ff, &mut cells, &mut scratch, 3);

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let energy = run_steps(&mut sys, &ff, &mut cells, &mut scratch, 20);
        let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;

        assert!(energy.is_finite(), "{l} nm box: energy {energy}");
        assert_eq!(
            allocated,
            0,
            "{l} nm box ({} cells): 20 warm force+rebuild steps allocated {allocated} times",
            cells.shape().0 * cells.shape().1 * cells.shape().2
        );
    }
}
