//! Linked-cell neighbor search in CSR (counting-sort) layout.
//!
//! Divides the slab into cells at least `cutoff` wide; each particle only
//! interacts with particles in its own and the 26 neighboring cells,
//! making force evaluation O(N) instead of O(N²). Cells are periodic in
//! x/y and clamped in z (walls).
//!
//! Particle membership is stored as a CSR array (`starts` offsets into a
//! cell-sorted `items` array) rather than the classic head/next linked
//! chains. A CSR position is a *slot*: slot `p` holds particle `items[p]`,
//! and a cell's occupants are a contiguous slot range. Pair traversal is a
//! walk over *rows* — one origin slot against a contiguous range of
//! partner slots ([`CellList::for_each_row_in_task`]) — which is what the
//! row-batched force kernel in `forces.rs` consumes.

use std::ops::Range;

use crate::system::{SlabBox, Vec3};

/// Cell decomposition of a [`SlabBox`].
#[derive(Debug, Clone)]
pub struct CellList {
    nx: usize,
    ny: usize,
    nz: usize,
    /// CSR offsets: cell `c` holds `items[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Particle indices sorted by cell (ascending index within a cell).
    items: Vec<usize>,
    /// Rebuild scratch: each particle's cell and the counting-sort fill
    /// cursor, kept so [`CellList::rebuild`] allocates nothing.
    cell_ids: Vec<usize>,
    cursor: Vec<usize>,
    bbox: SlabBox,
}

impl CellList {
    /// Build a cell list for `positions` with the given interaction cutoff.
    /// A box under 3 cutoffs on any axis gets a single cell: the half
    /// stencil would alias cells there, and the one cell's intra-cell walk
    /// is the O(N²) all-pairs loop — still correct.
    pub fn build(bbox: SlabBox, cutoff: f64, positions: &[Vec3]) -> Self {
        debug_assert!(cutoff > 0.0);
        let axis = |len: f64| (len / cutoff).floor().max(1.0) as usize;
        let (mut nx, mut ny, mut nz) = (axis(bbox.lx), axis(bbox.ly), axis(bbox.h));
        if nx < 3 || ny < 3 || nz < 3 {
            (nx, ny, nz) = (1, 1, 1);
        }
        let mut list = Self {
            nx,
            ny,
            nz,
            starts: Vec::new(),
            items: Vec::new(),
            cell_ids: Vec::new(),
            cursor: Vec::new(),
            bbox,
        };
        list.rebuild(positions);
        list
    }

    /// Re-bin `positions` on the same grid, reusing every buffer: after
    /// the first build at a given particle count this allocates nothing.
    pub fn rebuild(&mut self, positions: &[Vec3]) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let n_cells = nx * ny * nz;
        // Counting sort: count per cell, prefix-sum, then a forward fill so
        // indices stay ascending within each cell (deterministic order).
        // Binning multiplies by precomputed reciprocals — three fdivs per
        // particle would otherwise dominate the build.
        let sx = 1.0 / self.bbox.lx;
        let sy = 1.0 / self.bbox.ly;
        let sz = 1.0 / self.bbox.h;
        self.cell_ids.clear();
        self.cell_ids.extend(positions.iter().map(|r| {
            let fx = (r[0] * sx).rem_euclid(1.0);
            let fy = (r[1] * sy).rem_euclid(1.0);
            let fz = (r[2] * sz).clamp(0.0, 1.0 - 1e-12);
            let ix = ((fx * nx as f64) as usize).min(nx - 1);
            let iy = ((fy * ny as f64) as usize).min(ny - 1);
            let iz = ((fz * nz as f64) as usize).min(nz - 1);
            (iz * ny + iy) * nx + ix
        }));
        self.starts.clear();
        self.starts.resize(n_cells + 1, 0);
        for &c in &self.cell_ids {
            self.starts[c + 1] += 1;
        }
        for c in 0..n_cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts);
        self.items.clear();
        self.items.resize(positions.len(), 0);
        for (i, &c) in self.cell_ids.iter().enumerate() {
            self.items[self.cursor[c]] = i;
            self.cursor[c] += 1;
        }
    }

    /// Grid shape `(nx, ny, nz)`; `(1, 1, 1)` for a box under 3 cutoffs on
    /// any axis.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Number of particles the list was built over.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the list holds no particles.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The particle in each slot: slot `p` holds particle `items()[p]`.
    pub fn items(&self) -> &[usize] {
        &self.items
    }

    /// Gather per-particle values into slot order (`out[p] ==
    /// src[items[p]]`), reusing `out`'s allocation. A traversal that
    /// streams this snapshot reads partners contiguously instead of
    /// gathering through the index indirection on every candidate pair —
    /// the caller must re-gather whenever the values change (the cell list
    /// itself may be stale by up to the rebuild interval; the snapshot must
    /// never be).
    pub fn gather<T: Copy>(&self, src: &[T], out: &mut Vec<T>) {
        out.clear();
        out.extend(self.items.iter().map(|&i| src[i]));
    }

    /// One grid cell for the whole box: the all-pairs walk.
    #[inline]
    fn single(&self) -> bool {
        self.starts.len() == 2
    }

    /// Minimum-image displacement `ri - rj` for in-box coordinates:
    /// compare-and-shift on the periodic axes instead of a divide+round,
    /// exact for any `|Δ| < L` (which box-wrapped positions guarantee).
    #[inline(always)]
    pub(crate) fn disp(&self, ri: &Vec3, rj: &Vec3) -> Vec3 {
        let mut dx = ri[0] - rj[0];
        let hx = 0.5 * self.bbox.lx;
        if dx > hx {
            dx -= self.bbox.lx;
        } else if dx < -hx {
            dx += self.bbox.lx;
        }
        let mut dy = ri[1] - rj[1];
        let hy = 0.5 * self.bbox.ly;
        if dy > hy {
            dy -= self.bbox.ly;
        } else if dy < -hy {
            dy += self.bbox.ly;
        }
        [dx, dy, ri[2] - rj[2]]
    }

    /// Number of independent pair-visit tasks. On the stencil path each
    /// task is one `(iy, iz)` cell row (every unordered pair belongs to
    /// exactly one origin row); the single-cell grid uses strided slices of
    /// the all-pairs outer loop. A pure function of the grid and particle
    /// count — never of the thread count — so any grouping of tasks
    /// reproduces the same pair partition.
    pub fn n_pair_tasks(&self) -> usize {
        if self.single() {
            if self.items.len() < 64 {
                1
            } else {
                8
            }
        } else {
            self.ny * self.nz
        }
    }

    /// Visit the pair rows whose origin falls in task `task` (see
    /// [`CellList::n_pair_tasks`]): each `row(o, partners)` pairs origin
    /// slot `o` with every slot in `partners`, a contiguous range. Tasks
    /// partition the pairs: over all tasks each unordered pair is visited
    /// exactly once. The visit order is a pure function of the grid and
    /// the build order — never of the thread count — which is all the
    /// deterministic force decomposition needs.
    pub fn for_each_row_in_task(&self, task: usize, mut row: impl FnMut(usize, Range<usize>)) {
        if self.single() {
            // The one cell's intra-cell walk, strided over the tasks.
            let n = self.items.len();
            let stride = self.n_pair_tasks();
            let mut o = task;
            while o < n {
                row(o, o + 1..n);
                o += stride;
            }
            return;
        }
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let iz = task / ny;
        let iy = task % ny;
        // The half stencil (the cell itself plus 13 forward neighbors, so
        // every cell pair is visited once) groups into the +x cell of the
        // origin row plus four neighbor x-rows (y+1 on this plane; y-1, y,
        // y+1 on the z+1 plane). Within each neighbor row the dx = -1, 0, 1
        // cells are consecutive, so away from the x boundary they form ONE
        // contiguous CSR span — one row of ~3 cells instead of three short
        // ones. Offsets are ±1 and the grid is ≥3 cells per axis here, so
        // compare-and-shift wraps exactly like `rem_euclid` without its
        // integer divisions.
        let wrap_y = |jy: i64| -> usize {
            if jy < 0 {
                (jy + ny as i64) as usize
            } else if jy >= ny as i64 {
                (jy - ny as i64) as usize
            } else {
                jy as usize
            }
        };
        let mut span_bases = [0usize; 4];
        span_bases[0] = (iz * ny + wrap_y(iy as i64 + 1)) * nx;
        let mut n_spans = 1;
        if iz + 1 < nz {
            // walls: no z wrap — the top row has no z+1 spans
            for dy in [-1i64, 0, 1] {
                span_bases[n_spans] = ((iz + 1) * ny + wrap_y(iy as i64 + dy)) * nx;
                n_spans += 1;
            }
        }
        let row_base = (iz * ny + iy) * nx;
        for ix in 0..nx {
            let c = row_base + ix;
            let (a0, a1) = (self.starts[c], self.starts[c + 1]);
            if a0 == a1 {
                continue;
            }
            // Intra-cell pairs.
            for o in a0..a1 {
                row(o, o + 1..a1);
            }
            // All origin slots against the CSR span covering cells
            // `c_lo..c_hi` of a neighbor row.
            let mut span = |c_lo: usize, c_hi: usize| {
                let (b0, b1) = (self.starts[c_lo], self.starts[c_hi]);
                if b0 == b1 {
                    return;
                }
                for o in a0..a1 {
                    row(o, b0..b1);
                }
            };
            // +x neighbor in the origin row (wrapped).
            let jx = if ix + 1 == nx { 0 } else { ix + 1 };
            span(row_base + jx, row_base + jx + 1);
            // The four neighbor rows as dx = -1..=1 spans; boundary columns
            // split into two wrapped runs (dx order preserved).
            for &sb in &span_bases[..n_spans] {
                if ix == 0 {
                    span(sb + nx - 1, sb + nx);
                    span(sb, sb + 2);
                } else if ix + 1 == nx {
                    span(sb + nx - 2, sb + nx);
                    span(sb, sb + 1);
                } else {
                    span(sb + ix - 1, sb + ix + 2);
                }
            }
        }
    }

    /// Visit every unordered particle pair within neighboring cells as
    /// `f(i, j, pos[i] - pos[j], r²)` (minimum image), in the row walk's
    /// order. A pair-at-a-time adapter over
    /// [`CellList::for_each_row_in_task`] for benches and tests; the force
    /// loop consumes the rows directly.
    pub fn for_each_pair_dist(&self, pos: &[Vec3], mut f: impl FnMut(usize, usize, Vec3, f64)) {
        let mut gathered = Vec::new();
        self.gather(pos, &mut gathered);
        for task in 0..self.n_pair_tasks() {
            self.for_each_row_in_task(task, |o, partners| {
                for p in partners {
                    let d = self.disp(&gathered[o], &gathered[p]);
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    f(self.items[o], self.items[p], d, r2);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use le_linalg::Rng;
    use std::collections::HashSet;

    fn random_positions(n: usize, bbox: &SlabBox, seed: u64) -> Vec<Vec3> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                [
                    rng.uniform_in(0.0, bbox.lx),
                    rng.uniform_in(0.0, bbox.ly),
                    rng.uniform_in(1e-3, bbox.h - 1e-3),
                ]
            })
            .collect()
    }

    /// Brute-force neighbor pairs within cutoff (minimum image).
    fn brute_pairs(bbox: &SlabBox, cutoff: f64, pos: &[Vec3]) -> HashSet<(usize, usize)> {
        let mut out = HashSet::new();
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                let d = bbox.min_image(&pos[i], &pos[j]);
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= cutoff * cutoff {
                    out.insert((i, j));
                }
            }
        }
        out
    }

    fn cell_pairs(bbox: SlabBox, cutoff: f64, pos: &[Vec3]) -> (HashSet<(usize, usize)>, usize) {
        let cl = CellList::build(bbox, cutoff, pos);
        let mut within = HashSet::new();
        let mut visited = 0usize;
        cl.for_each_pair_dist(pos, |i, j, _, r2| {
            visited += 1;
            if r2 <= cutoff * cutoff {
                within.insert((i.min(j), i.max(j)));
            }
        });
        (within, visited)
    }

    #[test]
    fn finds_all_pairs_within_cutoff_large_box() {
        let bbox = SlabBox::new(12.0, 12.0, 9.0).unwrap();
        let pos = random_positions(300, &bbox, 11);
        let cutoff = 2.0;
        let brute = brute_pairs(&bbox, cutoff, &pos);
        let (cell, _) = cell_pairs(bbox, cutoff, &pos);
        assert_eq!(cell, brute, "cell list must find exactly the brute-force pairs");
    }

    #[test]
    fn finds_all_pairs_small_box_fallback() {
        // Box smaller than 3 cells per axis triggers the fallback path.
        let bbox = SlabBox::new(3.0, 3.0, 2.0).unwrap();
        let pos = random_positions(60, &bbox, 12);
        let cutoff = 1.5;
        let brute = brute_pairs(&bbox, cutoff, &pos);
        let (cell, _) = cell_pairs(bbox, cutoff, &pos);
        assert_eq!(cell, brute);
    }

    #[test]
    fn no_pair_visited_twice_large_grid() {
        let bbox = SlabBox::new(15.0, 15.0, 12.0).unwrap();
        let pos = random_positions(200, &bbox, 13);
        let cl = CellList::build(bbox, 2.0, &pos);
        let mut seen = HashSet::new();
        cl.for_each_pair_dist(&pos, |i, j, _, _| {
            assert_ne!(i, j, "self pair");
            let key = (i.min(j), i.max(j));
            assert!(seen.insert(key), "pair {key:?} visited twice");
        });
    }

    #[test]
    fn visited_pairs_scale_sub_quadratically() {
        let bbox = SlabBox::new(30.0, 30.0, 30.0).unwrap();
        let n = 1000;
        let pos = random_positions(n, &bbox, 14);
        let (_, visited) = cell_pairs(bbox, 2.0, &pos);
        let all_pairs = n * (n - 1) / 2;
        assert!(
            visited < all_pairs / 10,
            "cell list visited {visited} of {all_pairs} pairs — not O(N)"
        );
    }

    #[test]
    fn empty_and_single_particle() {
        let bbox = SlabBox::new(5.0, 5.0, 5.0).unwrap();
        let cl = CellList::build(bbox, 1.0, &[]);
        let mut count = 0;
        cl.for_each_pair_dist(&[], |_, _, _, _| count += 1);
        assert_eq!(count, 0);
        let one = [[1.0, 1.0, 1.0]];
        let cl1 = CellList::build(bbox, 1.0, &one);
        cl1.for_each_pair_dist(&one, |_, _, _, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn task_walk_matches_min_image_and_brute_force() {
        for (dims, n, seed) in [((12.0, 12.0, 9.0), 250, 51u64), ((3.0, 3.0, 2.0), 70, 52)] {
            let bbox = SlabBox::new(dims.0, dims.1, dims.2).unwrap();
            let pos = random_positions(n, &bbox, seed);
            let cutoff = 1.5;
            let cl = CellList::build(bbox, cutoff, &pos);
            let mut gathered = Vec::new();
            cl.gather(&pos, &mut gathered);
            // Over all tasks each pair comes once, the slot displacement
            // equals SlabBox::min_image, and the pairs within the cutoff
            // are exactly the brute-force set.
            let mut seen = HashSet::new();
            let mut within = HashSet::new();
            for task in 0..cl.n_pair_tasks() {
                cl.for_each_row_in_task(task, |o, partners| {
                    for p in partners {
                        let (i, j) = (cl.items()[o], cl.items()[p]);
                        let key = (i.min(j), i.max(j));
                        assert!(seen.insert(key), "pair revisited");
                        let d = cl.disp(&gathered[o], &gathered[p]);
                        let m = bbox.min_image(&pos[i], &pos[j]);
                        for k in 0..3 {
                            assert!((d[k] - m[k]).abs() < 1e-12, "disp axis {k}");
                        }
                        let m2 = m[0] * m[0] + m[1] * m[1] + m[2] * m[2];
                        if m2 <= cutoff * cutoff {
                            within.insert(key);
                        }
                    }
                });
            }
            assert_eq!(within, brute_pairs(&bbox, cutoff, &pos));
        }
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_build() {
        let bbox = SlabBox::new(12.0, 12.0, 9.0).unwrap();
        let mut cl = CellList::build(bbox, 1.5, &random_positions(250, &bbox, 53));
        for (n, seed) in [(250, 54u64), (180, 55), (300, 56)] {
            let pos = random_positions(n, &bbox, seed);
            cl.rebuild(&pos);
            let fresh = CellList::build(bbox, 1.5, &pos);
            assert_eq!(cl.items(), fresh.items());
            assert_eq!(cl.starts, fresh.starts);
        }
    }

    #[test]
    fn boundary_positions_are_binned() {
        let bbox = SlabBox::new(5.0, 5.0, 5.0).unwrap();
        // Exactly on the edges — binning must not panic or index out of
        // range, and the wrap-around x pair must be found.
        let pos = vec![[0.05, 2.5, 2.5], [4.95, 2.5, 2.5], [5.0, 5.0, 5.0]];
        let cl = CellList::build(bbox, 1.0, &pos);
        let (nx, ny, nz) = cl.shape();
        assert_eq!((nx, ny, nz), (5, 5, 5));
        let mut found_wrap_pair = false;
        cl.for_each_pair_dist(&pos, |i, j, _, _| {
            if (i.min(j), i.max(j)) == (0, 1) {
                found_wrap_pair = true;
            }
        });
        assert!(
            found_wrap_pair,
            "periodic x neighbors (0.05 and 4.95) must be paired"
        );
    }
}
