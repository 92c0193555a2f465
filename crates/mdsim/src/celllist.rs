//! Linked-cell neighbor search in CSR (counting-sort) layout.
//!
//! Divides the slab into cells at least `cutoff` wide; each particle only
//! interacts with particles in its own and the 26 neighboring cells,
//! making force evaluation O(N) instead of O(N²). Cells are periodic in
//! x/y and clamped in z (walls).
//!
//! Particle membership is stored as a CSR array (`starts` offsets into a
//! cell-sorted `items` array) rather than the classic head/next linked
//! chains: pair traversal then walks contiguous index slices instead of
//! chasing pointers, and a cell's occupants are available as a slice —
//! which is what lets [`CellList::for_each_pair_dist`] compute
//! displacements inline (branch-based minimum image, no divisions) and
//! what the row-parallel force decomposition in `forces.rs` builds on.

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
    bbox: SlabBox,
}

impl CellList {
    /// Build a cell list for `positions` with the given interaction cutoff.
    /// Falls back to a single cell per axis when the box is smaller than the
    /// cutoff (which degrades to the O(N²) all-pairs loop — still correct).
    pub fn build(bbox: SlabBox, cutoff: f64, positions: &[Vec3]) -> Self {
        debug_assert!(cutoff > 0.0);
        let nx = (bbox.lx / cutoff).floor().max(1.0) as usize;
        let ny = (bbox.ly / cutoff).floor().max(1.0) as usize;
        let nz = (bbox.h / cutoff).floor().max(1.0) as usize;
        let n_cells = nx * ny * nz;
        let mut list = Self {
            nx,
            ny,
            nz,
            starts: vec![0; n_cells + 1],
            items: vec![0; positions.len()],
            bbox,
        };
        // Counting sort: count per cell, prefix-sum, then a forward fill so
        // indices stay ascending within each cell (deterministic order).
        // Binning multiplies by precomputed reciprocals — three fdivs per
        // particle would otherwise dominate the build.
        let sx = 1.0 / bbox.lx;
        let sy = 1.0 / bbox.ly;
        let sz = 1.0 / bbox.h;
        let cell_ids: Vec<usize> = positions
            .iter()
            .map(|r| {
                let fx = (r[0] * sx).rem_euclid(1.0);
                let fy = (r[1] * sy).rem_euclid(1.0);
                let fz = (r[2] * sz).clamp(0.0, 1.0 - 1e-12);
                let ix = ((fx * nx as f64) as usize).min(nx - 1);
                let iy = ((fy * ny as f64) as usize).min(ny - 1);
                let iz = ((fz * nz as f64) as usize).min(nz - 1);
                (iz * ny + iy) * nx + ix
            })
            .collect();
        for &c in &cell_ids {
            list.starts[c + 1] += 1;
        }
        for c in 0..n_cells {
            list.starts[c + 1] += list.starts[c];
        }
        let mut cursor = list.starts.clone();
        for (i, &c) in cell_ids.iter().enumerate() {
            list.items[cursor[c]] = i;
            cursor[c] += 1;
        }
        list
    }

    /// Grid shape `(nx, ny, nz)`.
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

    /// Gather `pos` into cell-sorted order (`out[p] == pos[items[p]]`),
    /// reusing `out`'s allocation. A traversal that streams this snapshot
    /// reads positions contiguously instead of gathering through the index
    /// indirection on every candidate pair — the caller must re-gather
    /// whenever positions change (the cell list itself may be stale by up
    /// to the rebuild interval; the snapshot must never be).
    pub fn gather(&self, pos: &[Vec3], out: &mut Vec<Vec3>) {
        out.clear();
        out.extend(self.items.iter().map(|&i| pos[i]));
    }

    /// With fewer than 3 cells along an axis the half stencil would alias
    /// cells; such grids use the O(N²) fallback.
    #[inline]
    fn small(&self) -> bool {
        self.nx < 3 || self.ny < 3 || self.nz < 3
    }

    /// Minimum-image displacement `ri - rj` for in-box coordinates:
    /// compare-and-shift on the periodic axes instead of a divide+round,
    /// exact for any `|Δ| < L` (which box-wrapped positions guarantee).
    #[inline]
    fn disp(&self, ri: &Vec3, rj: &Vec3) -> Vec3 {
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
    /// exactly one origin row); small grids use strided slices of the
    /// all-pairs outer loop. A pure function of the grid and particle
    /// count — never of the thread count — so any grouping of tasks
    /// reproduces the same pair partition.
    pub fn n_pair_tasks(&self) -> usize {
        if self.small() {
            let n = self.items.len();
            if n < 64 {
                1
            } else {
                8
            }
        } else {
            self.ny * self.nz
        }
    }

    /// Visit every unordered particle pair whose origin falls in task
    /// `task` (see [`CellList::n_pair_tasks`]), passing the minimum-image
    /// displacement `pos[i] - pos[j]` and its squared norm. Tasks
    /// partition the pairs: over all tasks each unordered pair is visited
    /// exactly once. `gathered` is the cell-ordered position snapshot (see
    /// [`CellList::gather`]) that the stencil inner loops stream
    /// contiguously instead of indirecting through the item indices per
    /// candidate pair; `pos` is consulted only on the small-grid fallback
    /// (which ignores cells and takes an empty snapshot).
    pub fn for_each_pair_dist_in_task(
        &self,
        task: usize,
        pos: &[Vec3],
        gathered: &[Vec3],
        mut f: impl FnMut(usize, usize, Vec3, f64),
    ) {
        if self.small() {
            self.small_pairs_dist(task, pos, &mut f);
        } else {
            debug_assert_eq!(gathered.len(), self.items.len());
            self.stencil_pairs_dist(task, gathered, &mut f);
        }
    }

    /// Strided all-pairs slice of the small-grid fallback.
    fn small_pairs_dist(&self, task: usize, pos: &[Vec3], f: &mut impl FnMut(usize, usize, Vec3, f64)) {
        let n = self.items.len();
        let stride = self.n_pair_tasks();
        let mut i = task;
        while i < n {
            for j in i + 1..n {
                let d = self.disp(&pos[i], &pos[j]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                f(i, j, d, r2);
            }
            i += stride;
        }
    }

    /// Stencil-path pair walk for one origin row, fused: row → neighbor
    /// spans → zipped (index, position) slices, with the minimum image
    /// inlined (compare-and-shift on hoisted box half-widths, no
    /// divisions). The visit order is a pure function of the grid and the
    /// build order — never of the thread count — which is all the
    /// deterministic force decomposition needs.
    fn stencil_pairs_dist(
        &self,
        task: usize,
        gathered: &[Vec3],
        f: &mut impl FnMut(usize, usize, Vec3, f64),
    ) {
        let lx = self.bbox.lx;
        let hx = 0.5 * lx;
        let ly = self.bbox.ly;
        let hy = 0.5 * ly;
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let iz = task / ny;
        let iy = task % ny;
        // The half stencil (the cell itself plus 13 forward neighbors, so
        // every cell pair is visited once) groups into the +x cell of the
        // origin row plus
        // four neighbor x-rows (y+1 on this plane; y-1, y, y+1 on the z+1
        // plane). Within each neighbor row the dx = -1, 0, 1 cells are
        // consecutive, so away from the x boundary they form ONE contiguous
        // CSR span — merged inner loops run ~3 cells long instead of paying
        // loop setup and exit misprediction per near-empty cell. Offsets
        // are ±1 and the grid is ≥3 cells per axis here, so
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
        let mut emit = |i: usize, pi: Vec3, j: usize, pj: &Vec3| {
            let mut dx = pi[0] - pj[0];
            if dx > hx {
                dx -= lx;
            } else if dx < -hx {
                dx += lx;
            }
            let mut dy = pi[1] - pj[1];
            if dy > hy {
                dy -= ly;
            } else if dy < -hy {
                dy += ly;
            }
            let dz = pi[2] - pj[2];
            let r2 = dx * dx + dy * dy + dz * dz;
            f(i, j, [dx, dy, dz], r2);
        };
        let row_base = (iz * ny + iy) * nx;
        for ix in 0..nx {
            let c = row_base + ix;
            let (a0, a1) = (self.starts[c], self.starts[c + 1]);
            if a0 == a1 {
                continue;
            }
            let ia = &self.items[a0..a1];
            let pa = &gathered[a0..a1];
            // Intra-cell pairs.
            for (p, (&i, pi)) in ia.iter().zip(pa).enumerate() {
                for (&j, pj) in ia[p + 1..].iter().zip(&pa[p + 1..]) {
                    emit(i, *pi, j, pj);
                }
            }
            // All origin atoms against the CSR span covering cells
            // `c_lo..c_hi` of a neighbor row.
            let mut emit_span = |c_lo: usize, c_hi: usize| {
                let (b0, b1) = (self.starts[c_lo], self.starts[c_hi]);
                if b0 == b1 {
                    return;
                }
                let ib = &self.items[b0..b1];
                let pb = &gathered[b0..b1];
                for (&i, pi) in ia.iter().zip(pa) {
                    for (&j, pj) in ib.iter().zip(pb) {
                        emit(i, *pi, j, pj);
                    }
                }
            };
            // +x neighbor in the origin row (wrapped).
            let jx = if ix + 1 == nx { 0 } else { ix + 1 };
            emit_span(row_base + jx, row_base + jx + 1);
            // The four neighbor rows as dx = -1..=1 spans; boundary columns
            // split into two wrapped runs (dx order preserved).
            for &sb in &span_bases[..n_spans] {
                if ix == 0 {
                    emit_span(sb + nx - 1, sb + nx);
                    emit_span(sb, sb + 2);
                } else if ix + 1 == nx {
                    emit_span(sb + nx - 2, sb + nx);
                    emit_span(sb, sb + 1);
                } else {
                    emit_span(sb + ix - 1, sb + ix + 2);
                }
            }
        }
    }

    /// Visit every unordered particle pair within neighboring cells with
    /// its minimum-image displacement and squared distance — the fast path
    /// for force loops (no divisions, contiguous CSR slices). Gathers a
    /// cell-ordered position snapshot once and streams it.
    pub fn for_each_pair_dist(&self, pos: &[Vec3], mut f: impl FnMut(usize, usize, Vec3, f64)) {
        let mut gathered = Vec::new();
        if !self.small() {
            self.gather(pos, &mut gathered);
        }
        for task in 0..self.n_pair_tasks() {
            self.for_each_pair_dist_in_task(task, pos, &gathered, &mut f);
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
            // Over all tasks each pair comes once, the inline displacement
            // equals SlabBox::min_image, and the pairs within the cutoff
            // are exactly the brute-force set.
            let mut seen = HashSet::new();
            let mut within = HashSet::new();
            for task in 0..cl.n_pair_tasks() {
                cl.for_each_pair_dist_in_task(task, &pos, &gathered, |i, j, d, r2| {
                    let key = (i.min(j), i.max(j));
                    assert!(seen.insert(key), "pair revisited");
                    let m = bbox.min_image(&pos[i], &pos[j]);
                    for k in 0..3 {
                        assert!((d[k] - m[k]).abs() < 1e-12, "disp axis {k}");
                    }
                    let m2 = m[0] * m[0] + m[1] * m[1] + m[2] * m[2];
                    assert!((r2 - m2).abs() < 1e-12);
                    if m2 <= cutoff * cutoff {
                        within.insert(key);
                    }
                });
            }
            assert_eq!(within, brute_pairs(&bbox, cutoff, &pos));
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
