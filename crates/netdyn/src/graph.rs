//! Compact undirected graph in CSR (compressed sparse row) form, plus the
//! random-graph constructions used to build synthetic contact networks.

use le_linalg::Rng;

/// An undirected graph stored in CSR form. Each undirected edge appears in
/// both endpoints' adjacency lists.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Graph {
    /// Build from an edge list over `n` nodes. Self-loops are dropped and
    /// duplicate edges are kept at most once.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        // Deduplicate as normalized (min,max) pairs.
        let mut norm: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(a, b)| a != b)
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        norm.sort_unstable();
        norm.dedup();
        let mut degree = vec![0usize; n];
        for &(a, b) in &norm {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut acc = 0;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(a, b) in &norm {
            targets[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            targets[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        Self { offsets, targets }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of node `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.n_nodes() == 0 {
            return 0.0;
        }
        self.targets.len() as f64 / self.n_nodes() as f64
    }

    /// Erdős–Rényi G(n, p) via geometric edge skipping (O(E) expected).
    pub fn erdos_renyi(n: usize, p: f64, rng: &mut Rng) -> Self {
        assert!((0.0..=1.0).contains(&p));
        let mut edges = Vec::new();
        if p > 0.0 && n > 1 {
            // Iterate candidate pairs (i,j), i<j, skipping geometrically.
            let log_q = (1.0 - p).ln();
            let total = n as u64 * (n as u64 - 1) / 2;
            let mut k: u64 = 0;
            loop {
                // Skip ~Geometric(p) candidates.
                let u = rng.uniform().max(f64::MIN_POSITIVE);
                let skip = if p >= 1.0 { 0 } else { (u.ln() / log_q).floor() as u64 };
                k = k.saturating_add(skip);
                if k >= total {
                    break;
                }
                // Map linear index k to pair (i, j).
                let (i, j) = pair_from_index(k, n as u64);
                edges.push((i as u32, j as u32));
                k += 1;
            }
        }
        Self::from_edges(n, &edges)
    }
}

/// Map a linear index `k` over upper-triangle pairs of `n` items to (i, j).
fn pair_from_index(k: u64, n: u64) -> (u64, u64) {
    // Row i satisfies: S(i) <= k < S(i+1) where S(i) = i*n - i*(i+1)/2.
    // Solve by the quadratic formula then fix up.
    let kf = k as f64;
    let nf = n as f64;
    let mut i = ((2.0 * nf - 1.0 - ((2.0 * nf - 1.0) * (2.0 * nf - 1.0) - 8.0 * kf).sqrt()) / 2.0)
        .floor() as u64;
    // Fix up numerical error.
    let row_start = |i: u64| i * n - i * (i + 1) / 2;
    while row_start(i + 1) <= k {
        i += 1;
    }
    while row_start(i) > k {
        i -= 1;
    }
    let j = i + 1 + (k - row_start(i));
    (i, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_dedup_and_no_self_loops() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (1, 1), (2, 3), (2, 3)]);
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut rng = Rng::new(1);
        let g = Graph::erdos_renyi(200, 0.05, &mut rng);
        for v in 0..g.n_nodes() {
            for &w in g.neighbors(v) {
                assert!(
                    g.neighbors(w as usize).contains(&(v as u32)),
                    "edge ({v},{w}) not symmetric"
                );
            }
        }
    }

    #[test]
    fn pair_from_index_enumerates_all_pairs() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for k in 0..(n * (n - 1) / 2) {
            let (i, j) = pair_from_index(k, n);
            assert!(i < j && j < n, "bad pair ({i},{j}) at k={k}");
            assert!(seen.insert((i, j)), "pair ({i},{j}) duplicated");
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut rng = Rng::new(2);
        let n = 500;
        let p = 0.02;
        let g = Graph::erdos_renyi(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.n_edges() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn erdos_renyi_edge_probabilities_extremes() {
        let mut rng = Rng::new(3);
        assert_eq!(Graph::erdos_renyi(50, 0.0, &mut rng).n_edges(), 0);
        let full = Graph::erdos_renyi(20, 1.0, &mut rng);
        assert_eq!(full.n_edges(), 20 * 19 / 2);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g1 = Graph::erdos_renyi(100, 0.05, &mut Rng::new(42));
        let g2 = Graph::erdos_renyi(100, 0.05, &mut Rng::new(42));
        assert_eq!(g1.n_edges(), g2.n_edges());
        for v in 0..100 {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }
}
