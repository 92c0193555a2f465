//! Deterministic, splittable pseudo-random number generation.
//!
//! The workspace requires bit-for-bit reproducibility across runs and across
//! thread counts, so every stochastic component takes an explicit `u64` seed
//! and derives independent streams with [`Rng::split`] rather than sharing a
//! generator. The generator is xoshiro256** (Blackman & Vigna), seeded
//! through SplitMix64 as its authors recommend.

/// The SplitMix64 golden-gamma increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a stateless, well-mixed 64-bit hash of `z`
/// (`SplitMix64::new(z).next_u64()`). Seeded schedules hash
/// `(seed, salt, index)` through it so every decision is a pure function of
/// its coordinates.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 — used to expand a single `u64` seed into xoshiro state and to
/// derive independent child seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new SplitMix64 stream from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let z = self.state;
        self.state = z.wrapping_add(GAMMA);
        splitmix64(z)
    }
}

/// xoshiro256** generator: fast, high quality, 256-bit state.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 so that low-entropy seeds (0, 1, 2, …) still give
    /// well-mixed state.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The workspace RNG: xoshiro256** plus the sampling methods the simulators
/// and the ML stack need. One cached Gaussian keeps Box–Muller at one
/// transcendental pair per two samples.
#[derive(Debug, Clone)]
pub struct Rng {
    core: Xoshiro256,
    cached_gauss: Option<f64>,
}

impl Rng {
    /// Deterministic generator from a single seed.
    pub fn new(seed: u64) -> Self {
        Self {
            core: Xoshiro256::new(seed),
            cached_gauss: None,
        }
    }

    /// The `ordinal`-th independent substream of `seed`, derived statelessly:
    /// `Rng::substream(s, i)` always denotes the same generator, no matter
    /// how many other substreams were drawn before it. This is the anchor of
    /// the batch engines' determinism contract — consumer `i` of a seed gets
    /// stream `i` whether the consumers run one at a time or fused into one
    /// batched call. The ordinal is spread by the SplitMix64 golden-gamma
    /// multiply before seeding, so adjacent ordinals land in well-separated
    /// states.
    pub fn substream(seed: u64, ordinal: u64) -> Rng {
        let mut sm =
            SplitMix64::new(seed ^ ordinal.wrapping_mul(GAMMA));
        Rng::new(sm.next_u64())
    }

    /// Derive an independent child generator. Parallel code should split one
    /// child per task *before* distributing work so results do not depend on
    /// scheduling.
    pub fn split(&mut self) -> Rng {
        // Mix a fresh draw through SplitMix64 so parent and child streams do
        // not overlap in practice.
        let mut sm = SplitMix64::new(self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF);
        Rng::new(sm.next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.core.next_u64()
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform_in requires lo <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method to avoid modulo bias.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as usize;
            }
            // Rejection zone for exact uniformity.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Standard normal via Box–Muller with caching.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(g) = self.cached_gauss.take() {
            return g;
        }
        // Avoid ln(0).
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_gauss = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.gaussian()
    }

    /// Exponential with rate `lambda` (mean `1/lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        -u.ln() / lambda
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Binomial(n, p) sample. For the small `n` used by the epidemic
    /// simulator a direct sum of Bernoulli trials is fastest and exact.
    pub fn binomial(&mut self, n: usize, p: f64) -> usize {
        if p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // For large n use a normal approximation guarded to the valid range;
        // the epidemic simulator only hits this for whole-population draws.
        if n > 256 {
            let mean = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            let x = self.normal(mean, sd).round();
            return x.clamp(0.0, n as f64) as usize;
        }
        (0..n).filter(|_| self.bernoulli(p)).count()
    }

    /// Poisson(lambda) via Knuth for small lambda, normal approximation for
    /// large.
    pub fn poisson(&mut self, lambda: f64) -> usize {
        debug_assert!(lambda >= 0.0);
        if lambda == 0.0 { // lint:allow(float-hygiene): exact degenerate-distribution fast path
            return 0;
        }
        if lambda > 64.0 {
            let x = self.normal(lambda, lambda.sqrt()).round();
            return x.max(0.0) as usize;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (k ≤ n), order randomized.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        // Partial Fisher–Yates over an index vector.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Vector of `n` uniform values in `[lo, hi)`.
    pub fn uniform_vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.uniform_in(lo, hi)).collect()
    }

    /// Vector of `n` N(0, std²) values.
    pub fn gaussian_vec(&mut self, n: usize, std: f64) -> Vec<f64> {
        (0..n).map(|_| self.gaussian() * std).collect()
    }

    /// Sample an index according to unnormalized non-negative weights.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        debug_assert!(!weights.is_empty());
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0, "categorical needs positive total weight");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn split_streams_are_independent_of_parent_continuation() {
        let mut parent = Rng::new(7);
        let mut child = parent.split();
        let child_first = child.next_u64();
        // Re-derive: same parent state sequence gives the same child.
        let mut parent2 = Rng::new(7);
        let mut child2 = parent2.split();
        assert_eq!(child_first, child2.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var {var}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let skew = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(skew.abs() < 0.05, "skew {skew}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng::new(17);
        let n = 10usize;
        let mut counts = vec![0usize; n];
        let draws = 100_000;
        for _ in 0..draws {
            let k = rng.below(n);
            assert!(k < n);
            counts[k] += 1;
        }
        let expected = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.07 * expected,
                "bucket {i} count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn binomial_mean_small_and_large_n() {
        let mut rng = Rng::new(19);
        for &(n, p) in &[(20usize, 0.3f64), (1000, 0.05)] {
            let draws = 20_000;
            let total: usize = (0..draws).map(|_| rng.binomial(n, p)).sum();
            let mean = total as f64 / draws as f64;
            let expected = n as f64 * p;
            assert!(
                (mean - expected).abs() < 0.05 * expected + 0.1,
                "binomial({n},{p}) mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn binomial_edge_probabilities() {
        let mut rng = Rng::new(23);
        assert_eq!(rng.binomial(100, 0.0), 0);
        assert_eq!(rng.binomial(100, 1.0), 100);
        assert_eq!(rng.binomial(500, 0.0), 0);
        assert_eq!(rng.binomial(500, 1.0), 500);
    }

    #[test]
    fn poisson_mean() {
        let mut rng = Rng::new(29);
        for &lambda in &[0.5f64, 4.0, 100.0] {
            let draws = 20_000;
            let total: usize = (0..draws).map(|_| rng.poisson(lambda)).sum();
            let mean = total as f64 / draws as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda + 0.05,
                "poisson({lambda}) mean {mean}"
            );
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(31);
        let lambda = 2.5;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / lambda).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(37);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle should move something");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::new(41);
        let idx = rng.sample_indices(50, 20);
        assert_eq!(idx.len(), 20);
        let mut seen = idx.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 20, "indices must be distinct");
        assert!(idx.iter().all(|&i| i < 50));
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = Rng::new(43);
        let weights = [1.0, 3.0, 6.0];
        let draws = 60_000;
        let mut counts = [0usize; 3];
        for _ in 0..draws {
            counts[rng.categorical(&weights)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for i in 0..3 {
            let expected = draws as f64 * weights[i] / total;
            assert!(
                (counts[i] as f64 - expected).abs() < 0.05 * expected + 10.0,
                "bucket {i}: {} vs {expected}",
                counts[i]
            );
        }
    }

    #[test]
    fn bernoulli_edges() {
        let mut rng = Rng::new(47);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }
}
