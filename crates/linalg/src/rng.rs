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

/// `2^53`, the number of distinct values [`Rng::uniform`] can return.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The uniform `f64` in `[0, 1)` that [`Rng::uniform`] makes of the raw
/// draw `u`: its top 53 bits scaled by `2^-53`, which is exact.
#[inline]
fn unit_f64(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / TWO_POW_53)
}

/// The integer threshold of a Bernoulli(`p`) trial: for every raw draw
/// `u`, `(u >> 11) < bernoulli_threshold(p)` holds exactly when
/// `unit_f64(u) < p`, so one integer compare decides every draw the way
/// [`Rng::bernoulli`] does.
///
/// Why it is exact: `unit_f64(u) = x · 2^-53` for the integer
/// `x = u >> 11`, and scaling by a power of two is exact, so the float
/// test is `x < p · 2^53`; for an integer `x` that is `x < ⌈p · 2^53⌉`.
/// The saturating cast maps `p ≤ 0` and NaN to 0 (never) and `p ≥ 1` to at
/// least `2^53` (always), matching the float compare at both ends.
pub fn bernoulli_threshold(p: f64) -> u64 {
    (p * TWO_POW_53).ceil() as u64
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

/// `L` independent xoshiro256** streams stepped in lockstep, their state
/// held lane-wise so one step of all `L` auto-vectorizes. Lane `l` yields
/// exactly the raw draws of the `l`-th generator it was built from, so
/// interleaving streams this way cannot move a bit of any one stream.
#[derive(Debug, Clone)]
pub struct XoshiroLanes<const L: usize> {
    s: [[u64; L]; 4],
}

impl<const L: usize> XoshiroLanes<L> {
    /// Lane `l` continues `rngs[l]`'s raw stream (a cached Gaussian, which
    /// raw draws never consume, is dropped).
    pub fn new(rngs: [Rng; L]) -> Self {
        let mut s = [[0u64; L]; 4];
        for (l, rng) in rngs.iter().enumerate() {
            for (w, lane) in s.iter_mut().enumerate() {
                lane[l] = rng.core.s[w];
            }
        }
        Self { s }
    }

    /// Fill `out` with the next `N` raw draws of every lane: `out[i][l]`
    /// is what the `i`-th further `next_u64` of stream `l` returns.
    ///
    /// The fixed trip count is what lets the compiler keep the lanes in
    /// vector registers: with a runtime-length buffer it unrolls the loop
    /// instead and leaves every lane scalar. Kept out of line so each `N`
    /// is compiled on its own.
    #[inline(never)]
    pub fn fill<const N: usize>(&mut self, out: &mut [[u64; L]; N]) {
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        for o in out.iter_mut() {
            for l in 0..L {
                // `x · 5` and `· 9` as shift-adds (the same values mod
                // 2^64): AVX2 has no 64-bit lane multiply.
                let x = s1[l].wrapping_add(s1[l] << 2).rotate_left(7);
                o[l] = x.wrapping_add(x << 3);
                let t = s1[l] << 17;
                s2[l] ^= s0[l];
                s3[l] ^= s1[l];
                s1[l] ^= s2[l];
                s0[l] ^= s3[l];
                s2[l] ^= t;
                s3[l] = s3[l].rotate_left(45);
            }
        }
        self.s = [s0, s1, s2, s3];
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
        unit_f64(self.next_u64())
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
    fn integer_bernoulli_agrees_with_the_float_compare() {
        // Every `p` below has a threshold strictly inside (0, 2^53], so
        // draws at `t - 1` and `t` sit on both sides of the boundary.
        let ps = [
            1.0,
            0.5,                      // p · 2^53 an integer (2^52)
            0.9,                      // an integer too: every p in [0.5, 1) is
            1.0 - 1.0 / TWO_POW_53,   // the largest p below 1: 2^53 - 1
            0.1,                      // p · 2^53 not an integer
            0.7,
            1.0 / TWO_POW_53,         // the smallest p above 0
            3.0 / 7.0,
        ];
        for p in ps {
            let t = bernoulli_threshold(p);
            assert!((1..=1 << 53).contains(&t), "p {p}: threshold {t}");
            for x in [t - 1, t, t + 1, 0, (1 << 53) - 1] {
                if x >= 1 << 53 {
                    continue;
                }
                let u = (x << 11) | 0x7FF; // low bits are discarded by both
                assert_eq!(x < t, unit_f64(u) < p, "p {p}: x {x} threshold {t}");
            }
            assert!(unit_f64((t - 1) << 11) < p, "p {p}: t - 1 must pass");
            if t < 1 << 53 {
                assert!(unit_f64(t << 11) >= p, "p {p}: t must fail");
            }
        }
        assert_eq!(bernoulli_threshold(1.0), 1 << 53);
        assert_eq!(bernoulli_threshold(0.5), 1 << 52);
        assert_eq!(bernoulli_threshold(1.0 - 1.0 / TWO_POW_53), (1 << 53) - 1);
        assert_eq!(bernoulli_threshold(0.9), (0.9 * TWO_POW_53) as u64);
        assert!((0.1 * TWO_POW_53).fract() > 0.0);
        assert_eq!(bernoulli_threshold(0.1), (0.1 * TWO_POW_53) as u64 + 1);
        assert_eq!(bernoulli_threshold(0.0), 0);
        assert_eq!(bernoulli_threshold(-0.5), 0);
        assert_eq!(bernoulli_threshold(f64::NAN), 0);
        // Seeded draws: the two trials consume the same stream and agree
        // on every draw, for fixed and random probabilities.
        let mut pick = Rng::new(53);
        for case in 0..64u64 {
            let p = if (case as usize) < ps.len() { ps[case as usize] } else { pick.uniform() };
            let t = bernoulli_threshold(p);
            let (mut a, mut b) = (Rng::new(case), Rng::new(case));
            for _ in 0..2000 {
                assert_eq!(a.bernoulli(p), (b.next_u64() >> 11) < t, "p {p}");
            }
        }
    }

    #[test]
    fn lanes_replay_each_stream_exactly() {
        let streams = || std::array::from_fn::<Rng, 4, _>(|l| Rng::substream(0xD1CE, l as u64 * 7));
        let mut lanes = XoshiroLanes::new(streams());
        let mut singles = streams();
        let mut buf = [[0u64; 4]; 37];
        let mut one = [[0u64; 4]; 1];
        for _ in 0..5 {
            lanes.fill(&mut buf);
            lanes.fill(&mut one);
            for draw in buf.iter().chain(&one) {
                for (l, rng) in singles.iter_mut().enumerate() {
                    assert_eq!(draw[l], rng.next_u64(), "lane {l}");
                }
            }
        }
    }

    #[test]
    fn bernoulli_edges() {
        let mut rng = Rng::new(47);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }
}
