//! The hermetic, seeded load generator.
//!
//! Modeled on the cached-context trick of the azure-openai-benchmark
//! generator: payloads are synthesized **once** into a shared pool and
//! every request references a contiguous row range of that pool, so the
//! submit path reuses cached payloads instead of allocating fresh ones.
//! Arrival times, tenant assignment, and request sizes are drawn from
//! stateless [`Rng::substream`]s of one seed, making the whole schedule a
//! pure function of the configuration: deterministic per seed, identical
//! at any thread count (generation never touches the worker pool), and
//! different seeds produce different streams.
//!
//! The generated [`Workload`] carries *logical* arrival timestamps. In
//! open-loop mode the server uses them for admission accounting and
//! deadline-triggered batching — they are never compared against a wall
//! clock, which is what keeps a serve run bit-replayable.

use le_linalg::{Fnv, Rng};
use learning_everywhere::{LeError, Result};

/// The arrival process of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Poisson arrivals: exponential inter-arrival gaps at `rate`
    /// requests per logical second.
    Poisson {
        /// Mean arrival rate (requests / logical second).
        rate: f64,
    },
    /// A fixed inter-arrival gap (deterministic pacing).
    Uniform {
        /// Gap between consecutive requests (logical seconds).
        interval: f64,
    },
}

/// One weighted request-size class (rows per request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeClass {
    /// Rows (engine queries) per request in this class.
    pub rows: usize,
    /// Relative selection weight.
    pub weight: f64,
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Master seed; every stream below is a substream of it.
    pub seed: u64,
    /// Number of requests to schedule.
    pub requests: usize,
    /// Input dimensionality of each payload row.
    pub input_dim: usize,
    /// Payload component range (uniform per component).
    pub domain: (f64, f64),
    /// Rows in the shared cached payload pool.
    pub payload_pool: usize,
    /// Per-tenant selection weights; `tenants.len()` is the tenant count.
    pub tenants: Vec<f64>,
    /// Request-size distribution.
    pub sizes: Vec<SizeClass>,
    /// Arrival process.
    pub arrival: Arrival,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            requests: 1024,
            input_dim: 4,
            domain: (-1.0, 1.0),
            payload_pool: 512,
            tenants: vec![1.0],
            sizes: vec![SizeClass {
                rows: 1,
                weight: 1.0,
            }],
            arrival: Arrival::Poisson { rate: 1000.0 },
        }
    }
}

/// One scheduled request: global sequence number, tenant, logical arrival
/// time, and the payload-pool row range it references.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Global sequence number (== index in [`Workload::specs`]).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Logical arrival time (seconds since campaign start).
    pub arrival: f64,
    /// First payload row.
    pub row_start: usize,
    /// Number of payload rows (engine queries) in the request.
    pub rows: usize,
}

/// A generated schedule plus its cached payload pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Flat payload pool: `payload_pool × input_dim`, row-major.
    pub pool: Vec<f64>,
    /// Components per payload row.
    pub input_dim: usize,
    /// Tenant count (`max(spec.tenant) + 1` by construction).
    pub tenants: usize,
    /// The schedule, in sequence (= arrival) order.
    pub specs: Vec<RequestSpec>,
}

impl Workload {
    /// Payload row `i` of the pool.
    pub fn row(&self, i: usize) -> &[f64] {
        let lo = i * self.input_dim;
        &self.pool[lo..lo + self.input_dim]
    }

    /// Total engine queries (rows) across the whole schedule.
    pub fn total_rows(&self) -> usize {
        self.specs.iter().map(|s| s.rows).sum()
    }

    /// FNV-1a digest of the full schedule + payload pool: the bit-exact
    /// identity of the generated stream (pinned by tests to guard
    /// against constant-stream or thread-dependent regressions).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.input_dim as u64);
        h.u64(self.tenants as u64);
        for &v in &self.pool {
            h.f64(v);
        }
        for s in &self.specs {
            h.u64(s.seq);
            h.u64(s.tenant as u64);
            h.f64(s.arrival);
            h.u64(s.row_start as u64);
            h.u64(s.rows as u64);
        }
        h.finish()
    }
}

/// Generate a seeded workload. Fails on degenerate configurations
/// (empty distributions, non-positive weights/rates, a payload pool
/// smaller than the largest request).
pub fn generate(cfg: &LoadConfig) -> Result<Workload> {
    if cfg.input_dim == 0 {
        return Err(LeError::InvalidConfig("input_dim must be positive".into()));
    }
    if cfg.tenants.is_empty() || cfg.tenants.iter().any(|&w| !(w > 0.0) || !w.is_finite()) {
        return Err(LeError::InvalidConfig(
            "tenant weights must be a non-empty list of positive finite values".into(),
        ));
    }
    if cfg.sizes.is_empty()
        || cfg
            .sizes
            .iter()
            .any(|s| s.rows == 0 || !(s.weight > 0.0) || !s.weight.is_finite())
    {
        return Err(LeError::InvalidConfig(
            "size classes must be non-empty with positive rows and weights".into(),
        ));
    }
    let max_rows = cfg.sizes.iter().map(|s| s.rows).max().unwrap_or(1);
    if cfg.payload_pool < max_rows {
        return Err(LeError::InvalidConfig(format!(
            "payload pool ({}) smaller than the largest request ({max_rows} rows)",
            cfg.payload_pool
        )));
    }
    if !(cfg.domain.0 < cfg.domain.1) {
        return Err(LeError::InvalidConfig("empty payload domain".into()));
    }
    match cfg.arrival {
        Arrival::Poisson { rate } => {
            if !(rate > 0.0) || !rate.is_finite() {
                return Err(LeError::InvalidConfig("arrival rate must be positive".into()));
            }
        }
        Arrival::Uniform { interval } => {
            if !(interval > 0.0) || !interval.is_finite() {
                return Err(LeError::InvalidConfig(
                    "arrival interval must be positive".into(),
                ));
            }
        }
    }

    // One stateless substream per decision kind: the streams cannot
    // alias, and adding a new decision kind never perturbs the others.
    let mut pool_rng = Rng::substream(cfg.seed, 0);
    let mut arrival_rng = Rng::substream(cfg.seed, 1);
    let mut tenant_rng = Rng::substream(cfg.seed, 2);
    let mut size_rng = Rng::substream(cfg.seed, 3);
    let mut offset_rng = Rng::substream(cfg.seed, 4);

    let mut pool = Vec::with_capacity(cfg.payload_pool * cfg.input_dim);
    for _ in 0..cfg.payload_pool * cfg.input_dim {
        pool.push(pool_rng.uniform_in(cfg.domain.0, cfg.domain.1));
    }

    let tenant_weights = &cfg.tenants;
    let size_weights: Vec<f64> = cfg.sizes.iter().map(|s| s.weight).collect();
    let mut specs = Vec::with_capacity(cfg.requests);
    let mut t = 0.0f64;
    for seq in 0..cfg.requests {
        t += match cfg.arrival {
            Arrival::Poisson { rate } => arrival_rng.exponential(rate),
            Arrival::Uniform { interval } => interval,
        };
        let tenant = tenant_rng.categorical(tenant_weights);
        let rows = cfg.sizes[size_rng.categorical(&size_weights)].rows;
        let row_start = offset_rng.below(cfg.payload_pool - rows + 1);
        specs.push(RequestSpec {
            seq: seq as u64,
            tenant,
            arrival: t,
            row_start,
            rows,
        });
    }
    Ok(Workload {
        pool,
        input_dim: cfg.input_dim,
        tenants: cfg.tenants.len(),
        specs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> LoadConfig {
        LoadConfig {
            seed,
            requests: 500,
            input_dim: 3,
            domain: (-2.0, 2.0),
            payload_pool: 64,
            tenants: vec![0.6, 0.3, 0.1],
            sizes: vec![
                SizeClass { rows: 1, weight: 0.5 },
                SizeClass { rows: 4, weight: 0.3 },
                SizeClass { rows: 16, weight: 0.2 },
            ],
            arrival: Arrival::Poisson { rate: 2000.0 },
        }
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let a = generate(&cfg(7)).unwrap();
        let b = generate(&cfg(7)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_produce_different_streams() {
        // Guards against a constant-stream regression: both the arrival
        // stream and the payload pool must move with the seed.
        let a = generate(&cfg(7)).unwrap();
        let b = generate(&cfg(8)).unwrap();
        assert_ne!(a.digest(), b.digest());
        let arrivals_a: Vec<f64> = a.specs.iter().map(|s| s.arrival).collect();
        let arrivals_b: Vec<f64> = b.specs.iter().map(|s| s.arrival).collect();
        assert_ne!(arrivals_a, arrivals_b);
        assert_ne!(a.pool, b.pool);
    }

    #[test]
    fn schedule_digest_is_pinned_and_pool_independent() {
        // The committed digest for this exact configuration. The
        // generator never touches the worker pool, so scripts/verify.sh
        // re-runs this test at LE_POOL_THREADS=1/4/7: any divergence —
        // across thread counts, platforms, or an accidental generator
        // edit — lands here.
        let w = generate(&cfg(42)).unwrap();
        assert_eq!(w.digest(), 0x377edd50f277f10b, "got 0x{:016x}", w.digest());
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_finite() {
        let w = generate(&cfg(11)).unwrap();
        let mut prev = 0.0;
        for s in &w.specs {
            assert!(s.arrival.is_finite());
            assert!(s.arrival > prev, "arrival times must advance");
            prev = s.arrival;
        }
    }

    #[test]
    fn sizes_and_tenants_respect_the_configuration() {
        let c = cfg(13);
        let w = generate(&c).unwrap();
        let legal: Vec<usize> = c.sizes.iter().map(|s| s.rows).collect();
        let mut seen_sizes = std::collections::BTreeSet::new();
        let mut seen_tenants = std::collections::BTreeSet::new();
        for s in &w.specs {
            assert!(legal.contains(&s.rows));
            assert!(s.tenant < c.tenants.len());
            assert!(s.row_start + s.rows <= c.payload_pool);
            seen_sizes.insert(s.rows);
            seen_tenants.insert(s.tenant);
        }
        // With 500 draws every class and tenant should appear.
        assert_eq!(seen_sizes.len(), legal.len());
        assert_eq!(seen_tenants.len(), c.tenants.len());
    }

    #[test]
    fn uniform_arrival_is_an_exact_grid() {
        let mut c = cfg(17);
        c.arrival = Arrival::Uniform { interval: 0.25 };
        c.requests = 8;
        let w = generate(&c).unwrap();
        for (i, s) in w.specs.iter().enumerate() {
            le_linalg::assert_close!(s.arrival, 0.25 * (i + 1) as f64, 1e-12);
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let ok = cfg(1);
        for bad in [
            LoadConfig { input_dim: 0, ..ok.clone() },
            LoadConfig { tenants: vec![], ..ok.clone() },
            LoadConfig { tenants: vec![1.0, -1.0], ..ok.clone() },
            LoadConfig { sizes: vec![], ..ok.clone() },
            LoadConfig {
                sizes: vec![SizeClass { rows: 0, weight: 1.0 }],
                ..ok.clone()
            },
            LoadConfig { payload_pool: 4, ..ok.clone() },
            LoadConfig { domain: (1.0, 1.0), ..ok.clone() },
            LoadConfig {
                arrival: Arrival::Poisson { rate: 0.0 },
                ..ok.clone()
            },
            LoadConfig {
                arrival: Arrival::Uniform { interval: -1.0 },
                ..ok.clone()
            },
        ] {
            assert!(matches!(
                generate(&bad),
                Err(learning_everywhere::LeError::InvalidConfig(_))
            ));
        }
    }
}
