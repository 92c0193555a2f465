//! Two-level synthetic population: one "state" partitioned into "counties",
//! wired as a stochastic block model — contacts are dense within a county
//! and sparse across counties. This is the (scaled-down) analogue of the
//! synthetic-information populations DEFSI builds on: detailed enough that
//! *county-level* dynamics exist, while surveillance only observes the
//! state-level aggregate.

use le_linalg::Rng;

use crate::graph::Graph;
use crate::{NetError, Result};

/// Configuration of the synthetic population.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// People per county.
    pub county_sizes: Vec<usize>,
    /// Mean within-county contacts per person.
    pub mean_degree_within: f64,
    /// Mean cross-county contacts per person.
    pub mean_degree_across: f64,
}

impl PopulationConfig {
    /// A small state of `n_counties` equal counties.
    pub fn uniform(n_counties: usize, county_size: usize) -> Self {
        Self {
            county_sizes: vec![county_size; n_counties],
            mean_degree_within: 8.0,
            mean_degree_across: 1.0,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.county_sizes.is_empty() {
            return Err(NetError::InvalidConfig("no counties".into()));
        }
        if self.county_sizes.iter().any(|&s| s < 2) {
            return Err(NetError::InvalidConfig(
                "county sizes must be at least 2".into(),
            ));
        }
        if self.mean_degree_within < 0.0 || self.mean_degree_across < 0.0 {
            return Err(NetError::InvalidConfig("negative mean degree".into()));
        }
        Ok(())
    }
}

/// The generated population: contact network + county labels.
#[derive(Debug, Clone)]
pub struct Population {
    /// Contact network over all residents of the state.
    pub contacts: Graph,
    /// County index of each person.
    pub county: Vec<u16>,
    /// Number of counties.
    pub n_counties: usize,
}

impl Population {
    /// Generate a population from `config` with the given seed.
    pub fn generate(config: &PopulationConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let mut rng = Rng::new(seed);
        let n_counties = config.county_sizes.len();
        let n: usize = config.county_sizes.iter().sum();
        // County labels, people numbered county by county.
        let mut county = Vec::with_capacity(n);
        let mut county_start = Vec::with_capacity(n_counties + 1);
        county_start.push(0usize);
        let mut acc = 0usize;
        for (c, &size) in config.county_sizes.iter().enumerate() {
            county.extend(std::iter::repeat_n(c as u16, size));
            acc += size;
            county_start.push(acc);
        }
        let mut edges: Vec<(u32, u32)> = Vec::new();
        // Within-county: ER with p = mean_degree / (size - 1).
        for (c, &size) in config.county_sizes.iter().enumerate() {
            let p = (config.mean_degree_within / (size.max(2) - 1) as f64).min(1.0);
            let sub = Graph::erdos_renyi(size, p, &mut rng);
            let base = county_start[c] as u32;
            for v in 0..size {
                for &w in sub.neighbors(v) {
                    if (w as usize) > v {
                        edges.push((base + v as u32, base + w));
                    }
                }
            }
        }
        // Across-county: each person draws Poisson(mean_across) contacts in
        // other counties.
        if n_counties > 1 && config.mean_degree_across > 0.0 {
            for i in 0..n {
                let k = rng.poisson(config.mean_degree_across / 2.0);
                for _ in 0..k {
                    // Pick a random person in a different county.
                    loop {
                        let j = rng.below(n);
                        if county[j] != county[i] {
                            edges.push((i as u32, j as u32));
                            break;
                        }
                    }
                }
            }
        }
        Ok(Self {
            contacts: Graph::from_edges(n, &edges),
            county,
            n_counties,
        })
    }

    /// Total population size.
    pub fn size(&self) -> usize {
        self.county.len()
    }

    /// Population of one county.
    pub fn county_size(&self, c: usize) -> usize {
        self.county.iter().filter(|&&x| x as usize == c).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Population::generate(&PopulationConfig::uniform(0, 100), 1).is_err());
        let mut bad = PopulationConfig::uniform(2, 100);
        bad.county_sizes[0] = 1;
        assert!(Population::generate(&bad, 1).is_err());
        let mut neg = PopulationConfig::uniform(2, 100);
        neg.mean_degree_across = -1.0;
        assert!(Population::generate(&neg, 1).is_err());
    }

    #[test]
    fn sizes_and_labels() {
        let cfg = PopulationConfig {
            county_sizes: vec![100, 200, 50],
            mean_degree_within: 6.0,
            mean_degree_across: 0.5,
        };
        let pop = Population::generate(&cfg, 7).unwrap();
        assert_eq!(pop.size(), 350);
        assert_eq!(pop.n_counties, 3);
        assert_eq!(pop.county_size(0), 100);
        assert_eq!(pop.county_size(1), 200);
        assert_eq!(pop.county_size(2), 50);
        // Labels are contiguous blocks.
        assert_eq!(pop.county[0], 0);
        assert_eq!(pop.county[99], 0);
        assert_eq!(pop.county[100], 1);
        assert_eq!(pop.county[349], 2);
    }

    #[test]
    fn mean_degree_near_target() {
        let cfg = PopulationConfig {
            county_sizes: vec![400; 4],
            mean_degree_within: 8.0,
            mean_degree_across: 1.0,
        };
        let pop = Population::generate(&cfg, 11).unwrap();
        let md = pop.contacts.mean_degree();
        assert!(
            (md - 9.0).abs() < 1.0,
            "mean degree {md} should be near 8 + 1 = 9"
        );
    }

    /// Fraction of edges that stay within a county.
    fn within_county_edge_fraction(pop: &Population) -> f64 {
        let mut within = 0usize;
        let mut total = 0usize;
        for v in 0..pop.contacts.n_nodes() {
            for &w in pop.contacts.neighbors(v) {
                if (w as usize) > v {
                    total += 1;
                    within += usize::from(pop.county[v] == pop.county[w as usize]);
                }
            }
        }
        within as f64 / total as f64
    }

    #[test]
    fn most_edges_stay_within_county() {
        let cfg = PopulationConfig {
            county_sizes: vec![300; 5],
            mean_degree_within: 8.0,
            mean_degree_across: 1.0,
        };
        let pop = Population::generate(&cfg, 13).unwrap();
        let frac = within_county_edge_fraction(&pop);
        assert!(
            frac > 0.8,
            "block structure: within fraction {frac} should be > 0.8"
        );
        assert!(frac < 1.0, "some cross-county edges must exist");
    }

    #[test]
    fn zero_cross_county_isolates_counties() {
        let cfg = PopulationConfig {
            county_sizes: vec![50; 3],
            mean_degree_within: 5.0,
            mean_degree_across: 0.0,
        };
        let pop = Population::generate(&cfg, 17).unwrap();
        assert_eq!(within_county_edge_fraction(&pop), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PopulationConfig::uniform(3, 100);
        let a = Population::generate(&cfg, 5).unwrap();
        let b = Population::generate(&cfg, 5).unwrap();
        assert_eq!(a.contacts.n_edges(), b.contacts.n_edges());
        let c = Population::generate(&cfg, 6).unwrap();
        assert_ne!(a.contacts.n_edges(), c.contacts.n_edges());
    }
}
