//! Task and workload model.

use le_linalg::Rng;

use crate::{Result, SchedError};

/// The two classes of work in an MLaroundHPC campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// A surrogate lookup — orders of magnitude shorter.
    Learnt,
    /// A full simulation.
    Unlearnt,
}

/// One unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Stable id (also the arrival order).
    pub id: usize,
    /// Class.
    pub class: TaskClass,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Service time (seconds).
    pub service: f64,
}

/// Workload generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Total tasks.
    pub n_tasks: usize,
    /// Mean inter-arrival time (exponential).
    pub mean_interarrival: f64,
    /// Mean service time of an *unlearnt* (simulation) task.
    pub sim_service: f64,
    /// Speedup factor of learnt tasks (service = sim_service / factor);
    /// the paper's example is 10⁵.
    pub learnt_speedup: f64,
    /// Learnt fraction at the start of the campaign.
    pub learnt_fraction_start: f64,
    /// Learnt fraction at the end (ramps linearly in task index — as the
    /// surrogate trains, more requests are served by lookup).
    pub learnt_fraction_end: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            n_tasks: 2000,
            mean_interarrival: 0.05,
            sim_service: 10.0,
            learnt_speedup: 1e5,
            learnt_fraction_start: 0.0,
            learnt_fraction_end: 0.95,
        }
    }
}

impl WorkloadConfig {
    fn validate(&self) -> Result<()> {
        if self.n_tasks == 0 {
            return Err(SchedError::InvalidConfig("n_tasks must be > 0".into()));
        }
        if self.mean_interarrival <= 0.0 || self.sim_service <= 0.0 || self.learnt_speedup < 1.0 {
            return Err(SchedError::InvalidConfig(
                "times must be positive, speedup ≥ 1".into(),
            ));
        }
        for f in [self.learnt_fraction_start, self.learnt_fraction_end] {
            if !(0.0..=1.0).contains(&f) {
                return Err(SchedError::InvalidConfig(format!(
                    "learnt fraction {f} not in [0,1]"
                )));
            }
        }
        Ok(())
    }
}

/// A generated task stream, sorted by arrival time.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Tasks in arrival order.
    pub tasks: Vec<Task>,
}

impl Workload {
    /// Generate a stochastic workload: Poisson arrivals, exponential
    /// service times, class drawn with a linearly ramping learnt fraction.
    pub fn generate(cfg: &WorkloadConfig, seed: u64) -> Result<Self> {
        cfg.validate()?;
        let mut rng = Rng::new(seed);
        let mut tasks = Vec::with_capacity(cfg.n_tasks);
        let mut t = 0.0;
        for id in 0..cfg.n_tasks {
            t += rng.exponential(1.0 / cfg.mean_interarrival);
            let progress = id as f64 / cfg.n_tasks.max(1) as f64;
            let learnt_p = cfg.learnt_fraction_start
                + (cfg.learnt_fraction_end - cfg.learnt_fraction_start) * progress;
            let class = if rng.bernoulli(learnt_p) {
                TaskClass::Learnt
            } else {
                TaskClass::Unlearnt
            };
            let mean_service = match class {
                TaskClass::Learnt => cfg.sim_service / cfg.learnt_speedup,
                TaskClass::Unlearnt => cfg.sim_service,
            };
            tasks.push(Task {
                id,
                class,
                arrival: t,
                service: rng.exponential(1.0 / mean_service),
            });
        }
        Ok(Self { tasks })
    }

    /// Total service demand (sum of service times).
    pub fn total_service(&self) -> f64 {
        self.tasks.iter().map(|t| t.service).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Workload::generate(
            &WorkloadConfig {
                n_tasks: 0,
                ..Default::default()
            },
            1
        )
        .is_err());
        assert!(Workload::generate(
            &WorkloadConfig {
                learnt_speedup: 0.5,
                ..Default::default()
            },
            1
        )
        .is_err());
        assert!(Workload::generate(
            &WorkloadConfig {
                learnt_fraction_end: 1.5,
                ..Default::default()
            },
            1
        )
        .is_err());
    }

    #[test]
    fn arrivals_are_sorted_and_positive() {
        let w = Workload::generate(&WorkloadConfig::default(), 2).unwrap();
        assert_eq!(w.tasks.len(), 2000);
        assert!(w.tasks.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert!(w.tasks.iter().all(|t| t.arrival > 0.0 && t.service > 0.0));
    }

    #[test]
    fn learnt_fraction_ramps() {
        let w = Workload::generate(
            &WorkloadConfig {
                n_tasks: 4000,
                learnt_fraction_start: 0.0,
                learnt_fraction_end: 1.0,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let first_half = &w.tasks[..2000];
        let second_half = &w.tasks[2000..];
        let frac = |ts: &[Task]| {
            ts.iter().filter(|t| t.class == TaskClass::Learnt).count() as f64 / ts.len() as f64
        };
        assert!(
            frac(second_half) > frac(first_half) + 0.3,
            "learnt fraction must ramp: {} -> {}",
            frac(first_half),
            frac(second_half)
        );
    }

    #[test]
    fn learnt_tasks_are_tiny() {
        let cfg = WorkloadConfig {
            learnt_fraction_start: 0.5,
            learnt_fraction_end: 0.5,
            ..Default::default()
        };
        let w = Workload::generate(&cfg, 4).unwrap();
        let mean_of = |class: TaskClass| {
            let v: Vec<f64> = w
                .tasks
                .iter()
                .filter(|t| t.class == class)
                .map(|t| t.service)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let ratio = mean_of(TaskClass::Unlearnt) / mean_of(TaskClass::Learnt);
        assert!(
            ratio > 1e4,
            "service ratio {ratio} should be near the configured 1e5"
        );
    }

    #[test]
    fn mean_interarrival_matches() {
        let w = Workload::generate(
            &WorkloadConfig {
                n_tasks: 20_000,
                mean_interarrival: 0.1,
                ..Default::default()
            },
            5,
        )
        .unwrap();
        let total = w.tasks.last().unwrap().arrival;
        let mean = total / 20_000.0;
        assert!((mean - 0.1).abs() < 0.01, "mean interarrival {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = WorkloadConfig::default();
        let a = Workload::generate(&cfg, 7).unwrap();
        let b = Workload::generate(&cfg, 7).unwrap();
        assert_eq!(a.tasks, b.tasks);
    }
}
