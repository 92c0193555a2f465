//! Queueing metrics computed from completion records.

use crate::task::TaskClass;

/// One finished task.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Class of the task.
    pub class: TaskClass,
    /// Arrival time.
    pub arrival: f64,
    /// Service start time.
    pub start: f64,
    /// Completion time.
    pub finish: f64,
}

impl Completion {
    /// Sojourn time (finish − arrival).
    pub fn latency(&self) -> f64 {
        self.finish - self.arrival
    }
}

/// Aggregate metrics of one simulation run.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// All completion records.
    pub completions: Vec<Completion>,
    /// Completed task count.
    pub n_completed: usize,
    /// Time the last event fired.
    pub makespan: f64,
    /// Sum of worker busy times.
    pub total_busy: f64,
    /// Mean worker utilization over the makespan.
    pub utilization: f64,
}

/// Bucket upper bounds (simulated time units) for the per-class latency
/// histograms exported through `le-obs`. Latencies are simulated-time
/// quantities, so the bucket counts are fully deterministic.
const LATENCY_BOUNDS: [f64; 7] = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];

impl Metrics {
    /// Build from raw records. As a side effect, every completion's sojourn
    /// time is recorded into the global `le-obs` histograms
    /// `sched.latency.learnt` / `sched.latency.unlearnt`, and
    /// `sched.completions` is incremented per task.
    pub fn from_completions(completions: Vec<Completion>, busy: &[f64], makespan: f64) -> Self {
        let learnt = le_obs::global().histogram("sched.latency.learnt", &LATENCY_BOUNDS);
        let unlearnt = le_obs::global().histogram("sched.latency.unlearnt", &LATENCY_BOUNDS);
        let completed = le_obs::global().counter("sched.completions");
        for c in &completions {
            match c.class {
                TaskClass::Learnt => learnt.record(c.latency()),
                TaskClass::Unlearnt => unlearnt.record(c.latency()),
            }
            completed.inc();
        }
        let total_busy: f64 = busy.iter().sum();
        let utilization = if makespan > 0.0 && !busy.is_empty() {
            total_busy / (makespan * busy.len() as f64)
        } else {
            0.0
        };
        Self {
            n_completed: completions.len(),
            completions,
            makespan,
            total_busy,
            utilization,
        }
    }

    /// Mean sojourn time of a class (`None` if the class never appeared).
    pub fn mean_latency(&self, class: TaskClass) -> Option<f64> {
        let v: Vec<f64> = self
            .completions
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.latency())
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Latency quantile of a class (`q` in [0, 1]).
    pub fn latency_quantile(&self, class: TaskClass, q: f64) -> Option<f64> {
        let mut v: Vec<f64> = self
            .completions
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.latency())
            .collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let pos = (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let completions = vec![
            Completion {
                class: TaskClass::Learnt,
                arrival: 0.0,
                start: 1.0,
                finish: 1.1,
            },
            Completion {
                class: TaskClass::Unlearnt,
                arrival: 0.0,
                start: 0.0,
                finish: 2.0,
            },
            Completion {
                class: TaskClass::Learnt,
                arrival: 1.0,
                start: 1.2,
                finish: 1.4,
            },
        ];
        Metrics::from_completions(completions, &[2.0, 0.3], 2.0)
    }

    #[test]
    fn mean_latency_per_class() {
        let m = sample_metrics();
        // Learnt latencies: 1.1, 0.4 -> mean 0.75.
        assert!((m.mean_latency(TaskClass::Learnt).unwrap() - 0.75).abs() < 1e-12);
        assert!((m.mean_latency(TaskClass::Unlearnt).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let m = sample_metrics();
        assert!((m.latency_quantile(TaskClass::Learnt, 0.0).unwrap() - 0.4).abs() < 1e-12);
        assert!((m.latency_quantile(TaskClass::Learnt, 1.0).unwrap() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn utilization() {
        let m = sample_metrics();
        // busy 2.3 over 2 workers × 2.0 = 0.575.
        assert!((m.utilization - 0.575).abs() < 1e-12);
    }

    #[test]
    fn missing_class_is_none() {
        let m = Metrics::from_completions(vec![], &[0.0], 0.0);
        assert!(m.mean_latency(TaskClass::Learnt).is_none());
        assert!(m.latency_quantile(TaskClass::Unlearnt, 0.5).is_none());
    }
}
