//! Phase-resolved accounting of a live MLaroundHPC campaign: accumulate the
//! four §III-D times from actual measurements, then hand them to the
//! analytic formula. The `learning-everywhere` hybrid engine feeds this
//! from its instrumentation, and `tests/accounting_vs_formula.rs`
//! cross-checks the two.

use crate::speedup::{effective_speedup, EffectiveSpeedup, SpeedupTimes};
use crate::Result;

/// Accumulates measured phase times and counts.
#[derive(Debug, Clone, Default)]
pub struct CampaignAccounting {
    train_sim_seconds: f64,
    n_train: u64,
    learn_seconds: f64,
    learn_events: u64,
    lookup_seconds: f64,
    n_lookup: u64,
}

impl CampaignAccounting {
    /// Fresh accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one training simulation of `seconds`.
    pub fn record_training_sim(&mut self, seconds: f64) {
        self.train_sim_seconds += seconds;
        self.n_train += 1;
    }

    /// Record one (re)training of the surrogate.
    pub fn record_learning(&mut self, seconds: f64) {
        self.learn_seconds += seconds;
        self.learn_events += 1;
    }

    /// Record one surrogate lookup.
    pub fn record_lookup(&mut self, seconds: f64) {
        self.lookup_seconds += seconds;
        self.n_lookup += 1;
    }

    /// Count of training simulations.
    pub fn n_train(&self) -> u64 {
        self.n_train
    }

    /// Count of surrogate lookups.
    pub fn n_lookup(&self) -> u64 {
        self.n_lookup
    }

    /// Total wall time attributed to the campaign.
    pub fn total_seconds(&self) -> f64 {
        self.train_sim_seconds + self.learn_seconds + self.lookup_seconds
    }

    /// Accumulated training-simulation seconds (the `n_train` phase total).
    /// Exposed so the observability conformance suite can check that span
    /// telemetry and accounting agree.
    pub fn train_sim_seconds(&self) -> f64 {
        self.train_sim_seconds
    }

    /// Accumulated surrogate-(re)training seconds.
    pub fn learn_seconds(&self) -> f64 {
        self.learn_seconds
    }

    /// Accumulated lookup seconds.
    pub fn lookup_seconds(&self) -> f64 {
        self.lookup_seconds
    }

    /// Count of surrogate (re)trainings recorded.
    pub fn learn_events(&self) -> u64 {
        self.learn_events
    }

    /// Derive the per-unit characteristic times measured so far. The
    /// sequential reference `t_seq` is the mean training-simulation time.
    /// Errors if no training simulations were recorded (no cost basis).
    pub fn times(&self) -> Result<SpeedupTimes> {
        if self.n_train == 0 {
            return Err(crate::PerfError::Invalid(
                "no training simulations recorded".into(),
            ));
        }
        let t_train = self.train_sim_seconds / self.n_train as f64;
        // T_learn is per training sample in the formula.
        let t_learn = self.learn_seconds / self.n_train as f64;
        let t_lookup = if self.n_lookup > 0 {
            self.lookup_seconds / self.n_lookup as f64
        } else {
            0.0
        };
        Ok(SpeedupTimes {
            t_seq: t_train,
            t_train,
            t_learn,
            t_lookup,
        })
    }

    /// The measured effective speedup: evaluates the analytic formula with
    /// the measured times and counts.
    pub fn effective_speedup(&self) -> Result<EffectiveSpeedup> {
        let times = self.times()?;
        effective_speedup(&times, self.n_lookup as f64, self.n_train as f64)
    }

    /// Direct measured speedup: what the campaign cost versus running every
    /// request as a sequential simulation.
    pub fn direct_speedup(&self) -> Result<f64> {
        let times = self.times()?;
        let total = self.total_seconds();
        if total <= 0.0 {
            return Err(crate::PerfError::Invalid("zero total time".into()));
        }
        let requests = (self.n_train + self.n_lookup) as f64;
        Ok(times.t_seq * requests / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accounting_errors() {
        let acc = CampaignAccounting::new();
        assert!(acc.times().is_err());
        assert!(acc.effective_speedup().is_err());
    }

    #[test]
    fn times_are_means() {
        let mut acc = CampaignAccounting::new();
        acc.record_training_sim(2.0);
        acc.record_training_sim(4.0);
        acc.record_learning(0.6);
        acc.record_lookup(0.001);
        acc.record_lookup(0.003);
        let t = acc.times().unwrap();
        assert!((t.t_train - 3.0).abs() < 1e-12);
        assert!((t.t_learn - 0.3).abs() < 1e-12);
        assert!((t.t_lookup - 0.002).abs() < 1e-12);
        // The sequential reference is the training-simulation mean.
        assert!((t.t_seq - 3.0).abs() < 1e-12);
    }

    #[test]
    fn effective_and_direct_speedups_agree_exactly_here() {
        // When t_seq = t_train and every event is recorded, the analytic
        // formula over measured means equals the direct total-time ratio.
        let mut acc = CampaignAccounting::new();
        for _ in 0..10 {
            acc.record_training_sim(2.0);
        }
        acc.record_learning(1.0);
        for _ in 0..1000 {
            acc.record_lookup(1e-4);
        }
        let analytic = acc.effective_speedup().unwrap().speedup;
        let direct = acc.direct_speedup().unwrap();
        assert!(
            (analytic - direct).abs() < 1e-9 * direct,
            "analytic {analytic} vs direct {direct}"
        );
        assert!(analytic > 50.0, "mostly-lookup campaign is much faster");
    }

    #[test]
    fn counts_tracked() {
        let mut acc = CampaignAccounting::new();
        acc.record_training_sim(1.0);
        acc.record_lookup(0.1);
        acc.record_lookup(0.1);
        assert_eq!(acc.n_train(), 1);
        assert_eq!(acc.n_lookup(), 2);
        assert!((acc.total_seconds() - 1.2).abs() < 1e-12);
    }
}
