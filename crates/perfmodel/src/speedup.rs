//! The effective-speedup formula and its limits.

use crate::{PerfError, Result};

/// The four characteristic times of §III-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupTimes {
    /// Sequential execution time of one simulation.
    pub t_seq: f64,
    /// Time of one parallel training-data simulation.
    pub t_train: f64,
    /// Training time *per sample*.
    pub t_learn: f64,
    /// Inference time per surrogate lookup.
    pub t_lookup: f64,
}

impl SpeedupTimes {
    /// Validate positivity.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("t_seq", self.t_seq),
            ("t_train", self.t_train),
            ("t_learn", self.t_learn),
            ("t_lookup", self.t_lookup),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(PerfError::Invalid(format!("{name} = {v}")));
            }
        }
        if self.t_seq <= 0.0 {
            return Err(PerfError::Invalid("t_seq must be positive".into()));
        }
        if self.t_train <= 0.0 {
            return Err(PerfError::Invalid("t_train must be positive".into()));
        }
        Ok(())
    }
}

/// The computed speedup with its inputs (for reporting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveSpeedup {
    /// Characteristic times.
    pub times: SpeedupTimes,
    /// Number of surrogate lookups.
    pub n_lookup: f64,
    /// Number of training simulations.
    pub n_train: f64,
    /// The effective speedup S.
    pub speedup: f64,
}

/// Evaluate the formula
/// `S = T_seq (N_lookup + N_train) / (T_lookup N_lookup + (T_train + T_learn) N_train)`.
pub fn effective_speedup(
    times: &SpeedupTimes,
    n_lookup: f64,
    n_train: f64,
) -> Result<EffectiveSpeedup> {
    times.validate()?;
    if n_lookup < 0.0 || n_train < 0.0 || (n_lookup + n_train) == 0.0 { // lint:allow(float-hygiene): integer-valued counts, zero total is exact
        return Err(PerfError::Invalid(format!(
            "need non-negative counts with a positive total: N_lookup={n_lookup}, N_train={n_train}"
        )));
    }
    let numerator = times.t_seq * (n_lookup + n_train);
    let denominator = times.t_lookup * n_lookup + (times.t_train + times.t_learn) * n_train;
    if denominator <= 0.0 {
        return Err(PerfError::Invalid(
            "zero total cost — need t_lookup > 0 or n_train > 0".into(),
        ));
    }
    Ok(EffectiveSpeedup {
        times: *times,
        n_lookup,
        n_train,
        speedup: numerator / denominator,
    })
}

/// The no-ML limit: `S → T_seq / T_train` (classic parallel speedup).
pub fn no_ml_limit(times: &SpeedupTimes) -> Result<f64> {
    times.validate()?;
    Ok(times.t_seq / times.t_train)
}

/// The lookup-dominated limit: `S → T_seq / T_lookup`.
pub fn lookup_limit(times: &SpeedupTimes) -> Result<f64> {
    times.validate()?;
    if times.t_lookup <= 0.0 {
        return Err(PerfError::Invalid(
            "lookup limit undefined for t_lookup = 0".into(),
        ));
    }
    Ok(times.t_seq / times.t_lookup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_times() -> SpeedupTimes {
        // Shaped like the nanoconfinement example: lookup ~10⁵× faster than
        // the sequential simulation.
        SpeedupTimes {
            t_seq: 100.0,
            t_train: 10.0,
            t_learn: 0.1,
            t_lookup: 1e-3,
        }
    }

    #[test]
    fn validation() {
        let mut t = paper_times();
        t.t_seq = 0.0;
        assert!(t.validate().is_err());
        let mut t2 = paper_times();
        t2.t_lookup = f64::NAN;
        assert!(t2.validate().is_err());
        assert!(effective_speedup(&paper_times(), -1.0, 10.0).is_err());
        assert!(effective_speedup(&paper_times(), 0.0, 0.0).is_err());
    }

    #[test]
    fn reduces_to_classic_speedup_without_ml() {
        let t = paper_times();
        let s = effective_speedup(&t, 0.0, 50.0).unwrap();
        assert!(
            (s.speedup - t.t_seq / (t.t_train + t.t_learn)).abs() < 1e-12,
            "N_lookup = 0 gives T_seq/(T_train+T_learn): {}",
            s.speedup
        );
        // And with negligible learning time it is exactly the paper's
        // T_seq/T_train limit.
        let t0 = SpeedupTimes {
            t_learn: 0.0,
            ..t
        };
        let s0 = effective_speedup(&t0, 0.0, 50.0).unwrap();
        assert!((s0.speedup - no_ml_limit(&t0).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn approaches_lookup_limit_for_many_lookups() {
        let t = paper_times();
        let asymptote = lookup_limit(&t).unwrap();
        assert!((asymptote - 1e5).abs() < 1e-6);
        let s_small = effective_speedup(&t, 1e2, 100.0).unwrap().speedup;
        let s_large = effective_speedup(&t, 1e9, 100.0).unwrap().speedup;
        assert!(s_small < s_large);
        assert!(
            s_large > 0.99 * asymptote,
            "at N_lookup = 1e9 the speedup {s_large} should be within 1% of {asymptote}"
        );
    }

    #[test]
    fn speedup_is_monotone_in_lookup_count() {
        let t = paper_times();
        let mut prev = 0.0;
        for exp in 0..8 {
            let n = 10f64.powi(exp);
            let s = effective_speedup(&t, n, 100.0).unwrap().speedup;
            assert!(s > prev, "monotone increase: {s} after {prev}");
            prev = s;
        }
    }

    #[test]
    fn training_overhead_lowers_speedup() {
        let cheap = paper_times();
        let costly = SpeedupTimes {
            t_learn: 10.0,
            ..cheap
        };
        let s_cheap = effective_speedup(&cheap, 1e4, 100.0).unwrap().speedup;
        let s_costly = effective_speedup(&costly, 1e4, 100.0).unwrap().speedup;
        assert!(s_costly < s_cheap);
    }

    #[test]
    fn paper_magnitude_example() {
        // With lookup 10⁵× faster and abundant lookups, effective speedup
        // reaches the "Exa or even Zetta scale equivalent" regime the paper
        // describes (here: ≫ 10³ with just 10⁶ lookups per 100 trainings).
        let t = paper_times();
        let s = effective_speedup(&t, 1e6, 100.0).unwrap().speedup;
        assert!(s > 4e4, "speedup {s} should be within reach of the limit");
    }
}
