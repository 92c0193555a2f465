//! Distribution-drift staleness detection for the hybrid engine.
//!
//! The degradation ladder ([`crate::supervisor`]) covers *crashes*: injected
//! errors, NaN outputs, failed retrains. In production a surrogate more
//! often dies of *drift* — the parameter distribution moves away from the
//! training manifold and the model silently extrapolates. This module
//! watches the two observable symptoms over sliding windows:
//!
//! * **Gate-std inflation** — the MC-dropout uncertainty the UQ gate sees
//!   rises relative to the post-(re)train baseline. Extrapolation shows up
//!   as epistemic uncertainty before it shows up as error.
//! * **Calibration decay** — observed interval coverage on labelled pairs
//!   (queries that carried a gate prediction *and* were then simulated, so
//!   the truth is known) falls below a floor at the nominal level, via the
//!   typed `uq::calibration` diagnostics.
//!
//! Either symptom fires a [`StalenessSignal`], which the engine surfaces as
//! a typed [`LeError::Stale`] anomaly through the supervisor and converts
//! into a pending rolling retrain serviced at the next deterministic wave
//! boundary (see [`crate::HybridEngine::enable_rolling_retrain`]).
//!
//! The detector is a pure function of the query stream it is fed: no
//! clocks, no entropy, bounded memory. Replaying the same stream produces
//! the same flags at any pool width — the property the drift-campaign
//! digest gate in `scripts/verify.sh` pins.

use std::collections::VecDeque;

use le_uq::{coverage, Prediction};

use crate::{LeError, Result};

/// Knobs of the staleness detector.
#[derive(Debug, Clone, Copy)]
pub struct StalenessConfig {
    /// Sliding-window length for the *recent* gate-std mean and the
    /// labelled calibration pairs.
    pub window: usize,
    /// Gate-std samples collected right after each (re)train to form the
    /// baseline the recent window is compared against.
    pub baseline: usize,
    /// Flag [`StalenessSignal::StdInflation`] when
    /// `recent mean / baseline mean` exceeds this ratio (must be > 1).
    pub std_ratio: f64,
    /// Nominal central-interval level probed for calibration decay
    /// (strictly inside (0, 1)).
    pub nominal_coverage: f64,
    /// Flag [`StalenessSignal::CalibrationDecay`] when observed coverage
    /// at the nominal level falls below this floor.
    pub min_coverage: f64,
    /// Labelled (prediction, truth) pairs required before the calibration
    /// check is consulted at all.
    pub min_labelled: usize,
}

impl Default for StalenessConfig {
    fn default() -> Self {
        Self {
            window: 64,
            baseline: 32,
            std_ratio: 2.0,
            nominal_coverage: 0.9,
            min_coverage: 0.5,
            min_labelled: 16,
        }
    }
}

impl StalenessConfig {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.window == 0 || self.baseline == 0 {
            return Err(LeError::InvalidConfig(
                "staleness window and baseline must be at least 1".into(),
            ));
        }
        if !(self.std_ratio > 1.0) {
            return Err(LeError::InvalidConfig(
                "staleness std_ratio must exceed 1".into(),
            ));
        }
        if !(self.nominal_coverage > 0.0 && self.nominal_coverage < 1.0) {
            return Err(LeError::InvalidConfig(
                "nominal_coverage must lie strictly inside (0, 1)".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.min_coverage) {
            return Err(LeError::InvalidConfig(
                "min_coverage must lie in [0, 1]".into(),
            ));
        }
        if self.min_labelled == 0 {
            return Err(LeError::InvalidConfig(
                "min_labelled must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Which symptom fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StalenessSignal {
    /// Recent gate uncertainty inflated relative to the post-train
    /// baseline.
    StdInflation {
        /// Mean gate std over the recent window.
        recent: f64,
        /// Mean gate std over the post-train baseline.
        baseline: f64,
    },
    /// Observed interval coverage decayed below the configured floor.
    CalibrationDecay {
        /// Observed coverage at the nominal level.
        observed: f64,
        /// The nominal level probed.
        nominal: f64,
    },
}

impl StalenessSignal {
    /// Stable counter suffix for the signal kind.
    pub fn kind(&self) -> &'static str {
        match self {
            StalenessSignal::StdInflation { .. } => "std_inflation",
            StalenessSignal::CalibrationDecay { .. } => "calibration_decay",
        }
    }

    /// The typed error this signal surfaces as.
    pub fn to_error(&self) -> LeError {
        match self {
            StalenessSignal::StdInflation { recent, baseline } => LeError::Stale(format!(
                "gate std inflated: recent mean {recent:.6} vs baseline {baseline:.6}"
            )),
            StalenessSignal::CalibrationDecay { observed, nominal } => LeError::Stale(format!(
                "calibration decayed: observed coverage {observed:.3} at nominal {nominal:.2}"
            )),
        }
    }
}

/// Sliding-window drift monitor (see the module docs). Fed by the engine's
/// gated query path; fires at most one signal per window fill, then
/// re-baselines.
#[derive(Debug)]
pub struct StalenessDetector {
    config: StalenessConfig,
    baseline_stds: Vec<f64>,
    recent_stds: VecDeque<f64>,
    labelled: VecDeque<(Prediction, Vec<f64>)>,
    flags: u64,
}

impl StalenessDetector {
    /// Build from a validated config.
    pub fn new(config: StalenessConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            baseline_stds: Vec::new(),
            recent_stds: VecDeque::new(),
            labelled: VecDeque::new(),
            flags: 0,
        })
    }

    /// The configured knobs.
    pub fn config(&self) -> StalenessConfig {
        self.config
    }

    /// Signals fired so far.
    pub fn flags(&self) -> u64 {
        self.flags
    }

    /// Forget everything and start a fresh baseline — called after a
    /// successful (rolling) retrain installs a new model, whose
    /// uncertainty profile supersedes the old baseline.
    pub fn reset(&mut self) {
        self.baseline_stds.clear();
        self.recent_stds.clear();
        self.labelled.clear();
    }

    /// Record one finite gate std from the UQ gate. The first
    /// `config.baseline` samples after a reset form the baseline; later
    /// samples roll through the recent window.
    pub fn note_gate_std(&mut self, std: f64) {
        if !std.is_finite() {
            return; // non-finite stds are the supervisor's (anomaly) lane
        }
        if self.baseline_stds.len() < self.config.baseline {
            self.baseline_stds.push(std);
            return;
        }
        self.recent_stds.push_back(std);
        while self.recent_stds.len() > self.config.window {
            self.recent_stds.pop_front();
        }
    }

    /// Record one labelled pair: a gate prediction whose query then ran the
    /// simulator, so the ground truth is known.
    pub fn note_labelled(&mut self, pred: Prediction, truth: Vec<f64>) {
        self.labelled.push_back((pred, truth));
        while self.labelled.len() > self.config.window {
            self.labelled.pop_front();
        }
    }

    /// Consult the windows; on a flag, the detector re-baselines itself
    /// (so one drift episode fires once, not once per subsequent query).
    pub fn check(&mut self) -> Option<StalenessSignal> {
        let signal = self.evaluate()?;
        self.flags += 1;
        self.reset();
        Some(signal)
    }

    fn evaluate(&self) -> Option<StalenessSignal> {
        if self.baseline_stds.len() < self.config.baseline {
            return None;
        }
        // Symptom 1: gate-std inflation over a full recent window.
        if self.recent_stds.len() >= self.config.window {
            let baseline = mean(self.baseline_stds.iter());
            let recent = mean(self.recent_stds.iter());
            if baseline > 0.0 && recent / baseline > self.config.std_ratio {
                return Some(StalenessSignal::StdInflation { recent, baseline });
            }
        }
        // Symptom 2: coverage decay over the labelled pairs.
        if self.labelled.len() >= self.config.min_labelled {
            let preds: Vec<Prediction> = self.labelled.iter().map(|(p, _)| p.clone()).collect();
            let targets: Vec<Vec<f64>> = self.labelled.iter().map(|(_, t)| t.clone()).collect();
            let width = preds
                .iter()
                .map(|p| p.mean.len().min(p.std.len()))
                .chain(targets.iter().map(|t| t.len()))
                .min()
                .unwrap_or(0);
            let mut worst: Option<f64> = None;
            for dim in 0..width {
                // A malformed window is skipped, never a panic: the typed
                // uq::calibration contract guards every edge case.
                if let Ok(obs) = coverage(&preds, &targets, dim, self.config.nominal_coverage) {
                    worst = Some(worst.map_or(obs, |w: f64| w.min(obs)));
                }
            }
            if let Some(observed) = worst {
                if observed < self.config.min_coverage {
                    return Some(StalenessSignal::CalibrationDecay {
                        observed,
                        nominal: self.config.nominal_coverage,
                    });
                }
            }
        }
        None
    }
}

fn mean<'a>(it: impl Iterator<Item = &'a f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(cfg: StalenessConfig) -> StalenessDetector {
        StalenessDetector::new(cfg).unwrap()
    }

    fn small() -> StalenessConfig {
        StalenessConfig {
            window: 8,
            baseline: 4,
            std_ratio: 2.0,
            nominal_coverage: 0.9,
            min_coverage: 0.5,
            min_labelled: 4,
        }
    }

    #[test]
    fn config_validation() {
        assert!(StalenessConfig { window: 0, ..small() }.validate().is_err());
        assert!(StalenessConfig { baseline: 0, ..small() }.validate().is_err());
        assert!(StalenessConfig { std_ratio: 1.0, ..small() }.validate().is_err());
        assert!(matches!(
            StalenessConfig { std_ratio: f64::NAN, ..small() }.validate(),
            Err(LeError::InvalidConfig(_))
        ));
        assert!(StalenessConfig { nominal_coverage: 1.0, ..small() }.validate().is_err());
        assert!(StalenessConfig { min_coverage: 1.5, ..small() }.validate().is_err());
        assert!(StalenessConfig { min_labelled: 0, ..small() }.validate().is_err());
        assert!(small().validate().is_ok());
        assert!(StalenessConfig::default().validate().is_ok());
    }

    #[test]
    fn stable_stds_never_flag() {
        let mut d = det(small());
        for _ in 0..100 {
            d.note_gate_std(0.1);
            assert!(d.check().is_none());
        }
        assert_eq!(d.flags(), 0);
    }

    #[test]
    fn inflated_stds_flag_once_then_rebaseline() {
        let mut d = det(small());
        for _ in 0..4 {
            d.note_gate_std(0.1); // baseline
        }
        let mut fired = 0;
        for _ in 0..16 {
            d.note_gate_std(0.5); // 5x the baseline
            if let Some(sig) = d.check() {
                assert!(matches!(sig, StalenessSignal::StdInflation { .. }));
                assert_eq!(sig.kind(), "std_inflation");
                fired += 1;
            }
        }
        // Fires exactly once per episode: the reset re-baselines at the
        // new (inflated) level, which is then self-consistent.
        assert_eq!(fired, 1);
        assert_eq!(d.flags(), 1);
    }

    #[test]
    fn calibration_decay_flags_overconfident_windows() {
        let mut d = det(small());
        for _ in 0..4 {
            d.note_gate_std(0.1);
        }
        // Predictions claim ±0.01 around 0 but the truth sits at 1.0:
        // observed coverage 0 at nominal 0.9.
        for _ in 0..4 {
            d.note_labelled(
                Prediction {
                    mean: vec![0.0],
                    std: vec![0.01],
                },
                vec![1.0],
            );
        }
        let sig = d.check().expect("coverage collapse must flag");
        match sig {
            StalenessSignal::CalibrationDecay { observed, nominal } => {
                assert_eq!(observed, 0.0);
                assert!((nominal - 0.9).abs() < 1e-12);
            }
            other => panic!("expected CalibrationDecay, got {other:?}"),
        }
        assert!(matches!(sig.to_error(), LeError::Stale(_)));
    }

    #[test]
    fn well_calibrated_labels_do_not_flag() {
        let mut d = det(small());
        for _ in 0..4 {
            d.note_gate_std(0.1);
        }
        for _ in 0..8 {
            d.note_labelled(
                Prediction {
                    mean: vec![1.0],
                    std: vec![0.5],
                },
                vec![1.1], // well inside the 90% interval
            );
        }
        assert!(d.check().is_none());
    }

    #[test]
    fn non_finite_stds_are_ignored() {
        let mut d = det(small());
        for _ in 0..4 {
            d.note_gate_std(0.1);
        }
        for _ in 0..20 {
            d.note_gate_std(f64::NAN);
        }
        assert!(d.check().is_none());
    }

    #[test]
    fn detector_replays_identically() {
        let run = || {
            let mut d = det(small());
            let mut fired = Vec::new();
            for i in 0..200u64 {
                let s = 0.1 + 0.01 * (i as f64);
                d.note_gate_std(s);
                if let Some(sig) = d.check() {
                    fired.push((i, sig.kind()));
                }
            }
            (fired, d.flags())
        };
        assert_eq!(run(), run());
    }
}
