//! The [`Supervisor`] — the degradation ladder behind
//! [`crate::HybridEngine`].
//!
//! §II-C1's "no run is wasted" only holds for campaigns that *survive* bad
//! runs. The supervisor tracks the engine's health and walks a ladder of
//! increasingly conservative modes instead of erroring the campaign:
//!
//! ```text
//!        Normal ──(N consecutive gate anomalies,
//!          │        or a failed retrain)──────────▶ Quarantined
//!          ▲                                            │
//!          └──────(successful retrain: re-admit)────────┘
//!          │                                            │
//!          └──(M consecutive failed retrains)──▶ Degraded (terminal)
//! ```
//!
//! * **Normal** — the surrogate is trusted; the UQ gate decides per query.
//! * **Quarantined** — the surrogate is *not* consulted (every query is
//!   simulated) but retraining continues; a successful retrain re-admits.
//! * **Degraded** — terminal: retraining has failed `degrade_after`
//!   consecutive times, so the engine stops trying and serves every query
//!   from the simulator, forever. Queries still succeed.
//!
//! Orthogonally, the supervisor bounds per-query simulator retries
//! ([`SupervisorConfig::max_retries`]): each failed or panicked or
//! non-finite attempt is retried with a fresh deterministic seed (the
//! engine's serial seed counter keeps advancing, so attempt seeds are
//! reproducible) before the query returns a typed error.
//!
//! Every transition emits an `le-obs` counter (`supervisor.retry`,
//! `supervisor.quarantine`, `supervisor.readmit`, `supervisor.degraded`),
//! so the obsctl snapshot-diff gate locks in exact degradation behaviour.
//! Retrain failures additionally emit `supervisor.retrain_failed` plus a
//! kind-labelled `supervisor.retrain_failed.<kind>` counter (the
//! [`LeError::kind_label`] of the typed cause), making quarantine causes
//! visible in OBS snapshots rather than only in-process; staleness flags
//! from the drift detector arrive through [`Supervisor::note_staleness`]
//! and count under `supervisor.stale` without walking the ladder — drift
//! is remedied by a rolling retrain, not by benching the surrogate.

use crate::{LeError, Result};

/// Which rung of the ladder the engine currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorState {
    /// Surrogate trusted; UQ gate decides per query.
    Normal,
    /// Surrogate benched; simulate everything, retrain toward re-admission.
    Quarantined,
    /// Terminal simulator-only mode; retraining has been given up.
    Degraded,
}

/// Knobs of the degradation ladder.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Simulator retries per query after a failed/panicked/non-finite
    /// attempt (so a query makes at most `1 + max_retries` attempts, each
    /// with a fresh deterministic seed).
    pub max_retries: usize,
    /// Consecutive gate anomalies (non-finite prediction mean/std, or a
    /// predict-time model error) that quarantine the surrogate.
    pub quarantine_after: usize,
    /// Consecutive failed retrains that push the engine into terminal
    /// [`SupervisorState::Degraded`].
    pub degrade_after: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_retries: 2,
            quarantine_after: 3,
            degrade_after: 3,
        }
    }
}

/// Ladder state machine + counters. Owned by the engine; all transitions
/// are driven by `note_*` calls from the query/retrain paths.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    state: SupervisorState,
    consecutive_gate_anomalies: usize,
    consecutive_failed_retrains: usize,
    retries: u64,
    retrain_failures: u64,
    quarantines: u64,
    readmissions: u64,
    stale_flags: u64,
    last_retrain_error: Option<LeError>,
    last_staleness: Option<LeError>,
}

impl Supervisor {
    /// Build from a validated config.
    pub fn new(config: SupervisorConfig) -> Result<Self> {
        if config.quarantine_after == 0 {
            return Err(LeError::InvalidConfig(
                "quarantine_after must be at least 1".into(),
            ));
        }
        if config.degrade_after == 0 {
            return Err(LeError::InvalidConfig(
                "degrade_after must be at least 1".into(),
            ));
        }
        Ok(Self {
            config,
            state: SupervisorState::Normal,
            consecutive_gate_anomalies: 0,
            consecutive_failed_retrains: 0,
            retries: 0,
            retrain_failures: 0,
            quarantines: 0,
            readmissions: 0,
            stale_flags: 0,
            last_retrain_error: None,
            last_staleness: None,
        })
    }

    /// The configured knobs.
    pub fn config(&self) -> SupervisorConfig {
        self.config
    }

    /// Current ladder rung.
    pub fn state(&self) -> SupervisorState {
        self.state
    }

    /// Should the gate consult the surrogate at all?
    pub fn trusts_surrogate(&self) -> bool {
        self.state == SupervisorState::Normal
    }

    /// Should the engine keep (re)training? False only when Degraded.
    pub fn wants_retrain(&self) -> bool {
        self.state != SupervisorState::Degraded
    }

    /// Maximum simulate attempts per query.
    pub fn max_attempts(&self) -> usize {
        1 + self.config.max_retries
    }

    /// Total simulator retries performed (attempts beyond each first).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Retrain attempts that failed, in any state.
    pub fn retrain_failures(&self) -> u64 {
        self.retrain_failures
    }

    /// Times the surrogate entered quarantine.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Times a successful retrain re-admitted a quarantined surrogate.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }

    /// The typed detail of the most recent retrain failure, if any
    /// (cleared by the next successful retrain).
    pub fn last_retrain_error(&self) -> Option<&LeError> {
        self.last_retrain_error.as_ref()
    }

    /// Staleness signals the drift detector has raised so far.
    pub fn stale_flags(&self) -> u64 {
        self.stale_flags
    }

    /// The typed evidence of the most recent staleness flag
    /// ([`LeError::Stale`]; cleared by the next successful retrain).
    pub fn last_staleness(&self) -> Option<&LeError> {
        self.last_staleness.as_ref()
    }

    /// A simulate attempt failed and another attempt follows.
    pub(crate) fn note_retry(&mut self) {
        self.retries += 1;
        le_obs::counter!("supervisor.retry").inc();
    }

    /// The gate produced a finite, trustworthy prediction.
    pub(crate) fn note_gate_ok(&mut self) {
        self.consecutive_gate_anomalies = 0;
    }

    /// The gate produced a non-finite prediction/std or a model error.
    pub(crate) fn note_gate_anomaly(&mut self) {
        self.consecutive_gate_anomalies += 1;
        if self.state == SupervisorState::Normal
            && self.consecutive_gate_anomalies >= self.config.quarantine_after
        {
            self.enter_quarantine();
        }
    }

    /// The drift detector flagged the surrogate as stale. Counted and
    /// retained as typed evidence; the ladder does not move — staleness is
    /// remedied by the rolling retrain the engine schedules alongside this
    /// call, and uncertain queries already fall through the gate.
    pub(crate) fn note_staleness(&mut self, err: LeError) {
        self.stale_flags += 1;
        le_obs::counter!("supervisor.stale").inc();
        self.last_staleness = Some(err);
    }

    /// A retrain failed with `err`; walks the quarantine/degraded rungs.
    pub(crate) fn note_retrain_failure(&mut self, err: LeError) {
        le_obs::counter!("supervisor.retrain_failed").inc();
        // Kind-labelled companion counter: the OBS snapshot shows *why*
        // retrains fail (model vs insufficient_data vs …), not just that
        // they did. Dynamic name, same registry as the static counters.
        le_obs::global()
            .counter(&format!("supervisor.retrain_failed.{}", err.kind_label()))
            .inc();
        self.last_retrain_error = Some(err);
        self.retrain_failures += 1;
        self.consecutive_failed_retrains += 1;
        if self.state == SupervisorState::Normal {
            // The stale surrogate must not stay silently trusted.
            self.enter_quarantine();
        }
        if self.state == SupervisorState::Quarantined
            && self.consecutive_failed_retrains >= self.config.degrade_after
        {
            self.state = SupervisorState::Degraded;
            le_obs::counter!("supervisor.degraded").inc();
        }
    }

    /// A retrain succeeded: clear failure streaks, re-admit if benched.
    pub(crate) fn note_retrain_success(&mut self) {
        self.consecutive_failed_retrains = 0;
        self.consecutive_gate_anomalies = 0;
        self.last_retrain_error = None;
        self.last_staleness = None;
        if self.state == SupervisorState::Quarantined {
            self.state = SupervisorState::Normal;
            self.readmissions += 1;
            le_obs::counter!("supervisor.readmit").inc();
        }
    }

    fn enter_quarantine(&mut self) {
        self.state = SupervisorState::Quarantined;
        self.quarantines += 1;
        le_obs::counter!("supervisor.quarantine").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup(max_retries: usize, quarantine_after: usize, degrade_after: usize) -> Supervisor {
        Supervisor::new(SupervisorConfig {
            max_retries,
            quarantine_after,
            degrade_after,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Supervisor::new(SupervisorConfig {
            quarantine_after: 0,
            ..Default::default()
        })
        .is_err());
        assert!(Supervisor::new(SupervisorConfig {
            degrade_after: 0,
            ..Default::default()
        })
        .is_err());
        assert!(Supervisor::new(SupervisorConfig::default()).is_ok());
    }

    #[test]
    fn gate_anomaly_streak_quarantines_and_ok_resets() {
        let mut s = sup(1, 3, 3);
        s.note_gate_anomaly();
        s.note_gate_anomaly();
        s.note_gate_ok(); // streak broken
        s.note_gate_anomaly();
        s.note_gate_anomaly();
        assert_eq!(s.state(), SupervisorState::Normal);
        s.note_gate_anomaly();
        assert_eq!(s.state(), SupervisorState::Quarantined);
        assert_eq!(s.quarantines(), 1);
        assert!(!s.trusts_surrogate());
        assert!(s.wants_retrain());
    }

    #[test]
    fn retrain_failure_quarantines_immediately_and_success_readmits() {
        let mut s = sup(1, 3, 3);
        s.note_retrain_failure(LeError::Model("bad fit".into()));
        assert_eq!(s.state(), SupervisorState::Quarantined);
        assert!(matches!(s.last_retrain_error(), Some(LeError::Model(_))));
        s.note_retrain_success();
        assert_eq!(s.state(), SupervisorState::Normal);
        assert_eq!(s.readmissions(), 1);
        assert!(s.last_retrain_error().is_none());
    }

    #[test]
    fn consecutive_retrain_failures_degrade_terminally() {
        let mut s = sup(1, 3, 2);
        s.note_retrain_failure(LeError::Model("a".into()));
        assert_eq!(s.state(), SupervisorState::Quarantined);
        s.note_retrain_failure(LeError::Model("b".into()));
        assert_eq!(s.state(), SupervisorState::Degraded);
        assert_eq!(s.retrain_failures(), 2);
        assert!(!s.wants_retrain());
        assert!(!s.trusts_surrogate());
        // Terminal: nothing re-admits.
        s.note_retrain_success();
        assert_eq!(s.state(), SupervisorState::Degraded);
    }

    #[test]
    fn retry_counter_counts() {
        let mut s = sup(2, 3, 3);
        assert_eq!(s.max_attempts(), 3);
        s.note_retry();
        s.note_retry();
        assert_eq!(s.retries(), 2);
    }

    #[test]
    fn staleness_is_counted_but_never_walks_the_ladder() {
        let mut s = sup(1, 3, 3);
        s.note_staleness(LeError::Stale("std inflation".into()));
        s.note_staleness(LeError::Stale("calibration decay".into()));
        assert_eq!(s.stale_flags(), 2);
        assert_eq!(s.state(), SupervisorState::Normal);
        assert!(s.trusts_surrogate());
        assert!(matches!(s.last_staleness(), Some(LeError::Stale(_))));
        // A successful retrain clears the evidence (flag count is history).
        s.note_retrain_success();
        assert!(s.last_staleness().is_none());
        assert_eq!(s.stale_flags(), 2);
    }

    #[test]
    fn retrain_failure_kinds_reach_labelled_counters() {
        let before = le_obs::snapshot()
            .counter("supervisor.retrain_failed.model")
            .unwrap_or(0);
        let before_total = le_obs::snapshot()
            .counter("supervisor.retrain_failed")
            .unwrap_or(0);
        let mut s = sup(1, 3, 9);
        s.note_retrain_failure(LeError::Model("nan loss".into()));
        s.note_retrain_failure(LeError::InsufficientData("2 runs".into()));
        // `>=`: other tests in this binary may fail retrains concurrently;
        // the registry is process-global.
        let snap = le_obs::snapshot();
        assert!(snap.counter("supervisor.retrain_failed").unwrap_or(0) - before_total >= 2);
        assert!(snap.counter("supervisor.retrain_failed.model").unwrap_or(0) - before >= 1);
        assert!(snap
            .counter("supervisor.retrain_failed.insufficient_data")
            .unwrap_or(0)
            >= 1);
    }
}
