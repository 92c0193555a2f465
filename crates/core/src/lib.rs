#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `learning-everywhere` — the paper's primary contribution as a library.
//!
//! *Learning Everywhere: Pervasive Machine Learning for Effective
//! High-Performance Computation* (Fox et al., 2019) argues that learned
//! surrogates should wrap simulations everywhere they pay off, and
//! introduces **effective performance**: the speedup the *user* sees when
//! most requests are served by a trained network instead of a full
//! simulation. This crate is that wrapper:
//!
//! * [`simulator`] — the [`simulator::Simulator`] trait any expensive
//!   computation implements to join the framework (the MD, epidemic, and
//!   tissue substrates in this workspace all do).
//! * [`surrogate`] — [`surrogate::NnSurrogate`]: a scaled MLP + MC-dropout
//!   UQ bundle trained from completed simulation runs ("no run is
//!   wasted").
//! * [`hybrid`] — [`hybrid::HybridEngine`], the MLaroundHPC execution
//!   engine: each query is served from the surrogate iff its MC-dropout
//!   uncertainty passes the gate; otherwise the real simulator runs and
//!   the result joins the training buffer; retraining triggers as the
//!   buffer grows. Every phase is timed into the §III-D accounting.
//! * [`active`] — the active-learning loop (§II-C2, ref [34]):
//!   uncertainty-driven acquisition versus random, with learning curves.
//! * [`autotune`] — MLautotuning: learn the map from problem parameters to
//!   optimal run configurations (e.g. the largest stable timestep).
//! * [`control`] — MLControl: objective-driven campaigns that invert the
//!   surrogate to find inputs achieving a target output, with simulation
//!   verification in the loop.
//! * [`accounting`] — re-exported effective-performance accounting
//!   ([`le_perfmodel::CampaignAccounting`]) plus timing helpers.
//! * [`supervisor`] — the degradation ladder ([`supervisor::Supervisor`])
//!   that keeps the engine answering under simulator faults, non-finite
//!   outputs, and failed retrains: bounded seeded retries, surrogate
//!   quarantine with re-admission, and a terminal sim-only `Degraded` mode.
//! * [`staleness`] — drift detection for the installed surrogate
//!   ([`staleness::StalenessDetector`]): gate-std inflation and calibration
//!   decay over sliding windows, which drive audits and rolling retrains.

pub mod accounting;
pub mod active;
pub mod autotune;
pub mod control;
pub mod hybrid;
pub mod simulator;
pub mod staleness;
pub mod supervisor;
pub mod surrogate;

pub use hybrid::{HybridConfig, HybridEngine, QuerySource, RollingRetrainConfig};
pub use simulator::Simulator;
pub use staleness::{StalenessConfig, StalenessDetector, StalenessSignal};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorState};
pub use surrogate::{NnSurrogate, SurrogateConfig};

/// Errors from the framework.
#[derive(Debug, Clone, PartialEq)]
pub enum LeError {
    /// Invalid configuration.
    InvalidConfig(String),
    /// The wrapped simulator failed.
    Simulation(String),
    /// The ML layer failed.
    Model(String),
    /// Not enough data for the requested operation.
    InsufficientData(String),
    /// A serving-layer admission rejection: the request exceeded its
    /// tenant's quota (or the frontend's capacity) and was never executed.
    /// Typed so load generators and clients can distinguish backpressure
    /// from execution failures and retry/shed accordingly.
    Backpressure(String),
    /// The staleness detector flagged the surrogate: the parameter
    /// distribution has drifted away from what the model was trained on
    /// (rising gate uncertainty or decaying interval calibration). The
    /// engine keeps serving — uncertain queries fall through the UQ gate
    /// to the simulator — but a rolling retrain is requested; this variant
    /// carries the typed evidence.
    Stale(String),
}

impl LeError {
    /// Stable, lowercase kind label for counter/metric names (e.g.
    /// `supervisor.retrain_failed.model`). One word per variant, no
    /// payload, so OBS snapshot names stay deterministic.
    pub fn kind_label(&self) -> &'static str {
        match self {
            LeError::InvalidConfig(_) => "invalid_config",
            LeError::Simulation(_) => "simulation",
            LeError::Model(_) => "model",
            LeError::InsufficientData(_) => "insufficient_data",
            LeError::Backpressure(_) => "backpressure",
            LeError::Stale(_) => "stale",
        }
    }
}

impl std::fmt::Display for LeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeError::InvalidConfig(s) => write!(f, "invalid config: {s}"),
            LeError::Simulation(s) => write!(f, "simulation error: {s}"),
            LeError::Model(s) => write!(f, "model error: {s}"),
            LeError::InsufficientData(s) => write!(f, "insufficient data: {s}"),
            LeError::Backpressure(s) => write!(f, "backpressure: {s}"),
            LeError::Stale(s) => write!(f, "stale surrogate: {s}"),
        }
    }
}

impl std::error::Error for LeError {}

/// Result alias for the framework.
pub type Result<T> = std::result::Result<T, LeError>;
