//! [`HybridEngine`] — the MLaroundHPC execution engine.
//!
//! Every row of a wave ([`HybridEngine::query_each`]) passes three stages,
//! one per §III-D time term:
//!
//! 1. **Gate** (lookup time). While the supervisor trusts a surrogate,
//!    evaluate it with MC-dropout uncertainty — one fused evaluation per
//!    wave — and route the row: a lookup when the largest per-output std
//!    is below the threshold τ, otherwise a simulation with its reason
//!    (untrusted or cold surrogate, model error, non-finite prediction,
//!    uncertain, audit sample).
//! 2. **Resolve** (simulation time). Serve the prediction (microseconds),
//!    or run the real simulator under the supervisor's retry budget.
//! 3. **Learn** (learning time). Append each simulated pair to the
//!    training buffer — "no run is wasted. Training needs both successful
//!    and unsuccessful runs" (§II-C1) — retrain when the buffer has grown
//!    by the configured fraction, and feed the drift staleness detector.
//!
//! All four §III-D phase times are recorded into a
//! [`le_perfmodel::CampaignAccounting`], so the engine reports its own
//! effective speedup. The UQ gate also implements §III-B's proposal that
//! UQ should decide when "the training routine might less likely need
//! more data".
//!
//! Failure handling is delegated to the [`crate::supervisor`] degradation
//! ladder: finiteness guards on both gate predictions and simulator
//! outputs, bounded seeded retries (absorbing simulator panics), surrogate
//! quarantine with re-admission, and a terminal simulator-only `Degraded`
//! mode — a faulty simulator degrades the campaign, it does not kill it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use le_linalg::Matrix;
use le_perfmodel::CampaignAccounting;
use le_uq::Prediction;

use crate::simulator::Simulator;
use crate::staleness::{StalenessConfig, StalenessDetector};
use crate::supervisor::{Supervisor, SupervisorConfig};
use crate::surrogate::{NnSurrogate, SurrogateConfig};
use crate::{LeError, Result};

/// Where a query's answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySource {
    /// Served by the trained surrogate.
    Lookup,
    /// Served by the real simulator (and added to the training buffer).
    Simulated,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The output vector.
    pub output: Vec<f64>,
    /// Lookup or simulated.
    pub source: QuerySource,
    /// The uncertainty the gate saw (`None` before the first training).
    pub gate_std: Option<f64>,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Serve from the surrogate when max per-output std < τ (natural
    /// units).
    pub uncertainty_threshold: f64,
    /// Minimum buffered runs before the first training.
    pub min_training_runs: usize,
    /// Retrain when the buffer grows by this factor since the last fit.
    pub retrain_growth: f64,
    /// Surrogate architecture/training settings.
    pub surrogate: SurrogateConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            uncertainty_threshold: 0.1,
            min_training_runs: 32,
            retrain_growth: 1.5,
            surrogate: SurrogateConfig::default(),
        }
    }
}

/// Opt-in rolling-retrain configuration
/// ([`HybridEngine::enable_rolling_retrain`]).
///
/// With rolling retrain enabled the engine retrains **without pausing
/// serving**: a mid-wave growth trigger is *deferred* — the in-flight wave
/// keeps answering from the frozen surrogate snapshot — and the swap runs
/// at the deterministic wave boundary (the end of the current
/// [`HybridEngine::query_each`] call). Without it, growth triggers fit
/// inline, mid-wave. In either mode a retrain requested by the staleness
/// detector runs at the boundary, and [`HybridEngine::rolling_swaps`]
/// counts every successful boundary retrain. In rolling mode the training
/// buffer becomes a recency-weighted sliding window: bounded at `buffer_cap` runs
/// (oldest evicted first, `hybrid.rolling.evicted`), with the newest
/// `recent_boost` runs duplicated into each fit so the model tracks the
/// drifted distribution faster than a uniform window would.
///
/// Growth-based retrain triggers count *total* runs seen
/// ([`HybridEngine::runs_seen`]), not the capped buffer length — otherwise
/// a full window would never trigger again.
///
/// `audit_every` adds deterministic **audit sampling**: every Nth query
/// (by the engine's serial query index) is simulated even when the UQ gate
/// would have served the surrogate. An MC-dropout net extrapolating onto a
/// drifted distribution is often *overconfidently wrong* — its gate std
/// barely moves while its error explodes — so a drifting stream can starve
/// both the staleness detector and the rolling buffer of ground truth.
/// Audit rows supply that truth at a bounded, seedless, thread-invariant
/// cadence (pure function of the query index), counted as
/// `hybrid.audit.simulated`. `0` disables auditing.
#[derive(Debug, Clone, Copy)]
pub struct RollingRetrainConfig {
    /// Maximum training-buffer length; older runs are evicted first.
    pub buffer_cap: usize,
    /// Newest runs duplicated into each rolling fit (recency weighting);
    /// clamped to the buffer length, must not exceed `buffer_cap`.
    pub recent_boost: usize,
    /// Simulate every Nth query regardless of the gate (0 = off).
    pub audit_every: u64,
}

impl Default for RollingRetrainConfig {
    fn default() -> Self {
        Self {
            buffer_cap: 256,
            recent_boost: 32,
            audit_every: 0,
        }
    }
}

/// A typed [`LeError::InvalidConfig`] rejection.
fn invalid<T>(msg: &str) -> Result<T> {
    Err(LeError::InvalidConfig(msg.into()))
}

/// The MLaroundHPC engine wrapping a [`Simulator`].
pub struct HybridEngine<S: Simulator> {
    simulator: S,
    config: HybridConfig,
    surrogate: Option<NnSurrogate>,
    /// Training runs `(input, output)`, oldest first.
    buffer: VecDeque<(Vec<f64>, Vec<f64>)>,
    /// `runs_seen` at the last fit attempt that counts toward growth.
    runs_at_last_fit: u64,
    accounting: CampaignAccounting,
    seed_counter: u64,
    /// Bumped every time a freshly trained surrogate is installed; the gate
    /// uses it to drop a wave cache filled by a superseded model.
    surrogate_generation: u64,
    supervisor: Supervisor,
    /// Rolling-retrain mode, off by default (see
    /// [`HybridEngine::enable_rolling_retrain`]). When off, every legacy
    /// code path is bit-identical to the pre-rolling engine.
    rolling: Option<RollingRetrainConfig>,
    /// Drift staleness detector, off by default
    /// ([`HybridEngine::enable_staleness`]).
    staleness: Option<StalenessDetector>,
    /// A retrain is due but deferred to the next wave boundary.
    retrain_pending: bool,
    /// Total runs ever appended to the buffer (survives rolling eviction).
    runs_seen: u64,
    /// Serial query index (every row of every wave); drives audit sampling.
    queries_seen: u64,
    rolling_swaps: u64,
    rolling_deferrals: u64,
}

/// The cached gate predictions for the current wave: filled by one fused
/// evaluation over all remaining rows, consumed per row, and dropped as soon
/// as the surrogate that produced it is replaced (generation bump) — a stale
/// prediction is never served.
struct Wave {
    preds: Vec<Prediction>,
    base: usize,
    generation: u64,
    per_row_secs: f64,
}

/// Why the gate sends a row to the simulator.
enum Why {
    /// No surrogate is trained yet, or the supervisor has benched it.
    Untrusted,
    /// The fused evaluation returned an error or panicked.
    ModelError,
    /// The row's prediction mean or std is not finite.
    NonFinite,
    /// The largest per-output std is not below τ.
    Uncertain,
    /// The gate would have served the row; the audit cadence diverts it.
    Audit,
}

/// One row's gate decision, borrowing its prediction from the wave cache.
enum Route<'w> {
    /// Serve the prediction; the `f64` is the row's amortized share of the
    /// fused evaluation, in seconds.
    Lookup(&'w Prediction, f64),
    /// Run the simulator. The prediction is kept when it was finite
    /// (`Uncertain`, `Audit`): it gives the row's gate std and the
    /// staleness detector's labelled pair.
    Simulate(Why, Option<&'w Prediction>),
}

impl<'w> Route<'w> {
    /// The finite prediction the gate consulted, if any.
    fn prediction(&self) -> Option<&'w Prediction> {
        match *self {
            Route::Lookup(pred, _) | Route::Simulate(_, Some(pred)) => Some(pred),
            Route::Simulate(_, None) => None,
        }
    }
}

impl<S: Simulator> HybridEngine<S> {
    /// Wrap a simulator with the default degradation ladder
    /// ([`SupervisorConfig::default`]).
    pub fn new(simulator: S, config: HybridConfig) -> Result<Self> {
        Self::with_supervisor(simulator, config, SupervisorConfig::default())
    }

    /// Wrap a simulator with an explicit supervision configuration.
    pub fn with_supervisor(
        simulator: S,
        config: HybridConfig,
        supervision: SupervisorConfig,
    ) -> Result<Self> {
        if !(config.uncertainty_threshold > 0.0) {
            return invalid("uncertainty threshold must be positive");
        }
        if config.min_training_runs < 4 {
            return invalid("need at least 4 runs before training");
        }
        if !(config.retrain_growth > 1.0) {
            return invalid("retrain growth factor must exceed 1");
        }
        Ok(Self {
            simulator,
            config,
            surrogate: None,
            buffer: VecDeque::new(),
            runs_at_last_fit: 0,
            accounting: CampaignAccounting::new(),
            seed_counter: 0,
            surrogate_generation: 0,
            supervisor: Supervisor::new(supervision)?,
            rolling: None,
            staleness: None,
            retrain_pending: false,
            runs_seen: 0,
            queries_seen: 0,
            rolling_swaps: 0,
            rolling_deferrals: 0,
        })
    }

    /// Switch the engine into rolling-retrain mode (see
    /// [`RollingRetrainConfig`]): bounded recency-weighted buffer, deferred
    /// retrains, swap at the deterministic wave boundary. Opt-in so the
    /// legacy inline-retrain path (and every digest pinned to it) is
    /// untouched unless a caller asks for it.
    pub fn enable_rolling_retrain(&mut self, config: RollingRetrainConfig) -> Result<()> {
        if config.buffer_cap < 4 {
            return invalid("rolling buffer_cap must be at least 4");
        }
        if config.recent_boost > config.buffer_cap {
            return invalid("rolling recent_boost must not exceed buffer_cap");
        }
        self.rolling = Some(config);
        self.enforce_rolling_cap();
        Ok(())
    }

    /// Attach a drift staleness detector ([`crate::staleness`]): rising
    /// gate-std and decaying interval calibration over sliding windows
    /// raise a typed [`LeError::Stale`] supervisor anomaly
    /// (`supervisor.stale`) and request a retrain at the next wave
    /// boundary.
    pub fn enable_staleness(&mut self, config: StalenessConfig) -> Result<()> {
        self.staleness = Some(StalenessDetector::new(config)?);
        Ok(())
    }

    /// Total runs ever appended to the training buffer (not reduced by
    /// rolling eviction).
    pub fn runs_seen(&self) -> u64 {
        self.runs_seen
    }

    /// Successful retrains at a wave boundary: deferred growth triggers
    /// in rolling mode, and staleness-requested retrains in either mode.
    pub fn rolling_swaps(&self) -> u64 {
        self.rolling_swaps
    }

    /// Rolling-mode deferrals: mid-wave retrain triggers pushed to the
    /// next wave boundary.
    pub fn rolling_deferrals(&self) -> u64 {
        self.rolling_deferrals
    }

    /// Runs evicted from the bounded rolling buffer: every run ever
    /// buffered that is no longer there (only the rolling cap removes runs).
    pub fn rolling_evictions(&self) -> u64 {
        self.runs_seen - self.buffer.len() as u64
    }

    /// The degradation-ladder state machine (rung, retries, quarantines,
    /// retrain failures, last retrain error).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The wrapped simulator.
    pub fn simulator(&self) -> &S {
        &self.simulator
    }

    /// Number of queries served from the surrogate.
    pub fn n_lookups(&self) -> u64 {
        self.accounting.n_lookup()
    }

    /// Number of queries that ran the simulator.
    pub fn n_simulations(&self) -> u64 {
        self.accounting.n_train()
    }

    /// Size of the training buffer.
    pub fn buffered_runs(&self) -> usize {
        self.buffer.len()
    }

    /// Whether a surrogate is currently trained.
    pub fn has_surrogate(&self) -> bool {
        self.surrogate.is_some()
    }

    /// The §III-D accounting gathered so far.
    pub fn accounting(&self) -> &CampaignAccounting {
        &self.accounting
    }

    /// Adjust the UQ gate at runtime (e.g. tightening as the campaign's
    /// accuracy requirements grow).
    pub fn set_uncertainty_threshold(&mut self, tau: f64) -> Result<()> {
        if !(tau > 0.0) {
            return invalid("uncertainty threshold must be positive");
        }
        self.config.uncertainty_threshold = tau;
        Ok(())
    }

    /// Answer one query: a wave of one through
    /// [`HybridEngine::query_each`].
    pub fn query(&mut self, input: &[f64]) -> Result<QueryResult> {
        self.query_each(&[input])?
            .pop()
            .unwrap_or_else(|| Err(LeError::Model("one row in, no result out".into())))
    }

    /// Answer a wave of queries, one `Result` per row, with **one fused
    /// MC-dropout evaluation per wave** instead of one surrogate pass per
    /// query. Each row goes gate → resolve → learn; a row whose simulation
    /// exhausts its retry budget yields `Err` *for that row*, and the next
    /// row is served as usual — one poisoned request does not lose the
    /// wave.
    ///
    /// Rows are processed strictly in index order and the result is
    /// **bit-identical** to issuing the same inputs as sequential
    /// [`HybridEngine::query`] calls: the surrogate draws its dropout masks
    /// from stateless per-consult substreams (row `r` of a wave consumes
    /// the same consult ordinal it would consume sequentially), and every
    /// per-row side effect — lookup and simulation accounting, counters,
    /// supervisor transitions, retrain triggers, seed-counter advances and
    /// the per-row `hybrid.query` trace root — fires in the same order with
    /// the same values, wherever earlier rows failed. Only wall-clock
    /// attribution differs: the fused evaluation is timed once per wave and
    /// amortized uniformly over the wave's rows.
    ///
    /// A *wave* is the maximal run of rows gated by one surrogate
    /// snapshot: a mid-wave inline retrain or a supervisor trust flip
    /// invalidates the cached predictions, and the next trusted row starts
    /// a new wave against the fresh surrogate — exactly what sequential
    /// queries would see. After the last row, the wave boundary runs any
    /// deferred or staleness-requested retrain.
    ///
    /// The outer `Result` only reports up-front validation (an input row
    /// of the wrong dimension) — the serving layer screens dimensions at
    /// admission, so a well-formed wave never sees it.
    pub fn query_each(&mut self, inputs: &[&[f64]]) -> Result<Vec<Result<QueryResult>>> {
        let dim = self.simulator.input_dim();
        if let Some(got) = inputs.iter().map(|x| x.len()).find(|&n| n != dim) {
            return Err(LeError::InvalidConfig(format!(
                "expected {dim} inputs, got {got}"
            )));
        }
        let mut wave: Option<Wave> = None;
        let mut results = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            // Each row is one causal trace: every phase span below — and
            // every pool task the simulator or trainer dispatches — carries
            // this root's trace_id (see le-obs's trace module). The fused
            // gate evaluation nests under the root of the row that starts
            // the wave.
            let _trace = le_obs::trace_root!("hybrid.query");
            let route = self.gate(inputs, i, &mut wave);
            let result = self.resolve(input, &route);
            self.learn(input, &route, &result);
            results.push(result);
            // A failed row leaves the wave cache untouched: failed
            // simulations never retrain, and the generation check in
            // `gate` guards every other staleness path.
        }
        // The deterministic wave boundary: a retrain that was deferred
        // mid-wave (rolling mode) or requested by the staleness detector
        // executes here, after every row of this call has been answered
        // from the frozen snapshot — serving never pauses.
        self.service_pending_retrain();
        Ok(results)
    }

    /// The gate stage for row `i`: advance the serial query index (audit
    /// cadence) and route the row. Only a surrogate the supervisor trusts
    /// is consulted. When the surrogate changed since the wave cache was
    /// filled — or a model error left it empty — one fused MC-dropout
    /// evaluation over all remaining rows refills it. Counting the route
    /// and reporting it to the supervisor is `resolve`'s job.
    fn gate<'w>(&mut self, inputs: &[&[f64]], i: usize, wave: &'w mut Option<Wave>) -> Route<'w> {
        // Audit sampling (rolling mode) is a pure function of the serial
        // query index: thread-invariant.
        let audit = self
            .rolling
            .is_some_and(|c| c.audit_every > 0 && self.queries_seen.is_multiple_of(c.audit_every));
        self.queries_seen += 1;
        let surrogate = match self.surrogate.as_mut() {
            Some(s) if self.supervisor.trusts_surrogate() => s,
            _ => return Route::Simulate(Why::Untrusted, None),
        };
        if wave
            .as_ref()
            .is_none_or(|w| w.generation != self.surrogate_generation)
        {
            let _t = le_obs::trace_span!("hybrid.lookup");
            // Timed with a bare stopwatch, NOT a timed_span: the
            // `hybrid.lookup` span must mirror the accounting (one record
            // per *admitted* lookup — the conformance suite pins this), so
            // `resolve` records the fused cost, amortized, as each
            // admitted row consumes its share.
            let sw = le_obs::Stopwatch::start();
            let remaining = &inputs[i..];
            *wave = match catch_unwind(AssertUnwindSafe(|| {
                surrogate.predict_with_uncertainty_rows(remaining)
            })) {
                Ok(Ok(preds)) => Some(Wave {
                    preds,
                    base: i,
                    generation: self.surrogate_generation,
                    per_row_secs: sw.elapsed_secs() / remaining.len() as f64,
                }),
                Ok(Err(_)) | Err(_) => None,
            };
        }
        let Some(w) = wave.as_ref() else {
            return Route::Simulate(Why::ModelError, None);
        };
        let pred = &w.preds[i - w.base];
        // Written as `<` so that a NaN threshold admits nothing.
        let admit = pred.max_std() < self.config.uncertainty_threshold;
        if !pred.mean.iter().chain(&pred.std).all(|v| v.is_finite()) {
            Route::Simulate(Why::NonFinite, None)
        } else if !admit {
            Route::Simulate(Why::Uncertain, Some(pred))
        } else if audit {
            Route::Simulate(Why::Audit, Some(pred))
        } else {
            Route::Lookup(pred, w.per_row_secs)
        }
    }

    /// The resolve stage: serve the lookup or run the supervised
    /// simulation, and record it in the accounting. Its match is the one
    /// place a route is counted and reported to the supervisor: a model
    /// error or non-finite prediction is a gate anomaly (the row falls
    /// through to the simulator rather than failing the query), and a
    /// finite prediction resets the anomaly streak.
    fn resolve(&mut self, input: &[f64], route: &Route) -> Result<QueryResult> {
        let gate_std = route.prediction().map(Prediction::max_std);
        match *route {
            Route::Lookup(pred, secs) => {
                self.supervisor.note_gate_ok();
                self.accounting.record_lookup(secs);
                le_obs::global()
                    .span("hybrid.lookup")
                    .record_ns((secs * 1e9) as u64);
                le_obs::counter!("hybrid.lookups").inc();
                return Ok(QueryResult {
                    output: pred.mean.clone(),
                    source: QuerySource::Lookup,
                    gate_std,
                });
            }
            Route::Simulate(Why::Uncertain, _) => self.supervisor.note_gate_ok(),
            Route::Simulate(Why::Audit, _) => {
                le_obs::counter!("hybrid.audit.simulated").inc();
                self.supervisor.note_gate_ok();
            }
            Route::Simulate(Why::ModelError, _) => {
                le_obs::counter!("gate.model_error").inc();
                self.supervisor.note_gate_anomaly();
            }
            Route::Simulate(Why::NonFinite, _) => {
                le_obs::counter!("gate.nonfinite").inc();
                self.supervisor.note_gate_anomaly();
            }
            Route::Simulate(Why::Untrusted, _) => {}
        }
        let (output, secs) = self.simulate_supervised(input)?;
        self.accounting.record_training_sim(secs);
        le_obs::counter!("hybrid.simulations").inc();
        Ok(QueryResult {
            output,
            source: QuerySource::Simulated,
            gate_std,
        })
    }

    /// The learn stage, after each row is answered. A successful
    /// simulation joins the training buffer (rolling cap, then the growth
    /// trigger in `maybe_retrain`). Then the drift watch sees the row:
    /// every finite gate std feeds the sliding window, and a
    /// gated-then-simulated row contributes a labelled (prediction, truth)
    /// pair for the calibration check. A flag raises the typed Stale
    /// anomaly through the supervisor and requests a retrain at the wave
    /// boundary — it never fails or reroutes the query itself.
    fn learn(&mut self, input: &[f64], route: &Route, result: &Result<QueryResult>) {
        let simulated = result
            .as_ref()
            .ok()
            .filter(|r| r.source == QuerySource::Simulated);
        if let Some(r) = simulated {
            self.buffer.push_back((input.to_vec(), r.output.clone()));
            self.runs_seen += 1;
            self.enforce_rolling_cap();
            self.maybe_retrain();
        }
        let Some(det) = self.staleness.as_mut() else {
            return;
        };
        if let Some(pred) = route.prediction() {
            det.note_gate_std(pred.max_std());
            if let Some(r) = simulated {
                det.note_labelled(pred.clone(), r.output.clone());
            }
        }
        if let Some(signal) = det.check() {
            le_obs::counter!("staleness.flagged").inc();
            le_obs::global()
                .counter(&format!("staleness.{}", signal.kind()))
                .inc();
            self.supervisor.note_staleness(signal.to_error());
            self.retrain_pending = true;
        }
    }

    /// Execute a deferred retrain at the wave boundary, if one is pending.
    /// In rolling mode this is the snapshot *swap*: the freshly fitted
    /// surrogate (recency-weighted buffer) replaces the frozen one between
    /// waves, observable as `hybrid.rolling.swaps` and the
    /// `hybrid.rolling.swap` trace span.
    fn service_pending_retrain(&mut self) {
        if !std::mem::take(&mut self.retrain_pending) {
            return;
        }
        if !self.supervisor.wants_retrain() || self.buffer.len() < 4 {
            return;
        }
        let _t = le_obs::trace_span!("hybrid.rolling.swap");
        match self.fit(self.rolling.map_or(0, |c| c.recent_boost)) {
            Ok(()) => {
                self.rolling_swaps += 1;
                le_obs::counter!("hybrid.rolling.swaps").inc();
            }
            // Already counted and reported to the supervisor inside `fit`;
            // push the next attempt out by the growth factor.
            Err(_) => self.runs_at_last_fit = self.runs_seen,
        }
    }

    /// The one fit routine: the buffer plus a duplicated tail of its
    /// newest `boost` runs (recency weighting, clamped to the buffer
    /// length). A success installs the surrogate — accounting, generation
    /// bump (wave invalidation), growth mark at `runs_seen`, supervisor
    /// re-admission, staleness re-baseline. A failure, including a panic
    /// inside training (e.g. a worker panic out of the trainer's pool
    /// dispatch), is counted and reported to the supervisor's quarantine
    /// path; whether it moves the growth mark is the caller's decision.
    fn fit(&mut self, boost: usize) -> Result<()> {
        let n = self.buffer.len();
        if n < 4 {
            return Err(LeError::InsufficientData(format!("{n} buffered runs")));
        }
        let boost = boost.min(n);
        let mut x = Matrix::zeros(n + boost, self.simulator.input_dim());
        let mut y = Matrix::zeros(n + boost, self.simulator.output_dim());
        for (row, i) in (0..n).chain(n - boost..n).enumerate() {
            let (bx, by) = &self.buffer[i];
            x.row_mut(row).copy_from_slice(bx);
            y.row_mut(row).copy_from_slice(by);
        }
        let _t = le_obs::trace_span!("hybrid.retrain");
        let sp = le_obs::timed_span!("hybrid.retrain");
        let cfg = &self.config.surrogate;
        let fitted = catch_unwind(AssertUnwindSafe(|| NnSurrogate::fit(&x, &y, cfg)))
            .unwrap_or_else(|_| Err(LeError::Model("surrogate training panicked".into())));
        match fitted {
            Ok(surrogate) => {
                self.accounting.record_learning(sp.finish_secs());
                self.surrogate = Some(surrogate);
                self.surrogate_generation = self.surrogate_generation.wrapping_add(1);
                self.runs_at_last_fit = self.runs_seen;
                self.supervisor.note_retrain_success();
                if let Some(det) = self.staleness.as_mut() {
                    // The new model's uncertainty profile supersedes the old
                    // baseline; stale evidence about the retired snapshot
                    // would only re-fire spuriously.
                    det.reset();
                }
                Ok(())
            }
            Err(e) => {
                self.supervisor.note_retrain_failure(e.clone());
                Err(e)
            }
        }
    }

    /// Evict the oldest runs past the rolling buffer cap.
    fn enforce_rolling_cap(&mut self) {
        if let Some(cfg) = self.rolling {
            while self.buffer.len() > cfg.buffer_cap {
                self.buffer.pop_front();
                le_obs::counter!("hybrid.rolling.evicted").inc();
            }
        }
    }

    /// Run the simulator with the supervisor's retry budget: each failed,
    /// panicked, or non-finite attempt bumps `hybrid.sim_errors` and is
    /// retried with a fresh deterministic seed (the serial seed counter
    /// keeps advancing). Returns the output and the successful attempt's
    /// seconds; only a fully exhausted budget surfaces a typed
    /// [`LeError::Simulation`] to the caller.
    fn simulate_supervised(&mut self, input: &[f64]) -> Result<(Vec<f64>, f64)> {
        let attempts = self.supervisor.max_attempts();
        let mut last_err = LeError::Simulation("no simulation attempt made".into());
        for attempt in 0..attempts {
            if attempt > 0 {
                self.supervisor.note_retry();
            }
            // A failing attempt drops the spans unrecorded (accounting
            // records nothing either) and bumps the error counter instead.
            // Both spans close on return, so a retrain the learn stage
            // triggers appears as a sibling phase of the query, not a
            // child of the sim.
            let _t = le_obs::trace_span!("hybrid.simulate");
            let sp = le_obs::timed_span!("hybrid.simulate");
            self.seed_counter += 1;
            let seed = self.seed_counter;
            let sim = &self.simulator;
            // A panicking simulator (e.g. a worker panic propagated out of
            // a pool dispatch) is absorbed into the retry ladder: the next
            // attempt re-dispatches the work.
            let result = match catch_unwind(AssertUnwindSafe(|| sim.simulate(input, seed))) {
                Ok(r) => r,
                Err(_) => {
                    le_obs::counter!("hybrid.sim_panics").inc();
                    if attempt + 1 < attempts {
                        le_obs::counter!("pool.task_respawn").inc();
                    }
                    Err(LeError::Simulation(format!(
                        "simulator panicked (attempt {attempt})"
                    )))
                }
            };
            match result {
                Ok(output) if output.iter().all(|v| v.is_finite()) => {
                    return Ok((output, sp.finish_secs()));
                }
                Ok(_) => {
                    // A diverged run reporting success: never buffered,
                    // never served.
                    le_obs::counter!("hybrid.sim_nonfinite").inc();
                    le_obs::counter!("hybrid.sim_errors").inc();
                    last_err = LeError::Simulation(format!(
                        "non-finite simulator output (attempt {attempt})"
                    ));
                }
                Err(e) => {
                    le_obs::counter!("hybrid.sim_errors").inc();
                    last_err = match e {
                        LeError::Simulation(s) => LeError::Simulation(s),
                        other => LeError::Simulation(other.to_string()),
                    };
                }
            }
        }
        Err(last_err)
    }

    /// Pre-seed the buffer with externally computed runs (e.g. an initial
    /// design-of-experiments campaign) and train immediately.
    pub fn seed_training(&mut self, x: &[Vec<f64>], y: &[Vec<f64>]) -> Result<()> {
        if x.len() != y.len() {
            return invalid("seed inputs/outputs length mismatch");
        }
        self.buffer.extend(x.iter().cloned().zip(y.iter().cloned()));
        self.runs_seen += x.len() as u64;
        self.enforce_rolling_cap();
        if self.buffer.len() >= self.config.min_training_runs {
            self.fit(0)?;
        }
        Ok(())
    }

    /// Retrain if due: the growth trigger counts total runs seen (the
    /// capped rolling buffer plateaus, the inline buffer never evicts, so
    /// one count serves both modes). Training failures do not fail the
    /// query that triggered them — the simulated answer is still valid; the
    /// failure is counted, surfaced through the supervisor's quarantine
    /// path (the stale surrogate is no longer trusted; see
    /// [`Supervisor::last_retrain_error`] for the typed detail), and the
    /// next growth threshold retries. A Degraded engine stops retraining
    /// entirely.
    fn maybe_retrain(&mut self) {
        let due = if self.surrogate.is_none() {
            self.runs_seen >= self.config.min_training_runs as u64
        } else {
            self.runs_seen as f64 >= self.runs_at_last_fit as f64 * self.config.retrain_growth
        };
        if !due || !self.supervisor.wants_retrain() {
            return;
        }
        // The only place that knows the two timings. Rolling mode never
        // retrains mid-wave: the in-flight wave keeps answering from the
        // frozen snapshot and the swap happens at the wave boundary
        // (`service_pending_retrain`). Inline mode fits now, so a later
        // row of the same wave sees the new surrogate exactly as a later
        // sequential query would.
        if self.rolling.is_some() {
            if !self.retrain_pending {
                self.retrain_pending = true;
                self.rolling_deferrals += 1;
                le_obs::counter!("hybrid.rolling.deferred").inc();
            }
        } else if self.fit(0).is_err() {
            // Push the next attempt out by the growth factor.
            self.runs_at_last_fit = self.runs_seen;
        }
    }

    /// Force a (re)training of the surrogate on the current buffer.
    pub fn retrain(&mut self) -> Result<()> {
        self.fit(0)
    }

    /// Fraction of queries served by lookup so far.
    pub fn lookup_fraction(&self) -> f64 {
        let total = self.n_lookups() + self.n_simulations();
        if total == 0 {
            0.0
        } else {
            self.n_lookups() as f64 / total as f64
        }
    }

    /// Calibrate the UQ gate from labelled validation pairs: choose the
    /// largest threshold τ such that, *on the validation set*, every query
    /// the gate would serve from the surrogate has error ≤ `max_error`
    /// (infinity-norm over outputs). Returns the chosen τ and the lookup
    /// fraction it achieves on the validation set; leaves the gate
    /// unchanged if no τ admits any lookups.
    ///
    /// This operationalizes §III-B: "once [the uncertainty] is low enough,
    /// the training routine might less likely need more data" — with "low
    /// enough" *measured* instead of guessed.
    pub fn calibrate_gate(
        &mut self,
        val_x: &[Vec<f64>],
        val_y: &[Vec<f64>],
        max_error: f64,
    ) -> Result<Option<(f64, f64)>> {
        if val_x.is_empty() || val_x.len() != val_y.len() {
            return invalid("bad validation set");
        }
        if !(max_error > 0.0) {
            return invalid("max_error must be positive");
        }
        let surrogate = self
            .surrogate
            .as_mut()
            .ok_or_else(|| LeError::InsufficientData("no trained surrogate".into()))?;
        // Score every validation point with one fused MC-dropout
        // evaluation: (gate std, actual max error).
        let rows: Vec<&[f64]> = val_x.iter().map(Vec::as_slice).collect();
        let preds = surrogate.predict_with_uncertainty_rows(&rows)?;
        let mut scored: Vec<(f64, f64)> = Vec::with_capacity(val_x.len());
        for (pred, y) in preds.iter().zip(val_y.iter()) {
            let err = pred
                .mean
                .iter()
                .zip(y.iter())
                .map(|(&p, &t)| (p - t).abs())
                .fold(0.0f64, f64::max);
            scored.push((pred.max_std(), err));
        }
        // Sort by gate std ascending; the candidate thresholds are just
        // above each point's std. Admit the longest prefix that stays
        // within the error budget: τ slightly above its last point's std.
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let admitted = scored
            .iter()
            .position(|&(_, err)| err > max_error)
            .unwrap_or(scored.len());
        if admitted == 0 {
            return Ok(None);
        }
        let tau = scored[admitted - 1].0 * 1.0000001 + f64::MIN_POSITIVE;
        self.config.uncertainty_threshold = tau;
        Ok(Some((tau, admitted as f64 / scored.len() as f64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SyntheticSimulator;
    use le_linalg::Rng;

    fn engine(threshold: f64, seed: u64) -> HybridEngine<SyntheticSimulator> {
        let sim = SyntheticSimulator::new(2, 1, 20_000, 0.0);
        HybridEngine::new(
            sim,
            HybridConfig {
                uncertainty_threshold: threshold,
                min_training_runs: 48,
                retrain_growth: 2.0,
                surrogate: SurrogateConfig {
                    epochs: 120,
                    dropout: 0.1,
                    mc_samples: 20,
                    seed,
                    ..Default::default()
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        // Each bound is written so NaN fails it as well as the out-of-range
        // value: a NaN τ would never serve a lookup, and a NaN growth
        // factor would silently stop every retrain after the first fit.
        for config in [
            HybridConfig { uncertainty_threshold: 0.0, ..Default::default() },
            HybridConfig { uncertainty_threshold: f64::NAN, ..Default::default() },
            HybridConfig { min_training_runs: 2, ..Default::default() },
            HybridConfig { retrain_growth: 0.9, ..Default::default() },
            HybridConfig { retrain_growth: f64::NAN, ..Default::default() },
        ] {
            assert!(matches!(
                HybridEngine::new(sim.clone(), config),
                Err(LeError::InvalidConfig(_))
            ));
        }
        let mut engine = HybridEngine::new(sim, HybridConfig::default()).unwrap();
        for tau in [0.0, f64::NAN] {
            assert!(matches!(
                engine.set_uncertainty_threshold(tau),
                Err(LeError::InvalidConfig(_))
            ));
        }
        for max_error in [0.0, f64::NAN] {
            assert!(matches!(
                engine.calibrate_gate(&[vec![0.0, 0.0]], &[vec![0.0]], max_error),
                Err(LeError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn cold_engine_simulates_everything() {
        let mut engine = engine(0.5, 1);
        let mut rng = Rng::new(2);
        for _ in 0..20 {
            let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let r = engine.query(&x).unwrap();
            assert_eq!(r.source, QuerySource::Simulated);
            assert!(r.gate_std.is_none(), "no surrogate yet");
        }
        assert_eq!(engine.n_lookups(), 0);
        assert!(!engine.has_surrogate());
    }

    #[test]
    fn engine_warms_up_and_serves_lookups() {
        let mut engine = engine(0.6, 3);
        let mut rng = Rng::new(4);
        let mut sources = Vec::new();
        for _ in 0..220 {
            let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            sources.push(engine.query(&x).unwrap().source);
        }
        assert!(engine.has_surrogate());
        assert!(
            engine.n_lookups() > 30,
            "warm engine should serve lookups, got {} of 220",
            engine.n_lookups()
        );
        // Early queries simulated, later ones increasingly looked up.
        let early = sources[..50]
            .iter()
            .filter(|&&s| s == QuerySource::Lookup)
            .count();
        let late = sources[170..]
            .iter()
            .filter(|&&s| s == QuerySource::Lookup)
            .count();
        assert!(late > early, "lookup rate should grow: {early} -> {late}");
    }

    #[test]
    fn lookups_are_accurate() {
        let mut engine = engine(0.4, 5);
        let mut rng = Rng::new(6);
        // Warm up.
        for _ in 0..200 {
            let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let _ = engine.query(&x).unwrap();
        }
        // Compare lookup answers against the analytic truth.
        let mut checked = 0;
        for _ in 0..60 {
            let x = [rng.uniform_in(-0.8, 0.8), rng.uniform_in(-0.8, 0.8)];
            let truth = engine.simulator().truth(&x)[0];
            let r = engine.query(&x).unwrap();
            if r.source == QuerySource::Lookup {
                checked += 1;
                assert!(
                    (r.output[0] - truth).abs() < 0.8,
                    "lookup {} vs truth {truth}",
                    r.output[0]
                );
            }
        }
        assert!(checked > 5, "need some lookups to check ({checked})");
    }

    #[test]
    fn out_of_domain_queries_fall_back_to_simulation() {
        let mut engine = engine(0.25, 7);
        let mut rng = Rng::new(8);
        let mut in_domain_stds = Vec::new();
        for _ in 0..200 {
            let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let r = engine.query(&x).unwrap();
            if let Some(s) = r.gate_std {
                in_domain_stds.push(s);
            }
        }
        // Moderate extrapolation (a few σ out, before tanh saturation
        // flattens the MC-dropout spread): the gate must see elevated
        // uncertainty relative to in-domain queries.
        let in_mean = in_domain_stds.iter().sum::<f64>() / in_domain_stds.len() as f64;
        let probe = [2.5, -2.5];
        // Read the gate's view without committing to a source.
        let r = engine.query(&probe).unwrap();
        let ood_std = r.gate_std.expect("surrogate is trained");
        assert!(
            ood_std > in_mean,
            "OOD std {ood_std} should exceed in-domain mean {in_mean}"
        );
        // With the gate tightened below the OOD uncertainty, a nearby OOD
        // query must be simulated, not looked up.
        engine.set_uncertainty_threshold(ood_std * 0.5).unwrap();
        let r2 = engine.query(&[2.6, -2.4]).unwrap();
        assert_eq!(
            r2.source,
            QuerySource::Simulated,
            "tight gate must reject extrapolation (std {:?})",
            r2.gate_std
        );
    }

    #[test]
    fn seed_training_trains_immediately() {
        let mut engine = engine(0.5, 9);
        let mut rng = Rng::new(10);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..60 {
            let x = vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let y = engine.simulator().truth(&x);
            xs.push(x);
            ys.push(y);
        }
        engine.seed_training(&xs, &ys).unwrap();
        assert!(engine.has_surrogate());
        assert_eq!(engine.buffered_runs(), 60);
    }

    #[test]
    fn gate_routes_every_reason() {
        // Row 0 of a fresh one-row wave, by route.
        fn route(engine: &mut HybridEngine<SyntheticSimulator>, x: &[f64]) -> &'static str {
            let mut wave = None;
            match engine.gate(&[x], 0, &mut wave) {
                Route::Lookup(..) => "lookup",
                Route::Simulate(Why::Untrusted, None) => "untrusted",
                Route::Simulate(Why::ModelError, None) => "model_error",
                Route::Simulate(Why::NonFinite, None) => "nonfinite",
                Route::Simulate(Why::Uncertain, Some(_)) => "uncertain",
                Route::Simulate(Why::Audit, Some(_)) => "audit",
                Route::Simulate(..) => "prediction kept or dropped wrongly",
            }
        }
        let mut engine = engine(1e9_f64, 51); // huge τ: every finite row admits
        let x = [0.2, -0.3];
        assert_eq!(route(&mut engine, &x), "untrusted", "cold engine");
        let mut rng = Rng::new(52);
        let xs: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)])
            .collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| engine.simulator().truth(x)).collect();
        engine.seed_training(&xs, &ys).unwrap();
        assert_eq!(route(&mut engine, &x), "lookup");
        assert_eq!(route(&mut engine, &[f64::NAN, 0.0]), "nonfinite");
        engine.set_uncertainty_threshold(1e-12).unwrap();
        assert_eq!(route(&mut engine, &x), "uncertain");
        engine.set_uncertainty_threshold(1e9).unwrap();
        engine
            .enable_rolling_retrain(RollingRetrainConfig {
                audit_every: 2,
                ..Default::default()
            })
            .unwrap();
        // Every consult advanced the serial query index: 4 is a multiple
        // of 2, 5 is not.
        assert_eq!(engine.queries_seen, 4);
        assert_eq!(route(&mut engine, &x), "audit");
        assert_eq!(route(&mut engine, &x), "lookup");
        // Uncertainty outranks the audit cadence (index 6).
        engine.set_uncertainty_threshold(1e-12).unwrap();
        assert_eq!(route(&mut engine, &x), "uncertain");
        // Three non-finite rows answered through the engine quarantine the
        // surrogate: it is no longer consulted.
        for _ in 0..3 {
            assert!(engine.query(&[f64::NAN, 0.0]).is_err());
        }
        assert!(!engine.supervisor().trusts_surrogate());
        assert_eq!(route(&mut engine, &x), "untrusted", "benched surrogate");
        engine.retrain().unwrap();
        assert!(engine.supervisor().trusts_surrogate());
        // A surrogate that cannot evaluate these rows (fitted on three
        // inputs) fails the fused evaluation.
        let mut x3 = Matrix::zeros(8, 3);
        let mut y3 = Matrix::zeros(8, 1);
        for r in 0..8 {
            x3.row_mut(r).copy_from_slice(&[r as f64, 1.0, -(r as f64)]);
            y3.row_mut(r)[0] = r as f64;
        }
        let cfg = SurrogateConfig {
            epochs: 2,
            mc_samples: 2,
            ..Default::default()
        };
        engine.surrogate = Some(NnSurrogate::fit(&x3, &y3, &cfg).unwrap());
        engine.surrogate_generation += 1;
        assert_eq!(route(&mut engine, &x), "model_error");
    }

    #[test]
    fn accounting_tracks_phases() {
        // Use an expensive simulator so simulation time dominates lookup
        // time even in unoptimized builds — the regime the paper targets.
        let sim = SyntheticSimulator::new(2, 1, 5_000_000, 0.0);
        let mut engine = HybridEngine::new(
            sim,
            HybridConfig {
                uncertainty_threshold: 0.8,
                min_training_runs: 48,
                retrain_growth: 2.5,
                surrogate: SurrogateConfig {
                    epochs: 60,
                    dropout: 0.1,
                    mc_samples: 10,
                    seed: 11,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        let mut rng = Rng::new(12);
        for _ in 0..150 {
            let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let _ = engine.query(&x).unwrap();
        }
        let acc = engine.accounting();
        assert!(engine.n_lookups() > 0, "engine should warm up");
        let s = acc.effective_speedup().unwrap();
        assert!(
            s.speedup > 1.0,
            "hybrid should beat pure simulation, got {}",
            s.speedup
        );
        // The measured characteristic times are ordered as the paper
        // assumes: lookups far cheaper than simulations.
        assert!(s.times.t_lookup < s.times.t_train);
    }

    #[test]
    fn calibrate_gate_picks_a_safe_threshold() {
        let mut engine = engine(0.5, 21);
        let mut rng = Rng::new(22);
        // Warm up with enough data for a decent surrogate.
        for _ in 0..150 {
            let x = [rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let _ = engine.query(&x).unwrap();
        }
        assert!(engine.has_surrogate());
        // Validation pairs from the analytic truth.
        let mut val_x = Vec::new();
        let mut val_y = Vec::new();
        for _ in 0..60 {
            let x = vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let y = engine.simulator().truth(&x);
            val_x.push(x);
            val_y.push(y);
        }
        let max_error = 0.5;
        let result = engine.calibrate_gate(&val_x, &val_y, max_error).unwrap();
        if let Some((tau, lookup_frac)) = result {
            assert!(tau > 0.0 && tau.is_finite());
            assert!((0.0..=1.0).contains(&lookup_frac));
            // Verify the guarantee on the validation set itself: every
            // point the calibrated gate admits has error ≤ max_error.
            for (x, y) in val_x.iter().zip(val_y.iter()) {
                let r = engine.query(x).unwrap();
                if r.source == QuerySource::Lookup {
                    let err = r
                        .output
                        .iter()
                        .zip(y.iter())
                        .map(|(&p, &t)| (p - t).abs())
                        .fold(0.0f64, f64::max);
                    // MC noise between calibration pass and query pass can
                    // admit borderline points; allow modest slack.
                    assert!(
                        err <= max_error * 1.5,
                        "admitted lookup error {err} exceeds budget {max_error}"
                    );
                }
            }
        }
        // Error cases.
        assert!(engine.calibrate_gate(&[], &[], 0.1).is_err());
        assert!(engine.calibrate_gate(&val_x, &val_y, 0.0).is_err());
    }

    #[test]
    fn calibrate_gate_requires_a_surrogate() {
        let mut engine = engine(0.5, 23);
        let val = vec![vec![0.0, 0.0]];
        let val_y = vec![vec![0.0]];
        assert!(matches!(
            engine.calibrate_gate(&val, &val_y, 0.1),
            Err(LeError::InsufficientData(_))
        ));
    }

    #[test]
    fn wrong_input_dim_rejected() {
        let mut engine = engine(0.5, 13);
        assert!(engine.query(&[1.0]).is_err());
    }

    #[test]
    fn rolling_config_validation() {
        let mut e = engine(0.5, 31);
        assert!(e
            .enable_rolling_retrain(RollingRetrainConfig {
                buffer_cap: 3,
                recent_boost: 0,
                audit_every: 0,
            })
            .is_err());
        assert!(e
            .enable_rolling_retrain(RollingRetrainConfig {
                buffer_cap: 8,
                recent_boost: 9,
                audit_every: 0,
            })
            .is_err());
        assert!(e.enable_rolling_retrain(RollingRetrainConfig::default()).is_ok());
    }

    #[test]
    fn rolling_defers_the_midwave_retrain_to_the_boundary() {
        // One cold batch big enough to cross min_training_runs mid-wave.
        // Legacy behaviour retrains inline (later rows of the same batch
        // can be served as lookups); rolling mode must answer the whole
        // in-flight wave from the frozen (here: absent) snapshot and swap
        // only at the boundary.
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        let mut engine = HybridEngine::new(
            sim,
            HybridConfig {
                uncertainty_threshold: 10.0, // everything passes the gate
                min_training_runs: 8,
                retrain_growth: 8.0,
                surrogate: SurrogateConfig {
                    epochs: 40,
                    mc_samples: 4,
                    seed: 33,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        engine
            .enable_rolling_retrain(RollingRetrainConfig {
                buffer_cap: 64,
                recent_boost: 8,
                audit_every: 0,
            })
            .unwrap();
        let mut rng = Rng::new(34);
        let batch: Vec<Vec<f64>> = (0..20)
            .map(|_| vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)])
            .collect();
        let rows: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();
        let results: Vec<QueryResult> = engine
            .query_each(&rows)
            .unwrap()
            .into_iter()
            .collect::<Result<_>>()
            .unwrap();
        // Every row of the wave was simulated: the retrain due at row 8
        // was deferred, not executed mid-wave.
        assert!(results.iter().all(|r| r.source == QuerySource::Simulated));
        // …and the swap happened at the boundary.
        assert!(engine.has_surrogate());
        assert_eq!(engine.rolling_swaps(), 1);
        assert!(engine.rolling_deferrals() >= 1);
        assert!(!engine.retrain_pending);
        // The next wave is served by the swapped-in surrogate.
        let r = engine.query(&[0.1, 0.2]).unwrap();
        assert!(r.gate_std.is_some());
        assert_eq!(r.source, QuerySource::Lookup);
    }

    #[test]
    fn rolling_buffer_is_bounded_and_growth_keeps_firing() {
        let sim = SyntheticSimulator::new(2, 1, 0, 0.0);
        let mut engine = HybridEngine::new(
            sim,
            HybridConfig {
                // Impossible gate: every query simulates, so the buffer
                // keeps growing past the cap.
                uncertainty_threshold: 1e-12,
                min_training_runs: 8,
                retrain_growth: 1.5,
                surrogate: SurrogateConfig {
                    epochs: 10,
                    mc_samples: 4,
                    seed: 35,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        engine
            .enable_rolling_retrain(RollingRetrainConfig {
                buffer_cap: 16,
                recent_boost: 4,
                audit_every: 0,
            })
            .unwrap();
        let mut rng = Rng::new(36);
        for _ in 0..8 {
            let batch: Vec<Vec<f64>> = (0..10)
                .map(|_| vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)])
                .collect();
            let rows: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();
            assert!(engine.query_each(&rows).unwrap().iter().all(Result::is_ok));
        }
        assert_eq!(engine.runs_seen(), 80);
        assert!(engine.buffered_runs() <= 16, "{}", engine.buffered_runs());
        assert!(engine.rolling_evictions() >= 64);
        assert_eq!(
            engine.rolling_evictions(),
            engine.runs_seen() - engine.buffered_runs() as u64
        );
        // Growth triggers kept firing off runs_seen even though the
        // buffer length plateaued at the cap.
        assert!(engine.rolling_swaps() >= 3, "{}", engine.rolling_swaps());
    }

    #[test]
    fn staleness_flags_drift_and_boundary_retrain_follows() {
        let mut engine = engine(1e9_f64, 41); // huge τ: gate always serves
        engine
            .enable_staleness(crate::StalenessConfig {
                window: 8,
                baseline: 8,
                std_ratio: 1.3,
                nominal_coverage: 0.9,
                min_coverage: 0.0, // isolate the std-inflation symptom
                min_labelled: 64,
            })
            .unwrap();
        let mut rng = Rng::new(42);
        // Train on the unit box.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..60 {
            let x = vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            let y = engine.simulator().truth(&x);
            xs.push(x);
            ys.push(y);
        }
        engine.seed_training(&xs, &ys).unwrap();
        // In-domain queries fill the baseline window with calm stds.
        for _ in 0..8 {
            let x = [rng.uniform_in(-0.5, 0.5), rng.uniform_in(-0.5, 0.5)];
            engine.query(&x).unwrap();
        }
        // Drift: moderate extrapolation inflates the gate std.
        for _ in 0..40 {
            let x = [rng.uniform_in(2.0, 3.0), rng.uniform_in(-3.0, -2.0)];
            engine.query(&x).unwrap();
            if engine.supervisor().stale_flags() > 0 {
                break;
            }
        }
        assert!(
            engine.supervisor().stale_flags() >= 1,
            "drifted queries must flag staleness"
        );
        // The flag requested a boundary retrain; with a well-stocked
        // buffer it executed at the end of the same (single-row) wave,
        // clearing both the pending latch and the typed evidence.
        assert!(!engine.retrain_pending);
        assert!(engine.rolling_swaps() >= 1);
        assert!(engine.supervisor().last_staleness().is_none());
    }

    #[test]
    fn failed_boundary_retrain_marks_growth_in_inline_mode() {
        // Inline mode (no rolling) with staleness: a staleness-requested
        // boundary retrain that fails must push the growth mark to
        // `runs_seen`, exactly like a failed growth-triggered retrain.
        let mut engine = engine(1e9_f64, 43); // huge τ: gate always serves
        engine
            .enable_staleness(crate::StalenessConfig {
                window: 8,
                baseline: 8,
                std_ratio: 1.3,
                nominal_coverage: 0.9,
                min_coverage: 0.0,
                min_labelled: 64,
            })
            .unwrap();
        let mut rng = Rng::new(44);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..40 {
            let x = vec![rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)];
            ys.push(engine.simulator().truth(&x));
            xs.push(x);
        }
        // Below min_training_runs (48): buffered, not trained…
        engine.seed_training(&xs, &ys).unwrap();
        // …until a manual fit on the clean buffer marks growth at 40.
        engine.retrain().unwrap();
        assert_eq!(engine.runs_at_last_fit, 40);
        // Sub-threshold poisoned seeding: tolerated, fatal to the next fit.
        let poisoned_x = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![0.2, 0.2],
            vec![0.3, 0.3],
        ];
        engine
            .seed_training(&poisoned_x, &vec![vec![f64::NAN]; 4])
            .unwrap();
        assert_eq!(engine.runs_seen(), 44);
        for _ in 0..8 {
            let x = [rng.uniform_in(-0.5, 0.5), rng.uniform_in(-0.5, 0.5)];
            engine.query(&x).unwrap();
        }
        for _ in 0..40 {
            let x = [rng.uniform_in(2.0, 3.0), rng.uniform_in(-3.0, -2.0)];
            engine.query(&x).unwrap();
            if engine.supervisor().retrain_failures() > 0 {
                break;
            }
        }
        assert!(engine.supervisor().stale_flags() >= 1, "drift must flag");
        assert_eq!(
            engine.supervisor().retrain_failures(),
            1,
            "the boundary retrain failed"
        );
        assert_eq!(engine.rolling_swaps(), 0);
        assert_eq!(engine.n_simulations(), 0, "the gate served every row");
        assert_eq!(engine.runs_at_last_fit, engine.runs_seen());
    }
}
