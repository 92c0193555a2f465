//! The serving loop: ingress reassembly → admission → wave formation →
//! `HybridEngine::query_each` → response delivery + telemetry.
//!
//! [`serve`] spawns `clients` producer threads over a generated
//! [`Workload`] (client `c` owns sequence numbers `c, c + clients, …`),
//! reassembles the stream in strict sequence order through the
//! [`IngressQueue`], and answers it on the calling thread:
//!
//! * **Admission** (sequence order, logical time): quota rejections are
//!   answered immediately with typed [`LeError::Backpressure`]; admitted
//!   requests join the open wave.
//! * **Wave formation** — open loop: a wave closes when adding the next
//!   request would exceed `batch_max_rows`, or when the next popped
//!   request's *logical* arrival falls outside the wave's `deadline`
//!   window (both triggers read the seeded schedule, never a clock). A
//!   single oversized request becomes its own wave. Closed loop: one
//!   in-flight request per client, served in lockstep rounds — a round
//!   collects exactly one request from every still-active client, serves
//!   the admitted ones (chunked to `batch_max_rows`), then releases the
//!   clients to submit their next requests.
//! * **Execution**: each wave is one `query_each` call — per-row results,
//!   so a request whose simulation fails is answered with its typed error
//!   while the rest of the wave is served normally.
//! * **Telemetry**: deterministic counters (`serve.submitted`,
//!   `serve.admitted`, `serve.rejected`, `serve.waves`,
//!   `serve.rows_served`, `serve.row_errors`, and per-tenant
//!   `serve.tenant<T>.…`) plus wall-clock latency histograms under the
//!   `serve.latency` prefix (excluded from snapshot diffing; summarized
//!   as p50/p99/p999 in the [`ServeReport`]).

use std::sync::{Condvar, Mutex};

use le_obs::Stopwatch;
use learning_everywhere::hybrid::QueryResult;
use learning_everywhere::{HybridEngine, LeError, Result, Simulator};

use crate::admission::{AdmissionController, TenantQuota};
use crate::loadgen::Workload;
use crate::queue::{relock, IngressQueue};

/// Histogram bounds for the serve latency histograms (seconds): a
/// log-ish ladder from 10 µs to 10 s plus the implicit overflow bucket.
pub const LATENCY_BOUNDS: [f64; 19] = [
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0,
    2.0, 5.0, 10.0,
];

/// Open-loop (scheduled arrivals) or closed-loop (one in-flight request
/// per client) driving mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    /// Clients submit on the generated schedule without waiting for
    /// responses; concurrency is bounded by the ingress ring.
    Open,
    /// Each client waits for its previous response before submitting the
    /// next request (lockstep rounds; classic closed-loop load).
    Closed,
}

/// Serving-frontend configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Producer (client) threads.
    pub clients: usize,
    /// Ingress ring capacity (the saturation window, in requests).
    pub queue_capacity: usize,
    /// Wave size trigger: close the wave rather than grow past this many
    /// rows.
    pub batch_max_rows: usize,
    /// Wave deadline trigger (open loop), in *logical* seconds: a wave
    /// never spans more than this much scheduled arrival time.
    pub deadline: f64,
    /// Driving mode.
    pub mode: LoopMode,
    /// Per-tenant quotas; must cover every tenant in the workload.
    pub quotas: Vec<TenantQuota>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            queue_capacity: 256,
            batch_max_rows: 256,
            deadline: 0.005,
            mode: LoopMode::Open,
            quotas: vec![TenantQuota::unlimited()],
        }
    }
}

/// One answered request, in sequence order.
#[derive(Debug, Clone)]
pub struct Response {
    /// Global sequence number (== index into [`ServeReport::responses`]).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// `Err` means the request was rejected at admission
    /// ([`LeError::Backpressure`]) and never executed; `Ok` carries one
    /// result per payload row (a row's own simulation failure is that
    /// row's `Err` — the other rows of the request still served).
    pub outcome: Result<Vec<Result<QueryResult>>>,
    /// Submit-to-answer wall-clock latency (seconds). Real time — the
    /// only non-deterministic field of a serve run.
    pub latency: f64,
}

/// Wall-clock latency summary over every answered request (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

/// The outcome of a serve run. Everything here except `latency` (and the
/// per-response `latency` fields) is deterministic per workload seed.
#[derive(Debug)]
pub struct ServeReport {
    /// One response per request, indexed by sequence number.
    pub responses: Vec<Response>,
    /// Requests submitted, per tenant.
    pub submitted: Vec<u64>,
    /// Requests admitted, per tenant (`admitted + rejected == submitted`).
    pub admitted: Vec<u64>,
    /// Requests rejected at admission, per tenant.
    pub rejected: Vec<u64>,
    /// Waves dispatched to the engine.
    pub waves: u64,
    /// Rows answered with `Ok` across all served requests.
    pub rows_served: u64,
    /// Rows answered with a typed per-row error.
    pub row_errors: u64,
    /// Wall-clock latency summary (non-deterministic).
    pub latency: LatencySummary,
}

/// Closed-loop completion board: clients park until their sequence
/// number is marked answered.
struct DoneBoard {
    flags: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl DoneBoard {
    fn new(n: usize) -> Self {
        Self {
            flags: Mutex::new(vec![false; n]),
            cv: Condvar::new(),
        }
    }

    fn wait(&self, seq: usize) {
        let mut flags = relock(self.flags.lock());
        while !flags[seq] {
            flags = relock(self.cv.wait(flags));
        }
    }

    fn mark(&self, seqs: impl Iterator<Item = usize>) {
        let mut flags = relock(self.flags.lock());
        for s in seqs {
            flags[s] = true;
        }
        drop(flags);
        self.cv.notify_all();
    }
}

/// A request travelling through the ring: schedule fields plus the
/// wall-clock stopwatch started at submission.
struct Request {
    seq: u64,
    tenant: usize,
    arrival: f64,
    row_start: usize,
    rows: usize,
    sw: Stopwatch,
}

/// Pre-registered telemetry handles: one lookup per serve run, zero
/// allocation per request.
struct Telemetry {
    submitted: Vec<le_obs::Counter>,
    admitted: Vec<le_obs::Counter>,
    rejected: Vec<le_obs::Counter>,
    latency_all: le_obs::Histogram,
    latency_tenant: Vec<le_obs::Histogram>,
    waves: le_obs::Counter,
    rows_served: le_obs::Counter,
    row_errors: le_obs::Counter,
}

impl Telemetry {
    fn new(tenants: usize) -> Self {
        let g = le_obs::global();
        let per = |what: &str| -> Vec<le_obs::Counter> {
            (0..tenants)
                .map(|t| g.counter(&format!("serve.tenant{t}.{what}")))
                .collect()
        };
        Self {
            submitted: per("submitted"),
            admitted: per("admitted"),
            rejected: per("rejected"),
            latency_all: g.histogram("serve.latency", &LATENCY_BOUNDS),
            latency_tenant: (0..tenants)
                .map(|t| g.histogram(&format!("serve.latency.tenant{t}"), &LATENCY_BOUNDS))
                .collect(),
            waves: g.counter("serve.waves"),
            rows_served: g.counter("serve.rows_served"),
            row_errors: g.counter("serve.row_errors"),
        }
    }
}

/// Percentile from a sorted latency sample (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The serving loop's mutable state while draining the stream.
struct Server<'a, S: Simulator> {
    engine: &'a mut HybridEngine<S>,
    workload: &'a Workload,
    cfg: &'a ServeConfig,
    adm: AdmissionController,
    obs: Telemetry,
    responses: Vec<Option<Response>>,
    submitted: Vec<u64>,
    admitted: Vec<u64>,
    rejected: Vec<u64>,
    waves: u64,
    rows_served: u64,
    row_errors: u64,
    latencies: Vec<f64>,
    /// The open wave: admitted requests not yet dispatched.
    wave: Vec<Request>,
    wave_rows: usize,
    wave_opened_at: f64,
}

impl<'a, S: Simulator> Server<'a, S> {
    fn new(
        engine: &'a mut HybridEngine<S>,
        workload: &'a Workload,
        cfg: &'a ServeConfig,
    ) -> Result<Self> {
        let tenants = cfg.quotas.len();
        let adm = AdmissionController::new(cfg.quotas.clone())?;
        let n = workload.specs.len();
        Ok(Self {
            engine,
            workload,
            cfg,
            adm,
            obs: Telemetry::new(tenants),
            responses: (0..n).map(|_| None).collect(),
            submitted: vec![0; tenants],
            admitted: vec![0; tenants],
            rejected: vec![0; tenants],
            waves: 0,
            rows_served: 0,
            row_errors: 0,
            latencies: Vec::with_capacity(n),
            wave: Vec::new(),
            wave_rows: 0,
            wave_opened_at: 0.0,
        })
    }

    /// Admission for one popped request: either queue it on the open
    /// wave or answer it with its rejection immediately.
    fn take(&mut self, req: Request) -> Result<()> {
        let t = req.tenant;
        self.submitted[t] += 1;
        self.obs.submitted[t].inc();
        le_obs::counter!("serve.submitted").inc();
        match self.adm.admit(t, req.rows, req.arrival) {
            Ok(()) => {
                self.admitted[t] += 1;
                self.obs.admitted[t].inc();
                le_obs::counter!("serve.admitted").inc();
                if self.wave.is_empty() {
                    self.wave_opened_at = req.arrival;
                }
                self.wave_rows += req.rows;
                self.wave.push(req);
                Ok(())
            }
            Err(e) => {
                self.rejected[t] += 1;
                self.obs.rejected[t].inc();
                le_obs::counter!("serve.rejected").inc();
                self.respond(req, Err(e));
                Ok(())
            }
        }
    }

    /// Whether the open-loop triggers close the wave *before* `next`
    /// joins it.
    fn wave_closes_before(&self, next: &Request) -> bool {
        if self.wave.is_empty() {
            return false;
        }
        self.wave_rows + next.rows > self.cfg.batch_max_rows
            || next.arrival > self.wave_opened_at + self.cfg.deadline
    }

    /// Dispatch the open wave as one `query_each` call and answer its
    /// requests.
    fn flush(&mut self) -> Result<()> {
        if self.wave.is_empty() {
            return Ok(());
        }
        let wave = std::mem::take(&mut self.wave);
        let wave_rows = self.wave_rows;
        self.wave_rows = 0;
        let mut inputs: Vec<&[f64]> = Vec::with_capacity(wave_rows);
        for req in &wave {
            for r in req.row_start..req.row_start + req.rows {
                inputs.push(self.workload.row(r));
            }
        }
        self.waves += 1;
        self.obs.waves.inc();
        let sp = le_obs::timed_span!("serve.wave");
        let mut results = self.engine.query_each(&inputs)?.into_iter();
        sp.finish_secs();
        for req in wave {
            let rows: Vec<Result<QueryResult>> = results.by_ref().take(req.rows).collect();
            for r in &rows {
                match r {
                    Ok(_) => {
                        self.rows_served += 1;
                        self.obs.rows_served.inc();
                    }
                    Err(_) => {
                        self.row_errors += 1;
                        self.obs.row_errors.inc();
                    }
                }
            }
            self.respond(req, Ok(rows));
        }
        Ok(())
    }

    /// Record latency telemetry and file the response under its seq.
    fn respond(&mut self, req: Request, outcome: Result<Vec<Result<QueryResult>>>) {
        let latency = req.sw.elapsed_secs();
        self.obs.latency_all.record(latency);
        self.obs.latency_tenant[req.tenant].record(latency);
        self.latencies.push(latency);
        self.responses[req.seq as usize] = Some(Response {
            seq: req.seq,
            tenant: req.tenant,
            outcome,
            latency,
        });
    }

    fn into_report(mut self) -> Result<ServeReport> {
        let mut responses = Vec::with_capacity(self.responses.len());
        for (i, r) in self.responses.drain(..).enumerate() {
            responses.push(r.ok_or_else(|| {
                LeError::Simulation(format!("request {i} was never answered"))
            })?);
        }
        self.latencies.sort_by(f64::total_cmp);
        let latency = LatencySummary {
            p50: percentile(&self.latencies, 0.50),
            p99: percentile(&self.latencies, 0.99),
            p999: percentile(&self.latencies, 0.999),
            max: self.latencies.last().copied().unwrap_or(0.0),
            mean: if self.latencies.is_empty() {
                0.0
            } else {
                self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
            },
        };
        Ok(ServeReport {
            responses,
            submitted: self.submitted,
            admitted: self.admitted,
            rejected: self.rejected,
            waves: self.waves,
            rows_served: self.rows_served,
            row_errors: self.row_errors,
            latency,
        })
    }
}

/// Drive `workload` through `engine` under `cfg`. See the module docs
/// for the wave/admission semantics and the determinism contract.
pub fn serve<S: Simulator>(
    engine: &mut HybridEngine<S>,
    workload: &Workload,
    cfg: &ServeConfig,
) -> Result<ServeReport> {
    if cfg.clients == 0 {
        return Err(LeError::InvalidConfig("need at least one client".into()));
    }
    if cfg.batch_max_rows == 0 {
        return Err(LeError::InvalidConfig("batch_max_rows must be positive".into()));
    }
    if !(cfg.deadline > 0.0) || !cfg.deadline.is_finite() {
        return Err(LeError::InvalidConfig("deadline must be positive".into()));
    }
    if workload.input_dim != engine.simulator().input_dim() {
        return Err(LeError::InvalidConfig(format!(
            "workload rows have {} components, engine expects {}",
            workload.input_dim,
            engine.simulator().input_dim()
        )));
    }
    if workload.tenants > cfg.quotas.len() {
        return Err(LeError::InvalidConfig(format!(
            "workload uses {} tenants, quotas cover {}",
            workload.tenants,
            cfg.quotas.len()
        )));
    }

    let n = workload.specs.len();
    let clients = cfg.clients.min(n.max(1));
    let queue: IngressQueue<Request> = IngressQueue::new(cfg.queue_capacity);
    let done = DoneBoard::new(n);
    let closed = cfg.mode == LoopMode::Closed;

    std::thread::scope(|scope| {
        for c in 0..clients {
            queue.register_producer();
            let queue = &queue;
            let done = &done;
            let specs = &workload.specs;
            scope.spawn(move || {
                let mut seq = c;
                while seq < n {
                    let spec = specs[seq];
                    queue.push(
                        spec.seq,
                        Request {
                            seq: spec.seq,
                            tenant: spec.tenant,
                            arrival: spec.arrival,
                            row_start: spec.row_start,
                            rows: spec.rows,
                            sw: Stopwatch::start(),
                        },
                    );
                    if closed {
                        done.wait(seq);
                    }
                    seq += clients;
                }
                queue.producer_done();
            });
        }

        let mut server = Server::new(engine, workload, cfg)?;
        if closed {
            // Lockstep rounds: requests are popped in sequence order, so
            // round r is exactly the contiguous seq range [r·C, r·C + k)
            // where k counts the clients still holding requests.
            let mut answered = 0usize;
            while answered < n {
                let round = clients.min(n - answered);
                let lo = answered;
                for _ in 0..round {
                    let req = queue.pop().ok_or_else(|| {
                        LeError::Simulation("ingress closed before all requests arrived".into())
                    })?;
                    server.take(req)?;
                    // Size trigger still applies inside a round.
                    if server.wave_rows >= cfg.batch_max_rows {
                        server.flush()?;
                    }
                }
                server.flush()?;
                answered += round;
                done.mark(lo..answered);
            }
            // Producers have nothing left; drain the close handshake.
            while queue.pop().is_some() {}
        } else {
            while let Some(req) = queue.pop() {
                if server.wave_closes_before(&req) {
                    server.flush()?;
                }
                server.take(req)?;
                if server.wave_rows >= cfg.batch_max_rows {
                    server.flush()?;
                }
            }
            server.flush()?;
        }
        server.into_report()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        le_linalg::assert_close!(percentile(&xs, 0.50), 50.0, 1e-12);
        le_linalg::assert_close!(percentile(&xs, 0.99), 99.0, 1e-12);
        le_linalg::assert_close!(percentile(&xs, 0.999), 100.0, 1e-12);
        le_linalg::assert_close!(percentile(&[], 0.5), 0.0, 1e-12);
    }
}
