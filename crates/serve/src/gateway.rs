//! One address in front of several backends.
//!
//! Clients speak the ordinary newline-delimited protocol
//! ([`crate::proto`]) to a single endpoint, and the gateway forwards,
//! shards and fails over across its backends.
//!
//! # Architecture
//!
//! The gateway runs on the same serving core as the server.
//! Its I/O loops answer `metrics` and `shutdown` and reject journaled
//! jobs; every other request is a job for a worker, which forwards it
//! over the worker's own backend connections and sends the response, and
//! any `sweep-stream` frames, down the client's connection. A slow
//! backend holds only the worker waiting on it, and idle client sockets
//! cost only their buffers.
//!
//! # Backend health
//!
//! One table of dead marks decides for every kind of request whether to
//! skip a backend. A forward that fails marks its backend dead for a
//! probe interval (100 ms); until the mark expires nothing is sent
//! there, and the next forward after it is the probe: a reply clears
//! the mark, another failure sets it again.
//!
//! # Request routing
//!
//! * `profile` / `synth` / `simulate` / `assemble` / `job-result` —
//!   forwarded to one backend, round-robin with failover: a transport
//!   error marks the backend dead and the next backend takes the
//!   request, unless it was a timeout, which the client gets back as an
//!   error instead.
//! * `sweep` — sharded across all backends as single-point `simulate`
//!   forwards on the same path; the merged result is byte-identical to
//!   a single-backend sweep except that the payload omits
//!   `profile_hash` (the gateway never touches profile artifacts).
//! * `sweep-stream` — sharded the same way, with one progress frame
//!   per point as it lands (completion order, not index order — the
//!   client merges by index and verifies the digest).
//! * `submit-program` — broadcast: every backend must accept the
//!   program (registration is per-backend state), and the response is
//!   the last backend's (the content-addressed hash is identical
//!   everywhere by construction).
//! * `metrics` — answered inline from this process's registry.
//! * `shutdown` — stop accepting, drain the queue, ack, exit.
//!
//! Requests carrying a `"job"` key are rejected: the journal is
//! backend-local durability, and a gateway that forwarded journaled
//! jobs would re-ack work it cannot itself recover. Submit journaled
//! jobs to a backend directly.

use crate::client::{Client, Response};
use crate::frontend::{Frontend, Out, Service, Step};
use crate::json::Json;
use crate::proto::{
    err_response, ok_response, point_frame, sweep_order, sweep_payload, Envelope, PointResult,
    Request,
};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

static OBS_REQUESTS: ssim_obs::Counter = ssim_obs::Counter::new("gateway.requests");
static OBS_FORWARDS: ssim_obs::Counter = ssim_obs::Counter::new("gateway.forwards");
static OBS_FAILOVER: ssim_obs::Counter = ssim_obs::Counter::new("gateway.failover");
static OBS_FRAMES: ssim_obs::Counter = ssim_obs::Counter::new("gateway.frames");
static OBS_LATENCY: ssim_obs::LogHistogram = ssim_obs::LogHistogram::new("gateway.latency_us");
static OBS_SWEEPS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.sweeps");
static OBS_POINTS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.points");
static OBS_RETRIES: ssim_obs::Counter = ssim_obs::Counter::new("fleet.retries");
static OBS_STEALS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.steals");
static OBS_TRANSITIONS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.backend_transitions");
static OBS_INFLIGHT: ssim_obs::Gauge = ssim_obs::Gauge::new("fleet.inflight");

/// How long a backend that failed a forward is skipped; the next
/// forward after it is the probe.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

/// The longest a forward without a deadline, or a sweep point, waits
/// for its backend's reply.
const FORWARD_TIMEOUT_MS: u64 = 30_000;

/// The longest a sweep runs, whatever its deadline.
const SWEEP_BUDGET_MS: u64 = 300_000;

/// Forwards one sweep point may take; the sweep fails when a point
/// needs more.
const MAX_ATTEMPTS: u32 = 16;

/// Tunables of one gateway.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Backend addresses — at least one.
    pub backends: Vec<String>,
    /// Forwarding workers (each request occupies one for its
    /// duration); `0` means `(2 × ssim_par threads).clamp(4, 32)`.
    pub workers: usize,
    /// Forward-queue bound; beyond it requests are rejected with
    /// `retry_after_ms`.
    pub queue_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            workers: 0,
            queue_capacity: 4096,
        }
    }
}

/// Per-backend metric handles (interned, so gateways over the same
/// number of backends share the registry rows).
struct BackendMetrics {
    inflight: &'static ssim_obs::Gauge,
    retries: &'static ssim_obs::Counter,
    steals: &'static ssim_obs::Counter,
    transitions: &'static ssim_obs::Counter,
    served: &'static ssim_obs::Counter,
}

impl BackendMetrics {
    fn for_backend(i: usize) -> Self {
        let name = |field: &str| format!("fleet.backend{i}.{field}");
        BackendMetrics {
            inflight: ssim_obs::dyn_gauge(&name("inflight")),
            retries: ssim_obs::dyn_counter(&name("retries")),
            steals: ssim_obs::dyn_counter(&name("steals")),
            transitions: ssim_obs::dyn_counter(&name("transitions")),
            served: ssim_obs::dyn_counter(&name("served")),
        }
    }
}

/// The gateway's half of the serving core: routing and backend health.
struct GwShared {
    cfg: GatewayConfig,
    /// Per-backend dead marks, the gateway's one record of backend
    /// health: `Some` once a forward failed, skipped until the instant
    /// passes, cleared by the next reply.
    dead_until: Mutex<Vec<Option<Instant>>>,
    /// Round-robin cursor for single-request forwarding.
    rr: AtomicUsize,
    /// Indexed like `cfg.backends`.
    metrics: Vec<BackendMetrics>,
}

impl GwShared {
    /// How much longer backend `bi` is skipped, if it is.
    fn dead_for(&self, bi: usize) -> Option<Duration> {
        let until = self.dead_until.lock().expect("dead list lock")[bi]?;
        until.checked_duration_since(Instant::now())
    }

    fn is_dead(&self, bi: usize) -> bool {
        self.dead_for(bi).is_some()
    }

    /// Records how a forward to backend `bi` went: a failure marks it
    /// dead for a probe interval, a reply clears the mark. Counts each
    /// change between healthy and marked as a transition.
    fn record_health(&self, bi: usize, replied: bool) {
        let mut marks = self.dead_until.lock().expect("dead list lock");
        let was_marked = marks[bi].is_some();
        marks[bi] = (!replied).then(|| Instant::now() + PROBE_INTERVAL);
        drop(marks);
        if was_marked == replied {
            OBS_TRANSITIONS.inc();
            self.metrics[bi].transitions.inc();
        }
    }
}

/// Re-renders a backend response body under the gateway client's id.
fn with_id(id: u64, body: &Json) -> String {
    let Json::Obj(pairs) = body else {
        return err_response(id, "backend returned a non-object response", None);
    };
    let mut pairs = pairs.clone();
    let mut saw = false;
    for (k, v) in pairs.iter_mut() {
        if k == "id" {
            *v = Json::Num(id as f64);
            saw = true;
        }
    }
    if !saw {
        pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
    }
    Json::Obj(pairs).render()
}

impl Service for GwShared {
    const NAME: &'static str = "gateway";
    /// A forward: the client's request, under its id and deadline.
    type Job = Envelope;
    /// Lazily connected backend connections, one slot per backend, for
    /// every forward the worker makes.
    type Worker = Vec<Option<Client>>;

    fn worker(&self) -> Vec<Option<Client>> {
        self.cfg.backends.iter().map(|_| None).collect()
    }

    /// Only instant work happens here — anything touching a backend is
    /// a job.
    fn on_request(&self, env: Envelope) -> Step<Envelope> {
        OBS_REQUESTS.inc();
        if env.job.is_some() {
            return Step::Reply(err_response(
                env.id,
                "journaled jobs must be submitted to a backend directly; \
                 the gateway does not persist jobs",
                None,
            ));
        }
        match env.req {
            Request::Metrics => Step::Metrics(env.id),
            // Ack only after every accepted forward has answered.
            Request::Shutdown => Step::Shutdown(env.id),
            _ => Step::Job {
                id: env.id,
                bounded: true,
                job: env,
            },
        }
    }

    fn run(&self, pools: &mut Vec<Option<Client>>, job: Envelope, out: &Out) {
        OBS_FORWARDS.inc();
        let line = match &job.req {
            Request::Sweep { .. } | Request::SweepStream { .. } => {
                run_sweep(self, pools, &job, out)
            }
            Request::SubmitProgram { .. } => broadcast(self, pools, &job),
            _ => forward_single(self, pools, &job),
        };
        out.send(line);
        OBS_LATENCY.record(out.accepted.elapsed().as_micros() as u64);
    }
}

/// A running gateway.
pub struct Gateway {
    frontend: Frontend<GwShared>,
}

impl Gateway {
    /// Binds and starts the gateway.
    ///
    /// # Errors
    ///
    /// Rejects an empty backend list; propagates bind failures.
    pub fn start(mut cfg: GatewayConfig) -> std::io::Result<Gateway> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "gateway needs at least one backend",
            ));
        }
        ssim_obs::force_enable();
        if cfg.workers == 0 {
            cfg.workers = (ssim_par::num_threads() * 2).clamp(4, 32);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let (workers, queue_capacity) = (cfg.workers, cfg.queue_capacity);
        let shared = GwShared {
            dead_until: Mutex::new(vec![None; cfg.backends.len()]),
            rr: AtomicUsize::new(0),
            metrics: (0..cfg.backends.len())
                .map(BackendMetrics::for_backend)
                .collect(),
            cfg,
        };
        Ok(Gateway {
            frontend: Frontend::start(listener, shared, workers, queue_capacity, Vec::new())?,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// Waits for the gateway to exit (a client `shutdown` request, or
    /// [`Gateway::stop`]) and to write its last replies.
    pub fn join(self) {
        self.frontend.join();
    }

    /// Asks the gateway to stop without waiting for a `shutdown`
    /// request (tests; production shutdown goes through the protocol so
    /// clients get an ack). Queued forwards still run before
    /// [`Gateway::join`] returns.
    pub fn stop(&self) {
        self.frontend.stop();
    }
}

/// How long a forward waits for its backend's reply.
fn forward_timeout_ms(deadline_ms: Option<u64>) -> u64 {
    deadline_ms.unwrap_or(FORWARD_TIMEOUT_MS).max(1)
}

/// Forwards `req` to backend `bi` on the worker's connection to it
/// (connecting lazily) under the request's deadline, retrying
/// backpressure in place on the server's hint. A transport error tears
/// the connection down and marks the backend dead; a reply clears the
/// mark.
fn call_backend(
    shared: &GwShared,
    conn: &mut Option<Client>,
    bi: usize,
    req: &Request,
    deadline_ms: Option<u64>,
) -> std::io::Result<Response> {
    if conn.is_none() {
        match Client::connect(shared.cfg.backends[bi].as_str()) {
            Ok(cl) => *conn = Some(cl),
            Err(e) => {
                shared.record_health(bi, false);
                return Err(e);
            }
        }
    }
    let cl = conn.as_mut().expect("connection just opened");
    let timeout = Duration::from_millis(forward_timeout_ms(deadline_ms));
    let resp = cl
        .set_read_timeout(Some(timeout))
        .and_then(|()| cl.call_retry(req, deadline_ms, 3));
    if resp.is_err() {
        // The stream may hold a half-read response; reconnect next use.
        *conn = None;
    }
    shared.record_health(bi, resp.is_ok());
    resp
}

/// Round-robin single-request forwarding with failover: a connect
/// failure or reset moves the request to the next live backend. A
/// timeout answers the client with an error instead: the request has
/// spent its deadline, and re-sending it would carry one slow or poison
/// request to every backend in turn.
fn forward_single(shared: &GwShared, pools: &mut [Option<Client>], job: &Envelope) -> String {
    let n = shared.cfg.backends.len();
    let start = shared.rr.fetch_add(1, Relaxed);
    let mut last_err = "all backends marked dead".to_string();
    for k in 0..n {
        let bi = (start + k) % n;
        if shared.is_dead(bi) {
            continue;
        }
        match call_backend(shared, &mut pools[bi], bi, &job.req, job.deadline_ms) {
            Ok(resp) => return with_id(job.id, &resp.body),
            Err(e) => {
                let backend = &shared.cfg.backends[bi];
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    let ms = forward_timeout_ms(job.deadline_ms);
                    let msg = format!("backend {backend} timed out after {ms} ms");
                    return err_response(job.id, &msg, None);
                }
                OBS_FAILOVER.inc();
                last_err = format!("{backend}: {e}");
            }
        }
    }
    err_response(
        job.id,
        &format!("no healthy backend ({last_err})"),
        Some(50),
    )
}

/// Broadcast forwarding for `submit-program`: registration is
/// per-backend state, so every backend must accept the program before
/// the gateway acks it (later `simulate`/`sweep` requests may land on
/// any backend). A backend marked dead fails the broadcast at once.
fn broadcast(shared: &GwShared, pools: &mut [Option<Client>], job: &Envelope) -> String {
    let mut last_body = None;
    for (bi, conn) in pools.iter_mut().enumerate() {
        let backend = &shared.cfg.backends[bi];
        if shared.is_dead(bi) {
            let msg = format!("{backend}: marked dead after a failed forward");
            return err_response(job.id, &msg, Some(50));
        }
        match call_backend(shared, conn, bi, &job.req, job.deadline_ms) {
            Ok(resp) if resp.ok => last_body = Some(resp.body),
            Ok(resp) => {
                let msg = resp.error.unwrap_or_else(|| "unknown error".to_string());
                return err_response(job.id, &format!("{backend}: {msg}"), resp.retry_after_ms);
            }
            Err(e) => return err_response(job.id, &format!("{backend}: {e}"), Some(50)),
        }
    }
    match last_body {
        Some(body) => with_id(job.id, &body),
        None => err_response(job.id, "gateway has no backends", None),
    }
}

/// Shards one sweep across the backends: one scoped thread per backend
/// on the worker's connection to it, each taking points from one queue
/// in [`sweep_order`] and forwarding each as a `simulate` through
/// [`call_backend`]. Results land by index, so the payload mirrors the
/// server's sweep response whatever answered which point, minus
/// `profile_hash` (a gateway has no profile store; the digest is the
/// integrity handle).
fn run_sweep(shared: &GwShared, pools: &mut [Option<Client>], job: &Envelope, out: &Out) -> String {
    let (Request::Sweep {
        profile,
        machines,
        r,
        seeds,
    }
    | Request::SweepStream {
        profile,
        machines,
        r,
        seeds,
    }) = &job.req
    else {
        unreachable!("run_sweep runs sweeps")
    };
    let n = machines.len() * seeds.len();
    OBS_SWEEPS.inc();
    OBS_POINTS.add(n as u64);
    let budget_ms = job
        .deadline_ms
        .map_or(SWEEP_BUDGET_MS, |d| d.clamp(1, SWEEP_BUDGET_MS));
    let sweep = Sweep {
        shared,
        job,
        out,
        point: &|i| Request::Simulate {
            profile: profile.clone(),
            machine: machines[i / seeds.len()].clone(),
            r: *r,
            seed: seeds[i % seeds.len()],
        },
        deadline: Instant::now() + Duration::from_millis(budget_ms),
        budget_ms,
        state: Mutex::new(SweepState {
            queue: sweep_order(machines.len(), seeds.len()).into(),
            results: vec![None; n],
            attempts: vec![0; n],
            failed_by: vec![None; n],
            outstanding: n,
            error: None,
        }),
        changed: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for (bi, conn) in pools.iter_mut().enumerate() {
            let sweep = &sweep;
            scope.spawn(move || sweep.serve(bi, conn));
        }
    });
    let st = sweep.state.into_inner().expect("sweep lock");
    if let Some(msg) = st.error {
        return err_response(job.id, &msg, None);
    }
    let points: Vec<PointResult> = st
        .results
        .into_iter()
        .map(|p| p.expect("a finished sweep answered every point"))
        .collect();
    ok_response(job.id, sweep_payload(machines.len(), seeds.len(), &points))
}

/// One sweep in progress. A point is queued, forwarded by exactly one
/// backend thread, or answered: only a failed forward puts it back, and
/// a failed forward's connection is dropped, so no late reply reaches a
/// slot.
struct Sweep<'a> {
    shared: &'a GwShared,
    job: &'a Envelope,
    out: &'a Out,
    /// The single-point request for point `i` (machines outer, seeds
    /// inner, as in the server's sweep).
    point: &'a (dyn Fn(usize) -> Request + Sync),
    deadline: Instant,
    budget_ms: u64,
    state: Mutex<SweepState>,
    /// Signalled when a point goes back on the queue or the sweep ends.
    changed: Condvar,
}

struct SweepState {
    /// Points waiting for a backend, in work order.
    queue: VecDeque<usize>,
    results: Vec<Option<PointResult>>,
    /// Forwards each point has taken.
    attempts: Vec<u32>,
    /// The backend that last failed each point.
    failed_by: Vec<Option<usize>>,
    outstanding: usize,
    /// Why the sweep failed; the first reason wins.
    error: Option<String>,
}

/// Why a point's forward failed.
enum PointError {
    /// Another forward, to this backend or another, can still answer
    /// it.
    Retry(String),
    /// No backend will ever answer it (unknown workload, malformed).
    Fatal(String),
}

impl Sweep<'_> {
    /// One backend's thread: forwards points until the sweep is over.
    fn serve(&self, bi: usize, conn: &mut Option<Client>) {
        let metrics = &self.shared.metrics[bi];
        while let Some((i, timeout_ms)) = self.take(bi) {
            OBS_INFLIGHT.add(1);
            metrics.inflight.add(1);
            let outcome = self.forward(conn, bi, i, timeout_ms);
            metrics.inflight.sub(1);
            OBS_INFLIGHT.sub(1);
            match outcome {
                Ok(point) => self.answer(bi, i, point),
                Err(PointError::Retry(msg)) => self.put_back(bi, i, &msg),
                Err(PointError::Fatal(msg)) => self.fail(format!("point {i}: {msg}")),
            }
        }
    }

    /// Waits until backend `bi` is live and a point is queued, and takes
    /// the front one, with the milliseconds its forward may wait. `None`
    /// once the sweep is answered, failed or out of time.
    fn take(&self, bi: usize) -> Option<(usize, u64)> {
        let mut st = self.state.lock().expect("sweep lock");
        loop {
            if st.error.is_some() || st.outstanding == 0 {
                return None;
            }
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                st.error = Some(format!(
                    "sweep timed out after {} ms with {} of {} points outstanding",
                    self.budget_ms,
                    st.outstanding,
                    st.results.len()
                ));
                self.changed.notify_all();
                return None;
            }
            // A dead backend sits out its mark; a live one with nothing
            // queued waits for a failed point to come back.
            let wait = match self.shared.dead_for(bi) {
                Some(sit_out) => sit_out,
                None => match st.queue.pop_front() {
                    Some(i) => {
                        st.attempts[i] += 1;
                        let ms = (left.as_millis() as u64).clamp(1, FORWARD_TIMEOUT_MS);
                        return Some((i, ms));
                    }
                    None => left,
                },
            };
            st = self
                .changed
                .wait_timeout(st, wait.min(left))
                .expect("sweep lock")
                .0;
        }
    }

    /// Forwards point `i` to backend `bi` as one `simulate`.
    fn forward(
        &self,
        conn: &mut Option<Client>,
        bi: usize,
        i: usize,
        timeout_ms: u64,
    ) -> Result<PointResult, PointError> {
        let backend = &self.shared.cfg.backends[bi];
        let resp = call_backend(self.shared, conn, bi, &(self.point)(i), Some(timeout_ms))
            .map_err(|e| PointError::Retry(format!("{backend}: {e}")))?;
        if resp.ok {
            return PointResult::from_json(&resp.body).map_err(PointError::Fatal);
        }
        let msg = resp.error.unwrap_or_else(|| "unknown error".to_string());
        // Backpressure that outlasted the in-place retries, a missed
        // deadline or a backend going away: the backend failed the
        // forward, and sits it out like a transport failure.
        if resp.retry_after_ms.is_some()
            || msg.contains("deadline")
            || msg.contains("shutting down")
        {
            self.shared.record_health(bi, false);
            return Err(PointError::Retry(format!("{backend}: {msg}")));
        }
        Err(PointError::Fatal(msg))
    }

    /// Records point `i`'s answer from backend `bi`, and sends its
    /// frame on a `sweep-stream`.
    fn answer(&self, bi: usize, i: usize, mut point: PointResult) {
        // Where a point ran must not show in the merged output.
        point.cached = false;
        let mut st = self.state.lock().expect("sweep lock");
        let stolen = st.failed_by[i].is_some_and(|b| b != bi);
        st.results[i] = Some(point);
        st.outstanding -= 1;
        let done = st.outstanding == 0;
        drop(st);
        let metrics = &self.shared.metrics[bi];
        metrics.served.inc();
        if stolen {
            // Another backend failed it: this is the reassignment the
            // shared queue exists for.
            OBS_STEALS.inc();
            metrics.steals.inc();
        }
        if matches!(self.job.req, Request::SweepStream { .. }) {
            OBS_FRAMES.inc();
            self.out.send(point_frame(self.job.id, i, &point));
        }
        if done {
            self.changed.notify_all();
        }
    }

    /// Puts point `i` back at the front of the queue after backend `bi`
    /// failed it, or fails the sweep once the point is out of attempts.
    fn put_back(&self, bi: usize, i: usize, msg: &str) {
        let mut st = self.state.lock().expect("sweep lock");
        if st.attempts[i] >= MAX_ATTEMPTS {
            let msg = format!(
                "point {i} failed after {} attempts (last: {msg})",
                st.attempts[i]
            );
            st.error.get_or_insert(msg);
        } else {
            // The sweep's oldest outstanding work goes first, to
            // whichever live backend takes it.
            st.failed_by[i] = Some(bi);
            st.queue.push_front(i);
            OBS_RETRIES.inc();
            self.shared.metrics[bi].retries.inc();
        }
        drop(st);
        self.changed.notify_all();
    }

    fn fail(&self, msg: String) {
        self.state
            .lock()
            .expect("sweep lock")
            .error
            .get_or_insert(msg);
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_id_rewrites_or_inserts() {
        let body = Json::parse("{\"id\": 99, \"ok\": true, \"x\": 1}").unwrap();
        let out = with_id(7, &body);
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(back.get("x").unwrap().as_u64(), Some(1));
        let noid = Json::parse("{\"ok\": true}").unwrap();
        let back = Json::parse(&with_id(3, &noid)).unwrap();
        assert_eq!(back.get("id").unwrap().as_u64(), Some(3));
        // Non-object bodies become structured errors, not panics.
        assert!(with_id(3, &Json::Null).contains("\"ok\":false"));
    }

    #[test]
    fn start_rejects_empty_backends() {
        match Gateway::start(GatewayConfig::default()) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("gateway started with no backends"),
        }
    }
}
