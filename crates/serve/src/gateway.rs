//! The fleet coordinator as a server-side endpoint.
//!
//! [`crate::fleet`] gives every *client* sharding, health probes and
//! retries — but each client must know the backend list and carry the
//! coordinator. The gateway moves that machinery behind one address:
//! clients speak the ordinary newline-delimited protocol
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
//! # Request routing
//!
//! * `profile` / `synth` / `simulate` / `assemble` / `job-result` —
//!   forwarded to one backend, round-robin with failover: a transport
//!   error marks the backend dead for a probe interval and the next
//!   backend takes the request, unless it was a timeout, which the
//!   client gets back as an error instead.
//! * `sweep` — sharded across all backends through [`Fleet`]; the
//!   merged result is byte-identical to a single-backend sweep except
//!   that the payload omits `profile_hash` (the gateway never touches
//!   profile artifacts).
//! * `sweep-stream` — sharded the same way, with one progress frame
//!   per completed point relayed through [`Fleet::sweep_streaming`]
//!   (completion order, not index order — the client merges by index
//!   and verifies the digest).
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

use crate::client::Client;
use crate::fleet::{Fleet, FleetConfig, SweepSpec};
use crate::frontend::{Frontend, Out, Service, Step};
use crate::json::Json;
use crate::proto::{
    err_response, ok_response, point_frame, sweep_payload, Envelope, PointResult, Request,
};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static OBS_REQUESTS: ssim_obs::Counter = ssim_obs::Counter::new("gateway.requests");
static OBS_FORWARDS: ssim_obs::Counter = ssim_obs::Counter::new("gateway.forwards");
static OBS_FAILOVER: ssim_obs::Counter = ssim_obs::Counter::new("gateway.failover");
static OBS_FRAMES: ssim_obs::Counter = ssim_obs::Counter::new("gateway.frames");
static OBS_LATENCY: ssim_obs::LogHistogram = ssim_obs::LogHistogram::new("gateway.latency_us");

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

/// The gateway's half of the serving core: routing and backend health.
struct GwShared {
    cfg: GatewayConfig,
    /// Per-backend "dead until" marks for single-request failover
    /// (sweeps carry their own health tracking inside [`Fleet`]).
    dead_until: Mutex<Vec<Option<Instant>>>,
    /// Round-robin cursor for single-request forwarding.
    rr: AtomicUsize,
}

impl GwShared {
    /// Marks backend `bi` dead for one probe interval; single-request
    /// forwarding skips it until the mark expires (the next attempt is
    /// the probe).
    fn mark_dead(&self, bi: usize) {
        let probe_interval = FleetConfig::default().probe_interval_ms;
        let until = Instant::now() + Duration::from_millis(probe_interval);
        self.dead_until.lock().expect("dead list lock")[bi] = Some(until);
    }

    fn is_dead(&self, bi: usize) -> bool {
        self.dead_until.lock().expect("dead list lock")[bi].is_some_and(|t| Instant::now() < t)
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
    /// Lazily connected backend connections for single-request
    /// forwarding (sweeps open their own through [`Fleet`]).
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
            Request::Sweep { .. } | Request::SweepStream { .. } => run_sweep(self, &job, out),
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

/// Shards one sweep across the backends; a `sweep-stream` relays each
/// point's frame as it lands. The payload mirrors the server's sweep
/// response minus `profile_hash` (a gateway has no profile store; the
/// digest is the integrity handle).
fn run_sweep(shared: &GwShared, job: &Envelope, out: &Out) -> String {
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
    // The fleet over this gateway's backends, within the job's deadline.
    let mut fc = FleetConfig {
        backends: shared.cfg.backends.clone(),
        ..FleetConfig::default()
    };
    if let Some(d) = job.deadline_ms {
        fc.sweep_timeout_ms = fc.sweep_timeout_ms.min(d.max(1));
    }
    let fleet = Fleet::new(fc).expect("a gateway has backends");
    let spec = SweepSpec {
        profile: profile.clone(),
        machines: machines.clone(),
        r: *r,
        seeds: seeds.clone(),
    };
    let emit = |i: usize, p: PointResult| {
        OBS_FRAMES.inc();
        out.send(point_frame(job.id, i, &p));
    };
    let outcome = match job.req {
        Request::SweepStream { .. } => fleet.sweep_streaming(&spec, &emit),
        _ => fleet.sweep(&spec),
    };
    match outcome {
        Ok(swept) => ok_response(
            job.id,
            sweep_payload(machines.len(), seeds.len(), &swept.points),
        ),
        Err(msg) => err_response(job.id, &msg, None),
    }
}

/// How long a forward waits for its backend's reply.
fn forward_timeout_ms(deadline_ms: Option<u64>) -> u64 {
    deadline_ms
        .unwrap_or(FleetConfig::default().request_deadline_ms)
        .max(1)
}

/// Calls backend `bi` (connecting lazily) under the request's deadline,
/// tearing the pooled connection down on any transport error.
fn call_backend(
    shared: &GwShared,
    pools: &mut [Option<Client>],
    bi: usize,
    req: &Request,
    deadline_ms: Option<u64>,
) -> std::io::Result<crate::client::Response> {
    if pools[bi].is_none() {
        pools[bi] = Some(Client::connect(shared.cfg.backends[bi].as_str())?);
    }
    let cl = pools[bi].as_mut().expect("pool slot just filled");
    let timeout = Duration::from_millis(forward_timeout_ms(deadline_ms));
    let resp = cl
        .set_read_timeout(Some(timeout))
        .and_then(|()| cl.call_retry(req, deadline_ms, 3));
    if resp.is_err() {
        // The stream may hold a half-read response; reconnect next use.
        pools[bi] = None;
    }
    resp
}

/// Round-robin single-request forwarding with failover: a connect
/// failure or reset marks the backend dead for a probe interval and the
/// next one takes the request. A timeout marks it dead too, but answers
/// the client with an error: the request has spent its deadline, and
/// re-sending it would carry one slow or poison request to every
/// backend in turn.
fn forward_single(shared: &GwShared, pools: &mut [Option<Client>], job: &Envelope) -> String {
    let n = shared.cfg.backends.len();
    let start = shared.rr.fetch_add(1, Relaxed);
    let mut last_err = "all backends marked dead".to_string();
    for k in 0..n {
        let bi = (start + k) % n;
        if shared.is_dead(bi) {
            continue;
        }
        match call_backend(shared, pools, bi, &job.req, job.deadline_ms) {
            Ok(resp) => return with_id(job.id, &resp.body),
            Err(e) => {
                shared.mark_dead(bi);
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
/// any backend).
fn broadcast(shared: &GwShared, pools: &mut [Option<Client>], job: &Envelope) -> String {
    let mut last_body = None;
    for bi in 0..shared.cfg.backends.len() {
        match call_backend(shared, pools, bi, &job.req, job.deadline_ms) {
            Ok(resp) if resp.ok => last_body = Some(resp.body),
            Ok(resp) => {
                let msg = resp.error.unwrap_or_else(|| "unknown error".to_string());
                return err_response(
                    job.id,
                    &format!("{}: {msg}", shared.cfg.backends[bi]),
                    resp.retry_after_ms,
                );
            }
            Err(e) => {
                shared.mark_dead(bi);
                return err_response(
                    job.id,
                    &format!("{}: {e}", shared.cfg.backends[bi]),
                    Some(50),
                );
            }
        }
    }
    match last_body {
        Some(body) => with_id(job.id, &body),
        None => err_response(job.id, "gateway has no backends", None),
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
