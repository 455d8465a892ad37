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
//! Three thread groups share one [`GwShared`]:
//!
//! * An **acceptor** hands new sockets round-robin to the I/O loops.
//! * **I/O loops** own connections outright (no locking per byte):
//!   non-blocking reads split request lines, non-blocking writes drain
//!   each connection's outbox. A connection is a passive pipe — all
//!   protocol work happens elsewhere, so one slow backend can never
//!   stall the event loop, and tens of thousands of idle sockets cost
//!   only their buffers. (No `epoll` — the workspace is `std`-only —
//!   so the loops scan with a short idle sleep; at load the sleep
//!   never triggers.)
//! * **Workers** pop forward jobs from a bounded queue (backpressure
//!   via `retry_after_ms`, exactly like the server's own queue) and
//!   execute them against the backends, pushing response lines into
//!   the originating connection's outbox.
//!
//! # Request routing
//!
//! * `profile` / `synth` / `simulate` / `assemble` / `job-result` —
//!   forwarded to one backend, round-robin with failover: a transport
//!   error marks the backend dead for a probe interval and the next
//!   backend takes the request.
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
use crate::json::Json;
use crate::proto::{err_response, ok_response, point_frame, sweep_digest, Envelope, Request};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static OBS_CONNECTIONS: ssim_obs::Counter = ssim_obs::Counter::new("gateway.connections");
static OBS_OPEN: ssim_obs::Gauge = ssim_obs::Gauge::new("gateway.open_connections");
static OBS_REQUESTS: ssim_obs::Counter = ssim_obs::Counter::new("gateway.requests");
static OBS_FORWARDS: ssim_obs::Counter = ssim_obs::Counter::new("gateway.forwards");
static OBS_QUEUE_FULL: ssim_obs::Counter = ssim_obs::Counter::new("gateway.rejected.queue_full");
static OBS_FAILOVER: ssim_obs::Counter = ssim_obs::Counter::new("gateway.failover");
static OBS_FRAMES: ssim_obs::Counter = ssim_obs::Counter::new("gateway.frames");
static OBS_LATENCY: ssim_obs::LogHistogram = ssim_obs::LogHistogram::new("gateway.latency_us");

/// A request line longer than this breaks the connection (the server
/// enforces its own, tighter source-size ceilings; this only bounds
/// gateway memory against a client that never sends a newline).
const MAX_LINE_BYTES: usize = 16 << 20;

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
    /// Sharding/retry knobs for sweeps and failover timing for
    /// single requests (`backends` is overwritten with the gateway's).
    pub fleet: FleetConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            workers: 0,
            queue_capacity: 4096,
            fleet: FleetConfig::default(),
        }
    }
}

/// Lines queued for one connection, filled by workers and drained by
/// the connection's I/O loop.
struct Outbox {
    queue: Mutex<VecDeque<Vec<u8>>>,
}

impl Outbox {
    fn new() -> Arc<Outbox> {
        Arc::new(Outbox {
            queue: Mutex::new(VecDeque::new()),
        })
    }

    /// Queues one response or frame line (newline appended here, so
    /// callers hand over exactly what the render helpers return).
    fn push(&self, line: String) {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        self.queue.lock().expect("outbox lock").push_back(bytes);
    }

    fn pop(&self) -> Option<Vec<u8>> {
        self.queue.lock().expect("outbox lock").pop_front()
    }

    fn is_empty(&self) -> bool {
        self.queue.lock().expect("outbox lock").is_empty()
    }

    fn clear(&self) {
        self.queue.lock().expect("outbox lock").clear();
    }
}

/// One accepted connection, owned by a single I/O loop.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    outbox: Arc<Outbox>,
    /// The line currently being written, and how far it has gone.
    wpending: Vec<u8>,
    wpos: usize,
    closed_read: bool,
    broken: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            outbox: Outbox::new(),
            wpending: Vec::new(),
            wpos: 0,
            closed_read: false,
            broken: false,
        })
    }

    /// Drains as much outbox as the socket will take right now.
    /// Returns whether any bytes moved (progress → skip the idle
    /// sleep).
    fn flush_outbox(&mut self) -> bool {
        if self.broken {
            // Jobs may still complete into a dead connection's outbox;
            // discard so the conn can be reaped once they finish.
            self.outbox.clear();
            return false;
        }
        let mut progress = false;
        loop {
            if self.wpos == self.wpending.len() {
                self.wpos = 0;
                match self.outbox.pop() {
                    Some(line) => self.wpending = line,
                    None => {
                        self.wpending.clear();
                        return progress;
                    }
                }
            }
            match self.stream.write(&self.wpending[self.wpos..]) {
                Ok(0) => {
                    self.broken = true;
                    return progress;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    return progress;
                }
            }
        }
    }

    /// Reads whatever is available; returns whether any bytes arrived.
    fn read_some(&mut self) -> bool {
        if self.closed_read || self.broken {
            return false;
        }
        let mut buf = [0u8; 64 * 1024];
        let mut progress = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.closed_read = true;
                    return progress;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                    if self.rbuf.len() > MAX_LINE_BYTES {
                        self.broken = true;
                        return progress;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed_read = true;
                    return progress;
                }
            }
        }
    }

    /// Pops one complete request line from the read buffer.
    fn take_line(&mut self) -> Option<String> {
        let pos = self.rbuf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
        Some(String::from_utf8_lossy(&line[..pos]).into_owned())
    }

    /// Whether the connection still has work (or might get some): an
    /// unflushed outbox, an in-flight job holding the outbox, or an
    /// open read side.
    fn retain(&self) -> bool {
        let done_writing =
            self.wpos == self.wpending.len() && self.outbox.is_empty() && !self.has_inflight();
        !((self.closed_read || self.broken) && done_writing)
    }

    fn has_inflight(&self) -> bool {
        // Workers hold a clone of the outbox Arc per queued/running
        // job; the I/O loop's own reference is the last one standing.
        Arc::strong_count(&self.outbox) > 1
    }
}

/// One queued forward.
struct ForwardJob {
    id: u64,
    deadline_ms: Option<u64>,
    req: Request,
    outbox: Arc<Outbox>,
    accepted: Instant,
}

struct GwShared {
    cfg: GatewayConfig,
    queue: Mutex<VecDeque<ForwardJob>>,
    work_ready: Condvar,
    inflight: AtomicUsize,
    accepting: AtomicBool,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Per-backend "dead until" marks for single-request failover
    /// (sweeps carry their own health tracking inside [`Fleet`]).
    dead_until: Mutex<Vec<Option<Instant>>>,
    /// Round-robin cursor for single-request forwarding.
    rr: AtomicUsize,
    /// Mailbox of freshly accepted connections, one per I/O loop.
    incoming: Vec<Mutex<Vec<Conn>>>,
}

impl GwShared {
    /// Queues one forward, enforcing drain state and the queue bound.
    /// On rejection the error line is pushed directly.
    fn enqueue(&self, job: ForwardJob) {
        if self.draining.load(Relaxed) {
            job.outbox
                .push(err_response(job.id, "gateway is shutting down", None));
            return;
        }
        let mut q = self.queue.lock().expect("gateway queue lock");
        if q.len() >= self.cfg.queue_capacity {
            OBS_QUEUE_FULL.inc();
            let hint = 10 + (q.len() as u64 / 64).min(200);
            drop(q);
            job.outbox
                .push(err_response(job.id, "gateway queue full", Some(hint)));
            return;
        }
        self.inflight.fetch_add(1, Relaxed);
        q.push_back(job);
        drop(q);
        self.work_ready.notify_one();
    }

    /// Marks backend `bi` dead for one probe interval; single-request
    /// forwarding skips it until the mark expires (the next attempt is
    /// the probe).
    fn mark_dead(&self, bi: usize) {
        let until = Instant::now() + Duration::from_millis(self.cfg.fleet.probe_interval_ms);
        self.dead_until.lock().expect("dead list lock")[bi] = Some(until);
    }

    fn is_dead(&self, bi: usize) -> bool {
        self.dead_until.lock().expect("dead list lock")[bi].is_some_and(|t| Instant::now() < t)
    }

    /// The fleet over this gateway's backends, for sweep sharding.
    fn fleet(&self, deadline_ms: Option<u64>) -> Result<Fleet, String> {
        let mut fc = self.cfg.fleet.clone();
        fc.backends = self.cfg.backends.clone();
        if let Some(d) = deadline_ms {
            fc.sweep_timeout_ms = fc.sweep_timeout_ms.min(d.max(1));
        }
        Fleet::new(fc)
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

/// A running gateway.
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<GwShared>,
    threads: Vec<JoinHandle<()>>,
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Connection event loops: one per pool thread, at most four.
        let io_threads = ssim_par::num_threads().clamp(1, 4);
        let workers = cfg.workers;
        let backends = cfg.backends.len();
        let shared = Arc::new(GwShared {
            incoming: (0..io_threads).map(|_| Mutex::new(Vec::new())).collect(),
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            inflight: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            dead_until: Mutex::new(vec![None; backends]),
            rr: AtomicUsize::new(0),
            cfg,
        });
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || acceptor(&shared, &listener)));
        }
        for slot in 0..io_threads {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || io_loop(&shared, slot)));
        }
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        Ok(Gateway {
            addr,
            shared,
            threads,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the gateway to exit (a client `shutdown` request, or
    /// [`Gateway::stop`]).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Asks the gateway to stop without draining (tests; production
    /// shutdown goes through the protocol so the queue drains first).
    pub fn stop(&self) {
        self.shared.accepting.store(false, Relaxed);
        self.shared.draining.store(true, Relaxed);
        self.shared.shutdown.store(true, Relaxed);
        self.shared.work_ready.notify_all();
    }
}

/// Accept loop: hand each socket to the next I/O loop.
fn acceptor(shared: &Arc<GwShared>, listener: &TcpListener) {
    let mut next = 0usize;
    while !shared.shutdown.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if !shared.accepting.load(Relaxed) {
                    continue; // dropped: the gateway is draining
                }
                let Ok(conn) = Conn::new(stream) else {
                    continue;
                };
                OBS_CONNECTIONS.inc();
                OBS_OPEN.add(1);
                shared.incoming[next % shared.incoming.len()]
                    .lock()
                    .expect("incoming lock")
                    .push(conn);
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One connection event loop: adopt new sockets, pump reads and
/// writes, parse complete lines, dispatch.
fn io_loop(shared: &Arc<GwShared>, slot: usize) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        {
            let mut incoming = shared.incoming[slot].lock().expect("incoming lock");
            conns.append(&mut incoming);
        }
        let mut progress = false;
        for conn in &mut conns {
            progress |= conn.flush_outbox();
            progress |= conn.read_some();
            while let Some(line) = conn.take_line() {
                progress = true;
                let line = line.trim().to_string();
                if line.is_empty() {
                    continue;
                }
                handle_line(shared, conn, &line);
            }
            // A second flush so short replies (parse errors, metrics)
            // leave in the same iteration they were produced.
            progress |= conn.flush_outbox();
        }
        let before = conns.len();
        conns.retain(Conn::retain);
        OBS_OPEN.sub((before - conns.len()) as u64);
        if shared.shutdown.load(Relaxed) {
            let flushed = conns
                .iter()
                .all(|c| c.broken || (c.wpos == c.wpending.len() && c.outbox.is_empty()));
            if flushed {
                OBS_OPEN.sub(conns.len() as u64);
                return;
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// Parses and routes one request line on the I/O loop. Only instant
/// work happens here — anything touching a backend is queued.
fn handle_line(shared: &Arc<GwShared>, conn: &mut Conn, line: &str) {
    OBS_REQUESTS.inc();
    let env = match Envelope::parse(line) {
        Ok(env) => env,
        Err(msg) => {
            // Best-effort id echo so a pipelining client can match the
            // rejection to its request.
            let id = Json::parse(line)
                .ok()
                .and_then(|v| v.get("id").and_then(Json::as_u64))
                .unwrap_or(0);
            conn.outbox.push(err_response(id, &msg, None));
            return;
        }
    };
    if env.job.is_some() {
        conn.outbox.push(err_response(
            env.id,
            "journaled jobs must be submitted to a backend directly; \
             the gateway does not persist jobs",
            None,
        ));
        return;
    }
    match env.req {
        Request::Metrics => {
            let doc = ssim_obs::render_json("ssim-gateway", &ssim_obs::snapshot());
            let resp = match Json::parse(&doc) {
                Ok(v) => ok_response(env.id, vec![("metrics", v)]),
                Err(e) => err_response(env.id, &format!("metrics render failed: {e}"), None),
            };
            conn.outbox.push(resp);
        }
        Request::Shutdown => {
            if shared.draining.swap(true, Relaxed) {
                conn.outbox
                    .push(err_response(env.id, "gateway is shutting down", None));
                return;
            }
            shared.accepting.store(false, Relaxed);
            let shared = Arc::clone(shared);
            let outbox = Arc::clone(&conn.outbox);
            let id = env.id;
            // Drain off-loop: ack only after every accepted forward
            // has answered, then stop the world.
            std::thread::spawn(move || {
                loop {
                    let empty = shared.queue.lock().expect("gateway queue lock").is_empty();
                    if empty && shared.inflight.load(Relaxed) == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                outbox.push(ok_response(id, vec![("drained", Json::Bool(true))]));
                shared.shutdown.store(true, Relaxed);
                shared.work_ready.notify_all();
            });
        }
        req => shared.enqueue(ForwardJob {
            id: env.id,
            deadline_ms: env.deadline_ms,
            req,
            outbox: Arc::clone(&conn.outbox),
            accepted: Instant::now(),
        }),
    }
}

/// Worker body: pop forwards, execute against the backends, push the
/// response line.
fn worker_loop(shared: &Arc<GwShared>) {
    // Lazily connected, per-worker backend connections for
    // single-request forwarding (sweeps open their own through Fleet).
    let mut pools: Vec<Option<Client>> = (0..shared.cfg.backends.len()).map(|_| None).collect();
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("gateway queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Relaxed) {
                    break None;
                }
                q = shared
                    .work_ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("gateway queue lock")
                    .0;
            }
        };
        let Some(job) = job else { return };
        OBS_FORWARDS.inc();
        let line = execute_forward(shared, &mut pools, &job);
        job.outbox.push(line);
        OBS_LATENCY.record(job.accepted.elapsed().as_micros() as u64);
        shared.inflight.fetch_sub(1, Relaxed);
    }
}

/// Executes one forward job, returning the response line to push.
fn execute_forward(
    shared: &Arc<GwShared>,
    pools: &mut [Option<Client>],
    job: &ForwardJob,
) -> String {
    match &job.req {
        Request::Sweep {
            profile,
            machines,
            r,
            seeds,
        } => run_sweep(shared, job, profile, machines, *r, seeds, None),
        Request::SweepStream {
            profile,
            machines,
            r,
            seeds,
        } => {
            let outbox = Arc::clone(&job.outbox);
            let id = job.id;
            let emit = move |i: usize, p: crate::proto::PointResult| {
                OBS_FRAMES.inc();
                outbox.push(point_frame(id, i, &p));
            };
            run_sweep(shared, job, profile, machines, *r, seeds, Some(&emit))
        }
        Request::SubmitProgram { .. } => broadcast(shared, pools, job),
        _ => forward_single(shared, pools, job),
    }
}

/// Shards one sweep across the backends; `emit` relays progress frames
/// for `sweep-stream`. The payload mirrors the server's sweep response
/// minus `profile_hash` (a gateway has no profile store; the digest is
/// the integrity handle).
fn run_sweep(
    shared: &Arc<GwShared>,
    job: &ForwardJob,
    profile: &crate::proto::ProfileParams,
    machines: &[crate::proto::MachineSpec],
    r: u64,
    seeds: &[u64],
    emit: Option<&(dyn Fn(usize, crate::proto::PointResult) + Sync)>,
) -> String {
    let fleet = match shared.fleet(job.deadline_ms) {
        Ok(f) => f,
        Err(msg) => return err_response(job.id, &msg, None),
    };
    let spec = SweepSpec {
        profile: profile.clone(),
        machines: machines.to_vec(),
        r,
        seeds: seeds.to_vec(),
    };
    let outcome = match emit {
        Some(cb) => fleet.sweep_streaming(&spec, cb),
        None => fleet.sweep(&spec),
    };
    match outcome {
        Ok(out) => ok_response(
            job.id,
            vec![
                ("machines", Json::Num(machines.len() as f64)),
                ("seeds", Json::Num(seeds.len() as f64)),
                (
                    "results",
                    Json::Arr(out.points.iter().map(|p| p.to_json()).collect()),
                ),
                ("digest", Json::hex_u64(sweep_digest(&out.points))),
            ],
        ),
        Err(msg) => err_response(job.id, &msg, None),
    }
}

/// Calls backend `bi` (connecting lazily), tearing the pooled
/// connection down on any transport error.
fn call_backend(
    shared: &Arc<GwShared>,
    pools: &mut [Option<Client>],
    bi: usize,
    req: &Request,
    deadline_ms: Option<u64>,
) -> std::io::Result<crate::client::Response> {
    let deadline = deadline_ms.unwrap_or(shared.cfg.fleet.request_deadline_ms);
    if pools[bi].is_none() {
        let cl = Client::connect(shared.cfg.backends[bi].as_str())?;
        cl.set_read_timeout(Some(Duration::from_millis(deadline.max(1))))?;
        pools[bi] = Some(cl);
    }
    let cl = pools[bi].as_mut().expect("pool slot just filled");
    let resp = cl.call_retry(req, deadline_ms, 3);
    if resp.is_err() {
        // The stream may hold a half-read response; reconnect next use.
        pools[bi] = None;
    }
    resp
}

/// Round-robin single-request forwarding with failover: transport
/// errors mark the backend dead for a probe interval and the next one
/// takes the request.
fn forward_single(
    shared: &Arc<GwShared>,
    pools: &mut [Option<Client>],
    job: &ForwardJob,
) -> String {
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
                OBS_FAILOVER.inc();
                last_err = format!("{}: {e}", shared.cfg.backends[bi]);
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
fn broadcast(shared: &Arc<GwShared>, pools: &mut [Option<Client>], job: &ForwardJob) -> String {
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
