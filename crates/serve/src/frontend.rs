//! The one connection-and-dispatch core behind [`crate::Server`] and
//! [`crate::Gateway`]. A front end is a [`Service`]: instant work on an
//! I/O loop returns a [`Step`]; a worker runs each job and sends its
//! lines through an [`Out`]. The core owns the rest:
//!
//! * an **acceptor** deals new sockets round-robin to at most four **I/O
//!   loops**, which own them. A pass flushes, reads, splits lines (none
//!   longer than [`MAX_LINE_BYTES`]), parses and takes each line's step.
//!   Every pass ends in a park: [`IDLE_MIN`] after a pass that moved
//!   bytes, so a client's next request right after a reply waits little,
//!   doubling on each idle pass up to [`IDLE_WAIT`]. A worker's send
//!   unparks the loop at once. (`std` has no readiness API, so the loops
//!   poll.)
//! * one **bounded FIFO** (rejecting with `retry_after_ms`, except for
//!   jobs marked unbounded) feeds a **worker pool**;
//! * **drain-then-ack shutdown**: `shutdown` stops new connections and
//!   jobs, waits until none is queued or running, then acks.
//!   [`Frontend::join`] returns once the ack, and every reply queued
//!   before it, is written or its socket has failed.
//!
//! Nothing sleeps on behalf of one request: a [`Service::delay`] stalls
//! only its own connection, whose replies its loop keeps flushing.

use crate::json::Json;
use crate::proto::{err_response, ok_response, Envelope};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Upper bound on one request line; a longer one closes the connection
/// without a reply.
const MAX_LINE_BYTES: usize = 16 << 20;

/// How long an I/O loop with connections parks after a pass that moved
/// bytes; each idle pass doubles it, up to [`IDLE_WAIT`]. A busy loop
/// parks rather than yields: a yield leaves it behind busy neighbours
/// for a whole scheduler slice, which under 10k-connection load halved
/// how fast backends answered a gateway's forwards.
const IDLE_MIN: Duration = Duration::from_micros(25);
const IDLE_WAIT: Duration = Duration::from_micros(500);

/// How long the acceptor waits between polls of an idle listener.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Bytes one connection may read per pass.
const READ_BUDGET: usize = 1 << 20;

/// What an I/O loop does with one request.
pub(crate) enum Step<J> {
    Reply(String),
    /// Queue `job`; a rejection is answered under `id`. An unbounded job
    /// is never rejected for a full queue.
    Job {
        id: u64,
        job: J,
        bounded: bool,
    },
    /// Answer request `id` with this process's metrics registry.
    Metrics(u64),
    /// Drain, then ack request `id` with `"drained": true`.
    Shutdown(u64),
    Close,
}

/// One front end's protocol.
pub(crate) trait Service: Send + Sync + 'static {
    /// `"serve"` or `"gateway"`: prefixes the core's metric names, and
    /// after `ssim-` names the threads and the metrics document.
    const NAME: &'static str;
    type Job: Send + 'static;
    /// State each worker keeps across jobs.
    type Worker;

    fn worker(&self) -> Self::Worker;

    /// On an I/O loop: how long to stall the connection before handling
    /// a parsed request (a fault-plan delay).
    fn delay(&self, _env: &Envelope) -> Option<Duration> {
        None
    }

    /// On an I/O loop: the step for one parsed request.
    fn on_request(&self, env: Envelope) -> Step<Self::Job>;

    /// On a worker: runs one job, sending its lines through `out`.
    fn run(&self, worker: &mut Self::Worker, job: Self::Job, out: &Out);
}

/// The connection and queue metrics of one front end, named under its
/// [`Service::NAME`] so a backend and a gateway in one process keep their
/// own.
struct Metrics {
    connections: &'static ssim_obs::Counter,
    open_connections: &'static ssim_obs::Gauge,
    bad_requests: &'static ssim_obs::Counter,
    rejected_full: &'static ssim_obs::Counter,
    rejected_shutdown: &'static ssim_obs::Counter,
    queue_depth: &'static ssim_obs::Gauge,
    queue_depth_max: &'static ssim_obs::Gauge,
    in_flight: &'static ssim_obs::Gauge,
}

impl Metrics {
    fn new(prefix: &str) -> Metrics {
        let counter = |name: &str| ssim_obs::dyn_counter(&format!("{prefix}.{name}"));
        let gauge = |name: &str| ssim_obs::dyn_gauge(&format!("{prefix}.{name}"));
        Metrics {
            connections: counter("connections"),
            open_connections: gauge("open_connections"),
            bad_requests: counter("bad_requests"),
            rejected_full: counter("rejected.queue_full"),
            rejected_shutdown: counter("rejected.shutdown"),
            queue_depth: gauge("queue_depth"),
            queue_depth_max: gauge("queue_depth_max"),
            in_flight: gauge("in_flight"),
        }
    }
}

/// Replies waiting for one connection's I/O loop.
struct Outbox {
    /// Newline-terminated lines; `None` once the connection is closed.
    bytes: Mutex<Option<Vec<u8>>>,
    /// The client hung up or the connection broke.
    gone: AtomicBool,
    /// Jobs queued or running for the connection.
    jobs: AtomicUsize,
    /// The I/O loop that owns the connection.
    owner: Thread,
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, Option<Vec<u8>>> {
        self.bytes.lock().expect("outbox lock")
    }

    fn push(&self, line: String) {
        if let Some(bytes) = self.lock().as_mut() {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        self.owner.unpark();
    }
}

/// A job's way back to its client.
pub(crate) struct Out {
    /// `None` for a job with no connection (a resumed journal job).
    outbox: Option<Arc<Outbox>>,
    /// When the job entered the queue.
    pub accepted: Instant,
}

impl Out {
    fn new(outbox: Option<Arc<Outbox>>) -> Out {
        let accepted = Instant::now();
        Out { outbox, accepted }
    }

    /// Queues one response or frame line for the client.
    pub fn send(&self, line: String) {
        if let Some(outbox) = &self.outbox {
            outbox.push(line);
        }
    }

    /// Whether the client hung up (never, without a connection).
    pub fn gone(&self) -> bool {
        self.outbox
            .as_ref()
            .is_some_and(|o| o.gone.load(Ordering::Relaxed))
    }
}

struct State<J> {
    queue: VecDeque<(J, Out)>,
    in_flight: usize,
    draining: bool,
    /// Shutdown acks waiting for the drain.
    acks: Vec<(Arc<Outbox>, String)>,
}

impl<J> State<J> {
    fn drained(&self) -> bool {
        self.draining && self.queue.is_empty() && self.in_flight == 0
    }
}

struct Core<S: Service> {
    service: S,
    metrics: Metrics,
    workers: usize,
    queue_capacity: usize,
    state: Mutex<State<S::Job>>,
    work_ready: Condvar,
    drained: Condvar,
    /// Set by [`Frontend::join`] once drained: the loops flush and exit.
    closing: AtomicBool,
    /// Freshly accepted sockets, one mailbox per I/O loop.
    incoming: Vec<Mutex<Vec<TcpStream>>>,
}

impl<S: Service> Core<S> {
    fn state(&self) -> MutexGuard<'_, State<S::Job>> {
        self.state.lock().expect("front-end state lock")
    }

    fn gauges(&self, st: &State<S::Job>) {
        let m = &self.metrics;
        m.queue_depth.set(st.queue.len() as u64);
        m.queue_depth_max.set_max(st.queue.len() as u64);
        m.in_flight.set(st.in_flight as u64);
    }

    /// Queues a job, or answers it at once with a rejection.
    fn submit(&self, id: u64, job: S::Job, bounded: bool, outbox: &Arc<Outbox>) {
        let m = &self.metrics;
        let mut st = self.state();
        let rejection = if st.draining {
            m.rejected_shutdown.inc();
            err_response(id, &format!("ssim-{} is shutting down", S::NAME), None)
        } else if bounded && st.queue.len() >= self.queue_capacity {
            m.rejected_full.inc();
            // Rough service-time estimate: a couple of dozen ms per
            // queued job per worker. The hint only shapes client
            // politeness; correctness needs only "try again later".
            let retry = 10 + (25 * st.queue.len() / self.workers).min(1000);
            err_response(id, "queue full", Some(retry as u64))
        } else {
            outbox.jobs.fetch_add(1, Ordering::Relaxed);
            st.queue
                .push_back((job, Out::new(Some(Arc::clone(outbox)))));
            self.gauges(&st);
            drop(st);
            self.work_ready.notify_one();
            return;
        };
        drop(st);
        outbox.push(rejection);
    }

    /// Starts the drain; `ack` names the connection and request that a
    /// `shutdown` ack answers once it ends.
    fn drain(&self, ack: Option<(&Arc<Outbox>, u64)>) {
        let mut st = self.state();
        st.draining = true;
        if let Some((outbox, id)) = ack {
            let line = ok_response(id, vec![("drained", Json::Bool(true))]);
            st.acks.push((Arc::clone(outbox), line));
        }
        self.settle(&mut st);
        drop(st);
        self.work_ready.notify_all();
    }

    /// Once drained, sends every waiting ack and wakes [`Frontend::join`].
    fn settle(&self, st: &mut State<S::Job>) {
        if st.drained() {
            for (outbox, ack) in st.acks.drain(..) {
                outbox.push(ack);
            }
            self.drained.notify_all();
        }
    }

    /// Runs jobs until the drain leaves none. A job that panics counts
    /// as finished, and the next job gets fresh worker state.
    fn work(&self) {
        let mut worker = self.service.worker();
        let mut st = self.state();
        loop {
            let Some((job, out)) = st.queue.pop_front() else {
                if st.draining {
                    return;
                }
                st = self.work_ready.wait(st).expect("front-end state lock");
                continue;
            };
            st.in_flight += 1;
            self.gauges(&st);
            drop(st);
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                self.service.run(&mut worker, job, &out);
            }));
            if run.is_err() {
                worker = self.service.worker();
            }
            if let Some(o) = &out.outbox {
                // After the job's last send: a loop that reads zero
                // here already holds every line the job wrote.
                o.jobs.fetch_sub(1, Ordering::Release);
            }
            st = self.state();
            st.in_flight -= 1;
            self.gauges(&st);
            self.settle(&mut st);
        }
    }
}

/// Splits a connection's bytes into request lines. Only the unterminated
/// tail counts against the cap, so a burst of complete lines may add up
/// to any size.
#[derive(Default)]
struct Lines {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte.
    start: usize,
    /// Length of the unterminated tail.
    tail: usize,
    cap: usize,
}

impl Lines {
    fn new(cap: usize) -> Lines {
        Lines {
            cap,
            ..Lines::default()
        }
    }

    /// Appends bytes; `false` (and nothing appended) if a line would
    /// grow past the cap.
    fn push(&mut self, bytes: &[u8]) -> bool {
        let mut run = self.tail;
        for (i, seg) in bytes.split(|&b| b == b'\n').enumerate() {
            // The first segment extends the tail; each later one is a
            // new line.
            run = if i == 0 { run + seg.len() } else { seg.len() };
            if run > self.cap {
                return false;
            }
        }
        self.tail = run;
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
        true
    }

    fn has_line(&self) -> bool {
        self.buf.len() - self.start > self.tail
    }

    /// The next complete line, without its newline.
    fn next_line(&mut self) -> Option<&[u8]> {
        let rest = &self.buf[self.start..self.buf.len() - self.tail];
        let len = rest.iter().position(|&b| b == b'\n')?;
        self.start += len + 1;
        Some(&rest[..len])
    }
}

/// One accepted connection, owned by a single I/O loop.
struct Conn {
    stream: TcpStream,
    lines: Lines,
    outbox: Arc<Outbox>,
    /// Bytes taken from the outbox, and how far they have been written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A fault-injected stall: when it ends, and the request it holds.
    stalled: Option<(Instant, Envelope)>,
    broken: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            lines: Lines::new(MAX_LINE_BYTES),
            outbox: Arc::new(Outbox {
                bytes: Mutex::new(Some(Vec::new())),
                gone: AtomicBool::new(false),
                jobs: AtomicUsize::new(0),
                owner: std::thread::current(),
            }),
            wbuf: Vec::new(),
            wpos: 0,
            stalled: None,
            broken: false,
        }
    }

    /// Closes the connection now; queued and later replies are dropped.
    fn close(&mut self) {
        self.broken = true;
        self.outbox.gone.store(true, Ordering::Relaxed);
        *self.outbox.lock() = None;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Writes what the socket takes; whether any bytes moved.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while !self.broken {
            if self.wpos == self.wbuf.len() {
                // Written out: free it, so no connection keeps the
                // buffer of its largest reply.
                (self.wbuf, self.wpos) = (Vec::new(), 0);
                match self.outbox.lock().as_mut() {
                    Some(bytes) if !bytes.is_empty() => self.wbuf = std::mem::take(bytes),
                    _ => break,
                }
            }
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(n) if n > 0 => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => self.close(),
            }
        }
        progress
    }

    /// Reads what the socket has, unless the connection is stalled or
    /// lines are still waiting; whether any bytes arrived.
    fn read(&mut self) -> bool {
        if self.outbox.gone.load(Ordering::Relaxed)
            || self.stalled.is_some()
            || self.lines.has_line()
        {
            return false;
        }
        let mut buf = [0u8; 64 * 1024];
        let mut total = 0;
        while total < READ_BUDGET {
            match self.stream.read(&mut buf) {
                Ok(n) if n > 0 => {
                    total += n;
                    if !self.lines.push(&buf[..n]) {
                        self.close();
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // EOF or a failed read: the client is gone.
                _ => {
                    self.outbox.gone.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        total > 0
    }

    /// Takes each waiting line's step, in order, until one stalls or
    /// closes the connection; whether anything happened. A stalled
    /// request is handled only once its stall ends, so a connection that
    /// breaks meanwhile drops it untouched and unanswered.
    fn dispatch<S: Service>(&mut self, core: &Core<S>) -> bool {
        let mut progress = false;
        if let Some((until, _)) = &self.stalled {
            if Instant::now() < *until {
                return false;
            }
            let (_, env) = self.stalled.take().expect("stall checked above");
            self.apply(core, core.service.on_request(env));
            progress = true;
        }
        while !self.broken && self.stalled.is_none() {
            let Some(raw) = self.lines.next_line() else {
                break;
            };
            progress = true;
            let text = String::from_utf8_lossy(raw).trim().to_string();
            if text.is_empty() {
                continue;
            }
            let step = match Envelope::parse(&text) {
                Ok(env) => match core.service.delay(&env) {
                    Some(d) => {
                        self.stalled = Some((Instant::now() + d, env));
                        continue;
                    }
                    None => core.service.on_request(env),
                },
                Err(e) => {
                    core.metrics.bad_requests.inc();
                    // Best effort to echo the id of the malformed request.
                    let id = Json::parse(&text)
                        .ok()
                        .and_then(|v| v.get("id").and_then(Json::as_u64))
                        .unwrap_or(0);
                    Step::Reply(err_response(id, &format!("bad request: {e}"), None))
                }
            };
            self.apply(core, step);
        }
        progress
    }

    fn apply<S: Service>(&mut self, core: &Core<S>, step: Step<S::Job>) {
        match step {
            Step::Reply(line) => self.outbox.push(line),
            Step::Metrics(id) => {
                let doc =
                    ssim_obs::render_json(&format!("ssim-{}", S::NAME), &ssim_obs::snapshot());
                self.outbox.push(match Json::parse(&doc) {
                    Ok(v) => ok_response(id, vec![("metrics", v)]),
                    Err(e) => err_response(id, &format!("metrics render failed: {e}"), None),
                });
            }
            Step::Job { id, job, bounded } => core.submit(id, job, bounded, &self.outbox),
            Step::Shutdown(id) => core.drain(Some((&self.outbox, id))),
            Step::Close => self.close(),
        }
    }

    /// Every queued reply is written, or the socket failed.
    fn flushed(&self) -> bool {
        self.broken
            || (self.wpos == self.wbuf.len()
                && self.outbox.lock().as_ref().is_some_and(Vec::is_empty))
    }

    /// Nothing more can be read, dispatched or written.
    fn finished(&self) -> bool {
        self.broken
            || (self.outbox.gone.load(Ordering::Relaxed)
                && self.stalled.is_none()
                && !self.lines.has_line()
                && self.outbox.jobs.load(Ordering::Acquire) == 0
                && self.flushed())
    }
}

/// One I/O loop: adopt new sockets, then flush, read and dispatch every
/// connection, until [`Frontend::join`] closes the loop.
fn io_loop<S: Service>(core: &Core<S>, slot: usize) {
    let open = core.metrics.open_connections;
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle = IDLE_MIN;
    loop {
        let new = std::mem::take(&mut *core.incoming[slot].lock().expect("incoming lock"));
        conns.extend(new.into_iter().map(Conn::new));
        let closing = core.closing.load(Ordering::Acquire);
        let mut progress = false;
        for conn in &mut conns {
            progress |= conn.flush();
            if !closing {
                progress |= conn.read() | conn.dispatch(core) | conn.flush();
            }
        }
        let before = conns.len();
        conns.retain(|c| !c.finished());
        open.sub((before - conns.len()) as u64);
        if closing && conns.iter().all(Conn::flushed) {
            open.sub(conns.len() as u64);
            return;
        }
        if conns.is_empty() {
            std::thread::park();
            continue;
        }
        // Park even after a busy pass, so the loop never spins the
        // workers off the cores; a worker's send ends the wait at once.
        idle = if progress {
            IDLE_MIN
        } else {
            (idle * 2).min(IDLE_WAIT)
        };
        std::thread::park_timeout(idle);
    }
}

/// Hands each new socket to the next I/O loop until the drain begins.
fn accept_loop<S: Service>(core: &Core<S>, listener: &TcpListener, loops: &[Thread]) {
    for slot in (0..loops.len()).cycle() {
        if core.state().draining {
            return;
        }
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) if stream.set_nonblocking(true).is_ok() => break stream,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Idle (WouldBlock) or a transient failure such as
                // running out of descriptors: poll again shortly.
                Err(_) if core.state().draining => return,
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        };
        let _ = stream.set_nodelay(true);
        core.metrics.connections.inc();
        core.metrics.open_connections.add(1);
        core.incoming[slot]
            .lock()
            .expect("incoming lock")
            .push(stream);
        loops[slot].unpark();
    }
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}

pub(crate) struct Frontend<S: Service> {
    addr: SocketAddr,
    core: Arc<Core<S>>,
    /// The acceptor and the workers.
    threads: Vec<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
}

impl<S: Service> Frontend<S> {
    /// Serves `service` on `listener`; `resume` jobs are queued first,
    /// with no connection attached.
    ///
    /// # Errors
    ///
    /// Propagates listener and thread-spawn failures.
    pub fn start(
        listener: TcpListener,
        service: S,
        workers: usize,
        queue_capacity: usize,
        resume: Vec<S::Job>,
    ) -> std::io::Result<Frontend<S>> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let io_loops = ssim_par::num_threads().clamp(1, 4);
        let core = Arc::new(Core {
            service,
            metrics: Metrics::new(S::NAME),
            workers: workers.max(1),
            queue_capacity: queue_capacity.max(1),
            state: Mutex::new(State {
                queue: resume
                    .into_iter()
                    .map(|job| (job, Out::new(None)))
                    .collect(),
                in_flight: 0,
                draining: false,
                acks: Vec::new(),
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            closing: AtomicBool::new(false),
            incoming: (0..io_loops).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let name = format!("ssim-{}", S::NAME);
        let mut loops = Vec::new();
        for slot in 0..io_loops {
            let core = Arc::clone(&core);
            loops.push(spawn(format!("{name}-io-{slot}"), move || {
                io_loop(&core, slot);
            })?);
        }
        let mut threads = Vec::new();
        for i in 0..core.workers {
            let core = Arc::clone(&core);
            threads.push(spawn(format!("{name}-worker-{i}"), move || core.work())?);
        }
        let wakers: Vec<Thread> = loops.iter().map(|h| h.thread().clone()).collect();
        let acceptor = Arc::clone(&core);
        threads.push(spawn(format!("{name}-accept"), move || {
            accept_loop(&acceptor, &listener, &wakers);
        })?);
        Ok(Frontend {
            addr,
            core,
            threads,
            loops,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(queued, running)` job counts.
    pub fn queue_stats(&self) -> (usize, usize) {
        let st = self.core.state();
        (st.queue.len(), st.in_flight)
    }

    /// Stops taking connections and jobs without a `shutdown` request;
    /// queued jobs still run before [`Frontend::join`] returns.
    pub fn stop(&self) {
        self.core.drain(None);
    }

    /// Waits for the drain (a `shutdown` request, or [`Frontend::stop`]),
    /// which sends the acks, then for every queued reply to be written
    /// (or its socket to fail) and every thread to exit.
    pub fn join(self) {
        let mut st = self.core.state();
        while !st.drained() {
            st = self.core.drained.wait(st).expect("front-end state lock");
        }
        drop(st);
        // The acceptor and the workers exit on their own once drained;
        // the loops then adopt any last socket, flush and exit.
        for t in self.threads {
            let _ = t.join();
        }
        self.core.closing.store(true, Ordering::Release);
        for t in self.loops {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service whose job 0 panics; every other job logs the worker
    /// state it ran on.
    struct Flaky {
        /// Worker states made so far.
        workers: AtomicUsize,
        ran: Mutex<Vec<(usize, u32)>>,
    }

    impl Service for Flaky {
        const NAME: &'static str = "flaky";
        type Job = u32;
        /// How many worker states were made before this one.
        type Worker = usize;

        fn worker(&self) -> usize {
            self.workers.fetch_add(1, Ordering::Relaxed)
        }

        fn on_request(&self, _env: Envelope) -> Step<u32> {
            Step::Close
        }

        fn run(&self, worker: &mut usize, job: u32, _out: &Out) {
            assert_ne!(job, 0, "job 0 panics");
            self.ran.lock().unwrap().push((*worker, job));
        }
    }

    /// A job that panics does not take its worker down: the next job on
    /// the same one-worker core runs, on fresh worker state, and the
    /// in-flight count returns to zero.
    #[test]
    fn a_panicking_job_leaves_the_worker_running() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let service = Flaky {
            workers: AtomicUsize::new(0),
            ran: Mutex::new(Vec::new()),
        };
        let front = Frontend::start(listener, service, 1, 8, vec![0, 1]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while front.queue_stats() != (0, 0) || front.core.service.ran.lock().unwrap().is_empty() {
            assert!(
                Instant::now() < deadline,
                "the job after the panic never ran"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*front.core.service.ran.lock().unwrap(), [(1, 1)]);
        front.stop();
        front.join();
    }

    fn lines_of(lines: &mut Lines) -> Vec<String> {
        std::iter::from_fn(|| lines.next_line().map(|l| String::from_utf8_lossy(l).into()))
            .collect()
    }

    #[test]
    fn only_the_unterminated_tail_counts_against_the_cap() {
        let mut lines = Lines::new(16);
        // Three 12-byte lines in one read add up past the cap; none is
        // over it.
        assert!(lines.push(b"aaaaaaaaaaaa\nbbbbbbbbbbbb\ncccccccccccc\n"));
        assert_eq!(
            lines_of(&mut lines),
            ["aaaaaaaaaaaa", "bbbbbbbbbbbb", "cccccccccccc"]
        );
        // A line split across reads joins up; exactly the cap is fine.
        assert!(lines.push(b"dddddddd"));
        assert!(!lines.has_line());
        assert!(lines.push(b"dddddddd\nee"));
        assert_eq!(lines_of(&mut lines), ["d".repeat(16)]);
        assert!(lines.push(b"\n"));
        assert_eq!(lines_of(&mut lines), ["ee"]);
    }

    #[test]
    fn a_line_past_the_cap_is_refused() {
        // The tail grows past the cap across reads...
        let mut lines = Lines::new(16);
        assert!(lines.push(&[b' '; 16]));
        assert!(!lines.push(b"{\"id\":7}\n"));
        // ...or a complete line inside one read is already too long.
        let mut lines = Lines::new(16);
        assert!(!lines.push(b"ok\n0123456789abcdefg\nok\n"));
        assert!(!lines.has_line());
    }
}
