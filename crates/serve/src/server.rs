//! The experiment server: TCP acceptor, bounded job queue with
//! backpressure, worker pool, deadlines, and graceful shutdown.
//!
//! # Threading model
//!
//! * One **acceptor** thread polls a non-blocking listener.
//! * Each connection gets a **reader** thread (parses request lines,
//!   enqueues jobs) and a **writer** thread (serialises responses as
//!   jobs complete — completion order, not submission order; responses
//!   carry the request id).
//! * A fixed pool of **worker** threads (sized like `ssim-par`'s pool
//!   by default) pops jobs from a shared bounded queue. Sweep jobs fan
//!   their design points out through [`ssim_par::par_map`], so one job
//!   can still saturate the machine.
//!
//! # Backpressure, deadlines, cancellation
//!
//! The queue is bounded: a submission finding it full is **rejected
//! immediately** with `retry_after_ms` — the server never blocks a
//! connection on queue space and never silently drops an accepted job.
//! Accepted jobs carry a deadline (client-supplied `deadline_ms` or the
//! server default); a job past its deadline when popped — or mid-sweep
//! between chunks — fails with `deadline exceeded` instead of burning
//! worker time. A job whose client disconnected before it ran is
//! skipped entirely.
//!
//! # Shutdown
//!
//! A `shutdown` request flips the accept gate, waits until the queue is
//! empty **and** every in-flight job has finished, then replies — so a
//! client that receives the shutdown acknowledgement knows every
//! previously accepted job has produced its response. Submissions that
//! race with shutdown are rejected with a non-retryable error.
//!
//! # Durability (the job journal)
//!
//! With [`ServerConfig::journal`] set, requests carrying a `"job"` key
//! run through the crash-safe journal ([`crate::journal`]): accepted
//! before queueing, completed — payload included — before the ack is
//! sent. Journaled jobs bypass the queue-capacity rejection (the
//! journal *is* the backlog), survive client disconnects, and are
//! re-enqueued on startup if the server died mid-flight. Re-submitting
//! a completed key replays the stored response; `job-result` polls
//! without re-submitting. Sweeps are deterministic, so a resumed job
//! re-executes from scratch and digests identically.
//!
//! # Streaming sweeps
//!
//! `sweep-stream` runs exactly like `sweep` but emits one progress
//! frame per finished design point through the connection's writer; the
//! final response is the blocking payload plus a `digest` the client
//! verifies its frame merge against.

use crate::artifacts::{trace_digest, ArtifactStore};
use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::journal::{Journal, Record};
use crate::json::Json;
use crate::proto::{
    completed_response, err_response, ok_response, point_frame, sweep_digest, Envelope,
    MachineSpec, PointResult, ProfileParams, Request,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

static OBS_CONNECTIONS: ssim_obs::Counter = ssim_obs::Counter::new("serve.connections");
static OBS_OPEN_CONNECTIONS: ssim_obs::Gauge = ssim_obs::Gauge::new("serve.open_connections");
static OBS_QUEUE_DEPTH: ssim_obs::Gauge = ssim_obs::Gauge::new("serve.queue_depth");
static OBS_QUEUE_DEPTH_MAX: ssim_obs::Gauge = ssim_obs::Gauge::new("serve.queue_depth_max");
static OBS_IN_FLIGHT: ssim_obs::Gauge = ssim_obs::Gauge::new("serve.in_flight");
static OBS_REJECT_FULL: ssim_obs::Counter = ssim_obs::Counter::new("serve.rejected.queue_full");
static OBS_REJECT_SHUTDOWN: ssim_obs::Counter = ssim_obs::Counter::new("serve.rejected.shutdown");
static OBS_DEADLINE: ssim_obs::Counter = ssim_obs::Counter::new("serve.deadline_exceeded");
static OBS_CANCELLED: ssim_obs::Counter = ssim_obs::Counter::new("serve.cancelled");
static OBS_BAD_REQUESTS: ssim_obs::Counter = ssim_obs::Counter::new("serve.bad_requests");
static OBS_REQ_PROFILE: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.profile");
static OBS_REQ_SYNTH: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.synth");
static OBS_REQ_SIMULATE: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.simulate");
static OBS_REQ_SWEEP: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.sweep");
static OBS_REQ_METRICS: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.metrics");
static OBS_REQ_ASSEMBLE: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.assemble");
static OBS_REQ_SUBMIT: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.submit_program");
static OBS_PROGRAM_ACCEPTED: ssim_obs::Counter = ssim_obs::Counter::new("serve.program.accepted");
static OBS_PROGRAM_REJECTED: ssim_obs::Counter = ssim_obs::Counter::new("serve.program.rejected");
static OBS_REQ_SWEEP_STREAM: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.sweep_stream");
static OBS_REQ_JOB_RESULT: ssim_obs::Counter = ssim_obs::Counter::new("serve.req.job_result");
static OBS_SWEEP_POINTS: ssim_obs::Counter = ssim_obs::Counter::new("serve.sweep_points");
static OBS_STREAM_FRAMES: ssim_obs::Counter = ssim_obs::Counter::new("serve.stream_frames");
static OBS_JOURNAL_ACCEPTED: ssim_obs::Counter = ssim_obs::Counter::new("serve.journal.accepted");
static OBS_JOURNAL_COMPLETED: ssim_obs::Counter = ssim_obs::Counter::new("serve.journal.completed");
static OBS_JOURNAL_RESUMED: ssim_obs::Counter = ssim_obs::Counter::new("serve.journal.resumed");
static OBS_JOURNAL_REACKED: ssim_obs::Counter = ssim_obs::Counter::new("serve.journal.reacked");
static OBS_LAT_PROFILE: ssim_obs::LogHistogram =
    ssim_obs::LogHistogram::new("serve.latency_us.profile");
static OBS_LAT_SYNTH: ssim_obs::LogHistogram =
    ssim_obs::LogHistogram::new("serve.latency_us.synth");
static OBS_LAT_SIMULATE: ssim_obs::LogHistogram =
    ssim_obs::LogHistogram::new("serve.latency_us.simulate");
static OBS_LAT_SWEEP: ssim_obs::LogHistogram =
    ssim_obs::LogHistogram::new("serve.latency_us.sweep");

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads popping the job queue (0 = `ssim_par`'s pool
    /// size, i.e. `SSIM_THREADS` or available parallelism).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// `retry_after_ms`.
    pub queue_capacity: usize,
    /// Deadline applied to jobs that do not carry their own
    /// `deadline_ms`.
    pub default_deadline_ms: u64,
    /// In-memory result cache capacity (design points).
    pub result_cache_capacity: usize,
    /// Sandbox ceiling: largest `.asm` source (bytes) an `assemble` or
    /// `submit-program` request may carry. Checked on the connection
    /// thread, before the job is queued and before the assembler sees a
    /// byte.
    pub max_program_source_bytes: usize,
    /// Sandbox ceiling: largest profiling budget (`skip +
    /// instructions`) a submitted program may request — also the fuel
    /// for the pre-flight functional run that proves the program cannot
    /// fault under that budget.
    pub max_program_instructions: u64,
    /// Sandbox ceiling: largest `.mem` size (bytes) a submitted program
    /// may declare.
    pub max_program_mem_bytes: usize,
    /// Deterministic fault plan for chaos testing (defaults to
    /// `SSIM_FAULT_PLAN` when `None`; see [`crate::fault`]).
    pub fault: Option<FaultPlan>,
    /// Path of the crash-safe job journal. `None` (the default) rejects
    /// requests that carry a `"job"` key; `Some` replays the journal on
    /// startup and resumes incomplete jobs.
    pub journal: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            default_deadline_ms: 120_000,
            result_cache_capacity: 4096,
            max_program_source_bytes: 1 << 20,
            max_program_instructions: 50_000_000,
            max_program_mem_bytes: 64 << 20,
            fault: None,
            journal: None,
        }
    }
}

struct Job {
    id: u64,
    req: Request,
    reply: Sender<String>,
    cancelled: Arc<AtomicBool>,
    deadline: Instant,
    accepted_at: Instant,
    /// Journal idempotency key; `Some` makes the job durable — it
    /// survives client disconnects and server restarts.
    job_key: Option<String>,
}

/// In-memory view of a journaled job (rebuilt from the journal on
/// startup, kept in lockstep with it afterwards).
enum JobState {
    /// Accepted, not yet completed.
    Pending,
    /// Completed; the stored payload is replayed on re-submission.
    Done { ok: bool, payload: Json },
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    in_flight: usize,
}

struct Shared {
    cfg: ServerConfig,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    drained: Condvar,
    shutdown: AtomicBool,
    store: ArtifactStore,
    fault: Option<FaultInjector>,
    journal: Option<Journal>,
    /// Job-key → state map mirroring the journal (ordered map: keys are
    /// few and small, and iteration order is deterministic).
    jobs: Mutex<BTreeMap<String, JobState>>,
}

impl Shared {
    /// Enqueues a job or rejects it (full queue / shutdown). The reply
    /// for a rejection is sent here, immediately.
    fn submit(&self, job: Job) {
        let mut q = self.queue.lock().unwrap();
        if self.shutdown.load(Relaxed) {
            OBS_REJECT_SHUTDOWN.inc();
            let _ = job
                .reply
                .send(err_response(job.id, "server is shutting down", None));
            return;
        }
        if q.jobs.len() >= self.cfg.queue_capacity {
            OBS_REJECT_FULL.inc();
            // Rough service-time estimate: a couple of dozen ms per
            // queued job per worker. The exact value only shapes client
            // politeness; correctness needs only "try again later".
            let retry = 10 + 25 * q.jobs.len() as u64 / self.cfg.workers.max(1) as u64;
            let _ = job
                .reply
                .send(err_response(job.id, "queue full", Some(retry)));
            return;
        }
        q.jobs.push_back(job);
        OBS_QUEUE_DEPTH.set(q.jobs.len() as u64);
        OBS_QUEUE_DEPTH_MAX.set_max(q.jobs.len() as u64);
        drop(q);
        self.work_ready.notify_one();
    }

    /// Enqueues a job under a journal key. First submission journals an
    /// `Accepted` record (durably, before queueing); a re-submission of
    /// a completed key replays the stored response; a re-submission of
    /// an in-flight key is told to poll. Journaled jobs bypass the
    /// queue-capacity rejection — the journal is the backlog, and a
    /// rejected-but-journaled job would be resumed on restart anyway.
    fn submit_journaled(&self, key: String, job: Job) {
        let Some(journal) = &self.journal else {
            let _ = job.reply.send(err_response(
                job.id,
                "server has no journal (start with --journal)",
                None,
            ));
            return;
        };
        if self.shutdown.load(Relaxed) {
            OBS_REJECT_SHUTDOWN.inc();
            let _ = job
                .reply
                .send(err_response(job.id, "server is shutting down", None));
            return;
        }
        // The jobs lock is held across the Accepted append so two
        // connections racing on one key cannot both journal it.
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.get(&key) {
            Some(JobState::Done { ok, payload }) => {
                OBS_JOURNAL_REACKED.inc();
                let line = completed_response(job.id, *ok, payload);
                drop(jobs);
                let _ = job.reply.send(line);
            }
            Some(JobState::Pending) => {
                drop(jobs);
                let _ = job.reply.send(err_response(
                    job.id,
                    &format!("job {key:?} is already in flight; poll with job-result"),
                    Some(100),
                ));
            }
            None => {
                let rec = Record::Accepted {
                    job: key.clone(),
                    request: journaled_request(&key, &job.req),
                };
                if let Err(e) = journal.append(&rec) {
                    drop(jobs);
                    let _ = job.reply.send(err_response(
                        job.id,
                        &format!("journal write failed: {e}"),
                        None,
                    ));
                    return;
                }
                jobs.insert(key, JobState::Pending);
                drop(jobs);
                OBS_JOURNAL_ACCEPTED.inc();
                let mut q = self.queue.lock().unwrap();
                q.jobs.push_back(job);
                OBS_QUEUE_DEPTH.set(q.jobs.len() as u64);
                OBS_QUEUE_DEPTH_MAX.set_max(q.jobs.len() as u64);
                drop(q);
                self.work_ready.notify_one();
            }
        }
    }

    /// Answers a `job-result` poll from the in-memory job map.
    fn job_result_response(&self, id: u64, key: &str) -> String {
        OBS_REQ_JOB_RESULT.inc();
        if self.journal.is_none() {
            return err_response(id, "server has no journal (start with --journal)", None);
        }
        let jobs = self.jobs.lock().unwrap();
        match jobs.get(key) {
            Some(JobState::Done { ok, payload }) => completed_response(id, *ok, payload),
            Some(JobState::Pending) => {
                err_response(id, &format!("job {key:?} is pending"), Some(100))
            }
            None => err_response(id, &format!("unknown job {key:?}"), None),
        }
    }

    /// Finishes a job: for journaled jobs, the completion is appended
    /// to the journal and mirrored in the job map *before* the response
    /// line is returned — the ack never promises what a crash could
    /// lose. Failures are journaled too (a deterministic failure must
    /// not re-run forever on every restart).
    fn complete(&self, job: &Job, result: Result<Vec<(&'static str, Json)>, String>) -> String {
        let (ok, payload) = match result {
            Ok(pairs) => (
                true,
                Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
            ),
            Err(msg) => (false, Json::Str(msg)),
        };
        if let Some(key) = &job.job_key {
            let journal = self
                .journal
                .as_ref()
                .expect("journaled job on a journaling server");
            let rec = Record::Completed {
                job: key.clone(),
                ok,
                payload: payload.clone(),
            };
            let mut jobs = self.jobs.lock().unwrap();
            if let Err(e) = journal.append(&rec) {
                // Not durable: answer with an error so the client does
                // not treat the work as acknowledged. The in-memory
                // state still serves job-result polls for this
                // process's lifetime; a restart re-runs the job.
                jobs.insert(key.clone(), JobState::Done { ok, payload });
                return err_response(
                    job.id,
                    &format!("job {key:?} finished but its completion could not be journaled: {e}"),
                    None,
                );
            }
            jobs.insert(
                key.clone(),
                JobState::Done {
                    ok,
                    payload: payload.clone(),
                },
            );
            OBS_JOURNAL_COMPLETED.inc();
        }
        completed_response(job.id, ok, &payload)
    }

    /// Worker body: pop-execute until shutdown *and* empty queue.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        q.in_flight += 1;
                        OBS_QUEUE_DEPTH.set(q.jobs.len() as u64);
                        OBS_IN_FLIGHT.set(q.in_flight as u64);
                        break job;
                    }
                    if self.shutdown.load(Relaxed) {
                        return;
                    }
                    q = self
                        .work_ready
                        .wait_timeout(q, Duration::from_millis(50))
                        .unwrap()
                        .0;
                }
            };
            self.execute(job);
            let mut q = self.queue.lock().unwrap();
            q.in_flight -= 1;
            OBS_IN_FLIGHT.set(q.in_flight as u64);
            if q.jobs.is_empty() && q.in_flight == 0 {
                self.drained.notify_all();
            }
        }
    }

    fn execute(&self, job: Job) {
        // A journaled job outlives its client: the durable contract is
        // with the key, not the connection, so only ephemeral jobs are
        // dropped on disconnect.
        if job.job_key.is_none() && job.cancelled.load(Relaxed) {
            OBS_CANCELLED.inc();
            return;
        }
        let result = if Instant::now() > job.deadline {
            OBS_DEADLINE.inc();
            Err("deadline exceeded in queue".to_string())
        } else {
            self.run_request(&job)
        };
        let line = self.complete(&job, result);
        let latency_us = job.accepted_at.elapsed().as_micros() as u64;
        match &job.req {
            Request::Profile(_) => OBS_LAT_PROFILE.record(latency_us),
            Request::Synth { .. } => OBS_LAT_SYNTH.record(latency_us),
            Request::Simulate { .. } => OBS_LAT_SIMULATE.record(latency_us),
            Request::Sweep { .. } | Request::SweepStream { .. } => OBS_LAT_SWEEP.record(latency_us),
            // Program requests are dominated by profiling; they share
            // the profile latency histogram.
            Request::SubmitProgram { .. } => OBS_LAT_PROFILE.record(latency_us),
            Request::Assemble { .. }
            | Request::JobResult { .. }
            | Request::Metrics
            | Request::Shutdown => {}
        }
        let _ = job.reply.send(line);
    }

    fn run_request(&self, job: &Job) -> Result<Vec<(&'static str, Json)>, String> {
        match &job.req {
            Request::Profile(params) => {
                OBS_REQ_PROFILE.inc();
                let artifact = self.store.profile(params)?;
                Ok(vec![
                    ("profile_hash", Json::hex_u64(artifact.hash)),
                    (
                        "nodes",
                        Json::Num(artifact.profile.sfg().node_count() as f64),
                    ),
                    (
                        "contexts",
                        Json::Num(artifact.profile.context_count() as f64),
                    ),
                    (
                        "instructions",
                        Json::Num(artifact.profile.instructions() as f64),
                    ),
                    ("mpki", Json::Num(artifact.profile.branch_mpki())),
                ])
            }
            Request::Synth { profile, r, seed } => {
                OBS_REQ_SYNTH.inc();
                let artifact = self.store.profile(profile)?;
                let trace = artifact.sampler(*r).generate(*seed);
                Ok(vec![
                    ("profile_hash", Json::hex_u64(artifact.hash)),
                    ("len", Json::Num(trace.len() as f64)),
                    ("digest", Json::hex_u64(trace_digest(&trace))),
                ])
            }
            Request::Simulate {
                profile,
                machine,
                r,
                seed,
            } => {
                OBS_REQ_SIMULATE.inc();
                let artifact = self.store.profile(profile)?;
                let cfg = machine.resolve();
                let point = self.store.simulate_point(&artifact, &cfg, *r, *seed);
                let mut payload = vec![("profile_hash", Json::hex_u64(artifact.hash))];
                if let Json::Obj(pairs) = point.to_json() {
                    for (k, v) in pairs {
                        // Flatten the point into the response body.
                        payload.push(match k.as_str() {
                            "cycles" => ("cycles", v),
                            "instructions" => ("instructions", v),
                            "ipc" => ("ipc", v),
                            _ => ("cached", v),
                        });
                    }
                }
                Ok(payload)
            }
            Request::Sweep {
                profile,
                machines,
                r,
                seeds,
            } => {
                OBS_REQ_SWEEP.inc();
                self.sweep_core(job, profile, machines, *r, seeds, &mut |_, _| {})
            }
            Request::SweepStream {
                profile,
                machines,
                r,
                seeds,
            } => {
                OBS_REQ_SWEEP_STREAM.inc();
                let reply = job.reply.clone();
                let id = job.id;
                // Frames ride the connection's writer; a resumed job
                // has no connection and its sends fall on the floor,
                // which is fine — the durable artifact is the final
                // payload, not the progress frames.
                self.sweep_core(job, profile, machines, *r, seeds, &mut |index, point| {
                    OBS_STREAM_FRAMES.inc();
                    let _ = reply.send(point_frame(id, index, point));
                })
            }
            Request::Assemble { source } => {
                OBS_REQ_ASSEMBLE.inc();
                let program = self.assemble_submission(source)?;
                let hash = crate::artifacts::program_hash(&program);
                Ok(program_shape(&program, hash))
            }
            Request::SubmitProgram {
                source,
                instructions,
                skip,
            } => {
                OBS_REQ_SUBMIT.inc();
                let program = self.assemble_submission(source)?;
                let budget = skip.saturating_add(*instructions);
                if budget > self.cfg.max_program_instructions {
                    OBS_PROGRAM_REJECTED.inc();
                    return Err(format!(
                        "program rejected: profiling budget {budget} exceeds the server \
                         ceiling of {} instructions",
                        self.cfg.max_program_instructions
                    ));
                }
                // Pre-flight: run the submitted program functionally for
                // the full budget. Execution is deterministic, so a
                // clean bounded run here proves the profiler's replay of
                // the same prefix cannot fault — a hostile `jr` is
                // rejected with a structured error instead of killing a
                // worker (or hanging: the fuel is the budget, so this
                // terminates even for infinite loops).
                let mut machine = ssim::func::Machine::new(&program);
                if let ssim::func::FuelOutcome::Fault(fault) = machine.run_fuel(budget) {
                    OBS_PROGRAM_REJECTED.inc();
                    return Err(format!("program rejected: execution fault: {fault}"));
                }
                let hash = self.store.register_program(program);
                let params = crate::proto::ProfileParams {
                    workload: crate::artifacts::program_name(hash),
                    instructions: *instructions,
                    skip: *skip,
                };
                let artifact = self.store.profile(&params)?;
                OBS_PROGRAM_ACCEPTED.inc();
                let registered = self
                    .store
                    .lookup_program(hash)
                    .expect("just-registered program resolves");
                let mut payload = program_shape(&registered, hash);
                payload.extend([
                    ("profile_hash", Json::hex_u64(artifact.hash)),
                    (
                        "nodes",
                        Json::Num(artifact.profile.sfg().node_count() as f64),
                    ),
                    (
                        "contexts",
                        Json::Num(artifact.profile.context_count() as f64),
                    ),
                    (
                        "profiled_instructions",
                        Json::Num(artifact.profile.instructions() as f64),
                    ),
                    ("mpki", Json::Num(artifact.profile.branch_mpki())),
                ]);
                Ok(payload)
            }
            // Metrics, shutdown and job polls are handled on the
            // connection thread.
            Request::JobResult { .. } | Request::Metrics | Request::Shutdown => {
                unreachable!("not queued")
            }
        }
    }

    /// The sweep engine shared by `sweep` and `sweep-stream`: chunked
    /// fan-out over `ssim_par`, `emit` called once per finished point
    /// (in index order within each chunk) as chunks complete. The
    /// payload carries an order-sensitive digest so any re-assembly of
    /// the points — streamed, resumed, fleet-sharded — can be verified
    /// against the blocking result.
    fn sweep_core(
        &self,
        job: &Job,
        profile: &ProfileParams,
        machines: &[MachineSpec],
        r: u64,
        seeds: &[u64],
        emit: &mut dyn FnMut(usize, &PointResult),
    ) -> Result<Vec<(&'static str, Json)>, String> {
        let artifact = self.store.profile(profile)?;
        // Lower once up front; the fan-out workers then stream
        // each point through the fused engine (no materialised
        // traces, per-thread simulator buffers reused).
        let _ = artifact.sampler(r);
        let configs: Vec<_> = machines.iter().map(|m| m.resolve()).collect();
        let points: Vec<(usize, usize)> = (0..configs.len())
            .flat_map(|m| (0..seeds.len()).map(move |s| (m, s)))
            .collect();
        OBS_SWEEP_POINTS.add(points.len() as u64);
        let mut results: Vec<PointResult> = Vec::with_capacity(points.len());
        // Chunked fan-out: each chunk runs on ssim-par's pool;
        // between chunks the job re-checks its deadline and
        // whether the client is still there.
        let chunk = (ssim_par::num_threads() * 4).max(8);
        for batch in points.chunks(chunk) {
            if job.job_key.is_none() && job.cancelled.load(Relaxed) {
                OBS_CANCELLED.inc();
                return Err("client disconnected".to_string());
            }
            if Instant::now() > job.deadline {
                OBS_DEADLINE.inc();
                return Err(format!(
                    "deadline exceeded after {} of {} points",
                    results.len(),
                    points.len()
                ));
            }
            let base = results.len();
            results.extend(ssim_par::par_map(batch, |&(m, s)| {
                self.store
                    .simulate_point(&artifact, &configs[m], r, seeds[s])
            }));
            for (offset, point) in results[base..].iter().enumerate() {
                emit(base + offset, point);
            }
        }
        Ok(vec![
            ("profile_hash", Json::hex_u64(artifact.hash)),
            ("machines", Json::Num(machines.len() as f64)),
            ("seeds", Json::Num(seeds.len() as f64)),
            (
                "results",
                Json::Arr(results.iter().map(|p| p.to_json()).collect()),
            ),
            ("digest", Json::hex_u64(sweep_digest(&results))),
        ])
    }

    /// Parses untrusted `.asm` text under the server's sandbox limits.
    /// Every failure path is a diagnostic, counted as a rejection.
    fn assemble_submission(&self, source: &str) -> Result<ssim::isa::Program, String> {
        let opts = ssim_asm::AsmOptions::new().limits(ssim_asm::AsmLimits {
            max_source_bytes: self.cfg.max_program_source_bytes,
            max_mem_bytes: self.cfg.max_program_mem_bytes,
            ..ssim_asm::AsmLimits::default()
        });
        ssim_asm::assemble_with(source, &opts).map_err(|d| {
            OBS_PROGRAM_REJECTED.inc();
            format!("program rejected: {d}")
        })
    }

    /// Blocks until the queue is empty and no job is in flight.
    fn wait_drained(&self) {
        let mut q = self.queue.lock().unwrap();
        while !(q.jobs.is_empty() && q.in_flight == 0) {
            q = self
                .drained
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    fn metrics_response(&self, id: u64) -> String {
        OBS_REQ_METRICS.inc();
        let doc = ssim_obs::render_json("ssim-serve", &ssim_obs::snapshot());
        match Json::parse(&doc) {
            Ok(v) => ok_response(id, vec![("metrics", v)]),
            Err(e) => err_response(id, &format!("metrics render failed: {e}"), None),
        }
    }
}

/// A running server instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(mut cfg: ServerConfig) -> std::io::Result<Server> {
        // Metrics must record regardless of SSIM_METRICS: the `metrics`
        // endpoint is part of the protocol, not an opt-in debug mode.
        ssim_obs::force_enable();
        if cfg.workers == 0 {
            cfg.workers = ssim_par::num_threads();
        }
        cfg.queue_capacity = cfg.queue_capacity.max(1);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let fault = cfg
            .fault
            .clone()
            .or_else(FaultPlan::from_env)
            .filter(FaultPlan::is_active)
            .map(FaultInjector::new);
        // Replay the journal (if any) before the workers exist: jobs
        // that were accepted but never completed are re-enqueued, in
        // journal order, ahead of any new traffic.
        let mut journal = None;
        let mut jobs = BTreeMap::new();
        let mut resume: Vec<(String, Request)> = Vec::new();
        if let Some(path) = &cfg.journal {
            let (j, records) = Journal::open(path)?;
            for rec in records {
                match rec {
                    Record::Accepted { job, request } => {
                        if jobs.contains_key(&job) {
                            continue; // duplicate accept: first wins
                        }
                        match Envelope::parse(&request.render()) {
                            Ok(env) => {
                                resume.push((job.clone(), env.req));
                                jobs.insert(job, JobState::Pending);
                            }
                            // The checksum makes this near-impossible,
                            // but an unparseable request must not wedge
                            // the key in Pending forever.
                            Err(e) => {
                                jobs.insert(
                                    job,
                                    JobState::Done {
                                        ok: false,
                                        payload: Json::Str(format!(
                                            "resume failed: journaled request unparseable: {e}"
                                        )),
                                    },
                                );
                            }
                        }
                    }
                    Record::Completed { job, ok, payload } => {
                        resume.retain(|(k, _)| k != &job);
                        jobs.insert(job, JobState::Done { ok, payload });
                    }
                }
            }
            journal = Some(j);
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
            store: ArtifactStore::new(cfg.result_cache_capacity),
            fault,
            journal,
            jobs: Mutex::new(jobs),
            cfg,
        });
        for (key, req) in resume {
            // No client is attached to a resumed job: replies go to a
            // closed channel and the result is served via job-result.
            let (tx, _rx) = std::sync::mpsc::channel();
            let now = Instant::now();
            let mut q = shared.queue.lock().unwrap();
            q.jobs.push_back(Job {
                id: 0,
                req,
                reply: tx,
                cancelled: Arc::new(AtomicBool::new(false)),
                deadline: now + Duration::from_millis(shared.cfg.default_deadline_ms),
                accepted_at: now,
                job_key: Some(key),
            });
            OBS_JOURNAL_RESUMED.inc();
        }

        let mut threads = Vec::new();
        for i in 0..shared.cfg.workers {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ssim-serve-worker-{i}"))
                    .spawn(move || s.worker_loop())?,
            );
        }
        let s = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("ssim-serve-accept".to_string())
                .spawn(move || accept_loop(listener, s))?,
        );
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown request has been received.
    pub fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Relaxed)
    }

    /// `(queued, in_flight)` job counts of *this* server instance.
    ///
    /// The observability gauges are process-wide, so tests (and
    /// operators embedding several servers in one process) use this to
    /// watch a specific instance instead of the global registry.
    pub fn queue_stats(&self) -> (usize, usize) {
        let q = self.shared.queue.lock().unwrap();
        (q.jobs.len(), q.in_flight)
    }

    /// Blocks until the server has shut down (acceptor and workers
    /// exited). Connection threads are detached; they exit when their
    /// clients disconnect.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                OBS_CONNECTIONS.inc();
                OBS_OPEN_CONNECTIONS.add(1);
                let s = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("ssim-serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, s);
                        OBS_OPEN_CONNECTIONS.sub(1);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Upper bound on one request line; longer lines fail the connection
/// rather than buffering without limit.
const MAX_LINE_BYTES: u64 = 16 * 1024 * 1024;

/// The static shape of an assembled program, shared by `assemble` and
/// `submit-program` responses.
fn program_shape(p: &ssim::isa::Program, hash: u64) -> Vec<(&'static str, Json)> {
    let data_bytes: usize = p.init_data().iter().map(|(_, b)| b.len()).sum();
    vec![
        ("program", Json::str(&crate::artifacts::program_name(hash))),
        ("name", Json::str(p.name())),
        ("static_instructions", Json::Num(p.len() as f64)),
        ("mem_bytes", Json::Num(p.mem_size() as f64)),
        ("data_bytes", Json::Num(data_bytes as f64)),
    ]
}

/// Routes one parsed request: metrics and shutdown are answered on the
/// connection thread, everything else is queued (or rejected by
/// [`Shared::submit`]).
fn dispatch(shared: &Arc<Shared>, tx: &Sender<String>, cancelled: &Arc<AtomicBool>, env: Envelope) {
    // Oversized program sources are rejected here, on the connection
    // thread — before the job queue and before the assembler parses a
    // byte. (The NDJSON framing already caps whole lines at
    // MAX_LINE_BYTES; this is the finer, configurable program ceiling.)
    if let Request::Assemble { source } | Request::SubmitProgram { source, .. } = &env.req {
        if source.len() > shared.cfg.max_program_source_bytes {
            OBS_PROGRAM_REJECTED.inc();
            let _ = tx.send(err_response(
                env.id,
                &format!(
                    "program rejected: source is {} bytes, over the server's {}-byte limit",
                    source.len(),
                    shared.cfg.max_program_source_bytes
                ),
                None,
            ));
            return;
        }
    }
    match env.req {
        Request::Metrics => {
            let _ = tx.send(shared.metrics_response(env.id));
        }
        Request::JobResult { ref job } => {
            let _ = tx.send(shared.job_result_response(env.id, job));
        }
        Request::Shutdown => {
            // Gate first (no new work), then drain, then ack — the ack
            // certifies every accepted job responded.
            shared.shutdown.store(true, Relaxed);
            shared.work_ready.notify_all();
            shared.wait_drained();
            let _ = tx.send(ok_response(env.id, vec![("drained", Json::Bool(true))]));
        }
        req => {
            let deadline_ms = env.deadline_ms.unwrap_or(shared.cfg.default_deadline_ms);
            let now = Instant::now();
            let job = Job {
                id: env.id,
                req,
                reply: tx.clone(),
                cancelled: Arc::clone(cancelled),
                deadline: now + Duration::from_millis(deadline_ms),
                accepted_at: now,
                job_key: env.job.clone(),
            };
            match env.job {
                Some(key) => shared.submit_journaled(key, job),
                None => shared.submit(job),
            }
        }
    }
}

/// Renders a request as the JSON object stored in an `Accepted` journal
/// record: envelope framing with id 0 (ids are per-connection and not
/// part of a job's identity) and the job key attached, so replay goes
/// straight back through [`Envelope::parse`].
fn journaled_request(key: &str, req: &Request) -> Json {
    let line = Envelope {
        id: 0,
        deadline_ms: None,
        job: Some(key.to_string()),
        req: req.clone(),
    }
    .render();
    Json::parse(&line).expect("rendered envelope parses")
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name("ssim-serve-write".to_string())
        .spawn(move || {
            let mut out = write_half;
            for line in rx {
                if out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    break;
                }
            }
        });
    let cancelled = Arc::new(AtomicBool::new(false));
    let mut reader = BufReader::new(stream).take(MAX_LINE_BYTES);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF or error: client is gone
            Ok(_) => {}
        }
        // Reset the per-line cap for the next request.
        reader.set_limit(MAX_LINE_BYTES);
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        match Envelope::parse(text) {
            Err(e) => {
                OBS_BAD_REQUESTS.inc();
                // Best effort to echo the id of the malformed request.
                let id = Json::parse(text)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Json::as_u64))
                    .unwrap_or(0);
                let _ = tx.send(err_response(id, &format!("bad request: {e}"), None));
            }
            Ok(env) => {
                // Shutdown is exempt from fault injection: a chaos run
                // must still stop its servers deterministically.
                let fault = shared
                    .fault
                    .as_ref()
                    .filter(|_| !matches!(env.req, Request::Shutdown));
                match fault {
                    None => dispatch(&shared, &tx, &cancelled, env),
                    Some(fault) => {
                        if let Some(delay) = fault.delay() {
                            // Stalls this connection's reader only —
                            // the fleet sees it as a slow backend.
                            std::thread::sleep(delay);
                        }
                        match fault.decide() {
                            FaultAction::Drop => break,
                            FaultAction::Reject { retry_after_ms } => {
                                let _ = tx.send(err_response(
                                    env.id,
                                    "injected fault: queue full",
                                    Some(retry_after_ms),
                                ));
                            }
                            FaultAction::None => dispatch(&shared, &tx, &cancelled, env),
                        }
                    }
                }
            }
        }
    }
    cancelled.store(true, Relaxed);
    drop(tx);
    // Let the writer flush any in-flight job replies before the
    // connection thread exits (jobs hold their own senders, so the
    // writer lives until the last of them completes).
    if let Ok(w) = writer {
        let _ = w.join();
    }
}
