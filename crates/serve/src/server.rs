//! The experiment server: the artifact store, the job journal and
//! sweeps behind the serving core it shares with the gateway.
//!
//! # Threading model
//!
//! No thread belongs to a connection. On the core's I/O loops the server
//! does only instant work: fault decisions, the program-size check,
//! `metrics`, `job-result`, `shutdown` and a journaled submission's
//! `Accepted` record. Every other request is a job
//! for a worker (sized like `ssim-par`'s pool by default), which sends
//! its response in completion order; responses carry the request id.
//! Sweeps fan out through [`ssim_par::par_map`], so one job can still
//! saturate the machine.
//!
//! # Backpressure, deadlines, cancellation, shutdown
//!
//! A submission that finds the bounded queue full is **rejected
//! immediately** with `retry_after_ms`: no connection waits for queue
//! space, and no accepted job is silently dropped. A job past its
//! deadline (client-supplied `deadline_ms` or the server default) when
//! popped — or mid-sweep between chunks — fails with `deadline
//! exceeded`; a job whose client disconnected before it ran is skipped.
//! A `shutdown` request closes the accept gate, waits until no job is
//! queued or in flight, then replies, so its ack certifies that every
//! accepted job has answered; later submissions get a non-retryable
//! rejection. [`Server::join`] returns only once the ack, and every reply
//! queued before it, has been written (or its socket failed), so a
//! process that exits right after `join` still delivers them.
//!
//! # Durability (the job journal)
//!
//! With [`ServerConfig::journal`] set, requests carrying a `"job"` key
//! run through the crash-safe journal ([`crate::journal`]): accepted on
//! the I/O loop, before the job is queued; completed — payload
//! included — before the ack is sent. Journaled jobs bypass the
//! queue-capacity rejection (the journal *is* the backlog), survive
//! client disconnects, and are re-enqueued on startup if the server
//! died before completing them. Re-submitting a completed key replays
//! the stored response; `job-result` polls without re-submitting. A
//! journaled submission that races the shutdown drain is rejected but
//! stays accepted, so the next start resumes it. Sweeps are
//! deterministic, so a resumed job re-executes from scratch and digests
//! identically.
//!
//! # Streaming sweeps
//!
//! `sweep-stream` runs exactly like `sweep` but sends one progress
//! frame per finished design point down the job's connection; the
//! final response is the blocking payload plus a `digest` the client
//! verifies its frame merge against.

use crate::artifacts::{trace_digest, ArtifactStore};
use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::frontend::{Frontend, Out, Service, Step};
use crate::journal::{Journal, Record};
use crate::json::Json;
use crate::proto::{
    completed_response, err_response, point_frame, sweep_payload, Envelope, PointResult, Request,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static OBS_DEADLINE: ssim_obs::Counter = ssim_obs::Counter::new("serve.deadline_exceeded");
static OBS_CANCELLED: ssim_obs::Counter = ssim_obs::Counter::new("serve.cancelled");
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
    /// `submit-program` request may carry. Checked on the I/O loop,
    /// before the job is queued and before the assembler sees a byte.
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

/// In-memory view of a journaled job (rebuilt from the journal on
/// startup, kept in lockstep with it afterwards).
enum JobState {
    /// Accepted, not yet completed.
    Pending,
    /// Completed; the stored payload is replayed on re-submission.
    Done { ok: bool, payload: Json },
}

/// The server's half of the serving core: request handling, the
/// artifact store and the journal.
struct Backend {
    cfg: ServerConfig,
    store: ArtifactStore,
    fault: Option<FaultInjector>,
    journal: Option<Journal>,
    /// Job-key → state map mirroring the journal (ordered map: keys are
    /// few and small, and iteration order is deterministic).
    jobs: Mutex<BTreeMap<String, JobState>>,
}

impl Backend {
    /// Journals a submission's `Accepted` record (durably, before the
    /// job is queued), or returns the reply that answers it instead: a
    /// completed key replays its stored response, a key in flight is
    /// told to poll, and a failed append is an error. Every reply that
    /// names the key as pending thus refers to a job a crash cannot lose.
    fn reserve(&self, key: &str, env: &Envelope) -> Option<String> {
        let journal = self.journal.as_ref()?;
        // The jobs lock is held across the append so two connections
        // racing on one key cannot both journal it.
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.get(key) {
            Some(JobState::Done { ok, payload }) => {
                OBS_JOURNAL_REACKED.inc();
                Some(completed_response(env.id, *ok, payload))
            }
            Some(JobState::Pending) => Some(err_response(
                env.id,
                &format!("job {key:?} is already in flight; poll with job-result"),
                Some(100),
            )),
            None => {
                let rec = Record::Accepted {
                    job: key.to_string(),
                    request: journaled_request(key, &env.req),
                };
                if let Err(e) = journal.append(&rec) {
                    return Some(err_response(
                        env.id,
                        &format!("journal write failed: {e}"),
                        None,
                    ));
                }
                jobs.insert(key.to_string(), JobState::Pending);
                OBS_JOURNAL_ACCEPTED.inc();
                None
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
    fn complete(
        &self,
        env: &Envelope,
        result: Result<Vec<(&'static str, Json)>, String>,
    ) -> String {
        let (ok, payload) = match result {
            Ok(pairs) => (
                true,
                Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
            ),
            Err(msg) => (false, Json::Str(msg)),
        };
        if let Some(key) = &env.job {
            let journal = self
                .journal
                .as_ref()
                .expect("journaled job on a journaling server");
            let rec = Record::Completed {
                job: key.clone(),
                ok,
                payload: payload.clone(),
            };
            // Appended before the job map is locked, so a poll on an
            // I/O loop never waits for this fsync; the key's pending
            // mark keeps every other submission off it meanwhile.
            let appended = journal.append(&rec);
            let mut jobs = self.jobs.lock().unwrap();
            if let Err(e) = appended {
                // Not durable: answer with an error so the client does
                // not treat the work as acknowledged. The in-memory
                // state still serves job-result polls for this
                // process's lifetime; a restart re-runs the job.
                jobs.insert(key.clone(), JobState::Done { ok, payload });
                return err_response(
                    env.id,
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
        completed_response(env.id, ok, &payload)
    }

    /// The moment a job's deadline passes.
    fn deadline(&self, env: &Envelope, out: &Out) -> Instant {
        let ms = env.deadline_ms.unwrap_or(self.cfg.default_deadline_ms);
        out.accepted + Duration::from_millis(ms)
    }

    fn run_request(&self, env: &Envelope, out: &Out) -> Result<Vec<(&'static str, Json)>, String> {
        match &env.req {
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
            Request::Sweep { .. } => {
                OBS_REQ_SWEEP.inc();
                self.sweep_core(env, out)
            }
            Request::SweepStream { .. } => {
                OBS_REQ_SWEEP_STREAM.inc();
                self.sweep_core(env, out)
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
            // Metrics, shutdown and job polls are answered on the I/O
            // loop.
            Request::JobResult { .. } | Request::Metrics | Request::Shutdown => {
                unreachable!("not queued")
            }
        }
    }

    /// The sweep engine shared by `sweep` and `sweep-stream`: chunked
    /// fan-out over `ssim_par`; a `sweep-stream` sends one frame per
    /// finished point (in index order within each chunk) as chunks
    /// complete. A resumed job has no connection and its frames fall on
    /// the floor, which is fine — the durable artifact is the final
    /// payload. The payload carries an order-sensitive digest so any
    /// re-assembly of the points — streamed, resumed, fleet-sharded — can
    /// be verified against the blocking result.
    fn sweep_core(&self, env: &Envelope, out: &Out) -> Result<Vec<(&'static str, Json)>, String> {
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
        }) = &env.req
        else {
            unreachable!("sweep_core runs sweeps")
        };
        let deadline = self.deadline(env, out);
        let artifact = self.store.profile(profile)?;
        // Lower once up front; the fan-out workers then stream
        // each point through the fused engine (no materialised
        // traces, per-thread simulator buffers reused).
        let _ = artifact.sampler(*r);
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
            if env.job.is_none() && out.gone() {
                OBS_CANCELLED.inc();
                return Err("client disconnected".to_string());
            }
            if Instant::now() > deadline {
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
                    .simulate_point(&artifact, &configs[m], *r, seeds[s])
            }));
            if matches!(env.req, Request::SweepStream { .. }) {
                for (offset, point) in results[base..].iter().enumerate() {
                    OBS_STREAM_FRAMES.inc();
                    out.send(point_frame(env.id, base + offset, point));
                }
            }
        }
        let mut payload = vec![("profile_hash", Json::hex_u64(artifact.hash))];
        payload.extend(sweep_payload(machines.len(), seeds.len(), &results));
        Ok(payload)
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

    /// The fault plan, unless `env` is a shutdown: a chaos run must
    /// still stop its servers deterministically.
    fn fault(&self, env: &Envelope) -> Option<&FaultInjector> {
        self.fault
            .as_ref()
            .filter(|_| !matches!(env.req, Request::Shutdown))
    }

    /// The instant step for one parsed request: answered here, or
    /// queued as a job.
    fn dispatch(&self, env: Envelope) -> Step<Envelope> {
        // Oversized program sources are rejected here, on the I/O loop —
        // before the job queue and before the assembler parses a byte.
        // (The framing already caps whole lines at 16 MiB; this is the
        // finer, configurable program ceiling.)
        if let Request::Assemble { source } | Request::SubmitProgram { source, .. } = &env.req {
            if source.len() > self.cfg.max_program_source_bytes {
                OBS_PROGRAM_REJECTED.inc();
                return Step::Reply(err_response(
                    env.id,
                    &format!(
                        "program rejected: source is {} bytes, over the server's {}-byte limit",
                        source.len(),
                        self.cfg.max_program_source_bytes
                    ),
                    None,
                ));
            }
        }
        match env.req {
            Request::Metrics => {
                OBS_REQ_METRICS.inc();
                Step::Metrics(env.id)
            }
            Request::JobResult { ref job } => Step::Reply(self.job_result_response(env.id, job)),
            // Gate, drain, then ack: the ack certifies every accepted
            // job responded.
            Request::Shutdown => Step::Shutdown(env.id),
            _ if env.job.is_some() && self.journal.is_none() => Step::Reply(err_response(
                env.id,
                "server has no journal (start with --journal)",
                None,
            )),
            _ => {
                if let Some(reply) = env.job.as_deref().and_then(|k| self.reserve(k, &env)) {
                    return Step::Reply(reply);
                }
                // Journaled jobs bypass the queue bound: the journal is
                // the backlog, and a rejected-but-journaled job would be
                // resumed on restart anyway.
                Step::Job {
                    id: env.id,
                    bounded: env.job.is_none(),
                    job: env,
                }
            }
        }
    }
}

/// The message a panic carried, if it was a string.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a panic without a message")
}

impl Service for Backend {
    const NAME: &'static str = "serve";
    type Job = Envelope;
    type Worker = ();

    fn worker(&self) {}

    /// A delay stalls this connection only — the fleet sees it as a slow
    /// backend — and composes with the decision drawn after it.
    fn delay(&self, env: &Envelope) -> Option<Duration> {
        self.fault(env).and_then(FaultInjector::delay)
    }

    fn on_request(&self, env: Envelope) -> Step<Envelope> {
        match self
            .fault(&env)
            .map_or(FaultAction::None, FaultInjector::decide)
        {
            FaultAction::Drop => Step::Close,
            FaultAction::Reject { retry_after_ms } => Step::Reply(err_response(
                env.id,
                "injected fault: queue full",
                Some(retry_after_ms),
            )),
            FaultAction::None => self.dispatch(env),
        }
    }

    fn run(&self, _: &mut (), env: Envelope, out: &Out) {
        // A journaled job outlives its client: the durable contract is
        // with the key, not the connection, so only ephemeral jobs are
        // dropped on disconnect.
        if env.job.is_none() && out.gone() {
            OBS_CANCELLED.inc();
            return;
        }
        let result = if Instant::now() > self.deadline(&env, out) {
            OBS_DEADLINE.inc();
            Err("deadline exceeded in queue".to_string())
        } else {
            // A panic fails the job like any error: it is answered, and
            // journaled so that a restart does not run it again.
            std::panic::catch_unwind(AssertUnwindSafe(|| self.run_request(&env, out)))
                .unwrap_or_else(|panic| Err(format!("internal error: {}", panic_message(&*panic))))
        };
        let line = self.complete(&env, result);
        let latency_us = out.accepted.elapsed().as_micros() as u64;
        match &env.req {
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
        out.send(line);
    }
}

/// A running server instance.
pub struct Server {
    frontend: Frontend<Backend>,
}

impl Server {
    /// Binds, replays the journal, starts the serving core and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind, journal and thread-spawn failures.
    pub fn start(mut cfg: ServerConfig) -> std::io::Result<Server> {
        // Metrics must record regardless of SSIM_METRICS: the `metrics`
        // endpoint is part of the protocol, not an opt-in debug mode.
        ssim_obs::force_enable();
        if cfg.workers == 0 {
            cfg.workers = ssim_par::num_threads();
        }
        let listener = TcpListener::bind(&cfg.addr)?;
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
        let mut resume: Vec<Envelope> = Vec::new();
        if let Some(path) = &cfg.journal {
            let (j, records) = Journal::open(path)?;
            for rec in records {
                match rec {
                    Record::Accepted { job, request } => {
                        if jobs.contains_key(&job) {
                            continue; // duplicate accept: first wins
                        }
                        match Envelope::parse(&request.render()) {
                            // No client is attached to a resumed job: its
                            // result is served through job-result.
                            Ok(mut env) => {
                                env.job = Some(job.clone());
                                resume.push(env);
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
                        resume.retain(|env| env.job.as_ref() != Some(&job));
                        jobs.insert(job, JobState::Done { ok, payload });
                    }
                }
            }
            journal = Some(j);
        }
        OBS_JOURNAL_RESUMED.add(resume.len() as u64);
        let (workers, queue_capacity) = (cfg.workers, cfg.queue_capacity);
        let backend = Backend {
            store: ArtifactStore::new(cfg.result_cache_capacity),
            fault,
            journal,
            jobs: Mutex::new(jobs),
            cfg,
        };
        Ok(Server {
            frontend: Frontend::start(listener, backend, workers, queue_capacity, resume)?,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// `(queued, in_flight)` job counts of *this* server instance.
    ///
    /// The observability gauges are process-wide, so tests (and
    /// operators embedding several servers in one process) use this to
    /// watch a specific instance instead of the global registry.
    pub fn queue_stats(&self) -> (usize, usize) {
        self.frontend.queue_stats()
    }

    /// Blocks until the server has shut down: the shutdown ack, and
    /// every reply queued before it, has been written (or its socket
    /// failed), and every thread has exited.
    pub fn join(self) {
        self.frontend.join();
    }
}

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
