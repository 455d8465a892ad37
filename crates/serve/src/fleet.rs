//! `ssim-fleet`: a coordinator that shards one design-space sweep
//! across N `ssim-serve` backends and merges the results
//! deterministically. The gateway ([`crate::gateway`]) runs every
//! sharded `sweep` through it.
//!
//! The paper's §4.6 economics — thousands of design points off one
//! statistical profile — stop fitting on one box once the design space
//! or the traffic grows; the unit of deployment becomes a *fleet* of
//! backends, and backends are unreliable. The coordinator therefore
//! treats every backend as something that can stall, shed load, or die
//! mid-request:
//!
//! * **Sharding with deterministic merge.** A sweep is expanded into
//!   independent single-point `simulate` requests, indexed in the same
//!   `machines × seeds` order the server's own `sweep` endpoint uses
//!   and handed out in its seed-major work order ([`sweep_order`]).
//!   Results land in a slot array by point index, so the merged output
//!   is **byte-identical** to a single-backend (or direct library) run
//!   regardless of backend count, scheduling or retries. The
//!   only wire field that depends on placement history — the result
//!   cache's `cached` flag — is normalised to `false` in the merged
//!   output.
//! * **Backpressure and retries.** A `retry_after_ms` rejection is
//!   retried in place with capped exponential backoff + deterministic
//!   jitter ([`Backoff`]), honouring the server's hint as a floor.
//!   After a few in-place attempts the point is re-queued so another
//!   backend can take it.
//! * **Failure reassignment (work stealing).** A timeout or connection
//!   reset marks the backend dead and pushes the point back on the
//!   shared queue; whichever healthy backend pops it next completes the
//!   steal. Dead backends re-enter service only after a successful
//!   periodic health probe.
//!
//! Every decision is visible through `ssim-obs`: fleet-level counters
//! (`fleet.retries`, `fleet.steals`, …) plus per-backend gauges and
//! counters (`fleet.backend<i>.inflight`, `.retries`, `.steals`,
//! `.transitions`, `.served`) built with [`ssim_obs::dyn_gauge`] /
//! [`ssim_obs::dyn_counter`] once per backend per sweep.

use crate::client::Client;
use crate::proto::{sweep_order, MachineSpec, PointResult, ProfileParams, Request};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

static OBS_SWEEPS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.sweeps");
static OBS_POINTS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.points");
static OBS_RETRIES: ssim_obs::Counter = ssim_obs::Counter::new("fleet.retries");
static OBS_STEALS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.steals");
static OBS_TRANSITIONS: ssim_obs::Counter = ssim_obs::Counter::new("fleet.backend_transitions");
static OBS_INFLIGHT: ssim_obs::Gauge = ssim_obs::Gauge::new("fleet.inflight");

// ---- backoff --------------------------------------------------------

/// Capped exponential backoff with deterministic equal jitter.
///
/// Attempt `a` draws uniformly from `[raw/2, raw]` where
/// `raw = min(cap, base · 2^a)`; the result is then floored by the
/// server's `retry_after_ms` hint when one was given (the server knows
/// its queue better than our schedule does). The jitter stream is
/// seeded, so a given `(seed, attempt sequence)` replays exactly.
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    rng: SmallRng,
}

impl Backoff {
    /// A schedule from `base_ms` doubling up to `cap_ms`, jittered by
    /// the stream seeded with `seed`.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The delay for retry number `attempt` (0-based), floored by the
    /// server's `retry_after_ms` hint.
    pub fn delay_ms(&mut self, attempt: u32, retry_after_ms: Option<u64>) -> u64 {
        let raw = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms);
        let half = raw / 2;
        let jittered = half + self.rng.gen_range(0..(raw - half + 1));
        jittered.max(retry_after_ms.unwrap_or(0))
    }
}

// ---- configuration and sweep description ----------------------------

/// Tunables of one fleet coordinator.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backend addresses (`host:port`), at least one.
    pub backends: Vec<String>,
    /// Per-point attempt budget across all backends; exceeding it fails
    /// the sweep (the work is not silently dropped).
    pub max_attempts: u32,
    /// Backoff base delay.
    pub backoff_base_ms: u64,
    /// Backoff cap.
    pub backoff_cap_ms: u64,
    /// How often a dead backend is re-probed.
    pub probe_interval_ms: u64,
    /// Per-request deadline (socket read timeout and the server-side
    /// `deadline_ms` sent with every request).
    pub request_deadline_ms: u64,
    /// Whole-sweep timeout: if the fleet cannot finish within this
    /// budget (e.g. every backend is gone), the sweep fails.
    pub sweep_timeout_ms: u64,
    /// Seed of the jitter streams (worker `i` uses `seed ^ i`).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            backends: Vec::new(),
            max_attempts: 16,
            backoff_base_ms: 5,
            backoff_cap_ms: 500,
            probe_interval_ms: 100,
            request_deadline_ms: 30_000,
            sweep_timeout_ms: 300_000,
            seed: 0,
        }
    }
}

/// One sweep: every machine × every seed over one profile.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The profile every point samples.
    pub profile: ProfileParams,
    /// Machine overrides — outer loop of the point index.
    pub machines: Vec<MachineSpec>,
    /// Reduction factor.
    pub r: u64,
    /// Generation seeds — inner loop of the point index.
    pub seeds: Vec<u64>,
}

impl SweepSpec {
    /// Number of design points.
    pub fn points(&self) -> usize {
        self.machines.len() * self.seeds.len()
    }

    /// The single-point request for point `idx`, in the same `machines`
    /// outer × `seeds` inner order as the server's `sweep` endpoint.
    /// Results are merged in index order, so this mapping *is* the
    /// output order.
    pub fn request(&self, idx: usize) -> Request {
        let m = idx / self.seeds.len();
        let s = idx % self.seeds.len();
        Request::Simulate {
            profile: self.profile.clone(),
            machine: self.machines[m].clone(),
            r: self.r,
            seed: self.seeds[s],
        }
    }
}

/// What one sweep did, beyond its results.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Design points completed.
    pub points: usize,
    /// Re-submissions of a point (backpressure retries + requeues).
    pub retries: u64,
    /// Points completed by a different backend than one that failed
    /// them (work-stealing reassignments).
    pub steals: u64,
    /// Backend health transitions (healthy→dead and dead→healthy).
    pub transitions: u64,
    /// Points answered per backend (indexed like
    /// `FleetConfig::backends`).
    pub served: Vec<u64>,
}

/// A finished sweep: merged points plus the stats.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One result per design point, in point-index order, `cached`
    /// normalised to `false`.
    pub points: Vec<PointResult>,
    /// What it took to get them.
    pub stats: FleetStats,
}

// ---- coordinator internals ------------------------------------------

/// Shared sweep state. A point is either pending, or being run by
/// exactly one worker, or answered: only a failed attempt puts it back
/// on the queue, so every result slot is written once.
struct SweepState {
    /// Points waiting for a backend, in work order.
    pending: VecDeque<usize>,
    results: Vec<Option<PointResult>>,
    /// Backends that have failed each point (steal detection).
    failed_on: Vec<Vec<usize>>,
    /// When each point was last re-queued after a failure (None while
    /// it has never failed) — drives the re-take grace period.
    requeued_at: Vec<Option<Instant>>,
    attempts: Vec<u32>,
    remaining: usize,
    fatal: Option<String>,
    stats: FleetStats,
}

struct Coordinator<'a> {
    cfg: FleetConfig,
    state: Mutex<SweepState>,
    changed: Condvar,
    /// One set of metric handles per backend, indexed like
    /// `cfg.backends`.
    metrics: Vec<BackendMetrics>,
    /// Progress hook: called once per point, by the worker that
    /// answered it, outside the state lock. Drives streaming
    /// sweeps ([`Fleet::sweep_streaming`]); `None` for blocking runs.
    on_point: Option<&'a (dyn Fn(usize, PointResult) + Sync)>,
}

/// Per-backend metric handles (interned, so repeated fleets reuse the
/// same registry rows).
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

enum Task {
    /// Fresh (or re-queued) point, popped from the shared queue.
    Run(usize),
    /// Backend is dead: probe it, then come back.
    Probe,
}

enum ExecError {
    /// Timeout, connection reset, repeated backpressure, server
    /// deadline, shutdown — the point can succeed elsewhere.
    Transport(String),
    /// The request itself is unservable (unknown workload, malformed);
    /// no backend will ever answer it.
    Fatal(String),
}

/// Whether a protocol-level error can be outlived by retrying.
fn retryable_error(msg: &str) -> bool {
    msg.contains("deadline") || msg.contains("shutting down")
}

/// In-place backpressure retries before a point is handed back to the
/// queue for another backend.
const MAX_INPLACE_RETRIES: u32 = 4;

impl Coordinator<'_> {
    /// Picks the next task for worker `bi`, blocking until work exists,
    /// the worker should probe, or the sweep is over (`None`).
    fn next_task(&self, bi: usize, healthy: bool) -> Option<Task> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.fatal.is_some() || st.remaining == 0 {
                return None;
            }
            if !healthy {
                return Some(Task::Probe);
            }
            // Prefer points this backend has not failed; a point it
            // *has* failed becomes eligible again only after a grace
            // period (2× probe interval), so another backend always
            // gets first claim on re-queued work while a lone surviving
            // backend still makes progress eventually.
            let grace = Duration::from_millis(2 * self.cfg.probe_interval_ms);
            let pick = st
                .pending
                .iter()
                .position(|&i| !st.failed_on[i].contains(&bi))
                .or_else(|| {
                    st.pending
                        .iter()
                        .position(|&i| st.requeued_at[i].is_none_or(|t| t.elapsed() >= grace))
                });
            if let Some(pos) = pick {
                let i = st.pending.remove(pos).expect("picked position exists");
                if st.failed_on[i].iter().any(|&b| b != bi) {
                    // A point some *other* backend failed: completing it
                    // here is the reassignment the queue exists for.
                    st.stats.steals += 1;
                    OBS_STEALS.inc();
                    self.metrics[bi].steals.inc();
                }
                st.attempts[i] += 1;
                return Some(Task::Run(i));
            }
            let (guard, _) = self
                .changed
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap();
            st = guard;
        }
    }

    /// Executes point `i` against one backend, retrying backpressure in
    /// place with the worker's seeded backoff schedule.
    fn execute(
        &self,
        conn: &mut Option<Client>,
        addr: &str,
        spec: &SweepSpec,
        i: usize,
        bi: usize,
        backoff: &mut Backoff,
    ) -> Result<PointResult, ExecError> {
        let req = spec.request(i);
        let deadline = Some(self.cfg.request_deadline_ms);
        let mut bp_attempt = 0u32;
        loop {
            if conn.is_none() {
                let cl = Client::connect(addr)
                    .map_err(|e| ExecError::Transport(format!("connect {addr}: {e}")))?;
                cl.set_read_timeout(Some(Duration::from_millis(self.cfg.request_deadline_ms)))
                    .map_err(|e| ExecError::Transport(format!("socket {addr}: {e}")))?;
                *conn = Some(cl);
            }
            let resp = match conn.as_mut().unwrap().call(&req, deadline) {
                Ok(resp) => resp,
                Err(e) => {
                    // Timed out or reset: the stream may still carry a
                    // late reply, so resynchronising is impossible —
                    // drop the connection.
                    *conn = None;
                    return Err(ExecError::Transport(format!("{addr}: {e}")));
                }
            };
            if resp.ok {
                return PointResult::from_json(&resp.body).map_err(ExecError::Fatal);
            }
            let msg = resp.error.unwrap_or_else(|| "unknown error".to_string());
            if resp.retry_after_ms.is_some() {
                if bp_attempt >= MAX_INPLACE_RETRIES {
                    // Persistent overload: let another backend take it.
                    return Err(ExecError::Transport(format!("{addr}: overloaded ({msg})")));
                }
                let delay = backoff.delay_ms(bp_attempt, resp.retry_after_ms);
                bp_attempt += 1;
                {
                    let mut st = self.state.lock().unwrap();
                    st.stats.retries += 1;
                }
                OBS_RETRIES.inc();
                self.metrics[bi].retries.inc();
                std::thread::sleep(Duration::from_millis(delay));
                continue;
            }
            if retryable_error(&msg) {
                return Err(ExecError::Transport(format!("{addr}: {msg}")));
            }
            return Err(ExecError::Fatal(msg));
        }
    }

    /// Records a completed point in its slot.
    fn record_success(&self, i: usize, bi: usize, mut point: PointResult) {
        // Placement history must not leak into the merged output.
        point.cached = false;
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.results[i].is_none(), "point {i} answered twice");
        st.results[i] = Some(point);
        st.remaining -= 1;
        st.stats.served[bi] += 1;
        drop(st);
        self.metrics[bi].served.inc();
        if let Some(cb) = self.on_point {
            // Outside the lock: the hook may do socket I/O. `point` is
            // the normalized (cached=false) value that will land in the
            // merged output.
            cb(i, point);
        }
        self.changed.notify_all();
    }

    /// Records a failed attempt: re-queues the point and charges the
    /// attempt budget.
    fn record_failure(&self, i: usize, bi: usize, err: ExecError) {
        let mut st = self.state.lock().unwrap();
        match err {
            ExecError::Fatal(msg) => {
                st.fatal = Some(format!("point {i}: {msg}"));
            }
            ExecError::Transport(msg) => {
                if !st.failed_on[i].contains(&bi) {
                    st.failed_on[i].push(bi);
                }
                if st.attempts[i] >= self.cfg.max_attempts {
                    st.fatal = Some(format!(
                        "point {i} failed after {} attempts (last: {msg})",
                        st.attempts[i]
                    ));
                } else {
                    st.stats.retries += 1;
                    OBS_RETRIES.inc();
                    self.metrics[bi].retries.inc();
                    // A failed point is the sweep's oldest outstanding
                    // work: retry it first.
                    st.requeued_at[i] = Some(Instant::now());
                    st.pending.push_front(i);
                }
            }
        }
        drop(st);
        self.changed.notify_all();
    }

    fn count_transition(&self, bi: usize) {
        let mut st = self.state.lock().unwrap();
        st.stats.transitions += 1;
        drop(st);
        OBS_TRANSITIONS.inc();
        self.metrics[bi].transitions.inc();
    }

    /// Worker body: one thread per backend.
    fn worker(&self, bi: usize, addr: &str, spec: &SweepSpec) {
        let metrics = &self.metrics[bi];
        let mut conn: Option<Client> = None;
        let mut healthy = true;
        let mut backoff = Backoff::new(
            self.cfg.backoff_base_ms,
            self.cfg.backoff_cap_ms,
            self.cfg.seed ^ bi as u64,
        );
        while let Some(task) = self.next_task(bi, healthy) {
            match task {
                Task::Probe => {
                    // Probes are periodic: a dead backend sits out the
                    // interval *before* each attempt, so its re-queued
                    // work is up for stealing by healthy backends
                    // instead of being instantly re-taken by a backend
                    // that dropped it once already.
                    std::thread::sleep(Duration::from_millis(self.cfg.probe_interval_ms));
                    if self.probe(addr) {
                        healthy = true;
                        self.count_transition(bi);
                    }
                }
                Task::Run(i) => {
                    OBS_INFLIGHT.add(1);
                    metrics.inflight.add(1);
                    let outcome = self.execute(&mut conn, addr, spec, i, bi, &mut backoff);
                    metrics.inflight.sub(1);
                    OBS_INFLIGHT.sub(1);
                    match outcome {
                        Ok(point) => self.record_success(i, bi, point),
                        Err(err) => {
                            if matches!(err, ExecError::Transport(_)) {
                                healthy = false;
                                conn = None;
                                self.count_transition(bi);
                            }
                            self.record_failure(i, bi, err);
                        }
                    }
                }
            }
        }
    }

    /// One health probe: fresh connection, `metrics` round trip under
    /// the request deadline.
    fn probe(&self, addr: &str) -> bool {
        let Ok(cl) = Client::connect(addr) else {
            return false;
        };
        if cl
            .set_read_timeout(Some(Duration::from_millis(self.cfg.request_deadline_ms)))
            .is_err()
        {
            return false;
        }
        let mut cl = cl;
        matches!(cl.call(&Request::Metrics, None), Ok(resp) if resp.ok)
    }
}

// ---- the public fleet -----------------------------------------------

/// A sweep coordinator over a fixed set of backends.
pub struct Fleet {
    cfg: FleetConfig,
}

impl Fleet {
    /// A fleet over `cfg.backends`.
    ///
    /// # Errors
    ///
    /// Rejects an empty backend list.
    pub fn new(cfg: FleetConfig) -> Result<Fleet, String> {
        if cfg.backends.is_empty() {
            return Err("fleet needs at least one backend".to_string());
        }
        Ok(Fleet { cfg })
    }

    /// Runs one sweep: shards `spec`'s points across the backends and
    /// merges the answers by point index.
    ///
    /// # Errors
    ///
    /// Fails when a point is unservable (fatal server error), a point
    /// exhausts its attempt budget, or the sweep times out — never by
    /// silently dropping points.
    pub fn sweep(&self, spec: &SweepSpec) -> Result<SweepOutcome, String> {
        self.run_with(spec, None)
    }

    /// Like [`Fleet::sweep`], but invokes `on_point` with
    /// `(index, point)` as each design point completes — in completion
    /// order, not index order, exactly once per point. The returned
    /// outcome is byte-identical to [`Fleet::sweep`] on the same spec;
    /// the hook only adds progress visibility. Used by the gateway to
    /// relay `sweep-stream` frames while the sweep is sharded across
    /// backends.
    ///
    /// # Errors
    ///
    /// Same failure contract as [`Fleet::sweep`].
    pub fn sweep_streaming(
        &self,
        spec: &SweepSpec,
        on_point: &(dyn Fn(usize, PointResult) + Sync),
    ) -> Result<SweepOutcome, String> {
        self.run_with(spec, Some(on_point))
    }

    fn run_with(
        &self,
        spec: &SweepSpec,
        on_point: Option<&(dyn Fn(usize, PointResult) + Sync)>,
    ) -> Result<SweepOutcome, String> {
        let n = spec.points();
        if n == 0 {
            return Err("sweep has no points".to_string());
        }
        ssim_obs::force_enable();
        OBS_SWEEPS.inc();
        OBS_POINTS.add(n as u64);
        let coord = Coordinator {
            state: Mutex::new(SweepState {
                pending: sweep_order(spec.machines.len(), spec.seeds.len()).into(),
                results: vec![None; n],
                failed_on: vec![Vec::new(); n],
                requeued_at: vec![None; n],
                attempts: vec![0; n],
                remaining: n,
                fatal: None,
                stats: FleetStats {
                    points: n,
                    served: vec![0; self.cfg.backends.len()],
                    ..FleetStats::default()
                },
            }),
            changed: Condvar::new(),
            metrics: (0..self.cfg.backends.len())
                .map(BackendMetrics::for_backend)
                .collect(),
            cfg: self.cfg.clone(),
            on_point,
        };
        let deadline = Instant::now() + Duration::from_millis(self.cfg.sweep_timeout_ms);
        std::thread::scope(|scope| {
            for (bi, addr) in self.cfg.backends.iter().enumerate() {
                let coord = &coord;
                scope.spawn(move || coord.worker(bi, addr, spec));
            }
            // Supervise: enforce the whole-sweep timeout.
            let mut st = coord.state.lock().unwrap();
            while st.remaining > 0 && st.fatal.is_none() {
                if Instant::now() > deadline {
                    st.fatal = Some(format!(
                        "sweep timed out after {} ms with {} of {n} points outstanding",
                        self.cfg.sweep_timeout_ms, st.remaining
                    ));
                    break;
                }
                let (guard, _) = coord
                    .changed
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap();
                st = guard;
            }
            drop(st);
            coord.changed.notify_all();
        });
        let st = coord.state.into_inner().unwrap();
        if let Some(msg) = st.fatal {
            return Err(msg);
        }
        let points = st
            .results
            .into_iter()
            .map(|p| p.expect("drained sweep left an empty slot"))
            .collect();
        Ok(SweepOutcome {
            points,
            stats: st.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_respects_cap_and_jitter_bounds() {
        let mut b = Backoff::new(10, 400, 42);
        for attempt in 0..12 {
            let raw = 10u64.saturating_mul(1 << attempt.min(20)).min(400);
            for _ in 0..50 {
                let d = b.delay_ms(attempt, None);
                assert!(
                    d >= raw / 2 && d <= raw,
                    "attempt {attempt}: delay {d} outside [{}, {raw}]",
                    raw / 2
                );
            }
        }
    }

    #[test]
    fn backoff_honors_retry_after_as_floor() {
        let mut b = Backoff::new(5, 100, 7);
        for attempt in 0..6 {
            let d = b.delay_ms(attempt, Some(5_000));
            assert!(d >= 5_000, "attempt {attempt}: {d} below the server hint");
        }
        // A hint below the schedule does not shrink the delay.
        let mut b = Backoff::new(100, 100, 7);
        assert!(b.delay_ms(0, Some(1)) >= 50);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mut a = Backoff::new(10, 1_000, 99);
        let mut b = Backoff::new(10, 1_000, 99);
        let s1: Vec<u64> = (0..20).map(|i| a.delay_ms(i % 8, None)).collect();
        let s2: Vec<u64> = (0..20).map(|i| b.delay_ms(i % 8, None)).collect();
        assert_eq!(s1, s2);
        let mut c = Backoff::new(10, 1_000, 100);
        let s3: Vec<u64> = (0..20).map(|i| c.delay_ms(i % 8, None)).collect();
        assert_ne!(s1, s3, "different seeds should jitter differently");
    }

    #[test]
    fn backoff_never_overflows_on_huge_attempts() {
        let mut b = Backoff::new(u64::MAX / 2, u64::MAX, 1);
        let d = b.delay_ms(u32::MAX, Some(u64::MAX));
        assert_eq!(d, u64::MAX);
    }

    #[test]
    fn sweep_spec_point_order_matches_server_sweep() {
        let spec = SweepSpec {
            profile: ProfileParams {
                workload: "gzip".to_string(),
                instructions: 1_000,
                skip: 0,
            },
            machines: vec![
                MachineSpec {
                    width: Some(2),
                    ..MachineSpec::default()
                },
                MachineSpec {
                    width: Some(4),
                    ..MachineSpec::default()
                },
            ],
            r: 10,
            seeds: vec![7, 8, 9],
        };
        assert_eq!(spec.points(), 6);
        // machines outer, seeds inner — the server's sweep order.
        let expect = [(2, 7), (2, 8), (2, 9), (4, 7), (4, 8), (4, 9)];
        for (i, (w, s)) in expect.iter().enumerate() {
            match spec.request(i) {
                Request::Simulate { machine, seed, .. } => {
                    assert_eq!(machine.width, Some(*w), "point {i} machine");
                    assert_eq!(seed, *s, "point {i} seed");
                }
                other => panic!("wrong request kind: {other:?}"),
            }
        }
    }

    #[test]
    fn fleet_rejects_empty_backends() {
        assert!(Fleet::new(FleetConfig::default()).is_err());
    }
}
