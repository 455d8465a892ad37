//! The wire protocol: request/response envelopes over newline-delimited
//! JSON.
//!
//! One request per line, one response per line. Responses carry the
//! request's `id`, so a client may pipeline: submit many requests and
//! match replies as they complete (completion order is not arrival
//! order — the job queue is shared across connections).
//!
//! # Grammar
//!
//! ```text
//! request  := {"id": N[, "job": S], "kind": KIND, ...params} "\n"
//! KIND     := "profile" | "synth" | "simulate" | "sweep" | "sweep-stream"
//!           | "assemble" | "submit-program" | "job-result"
//!           | "metrics" | "shutdown"
//! response := {"id": N, "ok": true,  ...payload} "\n"
//!           | {"id": N, "ok": false, "error": S[, "retry_after_ms": N]} "\n"
//! frame    := {"id": N, "frame": "point", "index": N, "point": {...}} "\n"
//! ```
//!
//! `sweep-stream` is `sweep` with progress: the server emits one
//! `frame` line per finished design point (in completion order, which
//! under a fleet gateway is not index order) before the final `ok`
//! response. Both sweep kinds carry a `digest` — an order-sensitive
//! FxHash-64 over `(cycles, instructions, ipc)` per point — so a
//! client that merges frames by `index` can verify its merge is
//! byte-identical to the blocking result ([`sweep_digest`]).
//!
//! The optional envelope-level `"job"` key names a client-chosen
//! idempotency key: the server journals the job before queueing it and
//! journals its result before acknowledging, so acks survive a crash
//! and re-submissions of a completed key replay the stored response.
//! `job-result` polls a key's outcome without re-submitting.
//!
//! `profile`, `synth`, `simulate` and `sweep` identify their profile by
//! `{workload, instructions, skip}` (the profiling budget — the profile
//! itself is resolved through the on-disk profile cache server-side).
//! The `workload` name is either a suite/corpus workload
//! (`ssim_workloads::by_name`) or `program:<hash>` naming a previously
//! submitted program.
//!
//! `assemble` carries untrusted `.asm` text in `source` and returns the
//! program's static shape without executing it; `submit-program`
//! additionally sandbox-checks the program (bounded functional pre-run
//! under the server's instruction budget), profiles it, and registers
//! it under `program:<hash>` for later `synth`/`simulate`/`sweep`
//! requests. Both are subject to the server's parse-size, memory and
//! budget ceilings — violations come back as structured errors.
//! Machine configurations travel as *override objects* applied to the
//! paper's Table 2 baseline (`{"width", "window", "ifq", "in_order",
//! "perfect_caches", "perfect_bpred"}` plus the fine-grained `{"ruu",
//! "lsq", "decode", "issue", "commit"}` the design-space planner
//! submits), which covers every sweep the experiment suite runs while
//! keeping the wire format small; the full resolved `MachineConfig`
//! participates in result-cache keys via its `Debug` fingerprint, so
//! distinct overrides can never alias.

use crate::json::Json;
use ssim::prelude::*;

/// Budget identifying one statistical profile (resolved server-side
/// through the on-disk profile cache).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProfileParams {
    /// Workload name (`ssim_workloads::by_name`).
    pub workload: String,
    /// Instructions to profile.
    pub instructions: u64,
    /// Instructions to skip before profiling.
    pub skip: u64,
}

impl ProfileParams {
    fn from_json(v: &Json) -> Result<Self, String> {
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing \"workload\"")?
            .to_string();
        let instructions = v
            .get("instructions")
            .and_then(Json::as_u64)
            .ok_or("missing \"instructions\"")?;
        if instructions == 0 {
            return Err("\"instructions\" must be positive".to_string());
        }
        let skip = match v.get("skip") {
            None => 0,
            Some(s) => s
                .as_u64()
                .ok_or("\"skip\" must be a non-negative integer")?,
        };
        Ok(ProfileParams {
            workload,
            instructions,
            skip,
        })
    }

    fn to_pairs(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::str(&self.workload)),
            ("instructions", Json::Num(self.instructions as f64)),
            ("skip", Json::Num(self.skip as f64)),
        ]
    }
}

/// A machine configuration as overrides on [`MachineConfig::baseline`].
///
/// The coarse knobs (`width`, `window`) set several fields at once via
/// the paper's conventions; the fine-grained knobs (`ruu`, `lsq`,
/// `decode`, `issue`, `commit`) pin single fields and are what the
/// §4.6 design-space planner submits — its grid decouples RUU from LSQ
/// and the three widths from each other. Fine-grained overrides are
/// applied *after* the coarse ones, so `{window: 64, lsq: 16}` means
/// "RUU 64 with the LSQ pinned to 16", not the §4.5 half-window LSQ.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineSpec {
    /// Processor width (decode = issue = commit), as swept in Table 4.
    pub width: Option<u64>,
    /// RUU size (LSQ follows as half, the paper's §4.5 convention).
    pub window: Option<u64>,
    /// IFQ size.
    pub ifq: Option<u64>,
    /// RUU size alone (LSQ untouched).
    pub ruu: Option<u64>,
    /// LSQ size alone.
    pub lsq: Option<u64>,
    /// Decode width alone.
    pub decode: Option<u64>,
    /// Issue width alone.
    pub issue: Option<u64>,
    /// Commit width alone.
    pub commit: Option<u64>,
    /// In-order issue with WAW/WAR hazards honoured.
    pub in_order: bool,
    /// Model every cache access as a hit.
    pub perfect_caches: bool,
    /// Model every branch as correctly predicted.
    pub perfect_bpred: bool,
}

impl MachineSpec {
    /// Parses an override object.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("machine spec must be an object".to_string());
        }
        let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_u64()
                    .filter(|&n| n > 0)
                    .map(Some)
                    .ok_or_else(|| format!("\"{key}\" must be a positive integer")),
            }
        };
        let flag = |key: &str| -> Result<bool, String> {
            match v.get(key) {
                None => Ok(false),
                Some(x) => x
                    .as_bool()
                    .ok_or_else(|| format!("\"{key}\" must be a bool")),
            }
        };
        Ok(MachineSpec {
            width: opt_u64("width")?,
            window: opt_u64("window")?,
            ifq: opt_u64("ifq")?,
            ruu: opt_u64("ruu")?,
            lsq: opt_u64("lsq")?,
            decode: opt_u64("decode")?,
            issue: opt_u64("issue")?,
            commit: opt_u64("commit")?,
            in_order: flag("in_order")?,
            perfect_caches: flag("perfect_caches")?,
            perfect_bpred: flag("perfect_bpred")?,
        })
    }

    /// Renders the override object.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        if let Some(w) = self.width {
            pairs.push(("width", Json::Num(w as f64)));
        }
        if let Some(w) = self.window {
            pairs.push(("window", Json::Num(w as f64)));
        }
        if let Some(i) = self.ifq {
            pairs.push(("ifq", Json::Num(i as f64)));
        }
        for (key, v) in [
            ("ruu", self.ruu),
            ("lsq", self.lsq),
            ("decode", self.decode),
            ("issue", self.issue),
            ("commit", self.commit),
        ] {
            if let Some(n) = v {
                pairs.push((key, Json::Num(n as f64)));
            }
        }
        if self.in_order {
            pairs.push(("in_order", Json::Bool(true)));
        }
        if self.perfect_caches {
            pairs.push(("perfect_caches", Json::Bool(true)));
        }
        if self.perfect_bpred {
            pairs.push(("perfect_bpred", Json::Bool(true)));
        }
        Json::obj(pairs)
    }

    /// Checks that the resolved machine is one a worker can simulate:
    /// no queue over [`MAX_QUEUE_ENTRIES`], no width over [`MAX_WIDTH`],
    /// and an LSQ no larger than the RUU. Every size is positive by
    /// parsing, so [`MachineConfig::validate`] then holds.
    pub fn check(&self) -> Result<(), String> {
        let cfg = self.resolve();
        for (name, v, max) in [
            ("RUU", cfg.ruu_size, MAX_QUEUE_ENTRIES),
            ("LSQ", cfg.lsq_size, MAX_QUEUE_ENTRIES),
            ("IFQ", cfg.ifq_size, MAX_QUEUE_ENTRIES),
            ("decode width", cfg.decode_width, MAX_WIDTH),
            ("issue width", cfg.issue_width, MAX_WIDTH),
            ("commit width", cfg.commit_width, MAX_WIDTH),
        ] {
            if v > max {
                return Err(format!("machine {name} {v} is over the limit of {max}"));
            }
        }
        if cfg.lsq_size > cfg.ruu_size {
            return Err(format!(
                "machine LSQ {} may not exceed the RUU {}",
                cfg.lsq_size, cfg.ruu_size
            ));
        }
        Ok(())
    }

    /// Resolves the overrides against the Table 2 baseline.
    pub fn resolve(&self) -> MachineConfig {
        let mut cfg = MachineConfig::baseline();
        if let Some(w) = self.width {
            cfg = cfg.with_width(w as usize);
        }
        if let Some(w) = self.window {
            cfg = cfg.with_window(w as usize);
        }
        if let Some(i) = self.ifq {
            cfg = cfg.with_ifq(i as usize);
        }
        if let Some(n) = self.ruu {
            cfg.ruu_size = n as usize;
        }
        if let Some(n) = self.lsq {
            cfg.lsq_size = n as usize;
        }
        if let Some(n) = self.decode {
            cfg.decode_width = n as usize;
        }
        if let Some(n) = self.issue {
            cfg.issue_width = n as usize;
        }
        if let Some(n) = self.commit {
            cfg.commit_width = n as usize;
        }
        if self.in_order {
            cfg = cfg.in_order();
        }
        cfg.perfect_caches = self.perfect_caches;
        cfg.perfect_bpred = self.perfect_bpred;
        cfg
    }
}

/// A parsed request (the `id` lives in the envelope, not here).
#[derive(Debug, Clone)]
pub enum Request {
    /// Resolve a profile (through the on-disk cache) and return its
    /// metadata — the warm-up request.
    Profile(ProfileParams),
    /// Generate a synthetic trace from the compiled sampler and return
    /// its length and a content digest.
    Synth {
        /// The profile to sample.
        profile: ProfileParams,
        /// Reduction factor.
        r: u64,
        /// Generation seed.
        seed: u64,
    },
    /// Simulate one design point on a synthetic trace.
    Simulate {
        /// The profile to sample.
        profile: ProfileParams,
        /// Machine overrides.
        machine: MachineSpec,
        /// Reduction factor.
        r: u64,
        /// Generation seed.
        seed: u64,
    },
    /// Simulate a design-space sweep: every machine × every seed.
    Sweep {
        /// The profile to sample.
        profile: ProfileParams,
        /// Machine overrides, outer loop of the result order.
        machines: Vec<MachineSpec>,
        /// Reduction factor.
        r: u64,
        /// Seeds, inner loop of the result order.
        seeds: Vec<u64>,
    },
    /// `Sweep` with streaming progress: a `frame` line per finished
    /// design point, then the blocking response (digest included).
    SweepStream {
        /// The profile to sample.
        profile: ProfileParams,
        /// Machine overrides, outer loop of the result order.
        machines: Vec<MachineSpec>,
        /// Reduction factor.
        r: u64,
        /// Seeds, inner loop of the result order.
        seeds: Vec<u64>,
    },
    /// Poll the outcome of a journaled job without re-submitting it.
    JobResult {
        /// The job key to look up.
        job: String,
    },
    /// Assemble untrusted `.asm` text and return its static shape —
    /// no execution, no profiling (the dry-run half of submission).
    Assemble {
        /// `.asm` source text.
        source: String,
    },
    /// Assemble, sandbox-check and profile an untrusted textual
    /// program, registering it under `program:<hash>` for later
    /// `synth`/`simulate`/`sweep` requests.
    SubmitProgram {
        /// `.asm` source text.
        source: String,
        /// Instructions to profile.
        instructions: u64,
        /// Instructions to skip before profiling.
        skip: u64,
    },
    /// Return the server's observability registry as JSON.
    Metrics,
    /// Stop accepting work, drain accepted jobs, reply, exit.
    Shutdown,
}

/// One framed request: envelope id plus the parsed body.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Optional per-job deadline in milliseconds from receipt.
    pub deadline_ms: Option<u64>,
    /// Optional idempotency key routing the request through the
    /// server's crash-safe job journal.
    pub job: Option<String>,
    /// The request body.
    pub req: Request,
}

/// Most design points (machines × seeds) one sweep may name. The full
/// §4.6 grid is 999 machines; without a bound, a line under the 16 MiB
/// cap could name over 10^13 points, and the server reserves a result
/// for each before it first checks the deadline.
const MAX_SWEEP_POINTS: usize = 65_536;

/// Most entries a requested RUU, LSQ or IFQ may have. The §4.6 grid
/// tops out at a 128-entry RUU, and the core sizes its window arrays
/// from the RUU, so an unbounded size could ask for terabytes.
const MAX_QUEUE_ENTRIES: usize = 4096;

/// Widest decode, issue or commit stage a request may ask for.
const MAX_WIDTH: usize = 64;

/// Parses one machine override object and checks it (see
/// [`MachineSpec::check`]).
fn req_machine(v: &Json) -> Result<MachineSpec, String> {
    let m = MachineSpec::from_json(v)?;
    m.check()?;
    Ok(m)
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing \"{key}\""))
}

fn req_source(v: &Json) -> Result<String, String> {
    let source = v
        .get("source")
        .and_then(Json::as_str)
        .ok_or("missing \"source\"")?;
    if source.is_empty() {
        return Err("\"source\" must be non-empty".to_string());
    }
    Ok(source.to_string())
}

impl Envelope {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Envelope, String> {
        let v = Json::parse(line)?;
        let id = req_u64(&v, "id")?;
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => Some(d.as_u64().ok_or("\"deadline_ms\" must be an integer")?),
        };
        let mut job = match v.get("job") {
            None | Some(Json::Null) => None,
            Some(j) => {
                let s = j.as_str().ok_or("\"job\" must be a string")?;
                if s.is_empty() || s.len() > 200 {
                    return Err("\"job\" must be 1..=200 bytes".to_string());
                }
                Some(s.to_string())
            }
        };
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        let req = match kind {
            "profile" => Request::Profile(ProfileParams::from_json(&v)?),
            "synth" => Request::Synth {
                profile: ProfileParams::from_json(&v)?,
                r: req_u64(&v, "r")?.max(1),
                seed: req_u64(&v, "seed")?,
            },
            "simulate" => Request::Simulate {
                profile: ProfileParams::from_json(&v)?,
                machine: match v.get("machine") {
                    None => MachineSpec::default(),
                    Some(m) => req_machine(m)?,
                },
                r: req_u64(&v, "r")?.max(1),
                seed: req_u64(&v, "seed")?,
            },
            "sweep" | "sweep-stream" => {
                let machines = v
                    .get("machines")
                    .and_then(Json::as_arr)
                    .ok_or("missing \"machines\"")?
                    .iter()
                    .map(req_machine)
                    .collect::<Result<Vec<_>, _>>()?;
                if machines.is_empty() {
                    return Err("\"machines\" must be non-empty".to_string());
                }
                let seeds = match v.get("seeds") {
                    None => vec![1],
                    Some(s) => s
                        .as_arr()
                        .ok_or("\"seeds\" must be an array")?
                        .iter()
                        .map(|x| x.as_u64().ok_or("seeds must be integers".to_string()))
                        .collect::<Result<Vec<_>, _>>()?,
                };
                if seeds.is_empty() {
                    return Err("\"seeds\" must be non-empty".to_string());
                }
                let points = machines.len().saturating_mul(seeds.len());
                if points > MAX_SWEEP_POINTS {
                    return Err(format!(
                        "a sweep may name at most {MAX_SWEEP_POINTS} points (machines × seeds), \
                         not {points}"
                    ));
                }
                let profile = ProfileParams::from_json(&v)?;
                let r = req_u64(&v, "r")?.max(1);
                if kind == "sweep" {
                    Request::Sweep {
                        profile,
                        machines,
                        r,
                        seeds,
                    }
                } else {
                    Request::SweepStream {
                        profile,
                        machines,
                        r,
                        seeds,
                    }
                }
            }
            "assemble" => Request::Assemble {
                source: req_source(&v)?,
            },
            "submit-program" => {
                let instructions = req_u64(&v, "instructions")?;
                if instructions == 0 {
                    return Err("\"instructions\" must be positive".to_string());
                }
                Request::SubmitProgram {
                    source: req_source(&v)?,
                    instructions,
                    skip: match v.get("skip") {
                        None => 0,
                        Some(s) => s
                            .as_u64()
                            .ok_or("\"skip\" must be a non-negative integer")?,
                    },
                }
            }
            "job-result" => {
                // The key doubles as the lookup target; a poll is
                // never itself journaled.
                let key = job.take().ok_or("\"job-result\" needs a \"job\" key")?;
                Request::JobResult { job: key }
            }
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown kind {other:?}")),
        };
        Ok(Envelope {
            id,
            deadline_ms,
            job,
            req,
        })
    }

    /// Renders the request line (client side).
    pub fn render(&self) -> String {
        let mut pairs: Vec<(&str, Json)> = vec![("id", Json::Num(self.id as f64))];
        if let Some(d) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::Num(d as f64)));
        }
        if let Some(job) = &self.job {
            if !matches!(self.req, Request::JobResult { .. }) {
                pairs.push(("job", Json::str(job)));
            }
        }
        match &self.req {
            Request::Profile(p) => {
                pairs.push(("kind", Json::str("profile")));
                pairs.extend(p.to_pairs());
            }
            Request::Synth { profile, r, seed } => {
                pairs.push(("kind", Json::str("synth")));
                pairs.extend(profile.to_pairs());
                pairs.push(("r", Json::Num(*r as f64)));
                pairs.push(("seed", Json::Num(*seed as f64)));
            }
            Request::Simulate {
                profile,
                machine,
                r,
                seed,
            } => {
                pairs.push(("kind", Json::str("simulate")));
                pairs.extend(profile.to_pairs());
                pairs.push(("machine", machine.to_json()));
                pairs.push(("r", Json::Num(*r as f64)));
                pairs.push(("seed", Json::Num(*seed as f64)));
            }
            Request::Sweep {
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
            } => {
                let kind = if matches!(self.req, Request::Sweep { .. }) {
                    "sweep"
                } else {
                    "sweep-stream"
                };
                pairs.push(("kind", Json::str(kind)));
                pairs.extend(profile.to_pairs());
                pairs.push((
                    "machines",
                    Json::Arr(machines.iter().map(MachineSpec::to_json).collect()),
                ));
                pairs.push(("r", Json::Num(*r as f64)));
                pairs.push((
                    "seeds",
                    Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
                ));
            }
            Request::Assemble { source } => {
                pairs.push(("kind", Json::str("assemble")));
                pairs.push(("source", Json::str(source)));
            }
            Request::SubmitProgram {
                source,
                instructions,
                skip,
            } => {
                pairs.push(("kind", Json::str("submit-program")));
                pairs.push(("source", Json::str(source)));
                pairs.push(("instructions", Json::Num(*instructions as f64)));
                pairs.push(("skip", Json::Num(*skip as f64)));
            }
            Request::JobResult { job } => {
                pairs.push(("kind", Json::str("job-result")));
                pairs.push(("job", Json::str(job)));
            }
            Request::Metrics => pairs.push(("kind", Json::str("metrics"))),
            Request::Shutdown => pairs.push(("kind", Json::str("shutdown"))),
        }
        Json::obj(pairs).render()
    }
}

/// The summary of one simulated design point, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Whether the point was served from the in-memory result cache.
    pub cached: bool,
}

impl PointResult {
    /// Renders the point object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cycles", Json::Num(self.cycles as f64)),
            ("instructions", Json::Num(self.instructions as f64)),
            ("ipc", Json::Num(self.ipc)),
            ("cached", Json::Bool(self.cached)),
        ])
    }

    /// Parses a point object.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PointResult {
            cycles: req_u64(v, "cycles")?,
            instructions: req_u64(v, "instructions")?,
            ipc: v
                .get("ipc")
                .and_then(Json::as_f64)
                .ok_or("missing \"ipc\"")?,
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// The body of a sweep response: its shape, the points in index order,
/// and their digest.
pub(crate) fn sweep_payload(
    machines: usize,
    seeds: usize,
    points: &[PointResult],
) -> Vec<(&'static str, Json)> {
    vec![
        ("machines", Json::Num(machines as f64)),
        ("seeds", Json::Num(seeds as f64)),
        (
            "results",
            Json::Arr(points.iter().map(PointResult::to_json).collect()),
        ),
        ("digest", Json::hex_u64(sweep_digest(points))),
    ]
}

/// Order-sensitive digest over a sweep's point results: FxHash-64 of
/// `(cycles, instructions, ipc bits)` per point, in result order. The
/// `cached` flag is deliberately excluded — cache hits and placement
/// history must never change what a sweep computed, so a streamed,
/// resumed, or fleet-sharded run digests identically to a cold
/// single-server run.
pub fn sweep_digest(points: &[PointResult]) -> u64 {
    use std::hash::Hasher;
    let mut h = ssim::core::FxHasher::default();
    for p in points {
        h.write_u64(p.cycles);
        h.write_u64(p.instructions);
        h.write_u64(p.ipc.to_bits());
    }
    h.finish()
}

/// Builds one streaming progress frame: design point `index` of the
/// sweep identified by request `id` just finished.
pub fn point_frame(id: u64, index: usize, point: &PointResult) -> String {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("frame", Json::str("point")),
        ("index", Json::Num(index as f64)),
        ("point", point.to_json()),
    ])
    .render()
}

/// Re-renders a journaled completion under a fresh request id. The
/// payload is the stored response body: an object of payload pairs for
/// successes, the error string for failures.
pub fn completed_response(id: u64, ok: bool, payload: &Json) -> String {
    if ok {
        let mut pairs = vec![
            ("id".to_string(), Json::Num(id as f64)),
            ("ok".to_string(), Json::Bool(true)),
        ];
        if let Json::Obj(p) = payload {
            pairs.extend(p.iter().cloned());
        }
        Json::Obj(pairs).render()
    } else {
        err_response(id, payload.as_str().unwrap_or("unknown error"), None)
    }
}

/// Builds a success response line.
pub fn ok_response(id: u64, mut payload: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![("id", Json::Num(id as f64)), ("ok", Json::Bool(true))];
    pairs.append(&mut payload);
    Json::obj(pairs).render()
}

/// Builds an error response line; `retry_after_ms` marks retryable
/// backpressure rejections.
pub fn err_response(id: u64, error: &str, retry_after_ms: Option<u64>) -> String {
    let mut pairs = vec![
        ("id", Json::Num(id as f64)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(error)),
    ];
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", Json::Num(ms as f64)));
    }
    Json::obj(pairs).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let env = Envelope {
            id: 7,
            deadline_ms: Some(250),
            job: Some("nightly-sweep-1".to_string()),
            req: Request::Sweep {
                profile: ProfileParams {
                    workload: "gzip".to_string(),
                    instructions: 50_000,
                    skip: 0,
                },
                machines: vec![
                    MachineSpec {
                        width: Some(4),
                        window: Some(64),
                        ..Default::default()
                    },
                    MachineSpec {
                        in_order: true,
                        ..Default::default()
                    },
                ],
                r: 15,
                seeds: vec![1, 2, 3],
            },
        };
        let line = env.render();
        let back = Envelope::parse(&line).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.deadline_ms, Some(250));
        assert_eq!(back.job.as_deref(), Some("nightly-sweep-1"));
        match back.req {
            Request::Sweep {
                profile,
                machines,
                r,
                seeds,
            } => {
                assert_eq!(profile.workload, "gzip");
                assert_eq!(profile.instructions, 50_000);
                assert_eq!(machines.len(), 2);
                assert_eq!(machines[0].width, Some(4));
                assert!(machines[1].in_order);
                assert_eq!(r, 15);
                assert_eq!(seeds, vec![1, 2, 3]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn machine_spec_resolves_like_builders() {
        let spec = MachineSpec {
            width: Some(4),
            window: Some(64),
            ifq: Some(8),
            ..Default::default()
        };
        let direct = MachineConfig::baseline()
            .with_width(4)
            .with_window(64)
            .with_ifq(8);
        assert_eq!(spec.resolve(), direct);
        assert_eq!(MachineSpec::default().resolve(), MachineConfig::baseline());
    }

    #[test]
    fn fine_grained_fields_roundtrip_and_resolve() {
        let spec = MachineSpec {
            window: Some(64),
            ruu: Some(96),
            lsq: Some(24),
            decode: Some(2),
            issue: Some(8),
            commit: Some(4),
            ..Default::default()
        };
        let back = MachineSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, spec);
        let cfg = spec.resolve();
        // Fine-grained overrides win over the coarse `window` coupling.
        assert_eq!(cfg.ruu_size, 96);
        assert_eq!(cfg.lsq_size, 24);
        assert_eq!(cfg.decode_width, 2);
        assert_eq!(cfg.issue_width, 8);
        assert_eq!(cfg.commit_width, 4);
        // Distinct fine-grained specs must never alias in cache keys.
        let other = MachineSpec {
            lsq: Some(32),
            ..spec.clone()
        };
        assert_ne!(format!("{:?}", other.resolve()), format!("{cfg:?}"));
    }

    #[test]
    fn program_requests_roundtrip_with_hostile_source() {
        // Newlines, quotes and backslashes in the source must survive
        // the NDJSON framing (one request per line).
        let source = ".name \"x\\y\"\n; comment\n    halt\n".to_string();
        let env = Envelope {
            id: 9,
            deadline_ms: None,
            job: None,
            req: Request::SubmitProgram {
                source: source.clone(),
                instructions: 50_000,
                skip: 1_000,
            },
        };
        let line = env.render();
        assert!(!line.contains('\n'), "request must stay one line");
        match Envelope::parse(&line).unwrap().req {
            Request::SubmitProgram {
                source: s,
                instructions,
                skip,
            } => {
                assert_eq!(s, source);
                assert_eq!(instructions, 50_000);
                assert_eq!(skip, 1_000);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let asm = Envelope {
            id: 10,
            deadline_ms: None,
            job: None,
            req: Request::Assemble { source },
        }
        .render();
        assert!(matches!(
            Envelope::parse(&asm).unwrap().req,
            Request::Assemble { .. }
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        // A sweep of 256 seeds on `machines` empty overrides.
        let sweep = |machines: usize| {
            let seeds: Vec<String> = (0..256).map(|s| s.to_string()).collect();
            format!(
                "{{\"id\": 1, \"kind\": \"sweep\", \"workload\": \"gzip\", \
                 \"instructions\": 5, \"machines\": [{}], \"r\": 1, \"seeds\": [{}]}}",
                vec!["{}"; machines].join(","),
                seeds.join(",")
            )
        };
        let over_bound = sweep(MAX_SWEEP_POINTS / 256 + 1);
        for bad in [
            "{}",
            "{\"id\": 1}",
            "{\"id\": 1, \"kind\": \"bogus\"}",
            "{\"id\": 1, \"kind\": \"profile\"}",
            "{\"id\": 1, \"kind\": \"profile\", \"workload\": \"gzip\", \"instructions\": 0}",
            "{\"id\": 1, \"kind\": \"sweep\", \"workload\": \"gzip\", \"instructions\": 5, \
             \"machines\": [], \"r\": 1}",
            "{\"id\": 1, \"kind\": \"assemble\"}",
            "{\"id\": 1, \"kind\": \"assemble\", \"source\": \"\"}",
            "{\"id\": 1, \"kind\": \"submit-program\", \"source\": \"halt\"}",
            "{\"id\": 1, \"kind\": \"submit-program\", \"source\": \"halt\", \
             \"instructions\": 0}",
            "{\"id\": 1, \"kind\": \"job-result\"}",
            "{\"id\": 1, \"kind\": \"job-result\", \"job\": \"\"}",
            "{\"id\": 1, \"kind\": \"sweep-stream\", \"workload\": \"gzip\", \
             \"instructions\": 5, \"machines\": [], \"r\": 1}",
            "{\"id\": 1, \"job\": 7, \"kind\": \"metrics\"}",
            "not json at all",
            &over_bound,
            // An LSQ larger than the RUU, an RUU no window array could
            // hold, and a window and a width over the limits.
            "{\"id\": 1, \"kind\": \"simulate\", \"workload\": \"gzip\", \
             \"instructions\": 5, \"machine\": {\"ruu\": 8, \"lsq\": 64}, \"r\": 1, \
             \"seed\": 1}",
            "{\"id\": 1, \"kind\": \"simulate\", \"workload\": \"gzip\", \
             \"instructions\": 5, \"machine\": {\"ruu\": 1099511627776}, \"r\": 1, \
             \"seed\": 1}",
            "{\"id\": 1, \"kind\": \"sweep\", \"workload\": \"gzip\", \
             \"instructions\": 5, \"machines\": [{}, {\"window\": 8192}], \"r\": 1}",
            "{\"id\": 1, \"kind\": \"sweep-stream\", \"workload\": \"gzip\", \
             \"instructions\": 5, \"machines\": [{\"width\": 65}], \"r\": 1}",
        ] {
            assert!(Envelope::parse(bad).is_err(), "{bad:?} accepted");
        }
        // A sweep of exactly the bound parses, and so do machines at the
        // size and width limits.
        assert!(Envelope::parse(&sweep(MAX_SWEEP_POINTS / 256)).is_ok());
        assert!(Envelope::parse(
            "{\"id\": 1, \"kind\": \"simulate\", \"workload\": \"gzip\", \
             \"instructions\": 5, \"machine\": {\"ruu\": 4096, \"lsq\": 4096, \
             \"ifq\": 4096, \"width\": 64}, \"r\": 1, \"seed\": 1}"
        )
        .is_ok());
    }

    #[test]
    fn stream_and_job_requests_roundtrip() {
        let env = Envelope {
            id: 11,
            deadline_ms: None,
            job: Some("k1".to_string()),
            req: Request::SweepStream {
                profile: ProfileParams {
                    workload: "gzip".to_string(),
                    instructions: 40_000,
                    skip: 0,
                },
                machines: vec![MachineSpec {
                    width: Some(2),
                    ..Default::default()
                }],
                r: 10,
                seeds: vec![4, 5],
            },
        };
        let back = Envelope::parse(&env.render()).unwrap();
        assert_eq!(back.job.as_deref(), Some("k1"));
        match back.req {
            Request::SweepStream { seeds, .. } => assert_eq!(seeds, vec![4, 5]),
            other => panic!("wrong kind: {other:?}"),
        }
        let poll = Envelope {
            id: 12,
            deadline_ms: None,
            job: None,
            req: Request::JobResult {
                job: "k1".to_string(),
            },
        };
        let back = Envelope::parse(&poll.render()).unwrap();
        // The poll target rides in the request, not the envelope — a
        // poll must never be journaled as a job itself.
        assert!(back.job.is_none());
        match back.req {
            Request::JobResult { job } => assert_eq!(job, "k1"),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn digest_ignores_cached_and_orders_points() {
        let a = PointResult {
            cycles: 100,
            instructions: 250,
            ipc: 2.5,
            cached: false,
        };
        let b = PointResult { cached: true, ..a };
        let c = PointResult { cycles: 101, ..a };
        assert_eq!(sweep_digest(&[a, c]), sweep_digest(&[b, c]));
        assert_ne!(sweep_digest(&[a, c]), sweep_digest(&[c, a]));
        assert_ne!(sweep_digest(&[a]), sweep_digest(&[a, a]));
    }

    #[test]
    fn frames_and_completions_render() {
        let p = PointResult {
            cycles: 7,
            instructions: 21,
            ipc: 3.0,
            cached: false,
        };
        let frame = Json::parse(&point_frame(5, 2, &p)).unwrap();
        assert_eq!(frame.get("id").unwrap().as_u64(), Some(5));
        assert_eq!(frame.get("frame").unwrap().as_str(), Some("point"));
        assert_eq!(frame.get("index").unwrap().as_u64(), Some(2));
        assert_eq!(
            PointResult::from_json(frame.get("point").unwrap()).unwrap(),
            p
        );
        // A frame is not a response: it has no "ok" key to confuse a
        // blocking client's reply matching.
        assert!(frame.get("ok").is_none());
        let stored = Json::obj(vec![("digest", Json::hex_u64(42))]);
        let ok = completed_response(9, true, &stored);
        assert_eq!(ok, ok_response(9, vec![("digest", Json::hex_u64(42))]));
        let err = completed_response(9, false, &Json::str("deadline exceeded"));
        assert_eq!(err, err_response(9, "deadline exceeded", None));
    }

    #[test]
    fn responses_carry_id_and_status() {
        let ok = Json::parse(&ok_response(3, vec![("x", Json::Num(1.0))])).unwrap();
        assert_eq!(ok.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        let err = Json::parse(&err_response(4, "queue full", Some(50))).unwrap();
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(50));
    }
}
