//! `serve`: open-loop request traffic through a `Gateway` in front of
//! one `Server` backend, all on loopback in this process.
//!
//! Arrivals follow a seeded Poisson process over at most `nproc`
//! pipelined connections. The mix is mostly `simulate` requests that hit
//! the backend's result cache, plus `simulate` requests with a fresh
//! seed (a cache miss: real compute) and small `sweep-stream` requests.
//! Latency is timed from each request's scheduled send, so a stalled
//! generator or a queue counts against the system, and the generator's
//! own lateness is reported beside it.

use crate::layers::secs;
use crate::report::Outcome;
use crate::stats::{median, quantile, Rng, FAST};
use crate::{trace, Ctx};
use ssim::core::CompiledSampler;
use ssim::prelude::*;
use ssim_serve::json::Json;
use ssim_serve::proto::{ok_response, Envelope, MachineSpec, PointResult, ProfileParams, Request};
use ssim_serve::{Client, Gateway, GatewayConfig, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served profile: `gzip`, small enough that a cache miss costs
/// about a millisecond of simulation.
pub const WORKLOAD: &str = "gzip";
pub const PROFILE_SKIP: u64 = 100_000;
pub const PROFILE_INSTR: u64 = 300_000;
pub const R: u64 = 50;
/// Offered rate of the nominal phase, and the latency limit on p99 that
/// defines `rps_at_slo`.
pub const NOMINAL_RPS: f64 = 1000.0;
pub const SLO_P99_MS: f64 = 25.0;
/// The fixed rate ladder (requests per second).
pub const LADDER: [f64; 6] = [400.0, 800.0, 1200.0, 1600.0, 2400.0, 3200.0];
const RUNG_S: f64 = 0.75;
/// Requests in flight per connection in the capacity phase.
const SATURATION_WINDOW: usize = 8;
/// Mix shares: hits, then fresh-seed misses; the rest (0.5%) are
/// sweeps. Sweeps stay below 1% so that p99 falls in the miss tail:
/// sweep latency through the gateway's fleet is quantised by its 10 ms
/// and 50 ms waits, and a p99 inside it flips between runs.
const HIT_SHARE: f64 = 0.85;
const MISS_SHARE: f64 = 0.145;
const STREAM_MACHINES: usize = 4;
const SETUP_REPS: usize = 3;

pub fn params_for(workload: &str, skip: u64, instructions: u64) -> ProfileParams {
    ProfileParams {
        workload: workload.to_string(),
        instructions,
        skip,
    }
}

fn profile_config(p: &ProfileParams) -> ProfileConfig {
    ProfileConfig::new(&MachineConfig::baseline())
        .skip(p.skip)
        .instructions(p.instructions)
}

/// The machines requests name: a spread of the §4.6 grid.
fn machines() -> Vec<MachineSpec> {
    ssim_bench::sec46_grid(true)
        .into_iter()
        .step_by(37)
        .map(|c| MachineSpec {
            ruu: Some(c.ruu_size as u64),
            lsq: Some(c.lsq_size as u64),
            decode: Some(c.decode_width as u64),
            issue: Some(c.issue_width as u64),
            commit: Some(c.commit_width as u64),
            ..MachineSpec::default()
        })
        .collect()
}

/// What a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// A point of the primed hit set.
    Hit(usize),
    /// A machine with a seed never requested before.
    Miss { machine: usize, seed: u64 },
    /// A small streamed sweep with a fresh seed.
    Stream { machines: Vec<usize>, seed: u64 },
}

/// One scheduled request: offset from the phase start, and its kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub at_s: f64,
    pub kind: Kind,
}

/// The open-loop schedule of one phase: a pure function of its
/// arguments. `phase` keeps fresh seeds distinct across the phases that
/// share one server.
pub fn schedule(
    seed: u64,
    phase: u64,
    rate: f64,
    duration_s: f64,
    hits: usize,
    machines: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ (phase << 48) ^ 0x5e7e);
    let fresh_base = 1_000_000_000 * (1 + seed % 1000) + 1_000_000 * phase;
    let mut fresh = 0u64;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        let u = rng.unit();
        let kind = if u < HIT_SHARE {
            Kind::Hit(rng.below(hits))
        } else if u < HIT_SHARE + MISS_SHARE {
            fresh += 1;
            Kind::Miss {
                machine: rng.below(machines),
                seed: fresh_base + fresh,
            }
        } else {
            fresh += 1;
            Kind::Stream {
                machines: (0..STREAM_MACHINES).map(|_| rng.below(machines)).collect(),
                seed: fresh_base + fresh,
            }
        };
        out.push(Arrival { at_s: t, kind });
    }
}

/// The served profile, its direct-library sampler, and the hit set.
struct Mix {
    params: ProfileParams,
    r: u64,
    hash: u64,
    sampler: Arc<CompiledSampler>,
    machines: Vec<MachineSpec>,
    configs: Vec<MachineConfig>,
    hits: Vec<(usize, u64)>,
}

impl Mix {
    fn new(params: &ProfileParams, r: u64, seeds: &[u64]) -> Mix {
        let w = ssim::workloads::by_name(&params.workload).expect("served workload");
        let profile = ssim_bench::profile_cached(w, &profile_config(params));
        let machines = machines();
        let hits = (0..machines.len())
            .flat_map(|m| seeds.iter().map(move |&s| (m, s)))
            .collect();
        Mix {
            params: params.clone(),
            r,
            hash: profile.content_hash(),
            sampler: Arc::new(profile.compile(r)),
            configs: machines.iter().map(MachineSpec::resolve).collect(),
            machines,
            hits,
        }
    }

    fn simulate(&self, machine: usize, seed: u64) -> Request {
        Request::Simulate {
            profile: self.params.clone(),
            machine: self.machines[machine].clone(),
            r: self.r,
            seed,
        }
    }

    fn request(&self, kind: &Kind) -> Request {
        match kind {
            Kind::Hit(h) => self.simulate(self.hits[*h].0, self.hits[*h].1),
            Kind::Miss { machine, seed } => self.simulate(*machine, *seed),
            Kind::Stream { machines, seed } => Request::SweepStream {
                profile: self.params.clone(),
                machines: machines.iter().map(|&m| self.machines[m].clone()).collect(),
                r: self.r,
                seeds: vec![*seed],
            },
        }
    }

    /// The point a direct library call computes.
    fn point(&self, machine: usize, seed: u64) -> PointResult {
        let r = ssim_bench::with_engine(|e| {
            e.simulate_fused(&self.sampler, seed, &self.configs[machine])
        });
        PointResult {
            cycles: r.cycles,
            instructions: r.instructions,
            ipc: r.ipc(),
            cached: false,
        }
    }

    /// The exact response line the backend owes a `simulate` request.
    fn expected_line(&self, id: u64, p: &PointResult, cached: bool) -> String {
        ok_response(
            id,
            vec![
                ("profile_hash", Json::hex_u64(self.hash)),
                ("cycles", Json::Num(p.cycles as f64)),
                ("instructions", Json::Num(p.instructions as f64)),
                ("ipc", Json::Num(p.ipc)),
                ("cached", Json::Bool(cached)),
            ],
        )
    }
}

/// A running backend with a gateway in front of it.
struct Stack {
    server: Server,
    gateway: Gateway,
}

impl Stack {
    fn start(threads: usize) -> std::io::Result<Stack> {
        let server = Server::start(ServerConfig {
            workers: threads,
            queue_capacity: 256,
            result_cache_capacity: 1 << 16,
            ..ServerConfig::default()
        })?;
        let gateway = Gateway::start(GatewayConfig {
            backends: vec![server.addr().to_string()],
            ..GatewayConfig::default()
        })?;
        Ok(Stack { server, gateway })
    }

    fn stop(self) {
        self.gateway.stop();
        self.gateway.join();
        if let Ok(mut c) = Client::connect(self.server.addr()) {
            let _ = c.call(&Request::Shutdown, None);
        }
        self.server.join();
    }
}

/// Counters read from the `metrics` request.
#[derive(Debug, Default, Clone)]
struct ServerCounters {
    queue_depth_max: f64,
    rejected: f64,
    hits: f64,
    misses: f64,
    retries: f64,
}

fn read_counters(addr: std::net::SocketAddr) -> ServerCounters {
    let Ok(mut c) = Client::connect(addr) else {
        return ServerCounters::default();
    };
    let Ok(resp) = c.call(&Request::Metrics, None) else {
        return ServerCounters::default();
    };
    let m = resp.body.get("metrics");
    let get = |section: &str, name: &str| {
        m.and_then(|m| m.get(section))
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    ServerCounters {
        queue_depth_max: get("gauges", "serve.queue_depth_max"),
        rejected: get("counters", "serve.rejected.queue_full")
            + get("counters", "serve.rejected.shutdown")
            + get("counters", "gateway.rejected.queue_full"),
        hits: get("counters", "serve.result_cache.hits"),
        misses: get("counters", "serve.result_cache.misses"),
        retries: get("counters", "gateway.failover") + get("counters", "fleet.retries"),
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
struct Load {
    lat_ms: Vec<f64>,
    /// Completion time of each `lat_ms` entry, from the phase start.
    done_s: Vec<f64>,
    /// Latencies of hits, misses and sweeps apart.
    kind_ms: [Vec<f64>; 3],
    late_ms: Vec<f64>,
    sent: u64,
    errors: u64,
    lost: u64,
    duplicates: u64,
    mismatches: u64,
    /// Seconds from the last scheduled send to the last response.
    drain_s: f64,
    /// Responses to check against direct library calls afterwards.
    misses: Vec<(usize, u64, String, u64)>,
    streams: Vec<(Vec<usize>, u64, u64)>,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

/// Drives one phase against `addr`: open loop on the arrivals'
/// schedule, or with `closed = Some((window, seconds))` a closed loop
/// that keeps `window` requests in flight per connection for `seconds`,
/// taking request kinds from `arrivals` in order.
fn drive(
    addr: std::net::SocketAddr,
    conns: usize,
    arrivals: &[Arrival],
    mix: &Mix,
    closed: Option<(usize, f64)>,
) -> Load {
    let mut load = Load::default();
    let mut cs: Vec<Conn> = (0..conns.max(1))
        .filter_map(|_| {
            let s = TcpStream::connect(addr).ok()?;
            s.set_nodelay(true).ok()?;
            s.set_nonblocking(true).ok()?;
            Some(Conn {
                stream: s,
                wbuf: Vec::new(),
                rbuf: Vec::new(),
            })
        })
        .collect();
    if cs.is_empty() {
        load.lost = arrivals.len() as u64;
        return load;
    }
    let mut pending: HashMap<u64, (usize, Instant)> = HashMap::new();
    let start = Instant::now();
    let mut next = 0usize;
    let mut last_send = start;
    let drain_limit = Duration::from_secs(10);
    let mut buf = vec![0u8; 64 * 1024];
    let closed_until = closed.map(|(_, s)| start + Duration::from_secs_f64(s));
    let mut arrivals = arrivals;
    loop {
        let now = Instant::now();
        if closed_until.is_some_and(|t| now >= t) {
            arrivals = &arrivals[..next];
        }
        loop {
            let due = match closed {
                _ if next >= arrivals.len() => break,
                // Closed loop: a fixed window of requests in flight.
                Some((window, _)) if pending.len() < window * cs.len() => now,
                Some(_) => break,
                // Open loop: every arrival whose time has come.
                None => {
                    let due = start + Duration::from_secs_f64(arrivals[next].at_s);
                    if due > now {
                        break;
                    }
                    due
                }
            };
            let id = next as u64 + 1;
            let line = trace::span("proto.render", || {
                Envelope {
                    id,
                    deadline_ms: None,
                    job: None,
                    req: mix.request(&arrivals[next].kind),
                }
                .render()
            });
            let slot = next % cs.len();
            let c = &mut cs[slot];
            c.wbuf.extend_from_slice(line.as_bytes());
            c.wbuf.push(b'\n');
            load.late_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            pending.insert(id, (next, due));
            load.sent += 1;
            last_send = due;
            next += 1;
        }
        let mut progress = false;
        for c in &mut cs {
            while !c.wbuf.is_empty() {
                match c.stream.write(&c.wbuf) {
                    Ok(0) => break,
                    Ok(n) => {
                        c.wbuf.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        c.rbuf.extend_from_slice(&buf[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            while let Some(pos) = c.rbuf.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = c.rbuf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&raw[..pos]).into_owned();
                on_line(&line, start, &mut pending, arrivals, mix, &mut load);
            }
        }
        if next == arrivals.len() && pending.is_empty() {
            break;
        }
        if next == arrivals.len() && Instant::now() > last_send + drain_limit {
            break;
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    load.drain_s = Instant::now()
        .saturating_duration_since(last_send)
        .as_secs_f64();
    load.lost = pending.len() as u64;
    load
}

fn on_line(
    line: &str,
    start: Instant,
    pending: &mut HashMap<u64, (usize, Instant)>,
    arrivals: &[Arrival],
    mix: &Mix,
    load: &mut Load,
) {
    let Ok(body) = trace::span("proto.parse", || Json::parse(line)) else {
        load.errors += 1;
        return;
    };
    if body.get("frame").is_some() {
        return;
    }
    let Some(id) = body.get("id").and_then(Json::as_u64) else {
        load.errors += 1;
        return;
    };
    let Some((idx, due)) = pending.remove(&id) else {
        load.duplicates += 1;
        return;
    };
    let ms = due.elapsed().as_secs_f64() * 1e3;
    load.lat_ms.push(ms);
    load.done_s.push(secs(start));
    let kind = match arrivals[idx].kind {
        Kind::Hit(_) => 0,
        Kind::Miss { .. } => 1,
        Kind::Stream { .. } => 2,
    };
    load.kind_ms[kind].push(ms);
    if body.get("ok").and_then(Json::as_bool) != Some(true) {
        load.errors += 1;
        return;
    }
    match &arrivals[idx].kind {
        Kind::Hit(h) => {
            let (m, s) = mix.hits[*h];
            // Hits are checked byte for byte as they arrive.
            let p = hit_point(mix, m, s);
            if line != mix.expected_line(id, &p, true) {
                load.mismatches += 1;
            }
        }
        Kind::Miss { machine, seed } => {
            if load.misses.len() < 40 {
                load.misses.push((*machine, *seed, line.to_string(), id));
            }
        }
        Kind::Stream { machines, seed } => {
            let digest = body.get("digest").and_then(Json::as_hex_u64).unwrap_or(0);
            if load.streams.len() < 10 {
                load.streams.push((machines.clone(), *seed, digest));
            }
        }
    }
}

/// Hit-set points, computed once by direct library calls.
fn hit_point(mix: &Mix, m: usize, s: u64) -> PointResult {
    thread_local! {
        static CACHE: std::cell::RefCell<HashMap<(u64, usize, u64), PointResult>> =
            std::cell::RefCell::new(HashMap::new());
    }
    CACHE.with(|c| {
        *c.borrow_mut()
            .entry((mix.hash, m, s))
            .or_insert_with(|| mix.point(m, s))
    })
}

/// Checks the sampled miss and sweep responses against direct library
/// calls; returns the number of mismatches.
fn verify_sampled(load: &Load, mix: &Mix) -> u64 {
    let mut bad = 0;
    for (m, s, line, id) in &load.misses {
        if *line != mix.expected_line(*id, &mix.point(*m, *s), false) {
            bad += 1;
        }
    }
    for (machines, seed, digest) in &load.streams {
        let points: Vec<PointResult> = machines.iter().map(|&m| mix.point(m, *seed)).collect();
        if ssim_serve::sweep_digest(&points) != *digest {
            bad += 1;
        }
    }
    bad
}

/// The `q`-quantile over consecutive `window_s` windows in
/// `[0, until_s)` of `f` applied to the latencies completing in each
/// window. Robust to stalls that spoil some windows of a run.
fn windowed(load: &Load, window_s: f64, until_s: f64, q: f64, f: impl Fn(&[f64]) -> f64) -> f64 {
    let n = (until_s / window_s).floor().max(1.0) as usize;
    let mut windows = vec![Vec::new(); n];
    for (&ms, &t) in load.lat_ms.iter().zip(&load.done_s) {
        if let Some(w) = windows.get_mut((t / window_s) as usize) {
            w.push(ms);
        }
    }
    quantile(&windows.iter().map(|w| f(w)).collect::<Vec<_>>(), q)
}

fn account(load: &Load, out: &mut Outcome) -> u64 {
    let checked = (load.misses.len() + load.streams.len()) as u64;
    out.attempted += load.sent + checked;
    let failed = load.errors + load.lost + load.duplicates + load.mismatches;
    out.failed += failed;
    if failed > 0 {
        out.line(format!(
            "serve failures: errors {} lost {} duplicates {} mismatches {}",
            load.errors, load.lost, load.duplicates, load.mismatches
        ));
    }
    failed
}

/// Starts a stack and primes it: the profile, then every hit point.
fn setup_stack(mix: &Mix, threads: usize, out: &mut Outcome) -> std::io::Result<Stack> {
    let stack = trace::span("serve.start", || Stack::start(threads))?;
    let mut c = Client::connect(stack.gateway.addr())?;
    trace::span("serve.prime", || -> std::io::Result<()> {
        let resp = c.call_retry(&Request::Profile(mix.params.clone()), None, 5)?;
        out.check(resp.ok, || {
            format!("profile request failed: {:?}", resp.error)
        });
        for &(m, s) in &mix.hits {
            let resp = c.call_retry(&mix.simulate(m, s), None, 5)?;
            let want = mix.expected_line(resp.id, &hit_point(mix, m, s), false);
            out.check(resp.body.render() == want, || {
                format!("primed point {m}/{s} differs from the library")
            });
        }
        Ok(())
    })?;
    Ok(stack)
}

fn prime_cache(params: &ProfileParams) {
    let w = ssim::workloads::by_name(&params.workload).expect("served workload");
    ssim_bench::profile_cached(w, &profile_config(params));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let params = params_for(WORKLOAD, PROFILE_SKIP, PROFILE_INSTR);
    let seeds = Rng::new(ctx.seed ^ 0x5e).pick_seeds(64, 2);
    prime_cache(&params);
    let mix = Mix::new(&params, R, &seeds);
    for &(m, s) in &mix.hits {
        hit_point(&mix, m, s);
    }
    trace::set(ctx.trace);
    let mut setups = Vec::new();
    let mut stack = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = trace::span("serve.setup", || setup_stack(&mix, ctx.threads, &mut out));
        setups.push(secs(t0));
        match s {
            Ok(s) if rep + 1 < SETUP_REPS => s.stop(),
            Ok(s) => stack = Some(s),
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.line(format!("serve stack failed to start: {e}"));
                return out;
            }
        }
    }
    let stack = stack.expect("last setup keeps its stack");
    let conns = ctx.threads;
    let addr = stack.gateway.addr();
    let before = read_counters(stack.server.addr());
    trace::set(false);

    // Nominal phase: 40% of the time budget at the nominal rate.
    let nominal_s = ctx.seconds * 0.4;
    let arrivals = schedule(
        ctx.seed,
        0,
        NOMINAL_RPS,
        nominal_s,
        mix.hits.len(),
        mix.machines.len(),
    );
    let mut nominal = drive(addr, conns, &arrivals, &mix, None);
    nominal.mismatches += verify_sampled(&nominal, &mix);
    account(&nominal, &mut out);

    // Capacity: 25% of the budget in a closed loop with a fixed window
    // of the same mix in flight on every connection.
    let sat_s = ctx.seconds * 0.25;
    let kinds = schedule(
        ctx.seed,
        40,
        1.0,
        50_000.0,
        mix.hits.len(),
        mix.machines.len(),
    );
    let mut sat = drive(addr, conns, &kinds, &mix, Some((SATURATION_WINDOW, sat_s)));
    sat.mismatches += verify_sampled(&sat, &mix);
    account(&sat, &mut out);
    let capacity = windowed(&sat, 0.5, sat_s, 1.0 - FAST, |w| w.len() as f64 / 0.5);

    // Rate ladder: the highest rung whose p99 stays under the limit and
    // whose backlog drains within the limit.
    let mut rps_at_slo = 0.0;
    let rung_s = (ctx.seconds * 0.35 / LADDER.len() as f64).max(RUNG_S);
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let arrivals = schedule(
            ctx.seed,
            1 + i as u64,
            rate,
            rung_s,
            mix.hits.len(),
            mix.machines.len(),
        );
        let mut load = drive(addr, conns, &arrivals, &mix, None);
        load.mismatches += verify_sampled(&load, &mix);
        let failed = account(&load, &mut out);
        let p99 = quantile(&load.lat_ms, 0.99);
        let pass = failed == 0 && p99 <= SLO_P99_MS && load.drain_s * 1e3 <= SLO_P99_MS;
        rungs.push(format!(
            "{rate:.0}:{p99:.1}ms{}",
            if pass { "" } else { "(miss)" }
        ));
        if !pass {
            break;
        }
        rps_at_slo = rate;
    }
    let after = read_counters(stack.server.addr());

    let p50 = quantile(&nominal.lat_ms, 0.5);
    let p99 = windowed(&nominal, 1.0, nominal_s, FAST, |w| quantile(w, 0.99));
    out.e2e("setup_s", median(&setups), "s");
    out.line(format!("setup seconds: {setups:.4?}"));
    out.e2e("ops_per_s", capacity, "1/s");
    out.e2e("lat_p50_ms", p50, "ms");
    out.e2e("lat_p99_ms", p99, "ms");
    out.detail("lat_p50_ms", p50, "ms");
    out.detail("lat_p99_ms", p99, "ms");
    out.detail("lat_p99_ms.pooled", quantile(&nominal.lat_ms, 0.99), "ms");
    out.detail("rps_at_slo", rps_at_slo, "req/s");
    out.detail("capacity_rps", capacity, "req/s");
    for (kind, ms) in ["hit", "miss", "sweep"].iter().zip(&nominal.kind_ms) {
        out.detail(&format!("lat_p50_ms.{kind}"), quantile(ms, 0.5), "ms");
        out.detail(&format!("lat_p90_ms.{kind}"), quantile(ms, 0.9), "ms");
    }
    out.detail("latency_samples", nominal.lat_ms.len() as f64, "count");
    out.line(format!(
        "serve: {} connections, nominal {NOMINAL_RPS:.0} req/s for {nominal_s:.1}s \
         ({} requests, p99 over {} samples); capacity {capacity:.0} req/s with {SATURATION_WINDOW} \
         in flight per connection for {sat_s:.1}s; ladder (p99 limit {SLO_P99_MS} ms): {}",
        conns,
        nominal.sent,
        nominal.lat_ms.len(),
        rungs.join(" ")
    ));

    if ctx.trace {
        // The nominal phase again, traced: its root spans are what the
        // self-time table accounts, and the p50 gap is the overhead.
        trace::set(true);
        let again = schedule(
            ctx.seed,
            50,
            NOMINAL_RPS,
            nominal_s,
            mix.hits.len(),
            mix.machines.len(),
        );
        let mut traced = trace::span("serve.load", || drive(addr, conns, &again, &mix, None));
        traced.mismatches += verify_sampled(&traced, &mix);
        account(&traced, &mut out);
        out.layer(
            "trace.overhead_pct",
            (quantile(&traced.lat_ms, 0.5) / p50 - 1.0) * 100.0,
            "%",
        );
        layer_metrics(&stack, &mix, &nominal, &before, &after, &arrivals, &mut out);
        let cfg = profile_config(&params);
        let w = ssim::workloads::by_name(WORKLOAD).expect("served workload");
        let (mut loads, mut lowers) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t0 = Instant::now();
            let p = trace::span("profile_cache.load", || ssim_bench::profile_cached(w, &cfg));
            loads.push(secs(t0) * 1e3);
            let t0 = Instant::now();
            std::hint::black_box(trace::span("sampler.compile", || p.compile(R)));
            lowers.push(secs(t0) * 1e3);
        }
        out.layer("profile_cache.load_ms", median(&loads), "ms");
        out.layer("sampler.lower_ms", median(&lowers), "ms");
        let programs = [(WORKLOAD, w.program())];
        crate::layers::frontend_probe(&programs, &mut out);
        crate::layers::tracesim_probe(&[Arc::clone(&mix.sampler)], &seeds, ctx.threads, &mut out);
        trace::set(false);
    }
    trace::span("serve.stop", || stack.stop());
    out
}

/// The serving layers: direct-vs-gateway latency of identical hits,
/// miss latency, protocol cost, and the backend's own counters.
fn layer_metrics(
    stack: &Stack,
    mix: &Mix,
    load: &Load,
    before: &ServerCounters,
    after: &ServerCounters,
    arrivals: &[Arrival],
    out: &mut Outcome,
) {
    let (mut direct, mut via) = (Vec::new(), Vec::new());
    let (Ok(mut dc), Ok(mut gc)) = (
        Client::connect(stack.server.addr()),
        Client::connect(stack.gateway.addr()),
    ) else {
        out.check(false, || "probe clients could not connect".to_string());
        return;
    };
    let call = |c: &mut Client, req: &Request| {
        let t0 = Instant::now();
        let ok = c.call(req, None).map(|r| r.ok).unwrap_or(false);
        (secs(t0) * 1e3, ok)
    };
    for i in 0..400 {
        let (m, s) = mix.hits[i % mix.hits.len()];
        let req = mix.simulate(m, s);
        let (a, b) = if i % 2 == 0 {
            let d = trace::span("server.hit", || call(&mut dc, &req));
            (d, trace::span("gateway.hit", || call(&mut gc, &req)))
        } else {
            let g = trace::span("gateway.hit", || call(&mut gc, &req));
            (trace::span("server.hit", || call(&mut dc, &req)), g)
        };
        out.check(a.1 && b.1, || "probe hit failed".to_string());
        direct.push(a.0);
        via.push(b.0);
    }
    let mut miss = Vec::new();
    for i in 0..30u64 {
        let req = mix.simulate(i as usize % mix.machines.len(), 7_000_000_000 + i);
        let (ms, ok) = trace::span("server.miss", || call(&mut dc, &req));
        out.check(ok, || "probe miss failed".to_string());
        miss.push(ms);
    }
    // The protocol alone, over this workload's own request mix.
    let envs: Vec<Envelope> = arrivals
        .iter()
        .take(500)
        .enumerate()
        .map(|(i, a)| Envelope {
            id: i as u64 + 1,
            deadline_ms: None,
            job: None,
            req: mix.request(&a.kind),
        })
        .collect();
    let t0 = Instant::now();
    let lines: Vec<String> = (0..20)
        .flat_map(|_| envs.iter().map(Envelope::render))
        .collect();
    let render_us = secs(t0) * 1e6 / lines.len().max(1) as f64;
    let t0 = Instant::now();
    let parsed = lines.iter().filter(|l| Envelope::parse(l).is_ok()).count();
    let parse_us = secs(t0) * 1e6 / lines.len().max(1) as f64;
    out.check(parsed == lines.len(), || {
        "a rendered request failed to parse".to_string()
    });

    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    out.layer("proto.parse_us", parse_us, "us");
    out.layer("proto.render_us", render_us, "us");
    out.layer("server.hit_p50_ms", median(&direct), "ms");
    out.layer("server.miss_p50_ms", median(&miss), "ms");
    out.layer("server.queue_depth_max", after.queue_depth_max, "count");
    out.layer("server.rejected", after.rejected - before.rejected, "count");
    out.layer(
        "server.result_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    out.layer(
        "gateway.hop_p50_ms",
        quantile(&via, 0.5) - quantile(&direct, 0.5),
        "ms",
    );
    out.layer(
        "gateway.hop_p99_ms",
        quantile(&via, 0.99) - quantile(&direct, 0.99),
        "ms",
    );
    out.layer("gateway.retries", after.retries - before.retries, "count");
    out.layer("loadgen.late_p99_ms", quantile(&load.late_ms, 0.99), "ms");
}

/// The serving layers for workloads that do not serve: a stack over the
/// workload's own profile, one second of open-loop traffic at the
/// nominal rate, then the same layer measurements as `serve`.
pub fn probe(params: &ProfileParams, r: u64, seeds: &[u64], out: &mut Outcome) {
    trace::span("probe.serve", || {
        prime_cache(params);
        let mix = Mix::new(params, r, seeds);
        let threads = ssim_par::num_threads();
        let stack = match setup_stack(&mix, threads, out) {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("probe stack failed to start: {e}"));
                return;
            }
        };
        let before = read_counters(stack.server.addr());
        let arrivals = schedule(0, 99, NOMINAL_RPS, 1.0, mix.hits.len(), mix.machines.len());
        let mut load = drive(stack.gateway.addr(), threads, &arrivals, &mix, None);
        load.mismatches += verify_sampled(&load, &mix);
        account(&load, out);
        let after = read_counters(stack.server.addr());
        layer_metrics(&stack, &mix, &load, &before, &after, &arrivals, out);
        stack.stop();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(11, 0, 500.0, 2.0, 10, 8);
        assert_eq!(a, schedule(11, 0, 500.0, 2.0, 10, 8));
        assert_ne!(a, schedule(12, 0, 500.0, 2.0, 10, 8));
        // Poisson at 500/s for 2 s: about 1000 arrivals, in order.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        // Fresh seeds never repeat within or across phases.
        let fresh: Vec<u64> = a
            .iter()
            .chain(&schedule(11, 1, 500.0, 2.0, 10, 8))
            .filter_map(|x| match &x.kind {
                Kind::Miss { seed, .. } | Kind::Stream { seed, .. } => Some(*seed),
                Kind::Hit(_) => None,
            })
            .collect();
        let mut dedup = fresh.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), fresh.len());
    }
}
