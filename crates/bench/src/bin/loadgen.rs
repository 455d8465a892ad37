//! `loadgen`: an open-loop load generator for the serving stack.
//!
//! Drives thousands of concurrent connections against an `ssim-serve`
//! gateway (or a single server) and records the latency distribution
//! and an exact ack ledger into `results/BENCH_load.json`.
//!
//! Two design choices make the numbers honest:
//!
//! * **Open-loop arrival.** Requests are injected on a seeded Poisson
//!   process (exponential inter-arrival times) regardless of how fast
//!   responses come back — the closed-loop alternative (wait for each
//!   reply) lets a slow server throttle its own load and hides
//!   queueing collapse. Latency is measured from the scheduled arrival,
//!   so local queueing delay counts against the server, as it would
//!   for a real client.
//! * **Exact ack accounting.** Every request id goes into a per
//!   connection pending map and must come back exactly once: a reply
//!   for an unknown id is a duplicate, a pending id after the drain
//!   deadline is lost. The process exits non-zero unless
//!   `lost == duplicates == errors == 0` and every connection opened —
//!   this is the `ci.sh load` chaos gate, not just a benchmark.
//!
//! The generator speaks the wire protocol directly (this crate sits
//! *below* `ssim-serve` in the dependency order) and leans on the
//! protocol's rendering discipline: responses always render `id` first
//! and `ok` second, so a prefix scan classifies replies without a full
//! JSON parse on the hot path. Backpressure rejections
//! (`retry_after_ms` present) count as acknowledged — an explicit
//! rejection is the protocol working, not a lost request.
//!
//! Tiers: 1,000 connections (10,000 under `SSIM_DEEP`) at 2,000 req/s
//! for 20 s (300 req/s for 6 s under `SSIM_QUICK`), arrival seed 42.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

static OBS_SENT: ssim_obs::Counter = ssim_obs::Counter::new("loadgen.sent");
static OBS_ACKED: ssim_obs::Counter = ssim_obs::Counter::new("loadgen.acked");
static OBS_REJECTED: ssim_obs::Counter = ssim_obs::Counter::new("loadgen.rejected");
static OBS_LATENCY: ssim_obs::LogHistogram = ssim_obs::LogHistogram::new("loadgen.latency_us");

/// The request pool: widths × seeds over one small gzip profile, the
/// same points the warm-up phase primes, so the steady state measures
/// serving cost (transport, queueing, result-cache hits), not repeated
/// simulation.
fn request_pool() -> Vec<(u64, u64)> {
    let mut pool = Vec::new();
    for &width in &[2u64, 4, 8] {
        for seed in 1..=8u64 {
            pool.push((width, seed));
        }
    }
    pool
}

fn render_request(id: u64, width: u64, seed: u64) -> String {
    // Matches the envelope grammar of ssim-serve's proto module; kept
    // as a literal because this crate cannot depend on ssim-serve.
    format!(
        "{{\"id\":{id},\"kind\":\"simulate\",\"workload\":\"gzip\",\"instructions\":60000,\
         \"machine\":{{\"width\":{width}}},\"r\":10,\"seed\":{seed}}}\n"
    )
}

/// Classifies one response line by prefix scan: `(id, ok, backpressure)`.
fn parse_reply(line: &str) -> Option<(u64, bool, bool)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let id: u64 = digits.parse().ok()?;
    let rest = &rest[digits.len()..];
    let ok = if rest.starts_with(",\"ok\":true") {
        true
    } else if rest.starts_with(",\"ok\":false") {
        false
    } else {
        return None;
    };
    Some((id, ok, rest.contains("\"retry_after_ms\":")))
}

/// One load connection with its buffers and ack ledger.
struct LoadConn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    pending: HashMap<u64, Instant>,
    next_id: u64,
    broken: bool,
}

impl LoadConn {
    fn connect(addr: &str) -> std::io::Result<LoadConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LoadConn {
            stream,
            wbuf: Vec::new(),
            wpos: 0,
            rbuf: Vec::new(),
            pending: HashMap::new(),
            next_id: 1,
            broken: false,
        })
    }

    fn enqueue(&mut self, width: u64, seed: u64, arrival: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        self.wbuf
            .extend_from_slice(render_request(id, width, seed).as_bytes());
        self.pending.insert(id, arrival);
        OBS_SENT.inc();
    }

    /// Whether the connection has requests awaiting a reply or bytes
    /// not yet written: the only ones a driver pass needs to pump.
    fn active(&self) -> bool {
        !self.broken && (!self.pending.is_empty() || self.wpos < self.wbuf.len())
    }

    /// Pumps writes and reads through the driver thread's read buffer
    /// `buf`; returns latencies of newly acked requests, counting
    /// rejections/errors/duplicates into `tally`.
    fn pump(&mut self, buf: &mut [u8], tally: &mut Tally, latencies: &mut Vec<u64>) -> bool {
        if self.broken {
            return false;
        }
        let mut progress = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.broken = true;
                    return progress;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    return progress;
                }
            }
        }
        if self.wpos == self.wbuf.len() && !self.wbuf.is_empty() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]);
            match parse_reply(line.trim()) {
                Some((id, ok, backpressure)) => match self.pending.remove(&id) {
                    Some(arrival) => {
                        if ok {
                            let us = arrival.elapsed().as_micros() as u64;
                            OBS_ACKED.inc();
                            OBS_LATENCY.record(us);
                            latencies.push(us);
                        } else if backpressure {
                            // Explicitly rejected = acknowledged.
                            OBS_REJECTED.inc();
                            tally.rejected += 1;
                        } else {
                            tally.errors += 1;
                            if tally.errors <= 5 {
                                eprintln!("loadgen: error reply: {line}");
                            }
                        }
                    }
                    None => tally.duplicates += 1,
                },
                None => tally.errors += 1,
            }
        }
        progress
    }

    /// Requests written to a connection that then broke are lost along
    /// with anything still unanswered; queued-but-unsent bytes are
    /// requests that never reached the wire (also counted lost — the
    /// gate demands the server keep every connection alive).
    fn lost(&self) -> usize {
        self.pending.len()
    }
}

#[derive(Default)]
struct Tally {
    rejected: u64,
    errors: u64,
    duplicates: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Blocking warm-up: prime the profile cache, compiled sampler and
/// result cache for every pooled request through one ordinary
/// connection, retrying through backpressure and transient chaos.
fn warmup(addr: &str, pool: &[(u64, u64)]) {
    let deadline = Instant::now() + Duration::from_secs(300);
    for &(width, seed) in pool {
        loop {
            assert!(Instant::now() < deadline, "warm-up never completed");
            let ok = (|| -> std::io::Result<bool> {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                let mut writer = stream.try_clone()?;
                writer.write_all(render_request(1, width, seed).as_bytes())?;
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line)?;
                Ok(matches!(parse_reply(line.trim()), Some((1, true, _))))
            })()
            .unwrap_or(false);
            if ok {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = args.first() else {
        eprintln!("usage: loadgen <addr>   (gateway or server address)");
        std::process::exit(2);
    };
    ssim_obs::force_enable();
    let quick = ssim_bench::quick();
    let deep = std::env::var("SSIM_DEEP").is_ok_and(|v| v != "0");
    let conns = if deep { 10_000 } else { 1_000 };
    let rps = if quick { 300.0 } else { 2_000.0 };
    let secs = if quick { 6 } else { 20 };
    let seed = 42;
    let threads = ssim_bench::num_threads().clamp(2, 8);
    println!(
        "loadgen: {conns} connections to {addr}, {rps:.0} req/s open-loop for {secs}s \
         ({threads} driver threads, seed {seed})"
    );

    let pool = request_pool();
    println!("loadgen: warming {} pooled points", pool.len());
    warmup(addr, &pool);

    // Connect everything up front (in chunks — the gateway accepts in
    // batches, and a 10k SYN burst can outrun a loopback listen
    // backlog). Connection failures are a gate failure, retried a few
    // times first.
    let mut all: Vec<LoadConn> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut attempt = 0;
        loop {
            match LoadConn::connect(addr) {
                Ok(c) => {
                    all.push(c);
                    break;
                }
                Err(e) => {
                    attempt += 1;
                    if attempt > 50 {
                        eprintln!("loadgen: connection {i} failed: {e}");
                        std::process::exit(1);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        if i % 200 == 199 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let connected = all.len();
    println!("loadgen: {connected} connections open");

    // Shard connections across driver threads; each thread runs its own
    // Poisson clock at rate/threads and pumps only its shard.
    let mut shards: Vec<Vec<LoadConn>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, c) in all.into_iter().enumerate() {
        shards[i % threads].push(c);
    }
    let per_thread_rate = rps / threads as f64;
    let duration = Duration::from_secs(secs);
    let drain_budget = Duration::from_secs(if quick { 60 } else { 180 });
    let start = Instant::now();

    struct ShardOutcome {
        latencies: Vec<u64>,
        tally: Tally,
        sent: u64,
        lost: usize,
        broken: usize,
    }
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(t, mut shard)| {
                let pool = &pool;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37));
                    let mut buf = vec![0u8; 16 * 1024];
                    let mut latencies = Vec::new();
                    let mut tally = Tally::default();
                    let mut sent = 0u64;
                    let mut rr = 0usize;
                    let mut pidx = t; // stagger pool cursors across threads
                    let expo = |rng: &mut SmallRng| {
                        let u: f64 = rng.gen::<f64>().max(f64::EPSILON);
                        Duration::from_secs_f64(-u.ln() / per_thread_rate)
                    };
                    let mut next_arrival = start + expo(&mut rng);
                    let end = start + duration;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        // Open loop: inject every arrival whose time has
                        // come, whether or not replies are keeping up.
                        while next_arrival <= now {
                            let (width, wseed) = pool[pidx % pool.len()];
                            pidx += 1;
                            // Skip broken conns; their loss is tallied.
                            for _ in 0..shard.len() {
                                let slot = rr % shard.len();
                                let c = &mut shard[slot];
                                rr += 1;
                                if !c.broken {
                                    c.enqueue(width, wseed, next_arrival);
                                    sent += 1;
                                    break;
                                }
                            }
                            next_arrival += expo(&mut rng);
                        }
                        // Only connections with work in flight: pumping
                        // idle ones costs a read call each and delays
                        // the pass that times the next reply.
                        let mut progress = false;
                        for c in shard.iter_mut().filter(|c| c.active()) {
                            progress |= c.pump(&mut buf, &mut tally, &mut latencies);
                        }
                        if !progress {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    // Drain: no new arrivals, pump until every pending
                    // id is answered or the budget expires. The first
                    // pass covers every connection, so one the server
                    // closed while it sat idle counts as broken.
                    let drain_end = Instant::now() + drain_budget;
                    let mut all = true;
                    loop {
                        let mut progress = false;
                        for c in shard.iter_mut().filter(|c| all || c.active()) {
                            progress |= c.pump(&mut buf, &mut tally, &mut latencies);
                        }
                        all = false;
                        let outstanding: usize = shard
                            .iter()
                            .map(|c| if c.broken { 0 } else { c.lost() })
                            .sum();
                        if outstanding == 0 || Instant::now() > drain_end {
                            break;
                        }
                        if !progress {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    let lost: usize = shard.iter().map(LoadConn::lost).sum();
                    let broken = shard.iter().filter(|c| c.broken).count();
                    ShardOutcome {
                        latencies,
                        tally,
                        sent,
                        lost,
                        broken,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let mut tally = Tally::default();
    let (mut sent, mut lost, mut broken) = (0u64, 0usize, 0usize);
    for o in outcomes {
        latencies.extend(o.latencies);
        tally.rejected += o.tally.rejected;
        tally.errors += o.tally.errors;
        tally.duplicates += o.tally.duplicates;
        sent += o.sent;
        lost += o.lost;
        broken += o.broken;
    }
    latencies.sort_unstable();
    let acked = latencies.len() as u64;
    let achieved_rps = acked as f64 / secs as f64;
    let p50 = percentile(&latencies, 0.50);
    let p90 = percentile(&latencies, 0.90);
    let p99 = percentile(&latencies, 0.99);
    let p999 = percentile(&latencies, 0.999);
    let max = latencies.last().copied().unwrap_or(0);
    println!(
        "loadgen: sent {sent}, acked {acked} ({achieved_rps:.0}/s), rejected {}, \
         errors {}, duplicates {}, lost {lost}, broken conns {broken}",
        tally.rejected, tally.errors, tally.duplicates
    );
    println!(
        "loadgen: latency p50 {p50}us p90 {p90}us p99 {p99}us p99.9 {p999}us max {max}us \
         (wall {wall_s:.1}s)"
    );

    let doc = format!(
        "{{{}, \"quick\": {quick}, \"deep\": {deep}, \"connections\": {connected}, \
         \"target_connections\": {conns}, \"target_rps\": {rps}, \"duration_s\": {secs}, \
         \"sent\": {sent}, \"acked\": {acked}, \"rejected_backpressure\": {}, \
         \"errors\": {}, \"duplicates\": {}, \"lost\": {lost}, \"broken_connections\": {broken}, \
         \"achieved_rps\": {achieved_rps:.1}, \"p50_us\": {p50}, \"p90_us\": {p90}, \
         \"p99_us\": {p99}, \"p999_us\": {p999}, \"max_us\": {max}}}\n",
        ssim_bench::host_header_json(),
        tally.rejected,
        tally.errors,
        tally.duplicates,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_load.json", &doc).expect("write BENCH_load.json");
    println!("wrote results/BENCH_load.json");
    ssim_bench::obs_finish("loadgen");

    // The gate: every connection opened, every request either answered
    // or explicitly rejected, nothing lost, duplicated, or errored.
    let mut failed = false;
    if connected != conns {
        eprintln!("loadgen: GATE: only {connected}/{conns} connections opened");
        failed = true;
    }
    if lost != 0 || tally.duplicates != 0 || tally.errors != 0 {
        eprintln!(
            "loadgen: GATE: lost {lost}, duplicates {}, errors {} (all must be 0)",
            tally.duplicates, tally.errors
        );
        failed = true;
    }
    if acked == 0 {
        eprintln!("loadgen: GATE: no requests acknowledged");
        failed = true;
    }
    std::process::exit(i32::from(failed));
}
