//! The `ssim-serve` binary: run the experiment service or its gateway,
//! talk to either, or run the fleet benchmark and the journal drill.
//!
//! ```text
//! ssim-serve serve [--addr A] [--workers N] [--queue N] [--deadline-ms N]
//!                  [--journal <path>] [--port-file <path>]
//! ssim-serve gateway [--addr A] [--port-file <path>] [--workers N]
//!                    [--queue N] <backend>...
//! ssim-serve client <addr> (<request-json> | metrics | shutdown)
//! ssim-serve submit <addr> <file.asm> [--instructions N] [--skip N]
//! ssim-serve fleet bench    # writes results/BENCH_fleet.json
//! ssim-serve journal-chaos  # SIGKILL mid-sweep, resume, digest must match
//! ```
//!
//! `fleet bench` and `journal-chaos` start servers on ephemeral
//! loopback ports, so neither needs a running daemon or a fixed port.
//! `--port-file` writes the resolved address (for `--addr host:0`)
//! atomically once the server is listening — the hand-off `ci.sh load`
//! and `journal-chaos` use to find their children.

use ssim_serve::json::Json;
use ssim_serve::proto::{Envelope, ProfileParams};
use ssim_serve::{
    Client, FaultPlan, Fleet, FleetConfig, Gateway, GatewayConfig, MachineSpec, PointResult,
    Request, Server, ServerConfig, SweepSpec,
};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("gateway") => cmd_gateway(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("journal-chaos") => cmd_journal_chaos(),
        _ => {
            eprintln!(
                "usage: ssim-serve serve [--addr A] [--workers N] [--queue N] [--deadline-ms N] \
                 [--journal P] [--port-file P]\n\
                 \x20      ssim-serve gateway [--addr A] [--port-file P] \
                 [--workers N] [--queue N] <backend>...\n\
                 \x20      ssim-serve client <addr> (<request-json> | metrics | shutdown)\n\
                 \x20      ssim-serve submit <addr> <file.asm> [--instructions N] [--skip N]\n\
                 \x20      ssim-serve fleet bench\n\
                 \x20      ssim-serve journal-chaos"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Publishes the resolved listen address atomically (write a temp file,
/// rename over the target), so a parent polling the path never reads a
/// half-written line.
fn write_port_file(path: &str, addr: &std::net::SocketAddr) -> std::io::Result<()> {
    let target = std::path::Path::new(path);
    let tmp = target.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, target)
}

// ---- serve ----------------------------------------------------------

fn cmd_serve(args: &[String]) -> i32 {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7807".to_string(),
        ..ServerConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("flag {flag} needs a value");
            return 2;
        };
        let parsed = match flag.as_str() {
            "--addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "--workers" => value.parse().map(|n| cfg.workers = n).map_err(|_| ()),
            "--queue" => value
                .parse()
                .map(|n| cfg.queue_capacity = n)
                .map_err(|_| ()),
            "--deadline-ms" => value
                .parse()
                .map(|n| cfg.default_deadline_ms = n)
                .map_err(|_| ()),
            "--result-cache" => value
                .parse()
                .map(|n| cfg.result_cache_capacity = n)
                .map_err(|_| ()),
            "--journal" => {
                cfg.journal = Some(std::path::PathBuf::from(value));
                Ok(())
            }
            "--port-file" => {
                port_file = Some(value.clone());
                Ok(())
            }
            other => {
                eprintln!("unknown flag {other}");
                return 2;
            }
        };
        if parsed.is_err() {
            eprintln!("bad value for {flag}: {value}");
            return 2;
        }
    }
    match Server::start(cfg) {
        Ok(server) => {
            println!("ssim-serve listening on {}", server.addr());
            if let Some(path) = port_file {
                if let Err(e) = write_port_file(&path, &server.addr()) {
                    eprintln!("failed to write port file {path}: {e}");
                    return 1;
                }
            }
            server.join();
            println!("ssim-serve drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("failed to start server: {e}");
            1
        }
    }
}

// ---- gateway --------------------------------------------------------

fn cmd_gateway(args: &[String]) -> i32 {
    let mut cfg = GatewayConfig {
        addr: "127.0.0.1:7808".to_string(),
        ..GatewayConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut backends = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            backends.push(arg.clone());
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("flag {arg} needs a value");
            return 2;
        };
        let parsed = match arg.as_str() {
            "--addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "--port-file" => {
                port_file = Some(value.clone());
                Ok(())
            }
            "--workers" => value.parse().map(|n| cfg.workers = n).map_err(|_| ()),
            "--queue" => value
                .parse()
                .map(|n| cfg.queue_capacity = n)
                .map_err(|_| ()),
            other => {
                eprintln!("unknown flag {other}");
                return 2;
            }
        };
        if parsed.is_err() {
            eprintln!("bad value for {arg}: {value}");
            return 2;
        }
    }
    if backends.is_empty() {
        eprintln!("gateway needs at least one backend address");
        return 2;
    }
    cfg.backends = backends;
    match Gateway::start(cfg) {
        Ok(gw) => {
            println!("ssim-gateway listening on {}", gw.addr());
            if let Some(path) = port_file {
                if let Err(e) = write_port_file(&path, &gw.addr()) {
                    eprintln!("failed to write port file {path}: {e}");
                    return 1;
                }
            }
            gw.join();
            println!("ssim-gateway drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("failed to start gateway: {e}");
            1
        }
    }
}

// ---- client ---------------------------------------------------------

fn cmd_client(args: &[String]) -> i32 {
    let [addr, spec] = args else {
        eprintln!("usage: ssim-serve client <addr> (<request-json> | metrics | shutdown)");
        return 2;
    };
    let line = match spec.as_str() {
        "metrics" => "{\"kind\":\"metrics\"}".to_string(),
        "shutdown" => "{\"kind\":\"shutdown\"}".to_string(),
        json => json.to_string(),
    };
    // Parse through the envelope grammar client-side so typos fail
    // with a local error instead of a round trip.
    let body = match Json::parse(&line) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("request is not valid JSON: {e}");
            return 2;
        }
    };
    let req = {
        // Wrap with a throwaway id so Envelope::parse can validate.
        let mut pairs = vec![("id".to_string(), Json::Num(1.0))];
        if let Json::Obj(p) = body {
            pairs.extend(p.into_iter().filter(|(k, _)| k != "id"));
        }
        match ssim_serve::proto::Envelope::parse(&Json::Obj(pairs).render()) {
            Ok(env) => env.req,
            Err(e) => {
                eprintln!("bad request: {e}");
                return 2;
            }
        }
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    };
    match client.call_retry(&req, None, 10) {
        Ok(resp) => {
            println!("{}", resp.body.render());
            i32::from(!resp.ok)
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            1
        }
    }
}

// ---- submit ---------------------------------------------------------

/// Submits a `.asm` file to a running server and prints the response
/// (registry name, static shape, profile metadata).
fn cmd_submit(args: &[String]) -> i32 {
    let mut instructions = 1_000_000u64;
    let mut skip = 0u64;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--instructions" | "--skip" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("{arg} needs an integer value");
                    return 2;
                };
                if arg == "--skip" {
                    skip = v;
                } else {
                    instructions = v;
                }
            }
            _ => positional.push(arg.clone()),
        }
    }
    let [addr, file] = positional.as_slice() else {
        eprintln!("usage: ssim-serve submit <addr> <file.asm> [--instructions N] [--skip N]");
        return 2;
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{file}: {e}");
            return 1;
        }
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    };
    let req = Request::SubmitProgram {
        source,
        instructions,
        skip,
    };
    match client.call_retry(&req, None, 10) {
        Ok(resp) => {
            println!("{}", resp.body.render());
            i32::from(!resp.ok)
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            1
        }
    }
}

// ---- shared helpers -------------------------------------------------

fn small_profile(instructions: u64) -> ProfileParams {
    ProfileParams {
        workload: "gzip".to_string(),
        instructions,
        skip: 0,
    }
}

/// `SSIM_METRICS`'s mode for the bench header, spelled as
/// `ssim_bench::host_header_json` spells it.
fn metrics_mode() -> &'static str {
    match ssim_obs::mode() {
        ssim_obs::Mode::Off => "off",
        ssim_obs::Mode::Text => "text",
        ssim_obs::Mode::Json => "json",
    }
}

// ---- fleet ----------------------------------------------------------

fn cmd_fleet(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("bench") => cmd_fleet_bench(),
        _ => {
            eprintln!("usage: ssim-serve fleet bench");
            2
        }
    }
}

/// Starts one loopback backend per fault plan (`None` = healthy).
fn start_backends(plans: &[Option<&str>]) -> Vec<Server> {
    plans
        .iter()
        .map(|plan| {
            let cfg = ServerConfig {
                fault: plan.map(|p| FaultPlan::parse(p).expect("fault plan")),
                ..ServerConfig::default()
            };
            Server::start(cfg).expect("start backend")
        })
        .collect()
}

/// Asks every backend to shut down (drains accepted work) and joins it.
fn stop_backends(servers: Vec<Server>) {
    for server in servers {
        let mut cl = Client::connect(server.addr()).expect("connect for shutdown");
        let shut = cl.call(&Request::Shutdown, None).expect("shutdown");
        assert!(shut.ok, "shutdown failed: {:?}", shut.error);
        server.join();
    }
}

fn stats_json(stats: &ssim_serve::fleet::FleetStats) -> Json {
    Json::obj(vec![
        ("points", Json::Num(stats.points as f64)),
        ("retries", Json::Num(stats.retries as f64)),
        ("steals", Json::Num(stats.steals as f64)),
        ("hedges", Json::Num(stats.hedges as f64)),
        ("hedges_won", Json::Num(stats.hedges_won as f64)),
        ("transitions", Json::Num(stats.transitions as f64)),
        (
            "served",
            Json::Arr(stats.served.iter().map(|&n| Json::Num(n as f64)).collect()),
        ),
    ])
}

fn cmd_fleet_bench() -> i32 {
    // Same scrubbed-cache discipline as `bench`: the profile is built
    // once (phase 1 warm-up) and the phases then compare pure
    // simulation throughput, not cache luck from earlier run_all steps.
    let cache_dir = std::path::Path::new("results").join(".fleet-bench-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", &cache_dir);

    let quick = ssim_bench::quick();
    // Deep tier (`./ci.sh deep`): extend the backend-scaling curve to 8
    // backends so BENCH_fleet.json records a real multi-backend curve,
    // not just the 1-vs-3 pair.
    let deep = std::env::var("SSIM_DEEP").is_ok_and(|v| v != "0");
    let backend_counts: &[usize] = if deep { &[1, 3, 8] } else { &[1, 3] };
    let spec = SweepSpec {
        profile: small_profile(if quick { 150_000 } else { 1_000_000 }),
        machines: [2u64, 4, 8]
            .iter()
            .flat_map(|&w| {
                [32u64, 128].iter().map(move |&win| MachineSpec {
                    width: Some(w),
                    window: Some(win),
                    ..MachineSpec::default()
                })
            })
            .collect(),
        r: ssim_bench::DEFAULT_R,
        seeds: (1..=4).collect(),
    };
    let points = spec.points();
    println!("fleet bench: {points} points per sweep, quick={quick}");

    let fleet_cfg = |backends: Vec<String>| FleetConfig {
        backends,
        backoff_base_ms: 2,
        backoff_cap_ms: 100,
        probe_interval_ms: 20,
        request_deadline_ms: 60_000,
        sweep_timeout_ms: 600_000,
        seed: 1,
        ..FleetConfig::default()
    };
    let run_phase = |label: &str, plans: &[Option<&str>]| {
        let servers = start_backends(plans);
        let backends: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
        let fleet = Fleet::new(fleet_cfg(backends)).expect("fleet");
        fleet.warm(&spec.profile);
        let t = Instant::now();
        let outcome = fleet.sweep(&spec).expect("sweep");
        let secs = t.elapsed().as_secs_f64();
        stop_backends(servers);
        println!(
            "{label}: {secs:.3}s ({} retries, {} steals, {} hedges)",
            outcome.stats.retries, outcome.stats.steals, outcome.stats.hedges
        );
        (outcome, secs)
    };

    // Backend-scaling curve: healthy fleets of increasing size. Every
    // count must merge bit-identically — the fleet's core guarantee.
    let avail = ssim_bench::available_parallelism();
    let mut phases: Vec<(usize, ssim_serve::fleet::SweepOutcome, f64)> = Vec::new();
    for &n in backend_counts {
        let plans = vec![None; n];
        let (outcome, secs) = run_phase(
            &format!("{n} backend{}", if n == 1 { "" } else { "s" }),
            &plans,
        );
        phases.push((n, outcome, secs));
    }
    let (single, single_s) = (&phases[0].1, phases[0].2);
    let fleet3_idx = phases
        .iter()
        .position(|&(n, _, _)| n == 3)
        .expect("3-backend phase");
    let fleet3_s = phases[fleet3_idx].2;
    let (chaos, chaos_s) = run_phase(
        "3 backends + chaos",
        &[
            Some("drop:0.15,delay:3ms@7"),
            Some("reject:0.2,delay:2ms@7"),
            Some("drop:0.05,reject:0.05@13"),
        ],
    );

    // The whole point of the fleet: placement must not show in results.
    let mut checks: Vec<(String, &ssim_serve::fleet::SweepOutcome)> = phases[1..]
        .iter()
        .map(|(n, o, _)| (format!("{n}-backend"), o))
        .collect();
    checks.push(("chaos".to_string(), &chaos));
    for (label, other) in &checks {
        for (i, (a, b)) in single.points.iter().zip(other.points.iter()).enumerate() {
            assert!(
                a.cycles == b.cycles
                    && a.instructions == b.instructions
                    && a.ipc.to_bits() == b.ipc.to_bits(),
                "{label} sweep: point {i} differs from the single-backend run"
            );
        }
    }
    println!(
        "merged results identical across {:?}-backend and chaos runs",
        backend_counts
    );

    // Scaling curve entries: speedup vs the 1-backend run, efficiency
    // relative to the backend count. Backends here share one host, so
    // the curve is honest only up to available_parallelism — which is
    // exactly why it is recorded in the header.
    let scaling: Vec<Json> = phases
        .iter()
        .map(|&(n, _, secs)| {
            let speedup = single_s / secs.max(1e-12);
            Json::obj(vec![
                ("backends", Json::Num(n as f64)),
                ("wall_s", Json::Num(secs)),
                ("speedup", Json::Num(speedup)),
                ("efficiency", Json::Num(speedup / n as f64)),
            ])
        })
        .collect();

    let doc = Json::obj(vec![
        ("quick", Json::Bool(quick)),
        ("deep", Json::Bool(deep)),
        ("threads", Json::Num(ssim_bench::num_threads() as f64)),
        ("available_parallelism", Json::Num(avail as f64)),
        ("metrics", Json::Str(metrics_mode().into())),
        (
            "backends",
            Json::Arr(
                backend_counts
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        ),
        ("sweep_points", Json::Num(points as f64)),
        ("single_backend_s", Json::Num(single_s)),
        ("fleet3_s", Json::Num(fleet3_s)),
        (
            "fleet_speedup",
            Json::Num(if fleet3_s > 0.0 {
                single_s / fleet3_s
            } else {
                0.0
            }),
        ),
        ("chaos_s", Json::Num(chaos_s)),
        (
            "chaos_overhead",
            Json::Num(if fleet3_s > 0.0 {
                chaos_s / fleet3_s
            } else {
                0.0
            }),
        ),
        ("chaos_stats", stats_json(&chaos.stats)),
        ("scaling", Json::Arr(scaling)),
        ("identical", Json::Bool(true)),
    ]);
    let _ = std::fs::create_dir_all("results");
    let path = "results/BENCH_fleet.json";
    if let Err(e) = std::fs::write(path, format!("{}\n", doc.render())) {
        eprintln!("failed to write {path}: {e}");
        return 1;
    }
    println!("wrote {path}");
    let _ = std::fs::remove_dir_all(&cache_dir);
    ssim_bench::obs_finish("ssim-fleet-bench");
    0
}

// ---- journal chaos --------------------------------------------------

/// Kill-and-resume gate for the job journal (nightly `ci.sh deep`):
///
/// 1. spawn a child server with `--journal`, submit a journaled
///    `sweep-stream` job and wait for streaming frames to prove the
///    sweep is mid-flight;
/// 2. SIGKILL the child (no drain, no cleanup — `Child::kill` is
///    `SIGKILL` on Unix);
/// 3. restart on the same journal, poll `job-result` until the resumed
///    job completes;
/// 4. the resumed digest must be byte-identical to an uninterrupted
///    blocking sweep of the same spec, and re-submitting the key must
///    re-ack instantly from the journal.
fn cmd_journal_chaos() -> i32 {
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join(format!("ssim-journal-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos dir");
    let journal = dir.join("journal.ndjson");
    let port_file = dir.join("serve.port");
    let cache_dir = dir.join("profile-cache");
    let exe = std::env::current_exe().expect("current exe");

    let spawn_server = || {
        // A private profile cache and no inherited fault plan: the test
        // measures journal recovery, not cache luck or injected chaos.
        std::process::Command::new(&exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--journal")
            .arg(&journal)
            .arg("--port-file")
            .arg(&port_file)
            .env("SSIM_PROFILE_CACHE_DIR", &cache_dir)
            .env_remove("SSIM_FAULT_PLAN")
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn child server")
    };
    let wait_port = || -> String {
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                let s = s.trim();
                if !s.is_empty() {
                    return s.to_string();
                }
            }
            assert!(
                Instant::now() < deadline,
                "child server never published its port"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    };

    // Enough points that the SIGKILL lands mid-sweep: frames arrive per
    // fan-out chunk, so two frames in means most chunks are still
    // pending on the 2-worker child.
    let spec = SweepSpec {
        profile: small_profile(150_000),
        machines: [2u64, 4, 8]
            .iter()
            .flat_map(|&w| {
                [16u64, 32, 64, 128].iter().map(move |&win| MachineSpec {
                    width: Some(w),
                    window: Some(win),
                    ..MachineSpec::default()
                })
            })
            .collect(),
        r: 12,
        seeds: (1..=8).collect(),
    };
    let req = Request::SweepStream {
        profile: spec.profile.clone(),
        machines: spec.machines.clone(),
        r: spec.r,
        seeds: spec.seeds.clone(),
    };
    let key = "chaos-1";

    let mut child = spawn_server();
    let addr = wait_port();
    println!(
        "journal-chaos: child on {addr}, journal at {}",
        journal.display()
    );

    // Submit the journaled job raw (the blocking client API hides
    // frames behind a full merge; here two frames are the kill signal).
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let env = Envelope {
        id: 1,
        deadline_ms: None,
        job: Some(key.to_string()),
        req: req.clone(),
    };
    writer
        .write_all(format!("{}\n", env.render()).as_bytes())
        .expect("submit job");
    let mut reader = BufReader::new(stream);
    let mut frames = 0usize;
    while frames < 2 {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read frame") > 0,
            "server closed the stream before two frames"
        );
        let v = Json::parse(line.trim()).expect("frame json");
        if v.get("frame").and_then(Json::as_str) == Some("point") {
            frames += 1;
        } else {
            assert!(
                v.get("ok").and_then(Json::as_bool) == Some(true),
                "job rejected before streaming: {line}"
            );
            // The whole sweep finished before we could kill — rare on
            // any real box, but then resume degenerates to re-ack,
            // which the tail of this test still verifies.
            break;
        }
    }
    println!("journal-chaos: {frames} frames seen, sending SIGKILL");
    child.kill().expect("kill child");
    let _ = child.wait();
    drop(reader);

    // Restart on the same journal; the accepted-but-incomplete job must
    // resume without any client re-submitting it.
    let _ = std::fs::remove_file(&port_file);
    let mut child = spawn_server();
    let addr = wait_port();
    println!("journal-chaos: restarted on {addr}");
    let mut cl = Client::connect(addr.as_str()).expect("connect restarted");
    let poll = Request::JobResult {
        job: key.to_string(),
    };
    let deadline = Instant::now() + std::time::Duration::from_secs(300);
    let resumed = loop {
        let resp = cl.call(&poll, None).expect("poll job-result");
        if resp.ok {
            break resp;
        }
        let msg = resp.error.clone().unwrap_or_default();
        assert!(
            msg.contains("pending"),
            "job neither pending nor done after restart: {msg}"
        );
        assert!(Instant::now() < deadline, "resumed job never completed");
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    let resumed_digest = resumed
        .body
        .get("digest")
        .and_then(Json::as_hex_u64)
        .expect("resumed digest");
    let resumed_points: Vec<PointResult> = resumed
        .body
        .get("results")
        .and_then(Json::as_arr)
        .expect("resumed results")
        .iter()
        .map(|p| PointResult::from_json(p).expect("point"))
        .collect();
    println!(
        "journal-chaos: resumed job completed, {} points, digest {resumed_digest:016x}",
        resumed_points.len()
    );

    // Reference: an uninterrupted blocking sweep of the same spec on
    // the restarted server. `cached` flags differ (the resumed run
    // repopulated the result cache), so the comparison is the digest
    // plus the digest-covered fields per point.
    let reference = cl
        .call(
            &Request::Sweep {
                profile: spec.profile.clone(),
                machines: spec.machines.clone(),
                r: spec.r,
                seeds: spec.seeds.clone(),
            },
            None,
        )
        .expect("reference sweep");
    assert!(
        reference.ok,
        "reference sweep failed: {:?}",
        reference.error
    );
    let reference_digest = reference
        .body
        .get("digest")
        .and_then(Json::as_hex_u64)
        .expect("reference digest");
    assert_eq!(
        resumed_digest, reference_digest,
        "resumed sweep digest differs from the uninterrupted run"
    );
    let reference_points: Vec<PointResult> = reference
        .body
        .get("results")
        .and_then(Json::as_arr)
        .expect("reference results")
        .iter()
        .map(|p| PointResult::from_json(p).expect("point"))
        .collect();
    assert_eq!(resumed_points.len(), reference_points.len());
    for (i, (a, b)) in resumed_points
        .iter()
        .zip(reference_points.iter())
        .enumerate()
    {
        assert!(
            a.cycles == b.cycles
                && a.instructions == b.instructions
                && a.ipc.to_bits() == b.ipc.to_bits(),
            "point {i} differs between resumed and uninterrupted runs"
        );
    }
    println!(
        "journal-chaos: digest and all {} points byte-identical",
        reference_points.len()
    );

    // Idempotent re-ack: the same key replays the journaled response
    // instantly (no frames, no recomputation).
    let reack = cl
        .submit_job(&req, None, Some(key))
        .and_then(|_| cl.recv())
        .expect("re-ack");
    assert!(reack.ok, "re-ack failed: {:?}", reack.error);
    assert_eq!(
        reack.body.get("digest").and_then(Json::as_hex_u64),
        Some(resumed_digest),
        "re-ack digest differs"
    );
    let metrics = cl.call(&Request::Metrics, None).expect("metrics");
    let reacked = metrics
        .body
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.journal.reacked"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(
        reacked >= 1,
        "serve.journal.reacked = {reacked}, expected >= 1"
    );
    println!("journal-chaos: re-ack replayed from journal ({reacked} re-acks)");

    let shut = cl.call(&Request::Shutdown, None).expect("shutdown");
    assert!(shut.ok, "shutdown failed: {:?}", shut.error);
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    println!("journal-chaos: OK");
    0
}
