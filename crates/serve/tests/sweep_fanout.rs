//! How a server sweep fans out, and how it stops.
//!
//! A sweep is one seed-major `par_map`, so a fan-out worker walks about
//! once per seed it touches; a gateway hands points out in the same
//! order, so a one-worker backend walks about once per seed. Walks are
//! counted as `walk_reuse_metrics.rs` counts them, one `synth.time`
//! span each. The same binary pins the two stops a sweep checks before
//! every point (its deadline, its client hanging up), the gateway's
//! answer to a forward that timed out, and a gateway sweep's deadline.
//!
//! The observability registry is process-global, so the tests take
//! turns ([`serial`]) and each reads the counters it needs before and
//! after its own requests.

use ssim_serve::json::Json;
use ssim_serve::proto::Envelope;
use ssim_serve::{
    Client, FaultPlan, Gateway, GatewayConfig, MachineSpec, ProfileParams, Request, Server,
    ServerConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

#[path = "../../../tests/util/mod.rs"]
mod util;

/// Serialises the tests of this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let dir = std::env::temp_dir().join(format!("ssim-sweep-fanout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("SSIM_PROFILE_CACHE_DIR", &dir);
        std::env::remove_var("SSIM_FAULT_PLAN");
    });
    guard
}

fn counter(name: &str) -> u64 {
    ssim_obs::snapshot().counter(name).unwrap_or(0)
}

/// Walks so far: one `synth.time` span per walk.
fn walks() -> u64 {
    ssim_obs::snapshot()
        .timers
        .iter()
        .find(|(name, _)| *name == "synth.time")
        .map_or(0, |(_, (count, _, _))| *count)
}

fn profile() -> ProfileParams {
    ProfileParams {
        workload: "gzip".to_string(),
        instructions: 40_000,
        skip: 0,
    }
}

/// Machines that differ only in their window (RUU, LSQ half of it) at
/// each of `widths`: on one walk, a window that never filled answers
/// the larger ones from a kept result.
fn windows(widths: &[u64]) -> Vec<MachineSpec> {
    widths
        .iter()
        .flat_map(|&w| {
            [16, 32, 64, 128, 256, 512, 1024, 2048].map(|window| MachineSpec {
                width: Some(w),
                window: Some(window),
                ..MachineSpec::default()
            })
        })
        .collect()
}

/// 64 machines no two of which share a result or a resumable run:
/// widths 1–8 × four IFQ sizes × in-order or not.
fn distinct_machines() -> Vec<MachineSpec> {
    let mut machines = Vec::new();
    for width in 1..=8 {
        for ifq in [4, 8, 16, 32] {
            for in_order in [false, true] {
                machines.push(MachineSpec {
                    width: Some(width),
                    ifq: Some(ifq),
                    in_order,
                    ..MachineSpec::default()
                });
            }
        }
    }
    machines
}

/// Profiles and lowers at R 1 on `server`, so a sweep's deadline is
/// spent on its points.
fn warm(server: &Server) {
    let mut cl = Client::connect(server.addr()).unwrap();
    let synth = Request::Synth {
        profile: profile(),
        r: 1,
        seed: 1,
    };
    assert!(cl.call(&synth, None).unwrap().ok);
}

fn shut_down(server: Server) {
    let mut cl = Client::connect(server.addr()).unwrap();
    assert!(cl.call(&Request::Shutdown, None).unwrap().ok);
    server.join();
}

/// Sends `req` and returns the reply's `results` array length.
fn sweep_ok(cl: &mut Client, req: &Request) -> usize {
    let resp = cl.call(req, None).unwrap();
    assert!(resp.ok, "sweep failed: {:?}", resp.error);
    resp.body
        .get("results")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len)
}

#[test]
fn a_server_sweep_walks_once_per_seed_and_fan_out_worker() {
    let _serial = serial();
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();
    let machines = windows(&[4]);
    let seeds = vec![11u64, 12];
    let sweep = Request::Sweep {
        profile: profile(),
        machines: machines.clone(),
        r: 10,
        seeds: seeds.clone(),
    };
    assert!(cl.call(&Request::Profile(profile()), None).unwrap().ok);

    let (walks0, steals0, reused0, segments0) = (
        walks(),
        counter("par.steals"),
        counter("tracesim.points_reused"),
        counter("tracesim.segments_reused"),
    );
    assert_eq!(sweep_ok(&mut cl, &sweep), machines.len() * seeds.len());
    let walked = walks() - walks0;
    let steals = counter("par.steals") - steals0;
    let bound = seeds.len() as u64 + ssim_par::num_threads() as u64 - 1 + steals;
    assert!(
        walked <= bound,
        "{walked} walks for {} points; at most {bound} expected \
         ({} seeds, {} threads, {steals} steals)",
        machines.len() * seeds.len(),
        seeds.len(),
        ssim_par::num_threads()
    );
    assert!(
        counter("tracesim.points_reused") > reused0,
        "no point was answered from a kept result"
    );
    assert!(
        counter("tracesim.segments_reused") > segments0,
        "no driver run replayed a segment"
    );
    shut_down(server);
}

#[test]
fn a_gateway_sweep_walks_once_per_seed_and_backend() {
    let _serial = serial();
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            })
            .unwrap()
        })
        .collect();
    let gateway = Gateway::start(GatewayConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        ..GatewayConfig::default()
    })
    .unwrap();
    let mut cl = Client::connect(gateway.addr()).unwrap();
    // Each backend resolves the profile before the count starts.
    for b in &backends {
        let mut direct = Client::connect(b.addr()).unwrap();
        assert!(direct.call(&Request::Profile(profile()), None).unwrap().ok);
    }
    let machines = windows(&[2, 4]);
    let seeds = vec![21u64, 22];
    let sweep = Request::Sweep {
        profile: profile(),
        machines: machines.clone(),
        r: 10,
        seeds: seeds.clone(),
    };

    let walks0 = walks();
    assert_eq!(sweep_ok(&mut cl, &sweep), machines.len() * seeds.len());
    let walked = walks() - walks0;
    assert!(
        walked <= 4,
        "{walked} walks for {} points over two one-worker backends; at most 4 expected",
        machines.len() * seeds.len()
    );
    gateway.stop();
    gateway.join();
    backends.into_iter().for_each(shut_down);
}

#[test]
fn a_sweep_past_its_deadline_stops_between_points() {
    let _serial = serial();
    let server = Server::start(ServerConfig::default()).unwrap();
    warm(&server);
    let (machines, seeds) = (distinct_machines(), (1..=10).collect::<Vec<u64>>());
    let total = machines.len() * seeds.len();

    let deadlines0 = counter("serve.deadline_exceeded");
    let sweep = Request::Sweep {
        profile: profile(),
        machines,
        r: 1,
        seeds,
    };
    let mut cl = Client::connect(server.addr()).unwrap();
    let resp = cl.call(&sweep, Some(50)).unwrap();
    assert!(
        !resp.ok,
        "a {total}-point sweep ran past its 50 ms deadline"
    );
    let error = resp.error.unwrap();
    let done: usize = error
        .strip_prefix("deadline exceeded after ")
        .and_then(|rest| rest.strip_suffix(&format!(" of {total} points")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unexpected error {error:?}"));
    assert!(done < total, "{done} of {total} points");
    assert!(counter("serve.deadline_exceeded") > deadlines0);
    shut_down(server);
}

#[test]
fn a_sweep_whose_client_hangs_up_stops_between_points() {
    let _serial = serial();
    let server = Server::start(ServerConfig::default()).unwrap();
    warm(&server);
    let (machines, seeds) = (distinct_machines(), (1..=10).collect::<Vec<u64>>());
    let total = machines.len() as u64 * seeds.len() as u64;

    let (cancelled0, simulated0) = (
        counter("serve.cancelled"),
        counter("serve.result_cache.misses"),
    );
    let sweep = Request::SweepStream {
        profile: profile(),
        machines,
        r: 1,
        seeds,
    };
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let env = Envelope {
        id: 1,
        deadline_ms: None,
        job: None,
        req: sweep,
    };
    writeln!(stream, "{}", env.render()).unwrap();
    // The first frame shows the sweep running; then the client leaves.
    let mut frame = String::new();
    BufReader::new(&stream).read_line(&mut frame).unwrap();
    let frame = Json::parse(frame.trim()).unwrap();
    assert_eq!(frame.get("frame").and_then(Json::as_str), Some("point"));
    drop(stream);
    util::wait_until("the sweep to notice its client left", || {
        counter("serve.cancelled") > cancelled0
    });
    let simulated = counter("serve.result_cache.misses") - simulated0;
    assert!(simulated < total, "{simulated} of {total} points simulated");
    shut_down(server);
}

#[test]
fn a_gateway_answers_a_timed_out_forward_without_resending_it() {
    let _serial = serial();
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServerConfig {
                fault: Some(FaultPlan::parse("delay:1000ms").unwrap()),
                ..ServerConfig::default()
            })
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let gateway = Gateway::start(GatewayConfig {
        backends: addrs.clone(),
        ..GatewayConfig::default()
    })
    .unwrap();
    let mut cl = Client::connect(gateway.addr()).unwrap();

    let delayed0 = counter("serve.fault.delayed");
    let resp = cl.call(&Request::Profile(profile()), Some(100)).unwrap();
    assert_eq!(
        counter("serve.fault.delayed") - delayed0,
        1,
        "the forward reached more than one backend"
    );
    assert!(!resp.ok);
    assert_eq!(resp.retry_after_ms, None);
    let error = resp.error.unwrap();
    assert!(
        error.contains("timed out after 100 ms") && addrs.iter().any(|a| error.contains(a)),
        "unexpected error {error:?}"
    );
    gateway.stop();
    gateway.join();
    backends.into_iter().for_each(shut_down);
}

#[test]
fn a_gateway_sweep_answers_by_its_deadline_while_a_backend_stalls() {
    let _serial = serial();
    let backend = Server::start(ServerConfig {
        fault: Some(FaultPlan::parse("delay:3000ms").unwrap()),
        ..ServerConfig::default()
    })
    .unwrap();
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend.addr().to_string()],
        ..GatewayConfig::default()
    })
    .unwrap();
    let mut cl = Client::connect(gateway.addr()).unwrap();
    let sweep = Request::Sweep {
        profile: profile(),
        machines: distinct_machines()[..4].to_vec(),
        r: 10,
        seeds: vec![1, 2],
    };

    let started = Instant::now();
    let resp = cl.call(&sweep, Some(200)).unwrap();
    let took = started.elapsed();
    assert!(!resp.ok, "a sweep finished on a backend that stalls 3 s");
    assert_eq!(
        resp.error.as_deref(),
        Some("sweep timed out after 200 ms with 8 of 8 points outstanding")
    );
    assert!(
        took < Duration::from_millis(1500),
        "a 200 ms sweep answered after {took:?}"
    );
    gateway.stop();
    gateway.join();
    shut_down(backend);
}
