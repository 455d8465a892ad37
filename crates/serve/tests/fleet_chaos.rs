//! Chaos test for gateway sweeps: a gateway over three loopback
//! backends with seeded fault plans (drops + delays + rejects), merged
//! results byte-identical to direct library calls, with the recovery
//! machinery demonstrably exercised (≥1 retry, ≥1 reassignment to
//! another backend, a backend marked dead and brought back) in the
//! `ssim-obs` registry, fleet-wide and per backend.
//!
//! Determinism: the fault decision streams are seeded, and a gateway
//! sweep sends each backend one forward at a time, so every backend
//! draws the same decisions in the same order on every run. Seed 7
//! opens with a drop under `drop:0.4` and seed 13 with a drop under the
//! third plan, so both of those backends fail their first forward and
//! sit out the gateway's probe interval while the second backend takes
//! their points (the steals). That backend's `reject:0.4` stream (seed
//! 7) lets its first two forwards through, the first after one in-place
//! retry, then rejects its third four times running, more than a
//! forward retries in place: it too sits out with points still queued,
//! and the first two come back on their next forward, which their
//! streams let through (a dead/revived cycle).

use ssim::prelude::*;
use ssim_serve::json::Json;
use ssim_serve::{
    Client, FaultPlan, Gateway, GatewayConfig, MachineSpec, PointResult, ProfileParams, Request,
    Server, ServerConfig,
};

fn obs_counter(name: &str) -> u64 {
    ssim_obs::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn faulty_fleet_is_byte_identical_to_direct_calls() {
    // Private profile-cache dir: keep the test off `results/`.
    let dir = std::env::temp_dir().join(format!("ssim-fleet-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", &dir);

    let profile = ProfileParams {
        workload: "gzip".to_string(),
        instructions: 60_000,
        skip: 0,
    };
    let machines = vec![
        MachineSpec::default(),
        MachineSpec {
            width: Some(2),
            ..MachineSpec::default()
        },
        MachineSpec {
            width: Some(8),
            window: Some(64),
            ..MachineSpec::default()
        },
        MachineSpec {
            in_order: true,
            ..MachineSpec::default()
        },
    ];
    let (r, seeds) = (10, vec![1, 2]);
    let points = machines.len() * seeds.len();

    // Direct library expectation (same profile path the servers use),
    // in point-index order: machines outer, seeds inner.
    let workload = ssim::workloads::by_name(&profile.workload).unwrap();
    let built = ssim_bench::profile_cached(
        workload,
        &ProfileConfig::new(&MachineConfig::baseline())
            .skip(profile.skip)
            .instructions(profile.instructions),
    );
    let sampler = built.compile(r);
    let mut expected = Vec::new();
    for m in &machines {
        let cfg = m.resolve();
        for &seed in &seeds {
            let sim = simulate_trace(&sampler.generate(seed), &cfg);
            expected.push((sim.cycles, sim.instructions, sim.ipc().to_bits()));
        }
    }

    // Three backends: every fault kind in play, seeded for determinism.
    let plans = [
        "drop:0.4,delay:3ms@7",
        "reject:0.4,delay:2ms@7",
        "drop:0.05,delay:1ms,reject:0.05@13",
    ];
    let servers: Vec<Server> = plans
        .iter()
        .map(|plan| {
            Server::start(ServerConfig {
                fault: Some(FaultPlan::parse(plan).unwrap()),
                ..ServerConfig::default()
            })
            .unwrap()
        })
        .collect();
    let gateway = Gateway::start(GatewayConfig {
        backends: servers.iter().map(|s| s.addr().to_string()).collect(),
        ..GatewayConfig::default()
    })
    .unwrap();

    // One per-backend counter, summed over the backends.
    let backend_total = |field: &str| -> u64 {
        (0..servers.len())
            .map(|i| obs_counter(&format!("fleet.backend{i}.{field}")))
            .sum()
    };
    let (retries0, steals0, transitions0) = (
        obs_counter("fleet.retries"),
        obs_counter("fleet.steals"),
        obs_counter("fleet.backend_transitions"),
    );
    let (served0, backend_retries0, backend_steals0) = (
        backend_total("served"),
        backend_total("retries"),
        backend_total("steals"),
    );

    let mut cl = Client::connect(gateway.addr()).unwrap();
    let sweep = Request::Sweep {
        profile,
        machines,
        r,
        seeds,
    };
    let resp = cl.call(&sweep, None).unwrap();
    assert!(resp.ok, "chaos sweep failed: {:?}", resp.error);
    let results = resp.body.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), points);
    for (i, (point, exp)) in results.iter().zip(expected.iter()).enumerate() {
        let point = PointResult::from_json(point).unwrap();
        assert_eq!(point.cycles, exp.0, "point {i} cycles");
        assert_eq!(point.instructions, exp.1, "point {i} instructions");
        assert_eq!(point.ipc.to_bits(), exp.2, "point {i} ipc bits");
        assert!(!point.cached, "point {i} leaks placement history");
    }

    // The recovery machinery must have actually run.
    let retries = obs_counter("fleet.retries") - retries0;
    let steals = obs_counter("fleet.steals") - steals0;
    let transitions = obs_counter("fleet.backend_transitions") - transitions0;
    let served = backend_total("served") - served0;
    let backend_retries = backend_total("retries") - backend_retries0;
    let backend_steals = backend_total("steals") - backend_steals0;
    let seen = format!(
        "retries {retries}, steals {steals}, transitions {transitions}, \
         per backend: served {served}, retries {backend_retries}, steals {backend_steals}"
    );
    assert!(retries >= 1, "no retry recorded: {seen}");
    assert!(steals >= 1, "no reassignment recorded: {seen}");
    assert!(transitions >= 2, "no dead/revived cycle: {seen}");
    // Per backend: every point is served once, and every retry and
    // steal is charged to the backend that made it.
    assert_eq!(served, points as u64, "{seen}");
    assert_eq!(backend_retries, retries, "{seen}");
    assert_eq!(backend_steals, steals, "{seen}");
    assert!(obs_counter("serve.fault.dropped") >= 1);
    assert!(obs_counter("serve.fault.rejected") >= 1);
    assert!(obs_counter("serve.fault.delayed") >= 1);

    // Shutdown stays exempt from fault injection: it must drain and
    // acknowledge deterministically even mid-chaos.
    gateway.stop();
    gateway.join();
    for server in servers {
        let mut cl = Client::connect(server.addr()).unwrap();
        let shut = cl.call(&Request::Shutdown, None).unwrap();
        assert!(shut.ok, "shutdown failed: {:?}", shut.error);
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
