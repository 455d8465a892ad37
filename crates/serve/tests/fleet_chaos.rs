//! Chaos test for the fleet coordinator: three loopback backends with a
//! seeded fault plan (drops + delays + rejects), merged results
//! byte-identical to direct library calls, with the recovery machinery
//! demonstrably exercised (≥1 retry, ≥1 work-stealing reassignment)
//! both in the returned [`FleetStats`] and in the `ssim-obs` registry.
//!
//! Determinism: the fault decision streams are seeded, and the two
//! faulty plans use seeds whose *first* decision is a fault (seed 7
//! opens with a drop under `drop:0.4` and with a reject under
//! `reject:0.4`), so the very first request each backend sees fails —
//! the retry and the steal are forced, not probabilistic.
//!
//! [`FleetStats`]: ssim_serve::fleet::FleetStats

use ssim::prelude::*;
use ssim_serve::proto::ProfileParams;
use ssim_serve::{
    Client, FaultPlan, Fleet, FleetConfig, MachineSpec, Request, Server, ServerConfig, SweepSpec,
};

#[path = "../../../tests/util/mod.rs"]
mod util;

fn obs_counter(name: &str) -> u64 {
    ssim_obs::snapshot()
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

#[test]
fn faulty_fleet_is_byte_identical_to_direct_calls() {
    // Private profile-cache dir: keep the test off `results/`.
    let dir = std::env::temp_dir().join(format!("ssim-fleet-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", &dir);

    let spec = SweepSpec {
        profile: ProfileParams {
            workload: "gzip".to_string(),
            instructions: 60_000,
            skip: 0,
        },
        machines: vec![
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
        ],
        r: 10,
        seeds: vec![1, 2],
    };

    // Direct library expectation (same profile path the servers use).
    let workload = ssim::workloads::by_name(&spec.profile.workload).unwrap();
    let profile = ssim_bench::profile_cached(
        workload,
        &ProfileConfig::new(&MachineConfig::baseline())
            .skip(spec.profile.skip)
            .instructions(spec.profile.instructions),
    );
    let sampler = profile.compile(spec.r);
    let mut expected = Vec::new();
    for m in &spec.machines {
        let cfg = m.resolve();
        for &seed in &spec.seeds {
            let sim = simulate_trace(&sampler.generate(seed), &cfg);
            expected.push((sim.cycles, sim.instructions, sim.ipc().to_bits()));
        }
    }

    // Three backends: every fault kind in play, seeded for determinism.
    let plans = [
        Some("drop:0.4,delay:3ms@7"),
        Some("reject:0.4,delay:2ms@7"),
        Some("drop:0.05,delay:1ms,reject:0.05@13"),
    ];
    let servers: Vec<Server> = plans
        .iter()
        .map(|plan| {
            Server::start(ServerConfig {
                fault: plan.map(|p| FaultPlan::parse(p).unwrap()),
                ..ServerConfig::default()
            })
            .unwrap()
        })
        .collect();

    let fleet = Fleet::new(FleetConfig {
        backends: servers.iter().map(|s| s.addr().to_string()).collect(),
        max_attempts: 64,
        backoff_base_ms: 2,
        backoff_cap_ms: 50,
        probe_interval_ms: 50,
        request_deadline_ms: util::timeout_ms(),
        sweep_timeout_ms: 4 * util::timeout_ms(),
        seed: 1,
        ..FleetConfig::default()
    })
    .unwrap();

    let outcome = fleet.sweep(&spec).expect("chaos sweep");

    assert_eq!(outcome.points.len(), expected.len());
    for (i, (point, exp)) in outcome.points.iter().zip(expected.iter()).enumerate() {
        assert_eq!(point.cycles, exp.0, "point {i} cycles");
        assert_eq!(point.instructions, exp.1, "point {i} instructions");
        assert_eq!(point.ipc.to_bits(), exp.2, "point {i} ipc bits");
        assert!(!point.cached, "point {i} leaks placement history");
    }

    // The recovery machinery must have actually run — per the returned
    // stats and per the process-wide ssim-obs registry.
    let stats = &outcome.stats;
    assert!(stats.retries >= 1, "no retry recorded: {stats:?}");
    assert!(stats.steals >= 1, "no reassignment recorded: {stats:?}");
    assert!(stats.transitions >= 2, "no dead/revived cycle: {stats:?}");
    assert_eq!(stats.served.iter().sum::<u64>(), spec.points() as u64);
    assert!(obs_counter("fleet.retries") >= stats.retries);
    assert!(obs_counter("fleet.steals") >= stats.steals);
    assert!(obs_counter("serve.fault.dropped") >= 1);
    assert!(obs_counter("serve.fault.rejected") >= 1);
    assert!(obs_counter("serve.fault.delayed") >= 1);

    // Shutdown stays exempt from fault injection: it must drain and
    // acknowledge deterministically even mid-chaos.
    for server in servers {
        let mut cl = Client::connect(server.addr()).unwrap();
        let shut = cl.call(&Request::Shutdown, None).unwrap();
        assert!(shut.ok, "shutdown failed: {:?}", shut.error);
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
