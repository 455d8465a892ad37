//! `ssim-serve client` sends the whole request envelope: the
//! `deadline_ms` and `job` keys of its request JSON travel with the
//! request, so a deadline bounds the call and a job key is journaled.
//!
//! Each test runs the real binary (`CARGO_BIN_EXE_ssim-serve`) against
//! servers started in this process.

use ssim_serve::{Client, FaultPlan, Gateway, GatewayConfig, Request, Server, ServerConfig};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;
use std::time::{Duration, Instant};

/// This binary's scratch directory, which also holds its profile cache.
fn scratch_dir() -> PathBuf {
    static ONCE: Once = Once::new();
    let dir = std::env::temp_dir().join(format!("ssim-client-envelope-{}", std::process::id()));
    ONCE.call_once(|| {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        std::env::set_var("SSIM_PROFILE_CACHE_DIR", dir.join("profile-cache"));
        std::env::remove_var("SSIM_FAULT_PLAN");
    });
    dir
}

/// Runs `ssim-serve client <addr> <request>`; returns its exit code and
/// stdout.
fn client(addr: &str, request: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ssim-serve"))
        .args(["client", addr, request])
        .output()
        .expect("run ssim-serve client");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn shut_down(server: Server) {
    let mut cl = Client::connect(server.addr()).unwrap();
    assert!(cl.call(&Request::Shutdown, None).unwrap().ok);
    server.join();
}

#[test]
fn a_deadline_in_the_request_bounds_a_gateway_sweep() {
    scratch_dir();
    // Every forward stalls 1.5 s, so the eight points would take 12 s
    // one after another; the sweep's 200 ms deadline must answer first.
    let backend = Server::start(ServerConfig {
        fault: Some(FaultPlan::parse("delay:1500ms").unwrap()),
        ..ServerConfig::default()
    })
    .unwrap();
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend.addr().to_string()],
        ..GatewayConfig::default()
    })
    .unwrap();
    let request = r#"{"kind":"sweep","workload":"gzip","instructions":40000,"skip":0,
        "r":10,"seeds":[1,2],"deadline_ms":200,
        "machines":[{"width":1},{"width":2},{"width":3},{"width":4}]}"#;

    let started = Instant::now();
    let (code, stdout) = client(&gateway.addr().to_string(), request);
    let took = started.elapsed();
    assert_eq!(code, 1, "a timed-out sweep must exit non-zero: {stdout}");
    assert!(
        stdout.contains("sweep timed out after 200 ms with 8 of 8 points outstanding"),
        "unexpected reply {stdout}"
    );
    assert!(
        took < Duration::from_secs(2),
        "a 200 ms sweep answered after {took:?}"
    );
    gateway.stop();
    gateway.join();
    shut_down(backend);
}

#[test]
fn a_job_key_in_the_request_is_journaled() {
    let journal = scratch_dir().join("jobs.journal");
    let server = Server::start(ServerConfig {
        journal: Some(journal),
        ..ServerConfig::default()
    })
    .unwrap();
    let request = r#"{"kind":"profile","workload":"gzip","instructions":40000,"skip":0,"job":"k"}"#;
    let (code, stdout) = client(&server.addr().to_string(), request);
    assert_eq!(code, 0, "the profile request failed: {stdout}");

    let mut cl = Client::connect(server.addr()).unwrap();
    let poll = Request::JobResult {
        job: "k".to_string(),
    };
    let resp = cl.call(&poll, None).unwrap();
    assert!(resp.ok, "job-result for \"k\": {:?}", resp.error);
    shut_down(server);
}
