//! Connections cost no threads: a backend holding 64 open connections,
//! each of which has been answered, runs on the threads it started with.
//!
//! This test is alone in its binary so that no other test's threads are
//! counted in `/proc/self/status`.

use ssim_serve::{Client, Request, Server, ServerConfig};

/// This process's thread count, from the `Threads:` line.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn open_connections_add_no_threads() {
    std::env::remove_var("SSIM_FAULT_PLAN");
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    // One answered connection first, so every thread the server starts
    // on its own is already running.
    let mut first = Client::connect(server.addr()).expect("connect");
    assert!(first.call(&Request::Metrics, None).expect("metrics").ok);
    let before = threads();
    let conns: Vec<Client> = (0..64)
        .map(|i| {
            let mut cl = Client::connect(server.addr()).expect("connect");
            let resp = cl.call(&Request::Metrics, None).expect("metrics");
            assert!(resp.ok, "connection {i}: {:?}", resp.error);
            cl
        })
        .collect();
    let after = threads();
    assert!(
        after < before + conns.len(),
        "threads rose from {before} to {after} with {} open connections",
        conns.len()
    );
    assert!(first.call(&Request::Shutdown, None).expect("shutdown").ok);
    server.join();
}
