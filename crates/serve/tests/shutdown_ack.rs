//! Binary-level shutdown drill: a `ssim-serve serve` process must write
//! the `shutdown` acknowledgement, and every drained job's reply, before
//! it exits, even when jobs are still running as the request arrives.
//!
//! `cmd_serve` exits the process as soon as `Server::join` returns, so
//! the drill runs the real binary: any line still queued for a
//! connection's writer at that point would be lost, and its client
//! would read EOF instead. Each round starts the server on an ephemeral
//! port (`--port-file`), warms a small profile, pipelines a few
//! fresh-seed `simulate` jobs on one connection and asks for shutdown
//! on a second. Every round must see `"drained": true`, every job's
//! answer, and a clean exit.

use ssim_serve::json::Json;
use ssim_serve::proto::ProfileParams;
use ssim_serve::{Client, MachineSpec, Request};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

#[path = "../../../tests/util/mod.rs"]
mod util;

const ROUNDS: u64 = 30;

/// Reduction factor of the drill's jobs: they must still be running
/// when the shutdown arrives, and an optimised build simulates about
/// ten times faster, so it gets longer traces.
const R: u64 = if cfg!(debug_assertions) { 10 } else { 2 };

/// Kills the server if a round fails part-way, so a failed assertion
/// never leaves a process behind.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn connect(addr: &str) -> Client {
    let cl = Client::connect(addr).expect("connect to ssim-serve");
    cl.set_read_timeout(Some(Duration::from_millis(util::timeout_ms())))
        .expect("set read timeout");
    cl
}

#[test]
fn serve_binary_writes_the_shutdown_ack_before_exiting() {
    let dir = std::env::temp_dir().join(format!("ssim-shutdown-ack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create drill dir");
    let profile = ProfileParams {
        workload: "gzip".to_string(),
        instructions: 60_000,
        skip: 0,
    };

    for round in 0..ROUNDS {
        let port_file = dir.join(format!("serve{round}.port"));
        // Every round shares one private profile cache, so all but the
        // first load the profile warm.
        let mut server = Reap(
            Command::new(env!("CARGO_BIN_EXE_ssim-serve"))
                .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
                .arg("--port-file")
                .arg(&port_file)
                .env("SSIM_PROFILE_CACHE_DIR", dir.join("profile-cache"))
                .env_remove("SSIM_FAULT_PLAN")
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn ssim-serve"),
        );
        let mut addr = String::new();
        util::wait_until("ssim-serve publishes its port", || {
            addr = std::fs::read_to_string(&port_file)
                .unwrap_or_default()
                .trim()
                .to_string();
            !addr.is_empty()
        });

        let mut jobs = connect(&addr);
        let warm = jobs
            .call(&Request::Profile(profile.clone()), None)
            .expect("warm profile");
        assert!(warm.ok, "round {round}: warm failed: {:?}", warm.error);
        let in_flight = 3 + round % 4;
        let ids: Vec<u64> = (0..in_flight)
            .map(|i| {
                let req = Request::Simulate {
                    profile: profile.clone(),
                    machine: MachineSpec {
                        width: Some(1 + i % 8),
                        ..MachineSpec::default()
                    },
                    r: R,
                    seed: 1_000 * (round + 1) + i,
                };
                jobs.submit(&req, None).expect("submit simulate")
            })
            .collect();
        // One connection's requests are read in order, so once the
        // metrics answer arrives every job above has been accepted.
        let barrier = jobs.submit(&Request::Metrics, None).expect("barrier");
        let mut answered = Vec::new();
        loop {
            let resp = jobs.recv().expect("job or barrier response");
            if resp.id == barrier {
                break;
            }
            answered.push(resp);
        }

        let shut = connect(&addr)
            .call(&Request::Shutdown, None)
            .unwrap_or_else(|e| {
                panic!("round {round}: no shutdown ack ({in_flight} jobs in flight): {e}")
            });
        assert!(shut.ok, "round {round}: shutdown failed: {:?}", shut.error);
        assert_eq!(
            shut.body.get("drained").and_then(Json::as_bool),
            Some(true),
            "round {round}: shutdown ack without drained: true"
        );

        // The ack certifies the drain: every job has answered.
        while answered.len() < ids.len() {
            answered.push(jobs.recv().expect("drained job response"));
        }
        for resp in &answered {
            assert!(
                ids.contains(&resp.id),
                "round {round}: stray id {}",
                resp.id
            );
            assert!(resp.ok, "round {round}: job failed: {:?}", resp.error);
        }

        let mut status = None;
        util::wait_until("ssim-serve exits after the ack", || {
            status = server.0.try_wait().expect("poll ssim-serve");
            status.is_some()
        });
        assert!(
            status.is_some_and(|s| s.success()),
            "round {round}: ssim-serve exited with {status:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
