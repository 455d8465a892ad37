//! Kill-and-resume drill for the job journal, against the real
//! `ssim-serve` binary:
//!
//! 1. start `ssim-serve serve --journal` on an ephemeral port, submit a
//!    journaled `sweep-stream` job and wait for two streamed frames, so
//!    the sweep is mid-flight;
//! 2. SIGKILL the process (no drain, no cleanup — `Child::kill` is
//!    `SIGKILL` on Unix);
//! 3. restart it on the same journal and poll `job-result` until the
//!    resumed job completes, with no client re-submitting it;
//! 4. the resumed digest and points must equal an uninterrupted
//!    blocking sweep of the same spec, and re-submitting the key must
//!    re-ack from the journal.
//!
//! If the whole sweep finishes before the kill, resume degenerates to
//! a re-ack of the journaled result, which the rest of the drill still
//! checks.

use ssim_serve::json::Json;
use ssim_serve::proto::{Envelope, ProfileParams};
use ssim_serve::{Client, MachineSpec, PointResult, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

#[path = "../../../tests/util/mod.rs"]
mod util;

/// Kills the server if the drill fails part-way, so a failed assertion
/// never leaves a process behind.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `ssim-serve serve` on the drill's journal with a private
/// profile cache and no inherited fault plan (the drill checks journal
/// recovery, not cache luck or injected chaos), and returns it with the
/// address it published.
fn spawn_server(dir: &Path) -> (Reap, String) {
    let port_file = dir.join("serve.port");
    let _ = std::fs::remove_file(&port_file);
    let child = Reap(
        Command::new(env!("CARGO_BIN_EXE_ssim-serve"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--journal")
            .arg(dir.join("journal.ndjson"))
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
    (child, addr)
}

fn connect(addr: &str) -> Client {
    let cl = Client::connect(addr).expect("connect to ssim-serve");
    cl.set_read_timeout(Some(Duration::from_millis(util::timeout_ms())))
        .expect("set read timeout");
    cl
}

/// The digest and per-point results of a completed sweep response.
fn sweep_body(body: &Json, what: &str) -> (u64, Vec<PointResult>) {
    let digest = body
        .get("digest")
        .and_then(Json::as_hex_u64)
        .unwrap_or_else(|| panic!("{what}: no digest"));
    let points = body
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{what}: no results"))
        .iter()
        .map(|p| PointResult::from_json(p).expect("point"))
        .collect();
    (digest, points)
}

#[test]
fn sigkilled_sweep_resumes_from_the_journal() {
    let dir = std::env::temp_dir().join(format!("ssim-journal-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create drill dir");

    // Enough points that the SIGKILL lands mid-sweep: frames arrive per
    // fan-out chunk, so two frames in means most chunks are still
    // pending on the 2-worker server.
    let machines: Vec<MachineSpec> = [2u64, 4, 8]
        .iter()
        .flat_map(|&w| {
            [16u64, 32, 64, 128].iter().map(move |&win| MachineSpec {
                width: Some(w),
                window: Some(win),
                ..MachineSpec::default()
            })
        })
        .collect();
    let profile = ProfileParams {
        workload: "gzip".to_string(),
        instructions: 150_000,
        skip: 0,
    };
    let seeds: Vec<u64> = (1..=8).collect();
    let req = Request::SweepStream {
        profile: profile.clone(),
        machines: machines.clone(),
        r: 12,
        seeds: seeds.clone(),
    };
    let key = "chaos-1";

    let (mut server, addr) = spawn_server(&dir);

    // Submit the journaled job raw: the blocking client API hides
    // frames behind a full merge, and here two frames are the kill
    // signal.
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(util::timeout_ms())))
        .expect("set read timeout");
    let env = Envelope {
        id: 1,
        deadline_ms: None,
        job: Some(key.to_string()),
        req: req.clone(),
    };
    (&stream)
        .write_all(format!("{}\n", env.render()).as_bytes())
        .expect("submit job");
    let mut reader = BufReader::new(&stream);
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
            // The sweep finished before the kill: resume becomes a
            // re-ack of the journaled result.
            break;
        }
    }
    server.0.kill().expect("SIGKILL ssim-serve");
    let _ = server.0.wait();
    drop(reader);

    // Restart on the same journal: the accepted but incomplete job must
    // resume without any client re-submitting it.
    let (mut server, addr) = spawn_server(&dir);
    let mut cl = connect(&addr);
    let poll = Request::JobResult {
        job: key.to_string(),
    };
    let mut resumed = None;
    util::wait_until("the resumed job completes", || {
        let resp = cl.call(&poll, None).expect("poll job-result");
        if resp.ok {
            resumed = Some(resp.body);
            return true;
        }
        let msg = resp.error.unwrap_or_default();
        assert!(
            msg.contains("pending"),
            "job neither pending nor done after restart: {msg}"
        );
        false
    });
    let (resumed_digest, resumed_points) = sweep_body(&resumed.unwrap(), "resumed job");

    // Reference: an uninterrupted blocking sweep of the same spec on the
    // restarted server. `cached` flags differ (the resumed run filled
    // the result cache), so the comparison is the digest plus the
    // digest-covered fields of every point.
    let reference = cl
        .call(
            &Request::Sweep {
                profile,
                machines,
                r: 12,
                seeds,
            },
            None,
        )
        .expect("reference sweep");
    assert!(
        reference.ok,
        "reference sweep failed: {:?}",
        reference.error
    );
    let (reference_digest, reference_points) = sweep_body(&reference.body, "reference sweep");
    assert_eq!(
        resumed_digest, reference_digest,
        "resumed sweep digest differs from the uninterrupted run"
    );
    assert_eq!(resumed_points.len(), reference_points.len());
    for (i, (a, b)) in resumed_points.iter().zip(&reference_points).enumerate() {
        assert!(
            a.cycles == b.cycles
                && a.instructions == b.instructions
                && a.ipc.to_bits() == b.ipc.to_bits(),
            "point {i} differs between resumed and uninterrupted runs"
        );
    }

    // Idempotent re-ack: the same key replays the journaled response
    // (no frames, no recomputation).
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

    let shut = cl.call(&Request::Shutdown, None).expect("shutdown");
    assert!(shut.ok, "shutdown failed: {:?}", shut.error);
    let mut status = None;
    util::wait_until("ssim-serve exits after the ack", || {
        status = server.0.try_wait().expect("poll ssim-serve");
        status.is_some()
    });
    assert!(
        status.is_some_and(|s| s.success()),
        "ssim-serve exited with {status:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
