//! End-to-end tests of the `ssim` command-line tool, driving the real
//! binary via `CARGO_BIN_EXE_ssim`.

use std::process::Command;

fn ssim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ssim"))
        .args(args)
        .output()
        .expect("ssim binary runs")
}

#[test]
fn list_names_the_whole_suite() {
    let out = ssim(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for w in ssim::workloads::all() {
        assert!(text.contains(w.name()), "missing {}", w.name());
    }
}

#[test]
fn help_prints_usage_and_unknown_commands_fail() {
    let out = ssim(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = ssim(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn profile_info_simulate_explore_pipeline() {
    let dir = std::env::temp_dir().join("ssim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let prf = dir.join("crafty.prf");
    let prf_s = prf.to_str().unwrap();

    let out = ssim(&[
        "profile", "crafty", "-o", prf_s, "--instr", "200000", "--skip", "200000",
    ]);
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(prf.exists());

    let out = ssim(&["info", prf_s]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("instructions:   200000"), "{text}");
    assert!(text.contains("hottest contexts"));

    let out = ssim(&["simulate", prf_s, "--r", "10", "--ruu", "64"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPC:"), "{text}");
    assert!(text.contains("EDP:"), "{text}");

    let out = ssim(&["explore", prf_s, "--ruu", "16,64", "--width", "2,8"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("EDP-optimal"), "{text}");

    std::fs::remove_file(&prf).ok();
}

#[test]
fn missing_arguments_are_reported() {
    let out = ssim(&["profile", "crafty"]); // no -o
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("-o"));

    let out = ssim(&["info", "/nonexistent/path.prf"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    let out = ssim(&["profile", "nonesuch", "-o", "/tmp/x.prf"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

/// A machine the simulators cannot run is an error, not a panic or an
/// unbounded allocation: every width and window is positive, no window
/// is over 4,096 entries and no width over 64.
#[test]
fn out_of_bounds_machines_are_errors() {
    let dir = std::env::temp_dir().join(format!("ssim-cli-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prf = dir.join("gzip.prf");
    let prf_s = prf.to_str().unwrap();
    let out = ssim(&[
        "profile", "gzip", "-o", prf_s, "--instr", "50000", "--skip", "0",
    ]);
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    for args in [
        &["simulate", prf_s, "--ruu", "0"][..],
        &["simulate", prf_s, "--width", "0"],
        &["simulate", prf_s, "--ruu", "100000000"],
        &["simulate", prf_s, "--width", "65"],
        &["explore", prf_s, "--ruu", "0"],
        &["explore", prf_s, "--width", "2,100"],
    ] {
        let out = ssim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "{args:?} printed no error line: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
