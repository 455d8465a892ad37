//! Self-tests of the benchmark as a program: a short run of every
//! workload, with and without tracing, passes its output checks and
//! prints exactly the metrics `BENCHMARK.json` declares, with their
//! units.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ssim_serve::json::Json;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(m: &Json, key: &str) -> Vec<(String, String)> {
    m.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|e| {
            (
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                e.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn check(workload: &str, trace: bool) {
    let m = manifest();
    let want = declared(&m, if trace { "per_layer" } else { "end_to_end" });
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            assert!(
                v.get("value").and_then(Json::as_f64).is_some(),
                "{k} has no value"
            );
            (
                k.clone(),
                v.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        got, want,
        "{workload} trace={trace}: metrics differ from BENCHMARK.json"
    );
    for (name, unit) in &got {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
}

#[test]
fn sweep_runs_clean() {
    check("sweep", false);
    check("sweep", true);
}

#[test]
fn study_runs_clean() {
    check("study", false);
    check("study", true);
}

#[test]
fn serve_runs_clean() {
    check("serve", false);
    check("serve", true);
}

#[test]
fn manifest_names_are_valid_and_unique() {
    let m = manifest();
    let mut names: Vec<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| declared(&m, k))
        .map(|(n, u)| {
            assert!(valid_name(&n), "{n}");
            assert!(!u.is_empty(), "{n} has no unit");
            n
        })
        .collect();
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate metric names");
}
