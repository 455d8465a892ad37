//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload sweep|study|serve|all --seed N --seconds S --trace 0|1
//! perfbench --pin        # print the pinned output digests as Rust source
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output against pinned digests or direct library calls,
//! prints a report, and ends with one JSON result line: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics. Run state (the
//! profile cache, result records and span files) lives under
//! `.perfbench/` in the working directory. See `NOTES.md` beside this
//! package for what each workload stresses and why.

mod calib;
mod layers;
mod pinned;
mod report;
mod serve;
mod stats;
mod study;
mod sweep;
mod trace;

use report::{Host, Metric, Outcome};
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics every workload reports, in result-line order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, in result-line
/// order.
pub const PER_LAYER: [&str; 41] = [
    "func.minstr_per_s",
    "profiler.s",
    "profiler.minstr_per_s",
    "profiler.sfg_nodes",
    "profiler.contexts",
    "profile_cache.load_ms",
    "sampler.lower_ms",
    "sampler.nodes",
    "sampler.edges",
    "sampler.walk_msteps_per_s",
    "sampler.restarts",
    "sampler.generate_minstr_per_s",
    "tracesim.fused_us_per_kinstr",
    "tracesim.unfused_us_per_kinstr",
    "tracesim.ns_per_sim_cycle",
    "tracesim.us_per_point.ruu8",
    "tracesim.us_per_point.ruu128",
    "tracesim.dispatch_per_commit",
    "eds.minstr_per_s",
    "eds.skip_minstr_per_s",
    "par.speedup",
    "proto.parse_us",
    "proto.render_us",
    "server.hit_p50_ms",
    "server.miss_p50_ms",
    "server.queue_depth_max",
    "server.rejected",
    "server.result_hit_ratio",
    "gateway.hop_p50_ms",
    "gateway.hop_p99_ms",
    "gateway.retries",
    "loadgen.late_p99_ms",
    "trace.overhead_pct",
    "trace.unattributed_pct",
    "self_pct.func",
    "self_pct.profiler",
    "self_pct.sampler",
    "self_pct.tracesim",
    "self_pct.eds",
    "self_pct.par",
    "self_pct.proto",
];

/// Layers whose share of wall time the traced run reports as
/// `self_pct.<layer>`.
const SELF_LAYERS: [&str; 7] = [
    "func", "profiler", "sampler", "tracesim", "eds", "par", "proto",
];

pub const WORKLOADS: [&str; 3] = ["sweep", "study", "serve"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for fan-outs and the server pool: `nproc`.
    pub threads: usize,
}

/// Where run state lives: `.perfbench/` under the working directory.
pub fn state_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload sweep|study|serve|all --seed N --seconds S --trace 0|1\n       perfbench --pin"
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Ctx> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--pin") {
        return None;
    }
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: ssim_par::num_threads(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => ctx.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => ctx.trace = value == "1",
            _ => usage(),
        }
    }
    if !(WORKLOADS.contains(&ctx.workload.as_str()) || ctx.workload == "all") {
        usage();
    }
    Some(ctx)
}

fn main() {
    // The profile cache lives with the rest of the run state; set before
    // any thread starts.
    let dir = state_dir();
    if std::fs::create_dir_all(dir.join("results")).is_err() {
        eprintln!("perfbench: cannot create {}", dir.display());
        std::process::exit(1);
    }
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", dir.join("profile-cache"));
    let Some(ctx) = parse_args() else {
        pinned::print_tables();
        return;
    };
    if ctx.workload == "all" {
        std::process::exit(run_all(&ctx));
    }
    let host = Host::probe(ctx.threads, ctx.seed);
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("host {}", host.json());
    let t0 = Instant::now();
    let mut out = match ctx.workload.as_str() {
        "sweep" => sweep::run(&ctx),
        "study" => study::run(&ctx),
        _ => serve::run(&ctx),
    };
    out.e2e("peak_rss_mb", report::peak_rss_mb(), "MiB");
    if ctx.trace {
        account_spans(&ctx, &mut out);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.detail("failed_frac", failed_frac, "ratio");
    out.detail("run_s", t0.elapsed().as_secs_f64(), "s");
    let metrics = if ctx.trace {
        let wanted = PER_LAYER.iter().map(|n| (*n, None));
        select(&out.layers.clone(), wanted, &mut out)
    } else {
        let wanted = END_TO_END.iter().map(|(n, u)| (*n, Some(*u)));
        select(&out.e2e.clone(), wanted, &mut out)
    };
    let correct = out.failed == 0 && out.attempted > 0;
    for l in &out.lines {
        println!("{l}");
    }
    report::print_table("workload metrics:", &out.detail);
    report::print_table("end-to-end metrics:", &out.e2e);
    report::print_table("per-layer metrics:", &out.layers);
    let line = report::result_line(correct, out.attempted, out.failed, &metrics);
    let record = format!(
        "{{\"workload\": {}, \"trace\": {}, \"host\": {}, \"detail\": {}, \"result\": {line}}}\n",
        report::json_str(&ctx.workload),
        ctx.trace,
        host.json(),
        report::metrics_json(&out.detail)
    );
    let path = state_dir().join("results").join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if std::fs::write(&path, record).is_ok() {
        println!("record: {}", path.display());
    }
    println!("{line}");
}

/// Picks `wanted` out of `have`, in order. A missing metric, or one with
/// another unit, is a failed check and reads as zero.
fn select(
    have: &[Metric],
    wanted: impl Iterator<Item = (&'static str, Option<&'static str>)>,
    out: &mut Outcome,
) -> Vec<Metric> {
    wanted
        .map(|(name, unit)| {
            let found = have
                .iter()
                .find(|m| m.name == name && unit.is_none_or(|u| u == m.unit));
            out.check(found.is_some(), || {
                format!("metric {name} was not measured")
            });
            found.cloned().unwrap_or_else(|| Metric {
                name: name.to_string(),
                value: 0.0,
                unit: unit.unwrap_or("count"),
            })
        })
        .collect()
}

/// Turns the recorded spans into self times, wall shares and the
/// unattributed remainder of the workload's timed passes, and writes the
/// spans out.
fn account_spans(ctx: &Ctx, out: &mut Outcome) {
    let spans = trace::spans();
    let root = match ctx.workload.as_str() {
        "sweep" => "sweep.pass",
        "study" => "study.pass",
        _ => "serve.load",
    };
    let acc = trace::account(&spans, root);
    let wall = acc.wall_ns as f64;
    let harness = acc.unattributed_ns(&format!("{}.", ctx.workload));
    out.line(format!(
        "self time of traced '{root}' spans ({} ms wall):",
        wall / 1e6
    ));
    out.line(format!(
        "  {:<28} {:>8} {:>12} {:>12} {:>8} {:>14}",
        "span", "calls", "self_ms", "wall_ms", "wall%", "work"
    ));
    for (name, t) in &acc.by_name {
        out.line(format!(
            "  {:<28} {:>8} {:>12.3} {:>12.3} {:>7.2}% {:>14}",
            name,
            t.calls,
            t.self_ns as f64 / 1e6,
            t.wall_ns / 1e6,
            100.0 * t.wall_ns / wall.max(1.0),
            t.work
        ));
    }
    out.line(format!(
        "  unattributed (harness) {:.3} ms = {:.2}% of wall",
        harness / 1e6,
        100.0 * harness / wall.max(1.0)
    ));
    out.layer(
        "trace.unattributed_pct",
        100.0 * harness / wall.max(1.0),
        "%",
    );
    for layer in SELF_LAYERS {
        let share: f64 = acc
            .by_name
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, t)| t.wall_ns)
            .sum();
        out.layer(
            &format!("self_pct.{layer}"),
            100.0 * share / wall.max(1.0),
            "%",
        );
    }
    let path = state_dir()
        .join("results")
        .join(format!("{}-seed{}-spans.json", ctx.workload, ctx.seed));
    if std::fs::write(&path, trace::render(&spans)).is_ok() {
        out.line(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        ));
    }
}

/// The end-to-end metrics named per workload in the notes; `--workload
/// all` prints each one a workload reports.
const NAMED_E2E: [&str; 10] = [
    "setup_s",
    "points_per_s",
    "study_s",
    "ipc_err_pct",
    "epc_err_pct",
    "lat_p50_ms",
    "lat_p99_ms",
    "rps_at_slo",
    "failed_frac",
    "peak_rss_mb",
];

/// Runs every workload as its own process (so each has its own peak
/// memory) and prints the named end-to-end metrics of all three.
fn run_all(ctx: &Ctx) -> i32 {
    use ssim_serve::json::Json;
    let Ok(exe) = std::env::current_exe() else {
        return 1;
    };
    let mut summary = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string(), "--trace", "0"])
            .status();
        let path = state_dir()
            .join("results")
            .join(format!("{w}-seed{}-trace0.json", ctx.seed));
        let record = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        let (Ok(true), Some(record)) = (status.map(|s| s.success()), record) else {
            return 1;
        };
        let result = record.get("result");
        correct &= result
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool)
            == Some(true);
        let sources = [record.get("detail"), result.and_then(|r| r.get("metrics"))];
        for name in NAMED_E2E {
            if let Some(m) = sources.iter().flatten().find_map(|s| s.get(name)) {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                summary.push((format!("{w}.{name}"), value, unit));
            }
        }
    }
    println!("==== all workloads, seed {} ====", ctx.seed);
    for (name, value, unit) in &summary {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("correct {correct}");
    i32::from(!correct)
}
