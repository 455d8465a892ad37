//! Performance report for the parallel experiment engine.
//!
//! Measures, on this machine, the two wins the engine claims:
//!
//! 1. **Thread scaling** — the same design-space sweep at one thread vs
//!    `SSIM_THREADS` threads (results are bit-identical either way).
//! 2. **Profile cache** — profiling the whole suite cold (empty cache)
//!    vs warm (every profile served from disk).
//! 3. **Compiled sampling engine** — the `synth_speed` measurement
//!    (walk subsystem and end-to-end generation, compiled tables vs
//!    the reference interpreter) on the reference workload, recorded
//!    as the `"synth"` section.
//!
//! It also folds in the artifacts left by the other bench binaries
//! (`BENCH_serve.json`, `BENCH_fleet.json`, `BENCH_sim.json`,
//! `BENCH_dse.json`, and the `scaling` bin's `BENCH_scaling.json`
//! thread-scaling curve), so `results/BENCH_parallel.json` carries the
//! whole perf story in one document.
//!
//! Emits `results/BENCH_parallel.json` alongside a human-readable
//! summary on stdout.

use ssim::prelude::*;
use ssim_bench::{
    banner, cache_stats, measure_synth_speed, num_threads, par_map_with, profiled, workloads,
    Budget,
};
use std::time::Instant;

fn main() {
    // Stage-level wall-clock comes from the observability timers, so
    // recording must be on regardless of SSIM_METRICS.
    ssim_bench::obs::force_enable();
    banner("Perf report", "parallel sweep + profile cache wall-clock");
    let budget = Budget::from_env();
    let base = MachineConfig::baseline();
    let threads = num_threads();

    // A private cache root makes the cold pass genuinely cold without
    // touching (or trusting) the shared results/.profile-cache.
    let cache_root = std::env::temp_dir().join(format!("ssim-perf-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", &cache_root);
    std::env::remove_var("SSIM_NO_PROFILE_CACHE");

    let suite = workloads();
    println!("threads: {threads}, workloads: {}", suite.len());

    // --- corpus assembly ---------------------------------------------
    // The `.asm` corpus ships as text and is assembled on every use, so
    // front-end cost is part of the pipeline's startup story. Recorded
    // in the report header to keep parser regressions visible.
    let t = Instant::now();
    let mut corpus_static = 0usize;
    for (name, src) in ssim::workloads::CORPUS_SOURCES {
        let p = ssim_asm::assemble(src)
            .unwrap_or_else(|d| panic!("corpus program `{name}` failed to assemble:\n{d}"));
        corpus_static += p.len();
    }
    let corpus_asm_s = t.elapsed().as_secs_f64();
    println!(
        "corpus assembly: {} programs, {corpus_static} static instrs in {:.1}ms",
        ssim::workloads::CORPUS_SOURCES.len(),
        corpus_asm_s * 1e3
    );

    // --- profile cache: cold vs warm ---------------------------------
    let (h0, m0) = cache_stats();
    let t = Instant::now();
    let profiles = par_map_with(threads, &suite, |w| profiled(&base, w, &budget));
    let profile_cold_s = t.elapsed().as_secs_f64();
    let (h1, m1) = cache_stats();

    let t = Instant::now();
    let warm = par_map_with(threads, &suite, |w| profiled(&base, w, &budget));
    let profile_warm_s = t.elapsed().as_secs_f64();
    let (h2, m2) = cache_stats();
    assert_eq!(warm.len(), profiles.len());

    let cold = (h1 - h0, m1 - m0);
    let warm_stats = (h2 - h1, m2 - m1);
    println!(
        "profiling: cold {profile_cold_s:.2}s ({} misses), warm {profile_warm_s:.2}s ({} hits) — {:.1}x",
        cold.1,
        warm_stats.0,
        profile_cold_s / profile_warm_s.max(1e-9)
    );

    // --- sweep: 1 thread vs SSIM_THREADS -----------------------------
    // The sec46 shape: one synthetic trace, many machine points. The
    // lowering goes through the sharded sampler cache like every sweep
    // bin, so this is the production path being measured.
    let trace = ssim_bench::sampler_cached(&profiles[0], ssim_bench::DEFAULT_R).generate(1);
    let points: Vec<MachineConfig> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&w| {
            [16usize, 32, 48, 64, 96, 128, 192, 256]
                .map(|win| base.clone().with_width(w).with_window(win))
        })
        .collect();

    // Each worker thread keeps one engine's working buffers across its
    // points (the same shape the sweep bins use).
    let t = Instant::now();
    let serial = par_map_with(1, &points, |cfg| {
        ssim_bench::with_engine(|e| e.simulate(&trace, cfg)).cycles
    });
    let sweep_serial_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let parallel = par_map_with(threads, &points, |cfg| {
        ssim_bench::with_engine(|e| e.simulate(&trace, cfg)).cycles
    });
    let sweep_parallel_s = t.elapsed().as_secs_f64();

    assert_eq!(serial, parallel, "thread count changed sweep results");
    let speedup = sweep_serial_s / sweep_parallel_s.max(1e-9);
    println!(
        "sweep ({} points): serial {sweep_serial_s:.2}s, {threads} threads {sweep_parallel_s:.2}s — {speedup:.1}x",
        points.len()
    );

    // --- compiled sampling engine ------------------------------------
    // Same measurement as the `synth_speed` binary, on the same
    // reference workload (gcc — the largest SFG in the suite; see that
    // binary's docs), so the speedup lands in the recorded trajectory.
    let synth_idx = suite.iter().position(|w| w.name() == "gcc").unwrap_or(0);
    let synth_iters: u32 = if ssim_bench::quick() { 6 } else { 16 };
    let synth = measure_synth_speed(&profiles[synth_idx], ssim_bench::DEFAULT_R, synth_iters);
    println!(
        "synth ({}): walk {:.1}x, end-to-end reuse {:.1}x",
        suite[synth_idx].name(),
        synth.walk_speedup(),
        synth.generate_speedup(),
    );

    // --- experiment service ------------------------------------------
    // `ssim-serve bench` (run_all.sh runs it right before this binary)
    // leaves its requests/sec, latency percentiles, and cold-vs-warm
    // sweep numbers in results/BENCH_serve.json; fold them in so one
    // file carries the whole perf story. The bench binary lives in
    // ssim-serve (which depends on this crate), so the hand-off is the
    // file, not a library call. Absent file → explicit null.
    let fold_section = |path: &str, hint: &str| {
        let section = std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .ok()
            .filter(|s| s.starts_with('{') && s.ends_with('}'))
            .unwrap_or_else(|| "null".to_string());
        if section == "null" {
            println!("{hint}: no {path} (run `{hint}` first)");
        } else {
            println!("{hint}: folded in {path}");
        }
        section
    };
    let serve_section = fold_section("results/BENCH_serve.json", "ssim-serve bench");
    // `ssim-serve fleet bench` records the multi-backend story: fleet
    // vs single-backend sweep time and what the chaos phase survived.
    let fleet_section = fold_section("results/BENCH_fleet.json", "ssim-serve fleet bench");
    // `sim_speed` records the fused generate-and-simulate engine:
    // per-point sweep throughput, fused vs unfused vs the frozen
    // pre-optimisation reference, bit-identity asserted.
    let sim_section = fold_section("results/BENCH_sim.json", "sim_speed");
    // `dse` records the surrogate-guided planner: budget fraction,
    // Pareto/stratum error vs the exhaustive truth, surrogate RMSE, and
    // the synthetic million-point scaling phase.
    let dse_section = fold_section("results/BENCH_dse.json", "dse");
    // `scaling` records the thread-scaling curve over the §4.6 sweep:
    // wall-clock / speedup / parallel efficiency per thread count, with
    // byte-identity asserted and the efficiency gates' enforcement
    // status (deep tier gates eff(4) >= 0.6 on hosts with >= 4 cores).
    let scaling_section = fold_section("results/BENCH_scaling.json", "scaling");
    // `loadgen` records the gateway load story: concurrent connections
    // sustained, open-loop arrival rate, ack accounting (zero lost or
    // duplicated), and latency percentiles under chaos backends.
    let load_section = fold_section("results/BENCH_load.json", "loadgen");

    // --- report ------------------------------------------------------
    // Per-stage CPU time from the observability timers: these sum the
    // time spent *inside* each pipeline stage across all worker
    // threads, complementing the wall-clock numbers above.
    let snap = ssim_bench::obs::snapshot();
    let stage = |name: &str| snap.timer_total_s(name).unwrap_or(0.0);
    // Instructions-per-second per stage pairs each timer with its
    // instruction counter, so throughput regressions show up even when
    // wall time moves with budget changes.
    let ips = |instrs: &str, timer: &str| {
        snap.counter(instrs).unwrap_or(0) as f64 / stage(timer).max(1e-12)
    };
    let profiler_ips = ips("profiler.instructions", "profiler.time");
    let synth_ips = ips("synth.instrs_emitted", "synth.time");
    let tracesim_ips = ips("tracesim.instructions", "tracesim.time");
    let stages = format!(
        "{{\"profiler_s\": {:.4}, \"synth_s\": {:.4}, \"tracesim_s\": {:.4}, \
         \"profiler_instrs_per_s\": {:.0}, \"synth_instrs_per_s\": {:.0}, \
         \"tracesim_instrs_per_s\": {:.0}}}",
        stage("profiler.time"),
        stage("synth.time"),
        stage("tracesim.time"),
        profiler_ips,
        synth_ips,
        tracesim_ips,
    );
    println!(
        "stage CPU time: profile {:.2}s ({:.1}M instrs/s), generate {:.2}s ({:.1}M instrs/s), \
         simulate {:.2}s ({:.1}M instrs/s) (summed over threads)",
        stage("profiler.time"),
        profiler_ips / 1e6,
        stage("synth.time"),
        synth_ips / 1e6,
        stage("tracesim.time"),
        tracesim_ips / 1e6,
    );

    let names: Vec<String> = suite.iter().map(|w| format!("\"{}\"", w.name())).collect();
    let avail = ssim_bench::available_parallelism();
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"available_parallelism\": {avail},\n  \
         \"workloads\": [{}],\n  \
         \"corpus_asm\": {{\"programs\": {}, \"static_instructions\": {corpus_static}, \
         \"assemble_s\": {corpus_asm_s:.6}}},\n  \
         \"profile_cold_s\": {profile_cold_s:.4},\n  \
         \"profile_warm_s\": {profile_warm_s:.4},\n  \
         \"cache_cold\": {{\"hits\": {}, \"misses\": {}}},\n  \
         \"cache_warm\": {{\"hits\": {}, \"misses\": {}}},\n  \
         \"sweep_points\": {},\n  \
         \"sweep_serial_s\": {sweep_serial_s:.4},\n  \
         \"sweep_parallel_s\": {sweep_parallel_s:.4},\n  \
         \"sweep_speedup\": {speedup:.2},\n  \
         \"synth\": {},\n  \
         \"sim\": {sim_section},\n  \
         \"dse\": {dse_section},\n  \
         \"serve\": {serve_section},\n  \
         \"fleet\": {fleet_section},\n  \
         \"scaling\": {scaling_section},\n  \
         \"load\": {load_section},\n  \
         \"stages\": {stages}\n}}\n",
        names.join(", "),
        ssim::workloads::CORPUS_SOURCES.len(),
        cold.0,
        cold.1,
        warm_stats.0,
        warm_stats.1,
        points.len(),
        synth.json(),
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote results/BENCH_parallel.json");

    let _ = std::fs::remove_dir_all(&cache_root);
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
