//! Thread-scaling curves for the parallel sweep engine on the §4.6
//! design space — the measurement that proves (or disproves) a real
//! multi-core win, point by point on the sweep the paper's whole value
//! proposition rests on.
//!
//! For each thread count in the curve the binary sweeps the same
//! point set over one shared synthetic trace (the `sec46_design_space`
//! shape: one lowering via the sharded sampler cache, per-worker
//! engines that walk the trace once and reuse results across RUU/LSQ
//! sizes, each worker sweeping its own slice of the grid and stealing
//! half of another's when it runs dry; every timed rep starts from
//! fresh engines), records wall-clock, speedup vs the 1-thread run,
//! and parallel efficiency (`speedup / threads`), and asserts the
//! swept results are **byte-identical** across every thread count.
//!
//! Two tiers share the binary:
//!
//! * **quick** (default; `run_all.sh` and the CI smoke stage run it
//!   with `SSIM_THREADS=2`): the 296-point quick grid over
//!   `threads={1,2,4}`, gating `speedup(2) ≥ 1.5` whenever the host
//!   has ≥ 2 cores;
//! * **deep** (`SSIM_DEEP=1`, via `./ci.sh deep` / `run_all.sh
//!   --deep`): the full 999-point grid over `threads={1,4,8,16}`,
//!   gating parallel efficiency at `threads=4` against 0.6 whenever
//!   the host has ≥ 4 cores.
//!
//! Efficiency gates are *enforced* only when `available_parallelism`
//! covers the gated thread count — a 1-core container cannot exhibit a
//! multi-core speedup, and silently "passing" there would be a lie —
//! but the curve is always measured and recorded, so the artifact
//! shows exactly what the host could and could not demonstrate. Each
//! thread count's wall-clock is the best of `REPS` passes, and the
//! passes are interleaved across thread counts (1, 2, 4, 1, 2, 4), so
//! host drift spreads over every count instead of landing on one.
//!
//! Writes `results/BENCH_scaling.json`.

use ssim::prelude::*;
use ssim_bench::{
    available_parallelism, banner, par_map_with, profiled, sec46_grid, workloads, Budget,
};
use std::hash::Hasher;
use std::time::Instant;

/// Timed passes per thread count; the best one is recorded.
const REPS: usize = 2;
/// Deep-tier floor on parallel efficiency at 4 threads.
const MIN_EFFICIENCY4: f64 = 0.6;
/// Quick-tier floor on the 2-thread speedup.
const MIN_SPEEDUP2: f64 = 1.5;

struct CurvePoint {
    threads: usize,
    wall_s: f64,
    speedup: f64,
    efficiency: f64,
    digest: u64,
}

fn main() {
    let deep = std::env::var("SSIM_DEEP").is_ok_and(|v| v != "0");
    banner(
        "Scaling",
        if deep {
            "deep tier: full §4.6 sweep across thread counts"
        } else {
            "quick tier: §4.6 sweep thread-scaling smoke"
        },
    );
    let budget = Budget::from_env();
    let avail = available_parallelism();

    // Deep runs the full grid regardless of SSIM_QUICK; quick runs the
    // pruned grid so the CI smoke stage stays fast.
    let points = sec46_grid(!deep);
    // The 1-thread run is the speedup baseline; it always leads.
    let thread_list: &[usize] = if deep { &[1, 4, 8, 16] } else { &[1, 2, 4] };

    // The sec46 sweep shape: one profile, one shared synthetic trace,
    // many machine points. gcc is the reference workload (largest SFG).
    let suite = workloads();
    let workload = suite
        .iter()
        .find(|w| w.name() == "gcc")
        .or_else(|| suite.first())
        .expect("at least one workload");
    let profile = profiled(&MachineConfig::baseline(), workload, &budget);
    let r = (profile.instructions() / 40_000).max(1);
    let sampler = ssim_bench::sampler_cached(&profile, r);

    // One pass at `threads`: every point's (cycles, instructions, IPC
    // bits) and the wall-clock. Every pass starts cold. With one thread
    // `par_map` runs on this thread, whose engine would otherwise still
    // hold the previous pass's results and answer the whole sweep from
    // them (wider runs get fresh worker threads anyway).
    let sweep = |threads: usize| -> (Vec<(u64, u64, u64)>, f64) {
        ssim_bench::with_engine(|e| *e = SimEngine::new());
        let t0 = Instant::now();
        let res = par_map_with(threads, &points, |cfg| {
            let sim = ssim_bench::with_engine(|e| e.simulate_fused(&sampler, 1, cfg));
            (sim.cycles, sim.instructions, sim.ipc().to_bits())
        });
        (res, t0.elapsed().as_secs_f64())
    };
    // Digest the full result set so "byte-identical across thread
    // counts" is checked on everything a sweep consumer could read, not
    // just a summary statistic.
    let digest_of = |res: &[(u64, u64, u64)]| {
        let mut h = ssim::core::FxHasher::default();
        for &(c, i, ipc) in res {
            h.write_u64(c);
            h.write_u64(i);
            h.write_u64(ipc);
        }
        h.finish()
    };

    // Warm pass (untimed): page in the trace and code paths.
    let (baseline_res, _) = sweep(1);
    let digest = digest_of(&baseline_res);
    println!(
        "{} design points, workload {}, R = {r}, trace {} instrs, \
         threads {thread_list:?} (host parallelism {avail}), best of {REPS}",
        points.len(),
        workload.name(),
        baseline_res[0].1, // every point commits the whole trace
    );

    // Timed passes, interleaved across thread counts; each count keeps
    // its best.
    let mut best = vec![f64::INFINITY; thread_list.len()];
    for _ in 0..REPS {
        for (wall_s, &t) in best.iter_mut().zip(thread_list) {
            let (res, wall) = sweep(t);
            assert_eq!(
                digest_of(&res),
                digest,
                "threads={t} changed sweep results — the parallel engine must be deterministic"
            );
            *wall_s = wall_s.min(wall);
        }
    }
    let wall_1t = best[0];
    let mut curve: Vec<CurvePoint> = Vec::new();
    for (&wall_s, &t) in best.iter().zip(thread_list) {
        let speedup = wall_1t / wall_s.max(1e-12);
        let efficiency = speedup / t as f64;
        println!(
            "threads={t:<3} wall {wall_s:>8.3}s  speedup {speedup:>5.2}x  \
             efficiency {efficiency:>5.2}  digest {digest:016x}"
        );
        curve.push(CurvePoint {
            threads: t,
            wall_s,
            speedup,
            efficiency,
            digest,
        });
    }
    println!("results byte-identical across all thread counts");

    // --- gates ------------------------------------------------------
    // Enforced only where the host can physically show the win; the
    // JSON always records what was measured and whether it was gated.
    let eff4 = curve.iter().find(|c| c.threads == 4).map(|c| c.efficiency);
    let eff4_enforced = deep && avail >= 4 && eff4.is_some();
    if eff4_enforced {
        let eff = eff4.unwrap();
        assert!(
            eff >= MIN_EFFICIENCY4,
            "parallel efficiency at threads=4 is {eff:.2}, below the {MIN_EFFICIENCY4:.2} floor — \
             the sweep is serialising somewhere (cursor, cache lock, or allocator)"
        );
        println!("gate: efficiency(4) = {eff:.2} >= {MIN_EFFICIENCY4:.2} OK");
    } else if let Some(eff) = eff4 {
        println!(
            "gate: efficiency(4) = {eff:.2} recorded, not enforced \
             ({} host cores, deep={deep})",
            avail
        );
    }
    let sp2 = curve.iter().find(|c| c.threads == 2).map(|c| c.speedup);
    let sp2_enforced = !deep && avail >= 2 && sp2.is_some();
    if sp2_enforced {
        let sp = sp2.unwrap();
        assert!(
            sp >= MIN_SPEEDUP2,
            "quick sweep speedup at threads=2 is {sp:.2}x, below the {MIN_SPEEDUP2:.2}x floor"
        );
        println!("gate: speedup(2) = {sp:.2}x >= {MIN_SPEEDUP2:.2}x OK");
    } else if let Some(sp) = sp2 {
        println!(
            "gate: speedup(2) = {sp:.2}x recorded, not enforced \
             ({avail} host cores, deep={deep})"
        );
    }

    // --- artifact ----------------------------------------------------
    let curve_json: Vec<String> = curve
        .iter()
        .map(|c| {
            format!(
                "{{\"threads\": {}, \"wall_s\": {:.4}, \"speedup\": {:.3}, \
                 \"efficiency\": {:.3}, \"digest\": \"{:016x}\"}}",
                c.threads, c.wall_s, c.speedup, c.efficiency, c.digest
            )
        })
        .collect();
    let json = format!(
        "{{\"{}\": {deep}, {}, \"points\": {}, \"workload\": \"{}\", \"r\": {r}, \
         \"reps\": {REPS}, \"identical\": true, \"curve\": [{}], \
         \"gates\": {{\"min_efficiency_threads4\": {MIN_EFFICIENCY4}, \"efficiency4_enforced\": {eff4_enforced}, \
         \"min_speedup_threads2\": {MIN_SPEEDUP2}, \"speedup2_enforced\": {sp2_enforced}}}}}",
        "deep",
        ssim_bench::host_header_json(),
        points.len(),
        workload.name(),
        curve_json.join(", "),
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_scaling.json", format!("{json}\n"))
        .expect("write BENCH_scaling.json");
    println!("wrote results/BENCH_scaling.json");
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
