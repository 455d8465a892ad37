//! Microbenchmark for the fused generate-and-simulate engine (§2.3
//! inner loop).
//!
//! Simulation is the other half of the per-design-point cost: every
//! sweep point feeds a synthetic instruction stream through the
//! out-of-order backend. This binary measures, on the reference
//! workload, end-to-end committed-instructions/sec for
//!
//! * the pre-fusion shape — `generate` (a fresh lowering per point)
//!   plus the frozen reference simulator,
//! * the optimised unfused path — one shared lowering, materialised
//!   traces, reused engine buffers, and
//! * the fused path — the walk writes packed words straight into the
//!   simulator's buffer, no trace ever materialised.
//!
//! The reference workload is **gcc**, matching `synth_speed` (the
//! largest SFG in the suite and the paper's hardest-to-model program).
//!
//! All three paths must produce bit-identical `SimResult`s and the
//! measurement asserts it, so the recorded speedup can never come from
//! divergence. `--quick` (or `SSIM_QUICK=1`) shrinks budgets for the
//! default `run_all.sh` pass; `SSIM_SIM_ITERS` overrides the per-phase
//! point count, `SSIM_SIM_WORKLOAD` picks a different workload by name.
//!
//! Writes `results/BENCH_sim.json`, which `perf_report` folds into
//! `results/BENCH_parallel.json` as the `"sim"` section. Unlike
//! `synth_speed`, observability recording stays at its environment
//! default: the timed loops are exactly the code sweeps run.

use ssim::prelude::*;
use ssim_bench::{banner, measure_sim_speed, profiled, workloads, Budget};

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("SSIM_QUICK", "1");
    }
    banner(
        "Sim speed",
        "fused generate-and-simulate vs generate-then-simulate",
    );

    let budget = Budget::from_env();
    let base = MachineConfig::baseline();
    let suite = workloads();
    let wanted = std::env::var("SSIM_SIM_WORKLOAD").unwrap_or_else(|_| "gcc".into());
    let workload = suite
        .iter()
        .find(|w| w.name() == wanted)
        .or_else(|| suite.first())
        .expect("at least one workload");
    let iters: u32 = std::env::var("SSIM_SIM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if ssim_bench::quick() { 6 } else { 16 });

    println!(
        "workload: {} ({} profiled instrs), R = {}, {iters} design points per phase",
        workload.name(),
        budget.profile,
        ssim_bench::DEFAULT_R
    );
    let profile = profiled(&base, workload, &budget);
    println!(
        "profile: {} SFG nodes, {} contexts",
        profile.sfg().node_count(),
        profile.context_count()
    );

    let speed = measure_sim_speed(&profile, &base, ssim_bench::DEFAULT_R, iters);
    println!("{}", speed.summary());
    println!("sim json: {}", speed.json());

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_sim.json", format!("{}\n", speed.json()))
        .expect("write BENCH_sim.json");
    println!("wrote results/BENCH_sim.json");

    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
