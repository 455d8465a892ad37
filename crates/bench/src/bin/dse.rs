//! Surrogate-guided design-space exploration bench: the §4.6 grid on
//! the fused engine (exhaustive truth vs a 25% planner budget) plus the
//! synthetic million-point scaling phase. Acceptance gates — Pareto
//! frontier and per-stratum mean IPC within 2%, ≤ 5% simulated at
//! scale, byte-determinism on re-run — are asserted inside the
//! measurement (see `ssim_bench::dsebench`).
//!
//! Emits `results/BENCH_dse.json`.

use ssim_bench::{banner, measure_dse};

fn main() {
    banner("DSE planner", "surrogate-guided sweep vs exhaustive truth");
    let bench = measure_dse();
    println!("{}", bench.summary());
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_dse.json", bench.json() + "\n").expect("write BENCH_dse.json");
    println!("wrote results/BENCH_dse.json");
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
