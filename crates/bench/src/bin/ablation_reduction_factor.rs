//! Ablation: the synthetic trace reduction factor R.
//!
//! The paper quotes typical R between 1,000 and 100,000 for its
//! 100M–10B instruction streams (§2.2) — i.e. traces of 100K–1M
//! instructions. This ablation sweeps R on our (shorter) streams and
//! reports accuracy and cost per estimate, exposing the
//! speed/stability trade-off directly.

use ssim::prelude::*;
use ssim_bench::{banner, eds, par_map, profiled, workloads, Budget};
use std::time::Instant;

fn main() {
    banner("Ablation", "reduction factor R: accuracy vs cost");
    let budget = Budget::from_env();
    let machine = MachineConfig::baseline();
    let rs: &[u64] = &[5, 15, 50, 150, 500];

    print!("{:<10} {:>9}", "workload", "EDS-IPC");
    for r in rs {
        print!(" {:>9}", format!("R={r}"));
    }
    println!();

    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); rs.len()];
    let mut lens: Vec<u64> = vec![0; rs.len()];
    let mut times: Vec<f64> = vec![0.0; rs.len()];
    // Workloads are independent rows: each produces its reference IPC
    // plus one (error, trace length, sim seconds) triple per R.
    let suite = workloads();
    let rows = par_map(&suite, |w| {
        let reference = eds(&machine, w, &budget);
        let p = profiled(&machine, w, &budget);
        let per_r: Vec<(f64, u64, f64)> = rs
            .iter()
            .map(|&r| {
                let trace = p.generate(r, 1);
                let t0 = Instant::now();
                let predicted = simulate_trace(&trace, &machine);
                let secs = t0.elapsed().as_secs_f64();
                let e = if trace.is_empty() {
                    1.0
                } else {
                    absolute_error(predicted.ipc(), reference.ipc())
                };
                (e, trace.len() as u64, secs)
            })
            .collect();
        (reference.ipc(), per_r)
    });
    for (w, (reference_ipc, per_r)) in suite.iter().zip(&rows) {
        print!("{:<10} {:>9.3}", w.name(), reference_ipc);
        for (i, &(e, len, secs)) in per_r.iter().enumerate() {
            times[i] += secs;
            lens[i] += len;
            errs[i].push(e);
            print!(" {:>8.1}%", e * 100.0);
        }
        println!();
    }
    let n = workloads().len() as u64;
    print!("{:<10} {:>9}", "mean err", "");
    for e in &errs {
        print!(" {:>8.1}%", ssim_bench::mean(e) * 100.0);
    }
    println!();
    print!("{:<10} {:>9}", "avg trace", "");
    for l in &lens {
        print!(" {:>9}", l / n.max(1));
    }
    println!();
    // Wall time goes to stderr, so the exhibit depends only on its
    // budgets; the `avg trace` row above is the cost in instructions.
    eprint!("{:<10} {:>9}", "avg sim s", "");
    for t in &times {
        eprint!(" {:>9.3}", t / n.max(1) as f64);
    }
    eprintln!();
    println!();
    println!("paper: R is typically 1,000 to 100,000 for 100M-10B instruction streams (§2.2)");
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
