//! Ablation: the dependency-distance cap.
//!
//! The paper caps the recorded dependency-distance distribution at 512,
//! noting that the cap bounds how many in-flight instructions the
//! synthetic trace can model (§2.1.1). A cap below the RUU size (128)
//! discards dependencies the window can still see, making the
//! synthetic machine look too parallel; beyond the window the cap is
//! harmless.

use ssim::prelude::*;
use ssim_bench::{banner, eds, par_map, profile_cached, workloads, Budget, DEFAULT_R};

fn main() {
    banner(
        "Ablation",
        "dependency-distance cap vs IPC accuracy (RUU = 128)",
    );
    let budget = Budget::from_env();
    let machine = MachineConfig::baseline();
    // Caps above MAX_DEP_DISTANCE (512) are clamped by the profiler —
    // the paper's distribution simply does not extend past 512 — so the
    // sweep tops out there instead of pretending a larger cap exists.
    let caps: &[u32] = &[8, 32, 128, 256, MAX_DEP_DISTANCE];

    print!("{:<10} {:>9}", "workload", "EDS-IPC");
    for c in caps {
        print!(" {:>9}", format!("cap{c}"));
    }
    println!();

    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); caps.len()];
    // Each (workload, cap) needs its own profiling pass — the cap is a
    // profiling-time filter — so fan the full cross product out.
    let suite = workloads();
    let references = par_map(&suite, |w| eds(&machine, w, &budget));
    let tasks: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|wi| (0..caps.len()).map(move |ci| (wi, ci)))
        .collect();
    let measured = par_map(&tasks, |&(wi, ci)| {
        let p = profile_cached(
            suite[wi],
            &ProfileConfig::new(&machine)
                .dep_cap(caps[ci])
                .skip(budget.skip)
                .instructions(budget.profile),
        );
        let predicted = simulate_trace(&p.generate(DEFAULT_R, 1), &machine);
        absolute_error(predicted.ipc(), references[wi].ipc())
    });
    for (wi, w) in suite.iter().enumerate() {
        print!("{:<10} {:>9.3}", w.name(), references[wi].ipc());
        for i in 0..caps.len() {
            let e = measured[wi * caps.len() + i];
            errs[i].push(e);
            print!(" {:>8.1}%", e * 100.0);
        }
        println!();
    }
    print!("{:<10} {:>9}", "mean", "");
    for e in &errs {
        print!(" {:>8.1}%", ssim_bench::mean(e) * 100.0);
    }
    println!();
    println!();
    println!(
        "paper: a cap of 512 \"allows the modeling of a wide range of microprocessors\" (§2.1.1)"
    );
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
