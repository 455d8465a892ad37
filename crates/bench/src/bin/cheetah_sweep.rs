//! Substrate demo: cheetah-style single-pass multi-configuration cache
//! profiling (§2.1.2 of the paper).
//!
//! Statistical simulation must re-profile locality characteristics per
//! cache configuration; the paper points at single-pass
//! multi-configuration simulators (Sugumar & Abraham's cheetah) as the
//! practical answer. This binary sweeps the L1D associativity for every
//! workload's data stream in **one** functional pass each, printing the
//! full miss-rate curve the sweep extracts.

use ssim::cache::AssocSweep;
use ssim::func::Machine;
use ssim_bench::{banner, par_map, workloads, Budget};
use std::time::Instant;

fn main() {
    banner(
        "Substrate",
        "single-pass L1D associativity sweep (cheetah-style)",
    );
    let budget = Budget::from_env();
    let assocs = 8;

    print!("{:<10}", "workload");
    for a in 1..=assocs {
        print!(" {:>8}", format!("{a}-way"));
    }
    println!();

    // One functional pass per workload, all passes in parallel; rows
    // come back in workload order. Each pass's wall time goes to
    // stderr, so the exhibit depends only on its budget.
    let rows = par_map(&workloads(), |w| {
        let program = w.program();
        // 16KB L1D geometry from Table 2: 32B blocks; the set count of
        // the 4-way point (128 sets) is held fixed across the sweep.
        let mut sweep = AssocSweep::new(128, 32, assocs);
        let t0 = Instant::now();
        let mut machine = Machine::new(&program);
        for _ in 0..budget.skip {
            if machine.step().is_none() {
                break;
            }
        }
        let mut n = 0u64;
        for e in machine {
            if let Some(addr) = e.mem_addr {
                sweep.access(addr);
            }
            n += 1;
            if n >= budget.profile {
                break;
            }
        }
        let mut row = format!("{:<10}", w.name());
        for a in 1..=assocs {
            row.push_str(&format!(" {:>7.2}%", sweep.miss_rate(a) * 100.0));
        }
        (row, t0.elapsed().as_secs_f64())
    });
    for (w, (row, secs)) in workloads().iter().zip(rows) {
        println!("{row}");
        eprintln!("{:<10} pass {secs:.2} s", w.name());
    }
    println!();
    println!("one functional pass per workload yields every associativity's miss rate;");
    println!("the paper cites exactly this (cheetah) to amortise per-configuration profiling");
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
