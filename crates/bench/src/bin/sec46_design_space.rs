//! §4.6: design-space exploration — statistical simulation sweeps the
//! paper's 1,792-point space (RUU × LSQ × decode × issue × commit),
//! picks the EDP-optimal design, and execution-driven simulation
//! verifies that the pick lands in the true optimum's neighbourhood.
//!
//! The paper finds the exact optimum for 7 of 10 benchmarks and designs
//! within 0.03–1.24% of optimal EDP for the remaining three.

use ssim::prelude::*;
use ssim_bench::{banner, par_map, profiled, quick, sec46_grid, workloads, Budget};

fn edp_of(r: &SimResult, cfg: &MachineConfig) -> f64 {
    PowerModel::new(cfg)
        .evaluate(&r.activity)
        .edp(r.ipc().max(1e-9))
}

fn main() {
    banner("Section 4.6", "EDP design-space exploration");
    let budget = Budget::from_env();
    let points = sec46_grid(quick());
    println!("design points: {}", points.len());

    // Keep synthetic traces short: thousands of simulations per
    // workload.
    let suite = workloads();
    let trace_target = 40_000u64;

    println!(
        "{:<10} {:>9} {:>26} {:>10} {:>12}",
        "workload", "explored", "SS-optimal (RUU/LSQ/D/I/C)", "verified", "EDP gap"
    );
    for w in &suite {
        let program = w.program();
        let p = profiled(&MachineConfig::baseline(), w, &budget);
        let r = (p.instructions() / trace_target).max(1);
        let sampler = ssim_bench::sampler_cached(&p, r);

        // Statistical sweep of the whole space, fanned out across
        // cores; par_map preserves point order, so the sort below sees
        // the same tie-break order as the serial sweep did. Each worker
        // thread's engine walks once and reuses the trace across its
        // points.
        let mut evaluated: Vec<(f64, usize)> = par_map(&points, |cfg| {
            let res = ssim_bench::with_engine(|e| e.simulate_fused(&sampler, 1, cfg));
            edp_of(&res, cfg)
        })
        .into_iter()
        .enumerate()
        .map(|(i, edp)| (edp, i))
        .collect();
        evaluated.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("EDP is finite"));
        let best_edp = evaluated[0].0;

        // Verify with EDS: the SS optimum plus every design within 3% of
        // it (capped to keep runtime sane), per the paper's protocol.
        let near: Vec<usize> = evaluated
            .iter()
            .take_while(|(edp, _)| *edp <= best_edp * 1.03)
            .map(|&(_, i)| i)
            .take(5)
            .collect();
        let mut verified: Vec<(f64, usize)> = par_map(&near, |&i| {
            let cfg = &points[i];
            let mut sim = ExecSim::new(cfg, &program);
            sim.skip(budget.skip);
            let res = sim.run(budget.eds.min(800_000));
            (edp_of(&res, cfg), i)
        });
        verified.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("EDP is finite"));

        let chosen = evaluated[0].1;
        let true_best = verified[0];
        let chosen_eds_edp = verified
            .iter()
            .find(|(_, i)| *i == chosen)
            .map(|(e, _)| *e)
            .expect("chosen point was verified");
        let gap = (chosen_eds_edp - true_best.0) / true_best.0;
        let c = &points[chosen];
        println!(
            "{:<10} {:>9} {:>26} {:>10} {:>11.2}%",
            w.name(),
            points.len(),
            format!(
                "{}/{}/{}/{}/{}",
                c.ruu_size, c.lsq_size, c.decode_width, c.issue_width, c.commit_width
            ),
            near.len(),
            gap * 100.0
        );
    }
    println!();
    println!("'EDP gap' = EDS-measured EDP of the SS-chosen design vs the best verified");
    println!("design. paper: exact optimum for 7/10 benchmarks, <=1.24% EDP gap otherwise");
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
