//! Table 4: relative accuracy of statistical simulation as a function
//! of window size, processor width, IFQ size, branch predictor size
//! and cache size.
//!
//! For every pair of adjacent design points `A → B` and every metric
//! `M`, the relative error `RE = |M_B,SS/M_A,SS − M_B,EDS/M_A,EDS| /
//! (M_B,EDS/M_A,EDS)` is averaged over the workloads. The paper finds
//! these errors generally below 3%: statistical simulation predicts
//! *trends* even better than absolute values.

use ssim::prelude::*;
use ssim::uarch::Unit;
use ssim::workloads::Workload;
use ssim_bench::{banner, par_map, profile_cached, with_engine, workloads, Budget, DEFAULT_R};

/// All metrics we can extract from one run.
const METRICS: &[&str] = &[
    "IPC",
    "EPC",
    "RUU occupancy",
    "LSQ occupancy",
    "IFQ occupancy",
    "RUU power",
    "LSQ power",
    "fetch power",
    "dispatch power",
    "issue power",
    "bpred power",
    "I-cache power",
    "D-cache power",
    "L2 power",
    "exec bandwidth",
];

fn metrics(r: &SimResult, cfg: &MachineConfig) -> Vec<f64> {
    let b = PowerModel::new(cfg).evaluate(&r.activity);
    vec![
        r.ipc(),
        b.epc(),
        r.ruu_occupancy.max(1e-9),
        r.lsq_occupancy.max(1e-9),
        r.ifq_occupancy.max(1e-9),
        b.unit(Unit::Ruu),
        b.unit(Unit::Lsq),
        b.fetch_unit(),
        b.unit(Unit::Dispatch),
        b.unit(Unit::Issue),
        b.unit(Unit::Bpred),
        b.unit(Unit::ICache),
        b.unit(Unit::DCache),
        b.unit(Unit::L2),
        r.activity.unit(Unit::Issue).accesses as f64 / r.activity.cycles().max(1) as f64,
    ]
}

/// One sweep axis: labelled design points plus the metric subset the
/// paper reports for it.
struct Axis {
    title: &'static str,
    points: Vec<(String, MachineConfig)>,
    /// Indices into METRICS.
    report: Vec<usize>,
    /// Re-profile per point (locality structures differ between
    /// points)?
    reprofile: bool,
}

fn axes(quick: bool) -> Vec<Axis> {
    let base = MachineConfig::baseline();
    let mut axes = Vec::new();

    let windows: &[usize] = if quick {
        &[16, 64, 128]
    } else {
        &[8, 16, 32, 48, 64, 96, 128]
    };
    axes.push(Axis {
        title: "window size (RUU; LSQ = RUU/2)",
        points: windows
            .iter()
            .map(|&r| (format!("{r}"), base.clone().with_window(r)))
            .collect(),
        report: vec![0, 2, 3, 1, 5, 6],
        reprofile: false,
    });

    let widths: &[usize] = if quick { &[2, 8] } else { &[2, 4, 6, 8] };
    axes.push(Axis {
        title: "processor width (decode = issue = commit)",
        points: widths
            .iter()
            .map(|&w| (format!("{w}"), base.clone().with_width(w)))
            .collect(),
        report: vec![0, 14, 1, 7, 8, 9],
        reprofile: false,
    });

    let ifqs: &[usize] = if quick { &[8, 32] } else { &[4, 8, 16, 32] };
    axes.push(Axis {
        title: "instruction fetch queue size",
        // The delayed-update FIFO is sized like the IFQ, so the branch
        // characteristics must be re-profiled per point.
        points: ifqs
            .iter()
            .map(|&q| (format!("{q}"), base.clone().with_ifq(q)))
            .collect(),
        report: vec![0, 1, 4],
        reprofile: true,
    });

    let bp: &[f64] = if quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };
    axes.push(Axis {
        title: "branch predictor size",
        points: bp
            .iter()
            .map(|&f| {
                let mut c = base.clone();
                c.bpred = c.bpred.scaled(f);
                (format!("base x{f}"), c)
            })
            .collect(),
        report: vec![0, 1, 2, 5, 3, 6, 4, 7, 10],
        reprofile: true,
    });

    let cs: &[f64] = if quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };
    axes.push(Axis {
        title: "cache configuration size",
        points: cs
            .iter()
            .map(|&f| {
                let mut c = base.clone();
                c.hierarchy = c.hierarchy.scaled(f);
                (format!("base x{f}"), c)
            })
            .collect(),
        report: vec![0, 1, 2, 5, 3, 6, 4, 7, 11, 12, 13],
        reprofile: true,
    });
    axes
}

fn run_axis(axis: &Axis, suite: &[&Workload], budget: &Budget) {
    println!();
    println!("--- sensitivity to {} ---", axis.title);
    // pair_errors[metric][transition] -> per-workload REs
    let n_points = axis.points.len();
    let mut res: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n_points - 1]; METRICS.len()];

    // One profile + one compiled sampler per workload when the
    // locality structures are shared by all points.
    let shared_samplers: Vec<Option<_>> = suite
        .iter()
        .map(|w| {
            (!axis.reprofile).then(|| {
                let p = profile_cached(
                    w,
                    &ProfileConfig::new(&axis.points[0].1)
                        .skip(budget.skip)
                        .instructions(budget.profile),
                );
                ssim_bench::sampler_cached(&p, DEFAULT_R)
            })
        })
        .collect();

    // Every (workload, design point) pair is independent: EDS run plus
    // statistical run, fanned out across cores.
    let tasks: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|wi| (0..n_points).map(move |pi| (wi, pi)))
        .collect();
    let measured: Vec<(Vec<f64>, Vec<f64>)> = par_map(&tasks, |&(wi, pi)| {
        let w = suite[wi];
        let cfg = &axis.points[pi].1;
        let program = w.program();
        let mut sim = ExecSim::new(cfg, &program);
        sim.skip(budget.skip);
        let eds = sim.run(budget.eds);
        let ss = match &shared_samplers[wi] {
            Some(sampler) => with_engine(|e| e.simulate_fused(sampler, 1, cfg)),
            None => {
                let p = profile_cached(
                    w,
                    &ProfileConfig::new(cfg)
                        .skip(budget.skip)
                        .instructions(budget.profile),
                );
                with_engine(|e| e.simulate_fused(&p.compile(DEFAULT_R), 1, cfg))
            }
        };
        (metrics(&eds, cfg), metrics(&ss, cfg))
    });

    for per_workload in measured.chunks(n_points) {
        let (eds_m, ss_m): (Vec<_>, Vec<_>) = per_workload.iter().cloned().unzip();
        for m in 0..METRICS.len() {
            for t in 0..n_points - 1 {
                let re = relative_error(
                    MetricPair {
                        ss: ss_m[t][m],
                        eds: eds_m[t][m],
                    },
                    MetricPair {
                        ss: ss_m[t + 1][m],
                        eds: eds_m[t + 1][m],
                    },
                );
                res[m][t].push(re);
            }
        }
    }

    print!("{:<16}", "metric \\ step");
    for t in 0..n_points - 1 {
        print!(
            " {:>13}",
            format!("{}->{}", axis.points[t].0, axis.points[t + 1].0)
        );
    }
    println!();
    for &m in &axis.report {
        print!("{:<16}", METRICS[m]);
        for col in res[m].iter().take(n_points - 1) {
            print!(" {:>12.1}%", ssim_bench::mean(col) * 100.0);
        }
        println!();
    }
}

fn main() {
    banner(
        "Table 4",
        "relative accuracy across five architectural sweeps",
    );
    let budget = Budget::from_env();
    let suite = workloads();
    for axis in axes(ssim_bench::quick()) {
        run_axis(&axis, &suite, &budget);
    }
    println!();
    println!("paper: relative errors are generally below 3% on every axis");
    ssim_bench::obs_finish(env!("CARGO_BIN_NAME"));
}
