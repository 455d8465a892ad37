//! Per-layer measurements shared by the workloads.
//!
//! Each traced run reports every per-layer metric. A workload measures
//! the layers it calls while it runs; for the layers it bypasses, these
//! probes make short calls into the layer's public functions on the
//! workload's own inputs (its programs and compiled samplers), after the
//! timed passes. The notes list which layers each workload runs itself.

use crate::report::Outcome;
use crate::stats::{median, quantile, rel_iqr};
use crate::trace;
use ssim::core::{CompiledSampler, FxHasher};
use ssim::func::Machine;
use ssim::isa::Program;
use ssim::prelude::*;
use ssim::uarch::Unit;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// Folds the fields of a [`SimResult`] that exist today into `h`.
/// Fields are hashed one by one (not through `Debug`) so that a later
/// change that only adds fields leaves every pinned digest valid.
pub fn hash_result(h: &mut FxHasher, r: &SimResult) {
    h.write_u64(r.instructions);
    h.write_u64(r.cycles);
    h.write_u64(r.ruu_occupancy.to_bits());
    h.write_u64(r.lsq_occupancy.to_bits());
    h.write_u64(r.ifq_occupancy.to_bits());
    let b = &r.branch;
    for v in [b.branches, b.taken, b.correct, b.redirects, b.mispredicts] {
        h.write_u64(v);
    }
    for unit in Unit::ALL {
        let a = r.activity.unit(unit);
        h.write_u64(a.accesses);
        h.write_u64(a.used_cycles);
    }
    h.write_u64(r.activity.cycles());
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Front-end work (functional execution, profiling, EDS) accumulated
/// over a run, and the metrics derived from it.
#[derive(Debug, Default, Clone)]
pub struct Frontend {
    pub func_s: f64,
    pub func_instr: u64,
    pub profile_s: f64,
    pub profile_instr: u64,
    pub profiles: u64,
    pub sfg_nodes: u64,
    pub contexts: u64,
    pub eds_skip_s: f64,
    pub eds_skip_instr: u64,
    pub eds_s: f64,
    pub eds_instr: u64,
    pub eds_l1d_miss_rate: Vec<f64>,
    pub eds_mpki: Vec<f64>,
}

impl Frontend {
    /// Functional-only execution of `n` instructions.
    pub fn func(&mut self, program: &Program, n: u64) {
        let t0 = Instant::now();
        trace::span_n("func.run_fuel", || Machine::new(program).run_fuel(n), |_| n);
        self.func_s += secs(t0);
        self.func_instr += n;
    }

    /// One statistical profile (cold: no cache).
    pub fn profile(&mut self, program: &Program, cfg: &ProfileConfig) -> StatisticalProfile {
        let t0 = Instant::now();
        let p = trace::span_n(
            "profiler.profile",
            || ssim::core::profile(program, cfg),
            StatisticalProfile::instructions,
        );
        self.profile_s += secs(t0);
        self.profile_instr += cfg.skip + p.instructions();
        self.profiles += 1;
        self.sfg_nodes += p.sfg().node_count() as u64;
        self.contexts += p.context_count() as u64;
        p
    }

    /// One execution-driven run: `skip` functional instructions, then
    /// `n` simulated ones.
    pub fn eds(
        &mut self,
        machine: &MachineConfig,
        program: &Program,
        skip: u64,
        n: u64,
    ) -> SimResult {
        let mut sim = ExecSim::new(machine, program);
        let t0 = Instant::now();
        trace::span_n(
            "eds.skip",
            || {
                sim.skip(skip);
            },
            |_| skip,
        );
        self.eds_skip_s += secs(t0);
        self.eds_skip_instr += skip;
        let t0 = Instant::now();
        let r = trace::span_n("eds.run", || sim.run(n), |r| r.instructions);
        self.eds_s += secs(t0);
        self.eds_instr += r.instructions;
        self.eds_l1d_miss_rate.push(r.cache.l1d_miss_rate);
        self.eds_mpki.push(r.mpki());
        r
    }

    pub fn merge(&mut self, o: &Frontend) {
        self.func_s += o.func_s;
        self.func_instr += o.func_instr;
        self.profile_s += o.profile_s;
        self.profile_instr += o.profile_instr;
        self.profiles += o.profiles;
        self.sfg_nodes += o.sfg_nodes;
        self.contexts += o.contexts;
        self.eds_skip_s += o.eds_skip_s;
        self.eds_skip_instr += o.eds_skip_instr;
        self.eds_s += o.eds_s;
        self.eds_instr += o.eds_instr;
        self.eds_l1d_miss_rate.extend(&o.eds_l1d_miss_rate);
        self.eds_mpki.extend(&o.eds_mpki);
    }

    /// Reports the front-end layer metrics. Totals (`profiler.s`, SFG
    /// nodes, contexts) are divided by `passes`: per study pass, or per
    /// probe call.
    pub fn report(&self, passes: f64, out: &mut Outcome) {
        let rate = |n: u64, s: f64| if s > 0.0 { n as f64 / s / 1e6 } else { 0.0 };
        out.layer(
            "func.minstr_per_s",
            rate(self.func_instr, self.func_s),
            "Minstr/s",
        );
        out.layer("profiler.s", self.profile_s / passes, "s");
        out.layer(
            "profiler.minstr_per_s",
            rate(self.profile_instr, self.profile_s),
            "Minstr/s",
        );
        let per = |n: u64| n as f64 / passes;
        out.layer("profiler.sfg_nodes", per(self.sfg_nodes), "count");
        out.layer("profiler.contexts", per(self.contexts), "count");
        out.layer(
            "eds.minstr_per_s",
            rate(self.eds_instr, self.eds_s),
            "Minstr/s",
        );
        out.layer(
            "eds.skip_minstr_per_s",
            rate(self.eds_skip_instr, self.eds_skip_s),
            "Minstr/s",
        );
        out.detail(
            "eds.l1d_miss_rate",
            crate::stats::mean(&self.eds_l1d_miss_rate),
            "ratio",
        );
        out.detail("eds.mpki", crate::stats::mean(&self.eds_mpki), "1/kinstr");
    }
}

/// Probe budget for the front-end layers of workloads that bypass them.
pub const PROBE_INSTR: u64 = 300_000;

/// Front-end probe: functional run, cold profile and EDS of `programs`
/// at a small budget.
pub fn frontend_probe(programs: &[(&str, Program)], out: &mut Outcome) {
    let machine = MachineConfig::baseline();
    let cfg = ProfileConfig::new(&machine)
        .skip(0)
        .instructions(PROBE_INSTR);
    let mut fe = Frontend::default();
    trace::span("probe.frontend", || {
        for (_, program) in programs {
            fe.func(program, PROBE_INSTR);
            fe.profile(program, &cfg);
            fe.eds(&machine, program, PROBE_INSTR / 2, PROBE_INSTR / 2);
        }
    });
    fe.report(programs.len() as f64, out);
}

/// Simulates `items` — (sampler index, seed, machine index) — through
/// `simulate_fused` under `par_map` at `threads`. Returns each point's
/// result and host seconds, in item order.
pub fn fused_fanout(
    samplers: &[Arc<CompiledSampler>],
    grid: &[MachineConfig],
    items: &[(usize, u64, usize)],
    threads: usize,
) -> Vec<(SimResult, f64)> {
    trace::span("par.par_map", || {
        let pm = trace::current();
        ssim_par::par_map_with(threads, items, |&(p, seed, g)| {
            trace::with_parent(pm, || {
                let t0 = Instant::now();
                let r = trace::span_n(
                    "tracesim.simulate_fused",
                    || ssim_bench::with_engine(|e| e.simulate_fused(&samplers[p], seed, &grid[g])),
                    |r| r.instructions,
                );
                (r, secs(t0))
            })
        })
    })
}

/// Sampler and trace-simulator probe over the workload's own compiled
/// samplers and seeds. Also settles fused versus unfused on these
/// points, and measures `par_map` speed-up.
pub fn tracesim_probe(
    samplers: &[Arc<CompiledSampler>],
    seeds: &[u64],
    threads: usize,
    out: &mut Outcome,
) {
    trace::span("probe.tracesim", || {
        tracesim_probe_inner(samplers, seeds, threads, out);
    });
}

const ROUNDS: usize = 5;

fn tracesim_probe_inner(
    samplers: &[Arc<CompiledSampler>],
    seeds: &[u64],
    threads: usize,
    out: &mut Outcome,
) {
    let nodes: usize = samplers.iter().map(|s| s.node_count()).sum();
    let edges: usize = samplers.iter().map(|s| s.edge_count()).sum();
    out.layer("sampler.nodes", nodes as f64, "count");
    out.layer("sampler.edges", edges as f64, "count");

    // Walk and generate: the sampler alone.
    let (mut walk_s, mut steps, mut restarts, mut walks) = (0.0, 0u64, 0u64, 0u64);
    let (mut gen_s, mut gen_instr) = (0.0, 0u64);
    for s in samplers {
        for &seed in seeds {
            let t0 = Instant::now();
            let w = trace::span_n("sampler.walk", || s.walk(seed), |w| w.steps);
            walk_s += secs(t0);
            steps += w.steps;
            restarts += w.restarts;
            walks += 1;
            let t0 = Instant::now();
            let t = trace::span_n("sampler.generate", || s.generate(seed), |t| t.len() as u64);
            gen_s += secs(t0);
            gen_instr += t.len() as u64;
        }
    }
    out.layer(
        "sampler.walk_msteps_per_s",
        steps as f64 / walk_s / 1e6,
        "Msteps/s",
    );
    out.layer(
        "sampler.restarts",
        restarts as f64 / walks.max(1) as f64,
        "count",
    );
    out.layer(
        "sampler.generate_minstr_per_s",
        gen_instr as f64 / gen_s / 1e6,
        "Minstr/s",
    );

    // Fused versus unfused on the same points and seeds: every 16th
    // point of the §4.6 grid, for each sampler and seed.
    let grid: Vec<MachineConfig> = ssim_bench::sec46_grid(true)
        .into_iter()
        .step_by(16)
        .collect();
    let mut fused_s = Vec::new();
    let mut per_point_s = Vec::new();
    let mut amortized_s = Vec::new();
    let (mut sim_only_s, mut instr, mut cycles, mut dispatch) = (0.0, 0u64, 0u64, 0u64);
    let mut fused_instr = 0u64;
    for round in 0..ROUNDS {
        let fused = || {
            let t0 = Instant::now();
            let mut results = Vec::new();
            for s in samplers {
                for &seed in seeds {
                    for m in &grid {
                        results.push(trace::span_n(
                            "tracesim.simulate_fused",
                            || ssim_bench::with_engine(|e| e.simulate_fused(s, seed, m)),
                            |r| r.instructions,
                        ));
                    }
                }
            }
            (secs(t0), results)
        };
        let unfused = || {
            // generate + simulate per point, and the amortized form that
            // generates once per seed (the pre-packed sweep path).
            let t0 = Instant::now();
            let mut results = Vec::new();
            for s in samplers {
                for &seed in seeds {
                    for m in &grid {
                        let t = trace::span_n(
                            "sampler.generate",
                            || s.generate(seed),
                            |t| t.len() as u64,
                        );
                        results.push(trace::span_n(
                            "tracesim.simulate",
                            || ssim_bench::with_engine(|e| e.simulate(&t, m)),
                            |r| r.instructions,
                        ));
                    }
                }
            }
            let per_point = secs(t0);
            let t0 = Instant::now();
            let mut sim_only = 0.0;
            for s in samplers {
                for &seed in seeds {
                    let t =
                        trace::span_n("sampler.generate", || s.generate(seed), |t| t.len() as u64);
                    for m in &grid {
                        let t1 = Instant::now();
                        let r = trace::span_n(
                            "tracesim.simulate",
                            || ssim_bench::with_engine(|e| e.simulate(&t, m)),
                            |r| r.instructions,
                        );
                        sim_only += secs(t1);
                        std::hint::black_box(r);
                    }
                }
            }
            (per_point, secs(t0), sim_only, results)
        };
        let ((f_s, f_res), (p_s, a_s, so_s, u_res)) = if round % 2 == 0 {
            let f = fused();
            (f, unfused())
        } else {
            let u = unfused();
            (fused(), u)
        };
        fused_s.push(f_s);
        per_point_s.push(p_s);
        amortized_s.push(a_s);
        sim_only_s += so_s;
        for (f, u) in f_res.iter().zip(&u_res) {
            out.check(f == u, || {
                "fused and unfused simulation disagree".to_string()
            });
        }
        fused_instr += f_res.iter().map(|r| r.instructions).sum::<u64>();
        instr += u_res.iter().map(|r| r.instructions).sum::<u64>();
        cycles += u_res.iter().map(|r| r.cycles).sum::<u64>();
        dispatch += u_res
            .iter()
            .map(|r| r.activity.unit(Unit::Dispatch).accesses)
            .sum::<u64>();
    }
    let f_total: f64 = fused_s.iter().sum();
    out.layer(
        "tracesim.fused_us_per_kinstr",
        f_total * 1e9 / fused_instr as f64,
        "us/kinstr",
    );
    out.layer(
        "tracesim.unfused_us_per_kinstr",
        sim_only_s * 1e9 / instr as f64,
        "us/kinstr",
    );
    out.layer(
        "tracesim.ns_per_sim_cycle",
        sim_only_s * 1e9 / cycles as f64,
        "ns/cycle",
    );
    out.layer(
        "tracesim.dispatch_per_commit",
        dispatch as f64 / instr as f64,
        "ratio",
    );
    let points = (samplers.len() * seeds.len() * grid.len()) as f64;
    let (fm, pm, am) = (median(&fused_s), median(&per_point_s), median(&amortized_s));
    out.detail("fused.point_ms", fm * 1e3 / points, "ms");
    out.detail("fused.spread", rel_iqr(&fused_s), "ratio");
    out.detail("unfused.point_ms", pm * 1e3 / points, "ms");
    out.detail("unfused.spread", rel_iqr(&per_point_s), "ratio");
    out.detail("unfused_amortized.point_ms", am * 1e3 / points, "ms");
    out.detail("unfused_amortized.spread", rel_iqr(&amortized_s), "ratio");
    out.line(format!(
        "fused vs unfused over {points} points x {ROUNDS} rounds: fused {:.3} ms/point \
         [q1 {:.3}, q3 {:.3}], generate+simulate {:.3} ms/point [q1 {:.3}, q3 {:.3}], \
         simulate on one pre-generated trace per seed {:.3} ms/point [q1 {:.3}, q3 {:.3}]",
        fm * 1e3 / points,
        quantile(&fused_s, 0.25) * 1e3 / points,
        quantile(&fused_s, 0.75) * 1e3 / points,
        pm * 1e3 / points,
        quantile(&per_point_s, 0.25) * 1e3 / points,
        quantile(&per_point_s, 0.75) * 1e3 / points,
        am * 1e3 / points,
        quantile(&amortized_s, 0.25) * 1e3 / points,
        quantile(&amortized_s, 0.75) * 1e3 / points,
    ));
    out.line(format!(
        "verdict: {}",
        verdict("fused", &fused_s, "generate+simulate", &per_point_s)
    ));
    out.line(format!(
        "verdict: {}",
        verdict(
            "fused",
            &fused_s,
            "pre-generated trace per seed",
            &amortized_s
        )
    ));

    // Backend cost at the two ends of the RUU range (8-wide machine).
    let ruu = |n: usize, lsq: usize| {
        let mut m = MachineConfig::baseline();
        m.ruu_size = n;
        m.lsq_size = lsq;
        let mut times = Vec::new();
        for _ in 0..3 {
            for s in samplers {
                for &seed in seeds {
                    let t0 = Instant::now();
                    let r = trace::span_n(
                        "tracesim.simulate_fused",
                        || ssim_bench::with_engine(|e| e.simulate_fused(s, seed, &m)),
                        |r| r.instructions,
                    );
                    times.push(secs(t0));
                    std::hint::black_box(r);
                }
            }
        }
        median(&times) * 1e6
    };
    out.layer("tracesim.us_per_point.ruu8", ruu(8, 8), "us");
    out.layer("tracesim.us_per_point.ruu128", ruu(128, 64), "us");

    // par_map speed-up: the same fused fan-out at 1 and at `threads`.
    let n = grid.len();
    let items: Vec<(usize, u64, usize)> = (0..samplers.len())
        .flat_map(|p| {
            seeds
                .iter()
                .flat_map(move |&s| (0..n).map(move |g| (p, s, g)))
        })
        .collect();
    let fan = |t: usize| {
        let t0 = Instant::now();
        std::hint::black_box(fused_fanout(samplers, &grid, &items, t));
        secs(t0)
    };
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(fan(1));
        many.push(fan(threads));
    }
    out.layer("par.speedup", median(&one) / median(&many), "ratio");
    out.detail("par.threads", threads as f64, "count");
}

/// Reads two timing samples as faster, slower, or not separable: a
/// side wins only if its third quartile is below the other's first.
pub fn verdict(a: &str, xs: &[f64], b: &str, ys: &[f64]) -> String {
    let (ma, mb) = (median(xs), median(ys));
    let ratio = mb / ma;
    if quantile(xs, 0.75) < quantile(ys, 0.25) {
        format!("{a} is faster than {b} ({ratio:.3}x)")
    } else if quantile(ys, 0.75) < quantile(xs, 0.25) {
        format!("{b} is faster than {a} ({:.3}x)", 1.0 / ratio)
    } else {
        format!("{a} and {b} are within each other's spread ({ratio:.3}x)")
    }
}
