//! `study`: a cold accuracy study, the shape of `fig6_ipc_epc`.
//!
//! All ten native workloads and the three `programs/*.asm` corpus
//! programs are each profiled with no profile cache, lowered, simulated
//! on the baseline machine for a few seeds drawn from the workload seed,
//! and compared with execution-driven simulation (EDS). One pass is the
//! whole set, one program after another; the timed phase repeats passes
//! until `--seconds` is spent. The corpus programs were
//! never used to tune the model, so their rows are held-out data.

use crate::layers::{self, Frontend};
use crate::pinned;
use crate::report::Outcome;
use crate::stats::{mean, median, quantile, Rng, FAST};
use crate::{trace, Ctx};
use ssim::core::FxHasher;
use ssim::isa::Program;
use ssim::prelude::*;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// Profiling budget (instructions skipped, then profiled) and EDS
/// budget (instructions skipped, then simulated) per program.
pub const PROFILE_SKIP: u64 = 400_000;
pub const PROFILE_INSTR: u64 = 600_000;
pub const EDS_SKIP: u64 = 400_000;
pub const EDS_INSTR: u64 = 300_000;
pub const R: u64 = 10;
pub const SEED_POOL: u64 = 6;
pub const SEEDS_PER_RUN: usize = 3;
const SETUP_REPS: usize = 3;
const MIN_PASSES: usize = 3;

/// The study set: the native suite, then the held-out corpus.
pub fn workloads() -> Vec<&'static Workload> {
    ssim::workloads::all()
        .iter()
        .chain(ssim::workloads::corpus())
        .collect()
}

pub fn is_heldout(name: &str) -> bool {
    ssim::workloads::corpus().iter().any(|w| w.name() == name)
}

pub fn seeds(seed: u64) -> Vec<u64> {
    Rng::new(seed ^ 0x57d7).pick_seeds(SEED_POOL, SEEDS_PER_RUN)
}

/// IPC and EPC of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcEpc {
    pub ipc: f64,
    pub epc: f64,
}

impl IpcEpc {
    fn of(r: &SimResult, power: &PowerModel) -> Self {
        IpcEpc {
            ipc: r.ipc(),
            epc: power.evaluate(&r.activity).epc(),
        }
    }

    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(self.ipc.to_bits());
        h.write_u64(self.epc.to_bits());
        h.finish()
    }
}

/// One program's pass through the pipeline.
pub struct ProgramResult {
    pub name: &'static str,
    pub eds: IpcEpc,
    /// One per seed, in seed order.
    pub ss: Vec<IpcEpc>,
    pub seconds: f64,
    pub frontend: Frontend,
}

/// Profile → lower → simulate each seed → EDS, for one program.
pub fn pipeline(name: &'static str, program: &Program, seeds: &[u64]) -> ProgramResult {
    let t0 = Instant::now();
    let machine = MachineConfig::baseline();
    let power = PowerModel::new(&machine);
    let mut fe = Frontend::default();
    let cfg = ProfileConfig::new(&machine)
        .skip(PROFILE_SKIP)
        .instructions(PROFILE_INSTR);
    let profile = fe.profile(program, &cfg);
    let sampler = trace::span("sampler.compile", || Arc::new(profile.compile(R)));
    let ss = seeds
        .iter()
        .map(|&seed| {
            let r = trace::span_n(
                "tracesim.simulate_fused",
                || ssim_bench::with_engine(|e| e.simulate_fused(&sampler, seed, &machine)),
                |r| r.instructions,
            );
            IpcEpc::of(&r, &power)
        })
        .collect();
    let eds = IpcEpc::of(&fe.eds(&machine, program, EDS_SKIP, EDS_INSTR), &power);
    ProgramResult {
        name,
        eds,
        ss,
        seconds: t0.elapsed().as_secs_f64(),
        frontend: fe,
    }
}

/// One pass over the study set. Programs run one after another: run in
/// parallel, which pipelines overlap decided the peak memory (it moved
/// between 64 and 81 MiB from run to run) and the slowest program's
/// time.
fn pass(programs: &[(&'static str, Program)], seeds: &[u64]) -> Vec<ProgramResult> {
    trace::span("study.pass", || {
        programs
            .iter()
            .map(|(name, program)| trace::span("study.program", || pipeline(name, program, seeds)))
            .collect()
    })
}

/// Builds every program image of the study set (assembling the
/// corpus), then warms the engines with one pipeline on the smallest
/// program, `rle`.
fn setup_once(seeds: &[u64]) -> Vec<(&'static str, Program)> {
    let programs: Vec<(&'static str, Program)> = workloads()
        .into_iter()
        .map(|w| (w.name(), trace::span("study.build_program", || w.program())))
        .collect();
    let (name, program) = programs
        .iter()
        .find(|(n, _)| *n == "rle")
        .expect("rle is in the corpus");
    std::hint::black_box(pipeline(name, program, &seeds[..1]));
    programs
}

fn err_pct(ss: f64, eds: f64) -> f64 {
    absolute_error(ss, eds) * 100.0
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seeds = seeds(ctx.seed);
    trace::set(ctx.trace);
    let mut setups = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        programs = trace::span("study.setup", || setup_once(&seeds));
        setups.push(t0.elapsed().as_secs_f64());
    }

    let (mut pass_s, mut traced_s, mut lat_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Each program's untraced pipeline times, in study-set order.
    let mut per_program: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut host_s = Vec::new();
    let mut fe = Frontend::default();
    let mut last = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut k = 0usize;
    while k < MIN_PASSES || Instant::now() < deadline {
        let traced = ctx.trace && k % 2 == 1;
        host_s.push(crate::calib::host_s(1));
        trace::set(traced);
        let t0 = Instant::now();
        let results = pass(&programs, &seeds);
        let s = t0.elapsed().as_secs_f64();
        trace::set(false);
        let lat: Vec<f64> = results.iter().map(|r| r.seconds * 1e3).collect();
        if traced {
            traced_s.push(s);
        } else {
            pass_s.push(s);
            for (times, &ms) in per_program.iter_mut().zip(&lat) {
                times.push(ms);
            }
        }
        lat_ms.extend(lat);
        for r in &results {
            fe.merge(&r.frontend);
        }
        check_pass(&seeds, &results, &mut out);
        last = results;
        // One more set-up after every pass, so the set-up median samples
        // the host over the whole run rather than its first moments.
        let t0 = Instant::now();
        std::hint::black_box(trace::span("study.setup", || setup_once(&seeds)));
        setups.push(t0.elapsed().as_secs_f64());
        k += 1;
    }
    let passes = (pass_s.len() + traced_s.len()) as f64;

    // Accuracy: per program, per seed; native and held-out apart.
    let mut ipc_all = Vec::new();
    let mut epc_all = Vec::new();
    let (mut ipc_native, mut ipc_heldout) = (Vec::new(), Vec::new());
    let mut per_seed_ipc = vec![Vec::new(); seeds.len()];
    let mut per_seed_epc = vec![Vec::new(); seeds.len()];
    out.line(format!(
        "{:<9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}  (seeds {:?})",
        "program", "EDS-IPC", "SS-IPC", "IPCerr%", "EPCerr%", "minErr%", "maxErr%", seeds
    ));
    for r in &last {
        let ipc_errs: Vec<f64> = r.ss.iter().map(|s| err_pct(s.ipc, r.eds.ipc)).collect();
        let epc_errs: Vec<f64> = r.ss.iter().map(|s| err_pct(s.epc, r.eds.epc)).collect();
        for (i, (ie, ee)) in ipc_errs.iter().zip(&epc_errs).enumerate() {
            per_seed_ipc[i].push(*ie);
            per_seed_epc[i].push(*ee);
        }
        ipc_all.extend(&ipc_errs);
        epc_all.extend(&epc_errs);
        if is_heldout(r.name) {
            ipc_heldout.extend(&ipc_errs);
        } else {
            ipc_native.extend(&ipc_errs);
        }
        out.detail(
            &format!("accuracy.ipc_err_pct.{}", r.name),
            mean(&ipc_errs),
            "%",
        );
        out.line(format!(
            "{:<9} {:>8.3} {:>8.3} {:>8.2} {:>8.2} {:>9.2} {:>9.2}{}",
            r.name,
            r.eds.ipc,
            mean(&r.ss.iter().map(|s| s.ipc).collect::<Vec<_>>()),
            mean(&ipc_errs),
            mean(&epc_errs),
            ipc_errs.iter().copied().fold(f64::INFINITY, f64::min),
            ipc_errs.iter().copied().fold(0.0, f64::max),
            if is_heldout(r.name) { "  held-out" } else { "" }
        ));
    }
    for (i, seed) in seeds.iter().enumerate() {
        out.line(format!(
            "seed {seed}: ipc_err_pct {:.3}  epc_err_pct {:.3}",
            mean(&per_seed_ipc[i]),
            mean(&per_seed_epc[i])
        ));
    }

    let study_s = quantile(&pass_s, FAST);
    let slow = crate::calib::slowness(&host_s);
    out.e2e("setup_s", median(&setups) / slow, "s");
    out.e2e("ops_per_s", programs.len() as f64 / study_s * slow, "1/s");
    // A program's time is the fast quartile of its passes; the
    // percentiles run over the 13 programs.
    let program_ms: Vec<f64> = per_program.iter().map(|t| quantile(t, FAST)).collect();
    out.e2e("lat_p50_ms", quantile(&program_ms, 0.5) / slow, "ms");
    out.e2e("lat_p99_ms", quantile(&program_ms, 0.99) / slow, "ms");
    out.detail("study_s", study_s, "s");
    out.detail("setup_s.raw", median(&setups), "s");
    out.detail("host.slowness", slow, "ratio");
    out.line(format!("setup seconds: {setups:.4?}"));
    out.detail("study_s.median_pass", median(&pass_s), "s");
    out.detail("ipc_err_pct", mean(&ipc_all), "%");
    out.detail("epc_err_pct", mean(&epc_all), "%");
    out.detail("ipc_err_pct.native", mean(&ipc_native), "%");
    out.detail("ipc_err_pct.heldout", mean(&ipc_heldout), "%");
    out.detail("passes", passes, "count");
    out.detail("latency_samples", lat_ms.len() as f64, "count");
    out.line(format!(
        "study: {} programs one after another x seeds {:?}, {} passes",
        programs.len(),
        seeds,
        passes
    ));
    out.line(format!(
        "pass seconds: untraced {pass_s:.3?} traced {traced_s:.3?}"
    ));

    if ctx.trace {
        trace::set(true);
        out.layer(
            "trace.overhead_pct",
            (median(&traced_s) / median(&pass_s) - 1.0) * 100.0,
            "%",
        );
        // Functional-only execution of every program over the profiled
        // window: the study profiles but never runs `ssim-func` alone.
        let mut func = Frontend::default();
        trace::span("probe.func", || {
            for (_, p) in &programs {
                func.func(p, PROFILE_SKIP + PROFILE_INSTR);
            }
        });
        fe.merge(&func);
        fe.report(passes, &mut out);
        // Lowering and the sampler/simulator probe on two of the study's
        // own profiles, the largest and a held-out one, at the first seed
        // (at R = 10 a point costs about 15 ms).
        let machine = MachineConfig::baseline();
        let cfg = ProfileConfig::new(&machine)
            .skip(PROFILE_SKIP)
            .instructions(PROFILE_INSTR);
        let chosen = ["gcc", "listwalk"];
        let mut lower_ms = Vec::new();
        let mut samplers = Vec::new();
        let mut load_ms = Vec::new();
        for (name, program) in programs.iter().filter(|(n, _)| chosen.contains(n)) {
            let p = ssim::core::profile(program, &cfg);
            let t0 = Instant::now();
            let s = trace::span("sampler.compile", || Arc::new(p.compile(R)));
            lower_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let ms = profile_cache_roundtrip_ms(name, &p);
            out.check(ms.is_some(), || {
                format!("profile cache round trip of {name} failed")
            });
            load_ms.extend(ms);
            samplers.push(s);
        }
        out.layer("sampler.lower_ms", median(&lower_ms), "ms");
        out.layer("profile_cache.load_ms", median(&load_ms), "ms");
        layers::tracesim_probe(&samplers, &seeds[..1], ctx.threads, &mut out);
        crate::serve::probe(
            &crate::serve::params_for("gzip", PROFILE_SKIP, PROFILE_INSTR),
            R,
            &seeds,
            &mut out,
        );
        trace::set(false);
    }
    out
}

/// Stores `p` in the on-disk profile cache's format and times loading
/// it back: the study runs cold, so this is a probe of that layer.
/// `None` if the round trip fails or changes the profile.
fn profile_cache_roundtrip_ms(name: &str, p: &StatisticalProfile) -> Option<f64> {
    let dir = crate::state_dir().join("probe");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.ssimprf"));
    std::fs::File::create(&path)
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            p.save(&mut w)?;
            std::io::Write::flush(&mut w)
        })
        .ok()?;
    let t0 = Instant::now();
    let loaded = trace::span("profile_cache.load", || {
        std::fs::File::open(&path)
            .and_then(|f| StatisticalProfile::load(&mut std::io::BufReader::new(f)))
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);
    loaded
        .ok()
        .filter(|l| l.content_hash() == p.content_hash())
        .map(|_| ms)
}

fn check_pass(seeds: &[u64], results: &[ProgramResult], out: &mut Outcome) {
    for r in results {
        let got = r.eds.digest();
        let want = pinned::study_eds(r.name);
        out.check(want == Some(got), || {
            format!(
                "study {} EDS: digest {got:016x}, pinned {want:016x?}",
                r.name
            )
        });
        for (s, &seed) in r.ss.iter().zip(seeds) {
            let got = s.digest();
            let want = pinned::study_ss(r.name, seed);
            out.check(want == Some(got), || {
                format!(
                    "study {} seed {seed}: digest {got:016x}, pinned {want:016x?}",
                    r.name
                )
            });
        }
    }
}
