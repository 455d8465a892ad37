//! `sweep`: the paper's §4.6 design-space sweep.
//!
//! Warm profiles of `gcc` (largest SFG, low IPC) and `bzip2` (high IPC)
//! are loaded from the on-disk profile cache and lowered once. Every
//! point of the §4.6 grid (RUU 8–128, widths 2 and 8, LSQ ≤ RUU) is then
//! simulated through `simulate_fused` under `par_map` at `nproc`
//! threads, for a few seeds drawn from the workload seed. One pass is
//! the whole grid × seeds × both profiles; the timed phase repeats
//! passes until `--seconds` is spent.

use crate::layers::{self, hash_result, secs};
use crate::pinned;
use crate::report::Outcome;
use crate::stats::{median, quantile, Rng, FAST};
use crate::{trace, Ctx};
use ssim::core::{CompiledSampler, FxHasher};
use ssim::prelude::*;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

pub const PROGRAMS: [&str; 2] = ["gcc", "bzip2"];
/// Profiling budget: instructions skipped, then profiled.
pub const PROFILE_SKIP: u64 = 1_000_000;
pub const PROFILE_INSTR: u64 = 1_000_000;
/// Reduction factor: synthetic traces are 1/R of the profiled stream.
pub const R: u64 = 80;
/// Simulation seeds are drawn from `1..=SEED_POOL`.
pub const SEED_POOL: u64 = 8;
pub const SEEDS_PER_RUN: usize = 2;
const SETUP_REPS: usize = 3;
const MIN_PASSES: usize = 3;

pub fn profile_config() -> ProfileConfig {
    ProfileConfig::new(&MachineConfig::baseline())
        .skip(PROFILE_SKIP)
        .instructions(PROFILE_INSTR)
}

/// The simulation seeds a workload seed selects.
pub fn seeds(seed: u64) -> Vec<u64> {
    Rng::new(seed).pick_seeds(SEED_POOL, SEEDS_PER_RUN)
}

/// Grid digest of one `(program, seed)`: every point's result, in grid
/// order.
pub fn grid_digest<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> u64 {
    let mut h = FxHasher::default();
    for r in results {
        hash_result(&mut h, r);
    }
    h.finish()
}

/// Loads both profiles from the cache and lowers them. Returns the
/// samplers (in `PROGRAMS` order) and the load and lowering seconds of
/// each.
fn setup_once() -> (Vec<Arc<CompiledSampler>>, Vec<f64>, Vec<f64>) {
    let cfg = profile_config();
    let (mut samplers, mut loads, mut lowers) = (Vec::new(), Vec::new(), Vec::new());
    for name in PROGRAMS {
        let w = ssim::workloads::by_name(name).expect("suite workload");
        let t0 = Instant::now();
        let p = trace::span("profile_cache.load", || ssim_bench::profile_cached(w, &cfg));
        loads.push(secs(t0));
        let t0 = Instant::now();
        let sampler = trace::span("sampler.compile", || Arc::new(p.compile(R)));
        lowers.push(secs(t0));
        // Engine warm-up: one point on the baseline machine.
        trace::span("tracesim.simulate_fused", || {
            ssim_bench::with_engine(|e| e.simulate_fused(&sampler, 0, &MachineConfig::baseline()))
        });
        samplers.push(sampler);
    }
    (samplers, loads, lowers)
}

/// Makes sure both profiles are in the on-disk cache (profiling them
/// the first time a checkout runs the benchmark; not timed).
pub fn prime_cache() {
    let cfg = profile_config();
    for name in PROGRAMS {
        let w = ssim::workloads::by_name(name).expect("suite workload");
        ssim_bench::profile_cached(w, &cfg);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let grid = ssim_bench::sec46_grid(true);
    let seeds = seeds(ctx.seed);
    prime_cache();
    trace::set(ctx.trace);

    let mut setups = Vec::new();
    let (mut loads, mut lowers) = (Vec::new(), Vec::new());
    let mut samplers = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (s, ld, lw) = trace::span("sweep.setup", setup_once);
        setups.push(secs(t0));
        loads.extend(ld);
        lowers.extend(lw);
        samplers = s;
    }

    // Items are grouped by (program, seed), each group in grid order.
    let n = grid.len();
    let items: Vec<(usize, u64, usize)> = (0..samplers.len())
        .flat_map(|p| {
            seeds
                .iter()
                .flat_map(move |&s| (0..n).map(move |g| (p, s, g)))
        })
        .collect();
    let (mut pass_s, mut traced_s, mut lat_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50_ms, mut p99_ms) = (Vec::new(), Vec::new());
    let mut host_s = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut k = 0usize;
    while k < MIN_PASSES || Instant::now() < deadline {
        // Traced runs alternate untraced and traced passes; the gap
        // between the two medians is the tracing overhead.
        let traced = ctx.trace && k % 2 == 1;
        host_s.push(crate::calib::host_s(ctx.threads));
        trace::set(traced);
        let t0 = Instant::now();
        let results = trace::span("sweep.pass", || {
            layers::fused_fanout(&samplers, &grid, &items, ctx.threads)
        });
        let s = secs(t0);
        trace::set(false);
        let lat: Vec<f64> = results.iter().map(|(_, t)| t * 1e3).collect();
        if traced {
            traced_s.push(s);
        } else {
            pass_s.push(s);
            p50_ms.push(quantile(&lat, 0.5));
            p99_ms.push(quantile(&lat, 0.99));
        }
        lat_ms.extend(lat);
        for (group, (p, seed)) in results
            .chunks(n)
            .zip((0..samplers.len()).flat_map(|p| seeds.iter().map(move |&s| (p, s))))
        {
            let got = grid_digest(group.iter().map(|(r, _)| r));
            let want = pinned::sweep(PROGRAMS[p], seed);
            out.attempted += n as u64;
            if want != Some(got) {
                out.failed += n as u64;
                out.line(format!(
                    "MISMATCH: sweep {} seed {seed}: digest {got:016x}, pinned {want:016x?}",
                    PROGRAMS[p]
                ));
            }
        }
        // One more set-up after every pass, so the set-up median samples
        // the host over the whole run rather than its first moments.
        let t0 = Instant::now();
        std::hint::black_box(trace::span("sweep.setup", setup_once));
        setups.push(secs(t0));
        k += 1;
    }

    let points = items.len() as f64;
    let pps = points / quantile(&pass_s, FAST);
    let slow = crate::calib::slowness(&host_s);
    out.e2e("setup_s", median(&setups) / slow, "s");
    out.e2e("ops_per_s", pps * slow, "1/s");
    out.e2e("lat_p50_ms", quantile(&p50_ms, FAST) / slow, "ms");
    out.e2e("lat_p99_ms", quantile(&p99_ms, FAST) / slow, "ms");
    out.detail("points_per_s", pps, "points/s");
    out.detail("setup_s.raw", median(&setups), "s");
    out.detail("host.slowness", slow, "ratio");
    out.line(format!("setup seconds: {setups:.4?}"));
    out.detail(
        "points_per_s.median_pass",
        points / median(&pass_s),
        "points/s",
    );
    out.detail("lat_p99_ms.pooled", quantile(&lat_ms, 0.99), "ms");
    out.detail("points_per_pass", points, "count");
    out.detail("passes", k as f64, "count");
    out.detail("latency_samples", lat_ms.len() as f64, "count");
    out.line(format!(
        "sweep: {} programs x {} grid points x seeds {:?} = {} points per pass, {k} passes at {} threads",
        samplers.len(),
        n,
        seeds,
        items.len(),
        ctx.threads
    ));
    out.line(format!(
        "pass seconds: untraced {pass_s:.3?} traced {traced_s:.3?}"
    ));

    if ctx.trace {
        trace::set(true);
        out.layer("profile_cache.load_ms", median(&loads) * 1e3, "ms");
        out.layer("sampler.lower_ms", median(&lowers) * 1e3, "ms");
        out.layer(
            "trace.overhead_pct",
            (median(&traced_s) / median(&pass_s) - 1.0) * 100.0,
            "%",
        );
        layers::tracesim_probe(&samplers, &seeds, ctx.threads, &mut out);
        let programs: Vec<(&str, ssim::isa::Program)> = PROGRAMS
            .iter()
            .map(|&n| {
                (
                    n,
                    ssim::workloads::by_name(n)
                        .expect("suite workload")
                        .program(),
                )
            })
            .collect();
        layers::frontend_probe(&programs, &mut out);
        let params = crate::serve::params_for(PROGRAMS[0], PROFILE_SKIP, PROFILE_INSTR);
        crate::serve::probe(&params, R, &seeds, &mut out);
        trace::set(false);
    }
    out
}
