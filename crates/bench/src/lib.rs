//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (see `DESIGN.md` for the index). All binaries honour:
//!
//! * `SSIM_QUICK=1` — shrink budgets and workload counts for a fast
//!   smoke run;
//! * `SSIM_PROFILE_INSTR` / `SSIM_EDS_INSTR` / `SSIM_SKIP` — override
//!   the instruction budgets;
//! * `SSIM_WORKLOADS=a,b,c` — restrict the workload set;
//! * `SSIM_THREADS=n` — thread count for the parallel sweeps (default:
//!   available parallelism; `1` forces the serial path). Output is
//!   identical at every thread count — [`par_map`] preserves input
//!   order;
//! * `SSIM_NO_PROFILE_CACHE=1` — bypass the on-disk profile cache
//!   under `results/.profile-cache/` (see [`profile_cache`]);
//!   `SSIM_PROFILE_CACHE_DIR` relocates it.

use ssim::prelude::*;
use ssim::workloads::Workload;

pub mod profile_cache;

pub use profile_cache::{cache_enabled, cache_stats, profile_cached, profile_cached_keyed};
pub use ssim_obs as obs;
pub use ssim_par::{available_parallelism, num_threads, par_map, par_map_with};

static OBS_EDS_TIME: ssim_obs::TimerStat = ssim_obs::TimerStat::new("eds.time");

/// Flushes the observability registry at the end of an experiment
/// binary (see the `SSIM_METRICS` knob in `ssim-obs`): `SSIM_METRICS=1`
/// renders a text report to stderr, `SSIM_METRICS=json` writes
/// `results/METRICS_<bin>.json` (and logs its path to stderr),
/// unset/`0` is a no-op.
pub fn obs_finish(bin: &str) {
    let _ = ssim_obs::finish(bin);
}

/// Instruction budgets for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Instructions skipped before measurement (init phase).
    pub skip: u64,
    /// Instructions profiled per statistical profile.
    pub profile: u64,
    /// Instructions simulated per execution-driven run.
    pub eds: u64,
}

impl Budget {
    /// Reads the budget from the environment.
    pub fn from_env() -> Self {
        let quick = quick();
        let get = |key: &str, dflt: u64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(dflt)
        };
        Budget {
            skip: get("SSIM_SKIP", 4_000_000),
            profile: get(
                "SSIM_PROFILE_INSTR",
                if quick { 600_000 } else { 3_000_000 },
            ),
            eds: get("SSIM_EDS_INSTR", if quick { 400_000 } else { 2_000_000 }),
        }
    }
}

/// Whether quick mode is active.
pub fn quick() -> bool {
    std::env::var("SSIM_QUICK").is_ok_and(|v| v != "0")
}

/// The workload set for this run (all ten, or `SSIM_WORKLOADS`, or a
/// four-benchmark subset in quick mode).
pub fn workloads() -> Vec<&'static Workload> {
    if let Ok(names) = std::env::var("SSIM_WORKLOADS") {
        return names
            .split(',')
            .filter_map(|n| ssim::workloads::by_name(n.trim()))
            .collect();
    }
    let all: Vec<_> = ssim::workloads::all().iter().collect();
    if quick() {
        all.into_iter()
            .filter(|w| matches!(w.name(), "crafty" | "gcc" | "twolf" | "vpr"))
            .collect()
    } else {
        all
    }
}

/// Runs the execution-driven reference over the budget window.
pub fn eds(machine: &MachineConfig, workload: &Workload, budget: &Budget) -> SimResult {
    let _span = OBS_EDS_TIME.span();
    let program = workload.program();
    let mut sim = ExecSim::new(machine, &program);
    sim.skip(budget.skip);
    sim.run(budget.eds)
}

/// Builds a statistical profile over the budget window, reusing the
/// on-disk cache when an identical profile was built before.
pub fn profiled(
    machine: &MachineConfig,
    workload: &Workload,
    budget: &Budget,
) -> StatisticalProfile {
    profile_cached(
        workload,
        &ProfileConfig::new(machine)
            .skip(budget.skip)
            .instructions(budget.profile),
    )
}

/// Profiles with explicit overrides (order / branch mode), through the
/// on-disk cache.
pub fn profiled_with(
    machine: &MachineConfig,
    workload: &Workload,
    budget: &Budget,
    k: usize,
    mode: BranchProfileMode,
) -> StatisticalProfile {
    profile_cached(
        workload,
        &ProfileConfig::new(machine)
            .order(k)
            .branch_mode(mode)
            .skip(budget.skip)
            .instructions(budget.profile),
    )
}

/// Default reduction factor: synthetic traces ~1/15th of the profile.
pub const DEFAULT_R: u64 = 15;

/// The §4.6 design-space grid — RUU × LSQ × decode × issue × commit
/// with the paper's LSQ ≤ RUU constraint: 999 machine configurations
/// in full mode, 296 in quick mode (widths pruned to {2, 8}).
///
/// Shared by `sec46_design_space`, the `scaling` bin and the
/// repository benchmark (`perfbench/`), so "the §4.6 sweep" means the
/// same point set everywhere it is measured. It is the one description
/// of the §4.6 space, and simulating every point of it is the
/// design-space path (DESIGN §12).
pub fn sec46_grid(quick: bool) -> Vec<MachineConfig> {
    let base = MachineConfig::baseline();
    let ruus: &[usize] = &[8, 16, 32, 48, 64, 96, 128];
    let lsqs: &[usize] = &[4, 8, 16, 24, 32, 48, 64];
    let widths: &[usize] = if quick { &[2, 8] } else { &[2, 4, 8] };
    let mut points = Vec::new();
    for &ruu in ruus {
        for &lsq in lsqs {
            if lsq > ruu {
                continue; // the paper's constraint
            }
            for &decode in widths {
                for &issue in widths {
                    for &commit in widths {
                        let mut c = base.clone();
                        c.ruu_size = ruu;
                        c.lsq_size = lsq;
                        c.decode_width = decode;
                        c.issue_width = issue;
                        c.commit_width = commit;
                        points.push(c);
                    }
                }
            }
        }
    }
    points
}

/// In-process cache of compiled samplers, keyed by
/// `(profile content hash, r)`. Design-space sweeps simulate hundreds
/// of machine configurations against one `(profile, r)` pair; the
/// lowering is identical for all of them, so it is paid once and
/// shared (the sweep bins fan points out across threads — hence `Arc`).
///
/// Sharded ([`ssim_par::ShardedCache`]) so worker threads hitting
/// different `(profile, r)` pairs never contend on one lock, and
/// build-once so concurrent misses on the *same* pair lower exactly
/// once (the old global `Mutex<HashMap>` let racing threads duplicate
/// the lowering; `sampler_cache_builds` + the regression test in
/// `tests/sampler_cache.rs` pin the fix).
type SamplerCache = ssim_par::ShardedCache<(u64, u64), std::sync::Arc<CompiledSampler>>;
static SAMPLER_CACHE: std::sync::OnceLock<SamplerCache> = std::sync::OnceLock::new();

fn sampler_cache() -> &'static SamplerCache {
    SAMPLER_CACHE.get_or_init(SamplerCache::default)
}

/// Returns the compiled sampler for `(profile, r)`, lowering exactly
/// once per distinct pair for the process lifetime — even when many
/// threads miss the same pair simultaneously.
pub fn sampler_cached(profile: &StatisticalProfile, r: u64) -> std::sync::Arc<CompiledSampler> {
    let key = (profile.content_hash(), r);
    sampler_cache().get_or_build(key, || std::sync::Arc::new(profile.compile(r)))
}

/// How many sampler lowerings the in-process cache has performed — one
/// per distinct `(profile, r)` pair, regardless of thread count.
pub fn sampler_cache_builds() -> u64 {
    sampler_cache().builds()
}

thread_local! {
    static ENGINE: std::cell::RefCell<SimEngine> = std::cell::RefCell::new(SimEngine::new());
}

/// Runs `f` with this thread's reusable [`SimEngine`], so sweep loops
/// keep one set of simulator working buffers per worker thread instead
/// of reallocating per design point.
///
/// The engine also keeps its last fused walk: consecutive
/// `simulate_fused` calls on one thread with the same `(sampler, seed)`
/// walk once and rerun only the driver. On that walk it keeps earlier
/// results too, and answers a machine that differs from a kept one only
/// in RUU/LSQ sizes neither run filled without running the driver;
/// otherwise the driver replays the segments earlier runs on the walk
/// simulated between empty pipelines wherever the new capacities fit
/// them, and simulates only the rest (see [`SimEngine`]). Sweeps get
/// the most from this by ordering their points `(sampler, seed)`-major,
/// so each [`par_map`] worker's slice shares one walk, its kept results
/// and its segments. Results never depend on the
/// order. [`par_map`] workers are fresh threads on every call, so their
/// engines start empty and nothing is kept from one call to the next;
/// with one thread, though, `par_map` runs on the calling thread and
/// its engine. A timing loop that reruns the same points on this
/// thread must start each timed pass with a fresh engine
/// (`with_engine(|e| *e = SimEngine::new())`), or the kept results and
/// segments answer the pass.
pub fn with_engine<T>(f: impl FnOnce(&mut SimEngine) -> T) -> T {
    ENGINE.with(|e| f(&mut e.borrow_mut()))
}

/// Statistical simulation of one design point: generation fused into
/// simulation (no materialised trace), compiled sampler shared across
/// calls with the same `(profile, DEFAULT_R)`, working buffers reused
/// per thread.
pub fn ss(profile: &StatisticalProfile, machine: &MachineConfig, seed: u64) -> SimResult {
    let sampler = sampler_cached(profile, DEFAULT_R);
    with_engine(|e| e.simulate_fused(&sampler, seed, machine))
}

/// The host header fields every `BENCH_*.json` carries, as a JSON
/// fragment (no braces): the effective worker-pool size, the machine's
/// available parallelism and the `SSIM_METRICS` mode. Recording them
/// keeps the perf trajectory comparable across runs — a speedup
/// measured with `threads > available_parallelism` is oversubscription,
/// not scaling, and timings taken with metrics recording are slower
/// than with them off.
pub fn host_header_json() -> String {
    format!(
        "\"threads\": {}, \"available_parallelism\": {}, \"metrics\": \"{}\"",
        num_threads(),
        available_parallelism(),
        metrics_mode()
    )
}

/// `SSIM_METRICS`'s mode as the host header records it.
fn metrics_mode() -> &'static str {
    match ssim_obs::mode() {
        ssim_obs::Mode::Off => "off",
        ssim_obs::Mode::Text => "text",
        ssim_obs::Mode::Json => "json",
    }
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints the standard experiment header.
pub fn banner(exhibit: &str, what: &str) {
    println!("==============================================================");
    println!("{exhibit}: {what}");
    if quick() {
        println!("(SSIM_QUICK mode: reduced budgets — shapes hold, magnitudes shift)");
    }
    println!("==============================================================");
}

/// Arithmetic mean of a slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults_are_positive() {
        let b = Budget::from_env();
        assert!(b.skip > 0 && b.profile > 0 && b.eds > 0);
    }

    #[test]
    fn workload_selection_returns_something() {
        assert!(!workloads().is_empty());
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
