//! The `tracesim.walks_reused` and `tracesim.points_reused` counters,
//! pinned against the walks the `synth.time` timer counts.
//!
//! The observability registry is process-global, so these tests have
//! their own binary and take turns ([`serial`]): nothing else walks or
//! simulates while one of them reads the counters.

use ssim_core::{profile, CompiledSampler, ProfileConfig, SimEngine};
use ssim_uarch::MachineConfig;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests of this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The gzip sampler both tests run.
fn gzip_sampler() -> CompiledSampler {
    let w = ssim_workloads::by_name("gzip").expect("suite workload");
    let p = profile(
        &w.program(),
        &ProfileConfig::new(&MachineConfig::baseline()).instructions(30_000),
    );
    p.compile(10)
}

/// `(walks, reuses)` recorded so far: one `synth.time` span per walk.
fn walks_and_reuses() -> (u64, u64) {
    let snap = ssim_obs::snapshot();
    let walks = snap
        .timers
        .iter()
        .find(|(name, _)| *name == "synth.time")
        .map_or(0, |(_, (count, _, _))| *count);
    let reused = snap.counter("tracesim.walks_reused").unwrap_or(0);
    (walks, reused)
}

#[test]
fn one_walk_per_sampler_and_seed() {
    let _serial = serial();
    ssim_obs::force_enable();
    let sampler = gzip_sampler();
    let machines: Vec<MachineConfig> = [8usize, 16, 32, 64, 128]
        .iter()
        .map(|&ruu| MachineConfig::baseline().with_window(ruu))
        .chain([MachineConfig::baseline().in_order()])
        .collect();
    let n = machines.len() as u64;
    let mut engine = SimEngine::new();

    let before = walks_and_reuses();
    for m in &machines {
        engine.simulate_fused(&sampler, 1, m);
    }
    let after = walks_and_reuses();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (1, n - 1),
        "{n} machine points at one (sampler, seed) walk once and reuse {} times",
        n - 1
    );

    // A new seed walks again, and so does a return to the old one: the
    // engine keeps only its last walk.
    engine.simulate_fused(&sampler, 2, &machines[0]);
    engine.simulate_fused(&sampler, 1, &machines[0]);
    let last = walks_and_reuses();
    assert_eq!((last.0 - after.0, last.1 - after.1), (2, 0));
}

/// `(driver runs, points reused, instructions simulated)` so far.
fn runs_and_points() -> (u64, u64, u64) {
    let snap = ssim_obs::snapshot();
    let runs = snap
        .timers
        .iter()
        .find(|(name, _)| *name == "tracesim.time")
        .map_or(0, |(_, (count, _, _))| *count);
    let points = snap.counter("tracesim.points_reused").unwrap_or(0);
    let instrs = snap.counter("tracesim.instructions").unwrap_or(0);
    (runs, points, instrs)
}

/// `tracesim.points_resumed` so far.
fn points_resumed() -> u64 {
    ssim_obs::snapshot()
        .counter("tracesim.points_resumed")
        .unwrap_or(0)
}

/// How a fused call must be answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Answer {
    /// Walk, then run the driver.
    Walk,
    /// Run the driver over the kept walk.
    Run,
    /// Return a kept result.
    Hit,
}
use Answer::{Hit, Run, Walk};

#[test]
fn capacity_reuse_counts_points_and_runs_no_driver() {
    let _serial = serial();
    ssim_obs::force_enable();
    let sampler = gzip_sampler();
    let trace = sampler.generate(1);
    let t = trace.len();
    assert!(
        trace.instrs().iter().any(|i| i.dmem.is_some()),
        "the schedule needs memory operations"
    );
    // No occupancy can exceed the trace length, so queues of `t + 1`
    // or more never fill; a 1-entry LSQ fills at the first memory
    // operation.
    let sized = |ruu: usize, lsq: usize| MachineConfig {
        ruu_size: ruu,
        lsq_size: lsq,
        ..MachineConfig::baseline()
    };
    let roomy = sized(t + 1, t + 1);
    // (seed, machine, how the engine must answer it)
    let schedule = [
        (1, roomy.clone(), Walk),
        // A larger RUU than one the first run never filled.
        (1, sized(2 * t + 2, t + 1), Hit),
        (1, roomy.clone(), Hit),
        // The first run's LSQ peak is not below 1.
        (1, sized(t + 1, 1), Run),
        (1, sized(t + 1, 1), Hit),
        (1, roomy.clone().with_width(2), Run),
        // A new walk drops the kept results: this hit must come from
        // the new walk's own run ...
        (2, roomy.clone(), Walk),
        (2, sized(2 * t + 2, t + 1), Hit),
        // ... and a return to the old walk finds none of them.
        (1, roomy, Walk),
    ];
    // Expected results first: fresh runs count as walks and runs too.
    let expected: Vec<_> = schedule
        .iter()
        .map(|(seed, cfg, _)| ssim_core::simulate_trace(&sampler.generate(*seed), cfg))
        .collect();
    let mut engine = SimEngine::new();
    let before = (walks_and_reuses(), runs_and_points());
    let got: Vec<_> = schedule
        .iter()
        .map(|(seed, cfg, _)| engine.simulate_fused(&sampler, *seed, cfg))
        .collect();
    let after = (walks_and_reuses(), runs_and_points());
    assert_eq!(got, expected);

    let count = |how: Answer| schedule.iter().filter(|s| s.2 == how).count() as u64;
    let walks = after.0 .0 - before.0 .0;
    let walks_reused = after.0 .1 - before.0 .1;
    let points = after.1 .1 - before.1 .1;
    assert_eq!(
        (walks, walks_reused, points),
        (count(Walk), count(Run), count(Hit)),
        "(walks, walks reused, points reused)"
    );
    // Hits run no driver: no `tracesim.time` span, no instructions.
    assert_eq!(after.1 .0 - before.1 .0, walks + walks_reused);
    let simulated: u64 = schedule
        .iter()
        .zip(&got)
        .filter(|(s, _)| s.2 != Hit)
        .map(|(_, r)| r.instructions)
        .sum();
    assert_eq!(after.1 .2 - before.1 .2, simulated);
}

/// Resumes count in `tracesim.points_resumed` and, as driver runs over a
/// kept walk, in `tracesim.walks_reused`; a resumed run adds only the
/// instructions it simulated after its record. The schedule is the one
/// `fused_equivalence.rs` checks for results (bzip2 at seed 1, width 2):
/// three points resume, each from a record taken after 84% of the
/// trace had committed.
#[test]
fn resumed_points_count_only_what_they_simulate() {
    let _serial = serial();
    ssim_obs::force_enable();
    let w = ssim_workloads::by_name("bzip2").expect("suite workload");
    let p = profile(
        &w.program(),
        &ProfileConfig::new(&MachineConfig::baseline())
            .order(1)
            .instructions(60_000),
    );
    let sampler = p.compile(20);
    let sized = |ruu: usize, lsq: usize| MachineConfig {
        ruu_size: ruu,
        lsq_size: lsq,
        ..MachineConfig::baseline().with_width(2)
    };
    // (machine, how the engine must answer it, resumed)
    let schedule = [
        (sized(96, 12), Walk, false),
        (sized(96, 16), Run, true),
        (sized(96, 24), Run, true),
        // Neither queue of the 24-entry LSQ run filled before its RUU did.
        (sized(96, 32), Hit, false),
        (sized(48, 48), Run, false),
        (sized(128, 48), Run, true),
    ];
    let mut engine = SimEngine::new();
    let before = (walks_and_reuses(), runs_and_points(), points_resumed());
    let got: Vec<_> = schedule
        .iter()
        .map(|(cfg, _, _)| engine.simulate_fused(&sampler, 1, cfg))
        .collect();
    let after = (walks_and_reuses(), runs_and_points(), points_resumed());

    let count = |how: Answer| schedule.iter().filter(|s| s.1 == how).count() as u64;
    assert_eq!(
        (
            after.0 .0 - before.0 .0,
            after.0 .1 - before.0 .1,
            after.1 .1 - before.1 .1,
            after.2 - before.2,
        ),
        (
            count(Walk),
            count(Run),
            count(Hit),
            schedule.iter().filter(|s| s.2).count() as u64
        ),
        "(walks, walks reused, points reused, points resumed)"
    );
    assert_eq!(after.1 .0 - before.1 .0, count(Walk) + count(Run));
    // The two runs from the start simulate the whole trace; the three
    // resumed ones only the part after their records: 1,371 of their
    // 9,018 committed instructions.
    let from_start: u64 = schedule
        .iter()
        .zip(&got)
        .filter(|(s, _)| s.1 != Hit && !s.2)
        .map(|(_, r)| r.instructions)
        .sum();
    let resumed: u64 = schedule
        .iter()
        .zip(&got)
        .filter(|(s, _)| s.2)
        .map(|(_, r)| r.instructions)
        .sum();
    assert_eq!((from_start, resumed), (6_012, 9_018));
    let simulated = after.1 .2 - before.1 .2;
    assert_eq!(
        simulated - from_start,
        1_371,
        "instructions after the records"
    );
}
