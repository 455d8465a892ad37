//! The `tracesim.walks_reused`, `tracesim.points_reused` and
//! `tracesim.segments_reused` counters, pinned against the walks the
//! `synth.time` timer counts and the instructions the driver simulated.
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

    // An unfused call drives the caller's trace in place and leaves the
    // engine's walk alone: the next fused call at the same key (on a
    // machine no kept result answers) reruns the driver, with no walk.
    let other = sampler.generate(3);
    let before_unfused = walks_and_reuses();
    engine.simulate(&other, &machines[1]);
    engine.simulate_fused(&sampler, 1, &machines[n as usize - 1]);
    let end = walks_and_reuses();
    assert_eq!((end.0 - before_unfused.0, end.1 - before_unfused.1), (0, 1));
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

/// `tracesim.segments_reused` so far.
fn segments_reused() -> u64 {
    ssim_obs::snapshot()
        .counter("tracesim.segments_reused")
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
        trace.instrs().any(|i| i.dmem.is_some()),
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
    // Per point: the result, and the instructions simulated and segments
    // replayed on its way.
    let (got, per_point): (Vec<_>, Vec<_>) = schedule
        .iter()
        .map(|(seed, cfg, _)| {
            let (instrs, segments) = (runs_and_points().2, segments_reused());
            let r = engine.simulate_fused(&sampler, *seed, cfg);
            let counts = (runs_and_points().2 - instrs, segments_reused() - segments);
            (r, counts)
        })
        .unzip();
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
    // A run on a new walk, or on a machine its walk has not run, has no
    // segment to replay and simulates its whole trace. The 1-entry LSQ
    // replays the roomy run's segments that no memory operation reached
    // dispatch in (seven, of one instruction each), and simulates the
    // rest.
    let whole = |i: usize| (got[i].instructions, 0);
    assert_eq!(
        per_point,
        [
            whole(0),
            (0, 0),
            (0, 0),
            (got[3].instructions - 7, 7),
            (0, 0),
            whole(5),
            whole(6),
            (0, 0),
            whole(8),
        ]
    );
}

/// Replayed segments count in `tracesim.segments_reused`, and a driver
/// run adds to `tracesim.instructions` only the instructions it
/// simulated, not those of the segments it replayed. The schedule is
/// the one `fused_equivalence.rs` checks for results (bzip2 at seed 1,
/// width 2).
#[test]
fn replaying_points_count_only_what_they_simulate() {
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
    // (machine, how the engine must answer it)
    let schedule = [
        (sized(96, 12), Walk),
        (sized(96, 16), Run),
        (sized(96, 24), Run),
        // Neither queue of the 24-entry LSQ run filled.
        (sized(96, 32), Hit),
        (sized(48, 48), Run),
        (sized(128, 48), Run),
    ];
    let mut engine = SimEngine::new();
    let before = (walks_and_reuses(), runs_and_points());
    // Per point: (segments replayed, instructions simulated, committed).
    let per_point: Vec<(u64, u64, u64)> = schedule
        .iter()
        .map(|(cfg, _)| {
            let (segments, instrs) = (segments_reused(), runs_and_points().2);
            let r = engine.simulate_fused(&sampler, 1, cfg);
            (
                segments_reused() - segments,
                runs_and_points().2 - instrs,
                r.instructions,
            )
        })
        .collect();
    let after = (walks_and_reuses(), runs_and_points());

    let count = |how: Answer| schedule.iter().filter(|s| s.1 == how).count() as u64;
    assert_eq!(
        (
            after.0 .0 - before.0 .0,
            after.0 .1 - before.0 .1,
            after.1 .1 - before.1 .1,
        ),
        (count(Walk), count(Run), count(Hit)),
        "(walks, walks reused, points reused)"
    );
    assert_eq!(after.1 .0 - before.1 .0, count(Walk) + count(Run));
    // Per point: (segments replayed, instructions simulated, committed).
    assert_eq!(
        per_point,
        [
            (0, 3_006, 3_006),
            (34, 562, 3_006),
            (33, 594, 3_006),
            (0, 0, 3_006),
            (35, 545, 3_006),
            (31, 661, 3_006),
        ]
    );
}
