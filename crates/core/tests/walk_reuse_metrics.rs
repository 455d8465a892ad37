//! The `tracesim.walks_reused` counter, pinned against the walks the
//! `synth.time` timer counts.
//!
//! The observability registry is process-global, so this test has its
//! own binary: no other test can walk or simulate while it reads the
//! counters.

use ssim_core::{profile, ProfileConfig, SimEngine};
use ssim_uarch::MachineConfig;

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
    ssim_obs::force_enable();
    let w = ssim_workloads::by_name("gzip").expect("suite workload");
    let p = profile(
        &w.program(),
        &ProfileConfig::new(&MachineConfig::baseline()).instructions(30_000),
    );
    let sampler = p.compile(10);
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
