//! Integration tests for the parallel experiment engine and the
//! on-disk profile cache.
//!
//! The engine's contract is that `SSIM_THREADS` is a *speed* knob, not
//! a *results* knob: any sweep must produce bit-identical numbers at
//! any thread count. The cache's contract is that a hit returns a
//! profile indistinguishable from the freshly computed one.

use ssim::prelude::*;
use ssim_bench::profile_cache::{cache_path, profile_cached};
use ssim_bench::{cache_stats, par_map_with};

/// A small but real sweep: one profile, one synthetic trace, many
/// machine configurations — the exact shape of `sec46_design_space`.
fn mini_sweep(threads: usize) -> Vec<(u64, u64, String)> {
    let workload = ssim::workloads::by_name("gzip").expect("gzip exists");
    let base = MachineConfig::baseline();
    let p = profile(
        &workload.program(),
        &ProfileConfig::new(&base)
            .skip(100_000)
            .instructions(120_000),
    );
    let trace = p.generate(20, 1);
    let points: Vec<MachineConfig> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&w| {
            [16usize, 32, 64, 128].map(|win| base.clone().with_width(w).with_window(win))
        })
        .collect();
    par_map_with(threads, &points, |cfg| {
        let r = simulate_trace(&trace, cfg);
        (r.cycles, r.instructions, format!("{:.6}", r.ipc()))
    })
}

#[test]
fn sweep_results_identical_at_any_thread_count() {
    let serial = mini_sweep(1);
    assert_eq!(serial.len(), 16);
    for threads in [2, 4, 8, 32] {
        assert_eq!(
            serial,
            mini_sweep(threads),
            "thread count {threads} changed sweep results"
        );
    }
}

#[test]
fn profile_cache_hit_is_byte_identical() {
    // A private cache root keeps this test independent of any real
    // `results/.profile-cache` content. Only this test touches the env.
    let dir = std::env::temp_dir().join(format!("ssim-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SSIM_PROFILE_CACHE_DIR", &dir);
    std::env::remove_var("SSIM_NO_PROFILE_CACHE");

    let workload = ssim::workloads::by_name("twolf").expect("twolf exists");
    let cfg = ProfileConfig::new(&MachineConfig::baseline())
        .skip(50_000)
        .instructions(80_000);

    let (h0, m0) = cache_stats();
    let fresh = profile_cached(workload, &cfg);
    let (h1, m1) = cache_stats();
    assert_eq!((h1, m1), (h0, m0 + 1), "first call must miss");
    let on_disk = std::fs::read(cache_path(workload.name(), &cfg)).expect("miss populated cache");

    let cached = profile_cached(workload, &cfg);
    let (h2, m2) = cache_stats();
    assert_eq!((h2, m2), (h1 + 1, m1), "second call must hit");

    // The cached profile serialises to exactly the bytes on disk, which
    // are exactly the bytes the fresh profile serialises to.
    let mut fresh_bytes = Vec::new();
    fresh.save(&mut fresh_bytes).unwrap();
    let mut cached_bytes = Vec::new();
    cached.save(&mut cached_bytes).unwrap();
    assert_eq!(
        fresh_bytes, on_disk,
        "stored bytes differ from fresh profile"
    );
    assert_eq!(
        cached_bytes, on_disk,
        "reloaded profile re-serialises differently"
    );

    // And it drives identical downstream results.
    let machine = MachineConfig::baseline();
    let (ta, tb) = (fresh.generate(15, 7), cached.generate(15, 7));
    assert_eq!(ta, tb);
    let (ra, rb) = (simulate_trace(&ta, &machine), simulate_trace(&tb, &machine));
    assert_eq!((ra.cycles, ra.instructions), (rb.cycles, rb.instructions));

    let _ = std::fs::remove_dir_all(&dir);
}
