//! Host speed: a fixed piece of work that no repository code takes part
//! in, timed beside the workload.
//!
//! The benchmark runs on shared hosts whose speed drifts with the
//! neighbours' load: the same sweep ran at 400 and at 650 points/s ten
//! minutes apart, and a whole run can sit in a slow phase. `sweep` and
//! `study` time this kernel before every pass and report their timings at
//! the reference host speed ([`REF_MS`]): a time is divided by
//! [`slowness`], a rate multiplied by it. The raw figures stay in each
//! run's record. The kernel is the benchmark's own code, so no change to
//! the repository can move it.

use crate::stats::median;
use std::sync::OnceLock;
use std::time::Instant;

const TABLE_WORDS: usize = 1 << 18;
const STEPS: u64 = 2_000_000;

/// Kernel milliseconds on an idle 2-vCPU Intel Xeon VM, the reference
/// host speed.
pub const REF_MS: f64 = 11.0;

/// Seconds one thread takes for the fixed work: dependent pseudo-random
/// loads over a 2 MiB table, data-dependent branches and integer mixing.
/// The table is built once and shared, so sampling adds a constant
/// 2 MiB to the process's memory.
fn kernel_s() -> f64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
            .collect()
    });
    let t0 = Instant::now();
    let (mut x, mut acc) = (1u64, 0u64);
    for _ in 0..STEPS {
        let v = table[(x as usize) & (TABLE_WORDS - 1)];
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(v | 1);
        if v & 4 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else {
            acc ^= x.rotate_left(7);
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// How much slower than the reference the host ran, from the kernel
/// times (seconds) sampled during a run.
pub fn slowness(samples_s: &[f64]) -> f64 {
    median(samples_s) * 1e3 / REF_MS
}

/// The fixed work on `threads` threads at once: the mean seconds.
pub fn host_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads).map(|_| s.spawn(kernel_s)).collect();
        hs.into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum::<f64>()
            / threads as f64
    })
}
