//! Synthetic-generation throughput measurement, shared by the
//! `synth_speed` binary and the `"synth"` section of `perf_report`'s
//! `results/BENCH_parallel.json`.
//!
//! Two groups of phases over the same `(profile, r, seeds)` grid.
//!
//! End-to-end generation (full traces, byte-identity asserted):
//!
//! 1. **reference** — `generate_reference`, the pre-compilation
//!    interpreter (hash-probe walk, O(nodes) restart scan, `BTreeMap`
//!    histogram draws);
//! 2. **cold** — `StatisticalProfile::generate`, lowering the profile
//!    afresh for every trace (what a one-shot caller pays);
//! 3. **compiled** — one `compile` then `CompiledSampler::generate`
//!    per seed (the multi-seed / sweep shape the engine exists for).
//!
//! Walk subsystem in isolation (`walk_reference` vs
//! `CompiledSampler::walk` — start-node selection, occurrence
//! bookkeeping and edge draws with emission stubbed out, `WalkReport`
//! equality asserted). This is where the tables change the complexity
//! class — per-step hash probes become array indexing and the O(nodes)
//! restart scan becomes an O(log nodes) Fenwick prefix search — so it
//! is measured separately from the end-to-end number, whose emission
//! and RNG work is identical on both paths by construction. The walk
//! loops are short, so they run interleaved min-of-reps to keep
//! scheduler noise out of the ratio.
//!
//! Every phase must produce identical output (traces or walk reports);
//! the measurement asserts it, so the speedup numbers can never come
//! from divergence.

use ssim::prelude::*;
use std::time::Instant;

/// Interleaved repetitions for the walk-only loops.
const WALK_REPS: usize = 3;

/// Wall-clock and throughput numbers for one measurement run.
#[derive(Debug, Clone)]
pub struct SynthSpeed {
    /// Reduction factor used.
    pub r: u64,
    /// Traces generated per phase.
    pub iters: u32,
    /// Instructions per trace (identical across phases and seeds only
    /// in total; this is the per-phase total).
    pub total_instrs: u64,
    /// Walk steps (blocks emitted) per end-to-end phase, from the
    /// observability counters.
    pub total_steps: u64,
    /// Total seconds per end-to-end phase.
    pub reference_s: f64,
    /// Cold path: compile + walk per trace.
    pub cold_s: f64,
    /// Reuse path: walk only, artifact compiled once.
    pub compiled_s: f64,
    /// Seconds for the single lowering the reuse path amortises.
    pub compile_s: f64,
    /// Walk steps per walk-only phase (equal on both paths; asserted).
    pub walk_steps: u64,
    /// Walk-only phase seconds, interpreter (`walk_reference`).
    pub walk_reference_s: f64,
    /// Walk-only phase seconds, compiled tables (`CompiledSampler::walk`).
    pub walk_compiled_s: f64,
}

impl SynthSpeed {
    /// Walk-subsystem throughput gain: compiled tables over the
    /// interpreter, emission excluded — the headline number.
    pub fn walk_speedup(&self) -> f64 {
        self.walk_reference_s / self.walk_compiled_s.max(1e-12)
    }

    /// End-to-end generation gain of the reused compiled artifact over
    /// the reference interpreter. Bounded well below the walk number:
    /// both paths draw the identical RNG sequence and build identical
    /// instruction records, and that shared floor dominates a full
    /// generation.
    pub fn generate_speedup(&self) -> f64 {
        self.reference_s / self.compiled_s.max(1e-12)
    }

    /// End-to-end gain when every trace pays compilation.
    pub fn cold_speedup(&self) -> f64 {
        self.reference_s / self.cold_s.max(1e-12)
    }

    /// Instructions generated per second on a phase's total seconds.
    pub fn instrs_per_s(&self, phase_s: f64) -> f64 {
        self.total_instrs as f64 / phase_s.max(1e-12)
    }

    /// End-to-end walk steps per second on a phase's total seconds.
    pub fn steps_per_s(&self, phase_s: f64) -> f64 {
        self.total_steps as f64 / phase_s.max(1e-12)
    }

    /// Walk-only steps per second on a walk phase's seconds.
    pub fn walk_steps_per_s(&self, phase_s: f64) -> f64 {
        self.walk_steps as f64 / phase_s.max(1e-12)
    }

    /// The `"synth"` JSON object embedded in `BENCH_parallel.json`.
    pub fn json(&self) -> String {
        format!(
            "{{\"r\": {}, \"iters\": {}, \"total_instrs\": {}, \"total_steps\": {}, \
             \"reference_s\": {:.4}, \"cold_s\": {:.4}, \"compiled_s\": {:.4}, \
             \"compile_s\": {:.4}, \
             \"reference_instrs_per_s\": {:.0}, \"cold_instrs_per_s\": {:.0}, \
             \"compiled_instrs_per_s\": {:.0}, \
             \"walk_steps\": {}, \
             \"walk_reference_steps_per_s\": {:.0}, \"walk_compiled_steps_per_s\": {:.0}, \
             \"walk_speedup\": {:.2}, \"generate_speedup\": {:.2}, \"cold_speedup\": {:.2}}}",
            self.r,
            self.iters,
            self.total_instrs,
            self.total_steps,
            self.reference_s,
            self.cold_s,
            self.compiled_s,
            self.compile_s,
            self.instrs_per_s(self.reference_s),
            self.instrs_per_s(self.cold_s),
            self.instrs_per_s(self.compiled_s),
            self.walk_steps,
            self.walk_steps_per_s(self.walk_reference_s),
            self.walk_steps_per_s(self.walk_compiled_s),
            self.walk_speedup(),
            self.generate_speedup(),
            self.cold_speedup(),
        )
    }

    /// Human-readable phase summary.
    pub fn summary(&self) -> String {
        format!(
            "walk only: {:.1}M steps/s -> {:.1}M steps/s ({:.1}x)\n\
             end to end: reference {:.0}k instrs/s | cold-compile {:.0}k instrs/s | \
             reuse-compiled {:.0}k instrs/s ({:.1}x reuse, {:.1}x cold)",
            self.walk_steps_per_s(self.walk_reference_s) / 1e6,
            self.walk_steps_per_s(self.walk_compiled_s) / 1e6,
            self.walk_speedup(),
            self.instrs_per_s(self.reference_s) / 1e3,
            self.instrs_per_s(self.cold_s) / 1e3,
            self.instrs_per_s(self.compiled_s) / 1e3,
            self.generate_speedup(),
            self.cold_speedup(),
        )
    }
}

/// Walk-step delta from the observability counters (requires
/// `obs::force_enable()` — the caller's responsibility).
fn walk_steps() -> u64 {
    ssim_obs::snapshot()
        .counter("synth.walk_steps")
        .unwrap_or(0)
}

/// Measures every phase on one profile. Seeds `0..iters` per phase;
/// asserts byte-identical traces and equal walk reports across paths.
pub fn measure_synth_speed(profile: &StatisticalProfile, r: u64, iters: u32) -> SynthSpeed {
    assert!(iters > 0, "at least one iteration");

    // Warm-up + correctness pin: all three paths agree byte for byte.
    let reference = profile.generate_reference(r, 0);
    assert_eq!(reference.instrs(), profile.generate(r, 0).instrs());

    let steps0 = walk_steps();
    let t = Instant::now();
    let mut total_instrs = 0u64;
    for seed in 0..iters {
        total_instrs += profile.generate_reference(r, u64::from(seed)).len() as u64;
    }
    let reference_s = t.elapsed().as_secs_f64();
    let total_steps = walk_steps() - steps0;

    let t = Instant::now();
    let mut cold_instrs = 0u64;
    for seed in 0..iters {
        cold_instrs += profile.generate(r, u64::from(seed)).len() as u64;
    }
    let cold_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sampler = profile.compile(r);
    let compile_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut compiled_instrs = 0u64;
    for seed in 0..iters {
        compiled_instrs += sampler.generate(u64::from(seed)).len() as u64;
    }
    let compiled_s = t.elapsed().as_secs_f64();

    assert_eq!(total_instrs, cold_instrs, "cold path diverged");
    assert_eq!(total_instrs, compiled_instrs, "reuse path diverged");

    // Walk-only phases. Correctness first, outside any timed loop.
    for seed in 0..iters {
        assert_eq!(
            profile.walk_reference(r, u64::from(seed)),
            sampler.walk(u64::from(seed)),
            "walk subsystem diverged at seed {seed}"
        );
    }
    let mut walk_steps_total = 0u64;
    let mut walk_compiled_s = f64::MAX;
    let mut walk_reference_s = f64::MAX;
    for _ in 0..WALK_REPS {
        let t = Instant::now();
        let mut steps = 0u64;
        for seed in 0..iters {
            steps += sampler.walk(u64::from(seed)).steps;
        }
        walk_compiled_s = walk_compiled_s.min(t.elapsed().as_secs_f64());
        walk_steps_total = steps;

        let t = Instant::now();
        let mut ref_steps = 0u64;
        for seed in 0..iters {
            ref_steps += profile.walk_reference(r, u64::from(seed)).steps;
        }
        walk_reference_s = walk_reference_s.min(t.elapsed().as_secs_f64());
        assert_eq!(steps, ref_steps, "walk step totals diverged");
    }

    SynthSpeed {
        r,
        iters,
        total_instrs,
        total_steps,
        reference_s,
        cold_s,
        compiled_s,
        compile_s,
        walk_steps: walk_steps_total,
        walk_reference_s,
        walk_compiled_s,
    }
}
