//! Fused-simulation throughput measurement, shared by the `sim_speed`
//! binary and the `"sim"` section of `perf_report`'s
//! `results/BENCH_parallel.json`.
//!
//! Three phases over the same `(profile, r, machine, seeds)` grid, each
//! covering one generation-and-simulation shape a design sweep can take
//! per point:
//!
//! 1. **reference** — `StatisticalProfile::generate` (which lowers the
//!    profile afresh per call) followed by the frozen pre-optimisation
//!    simulator (`simulate_trace_reference`): the honest per-point cost
//!    before the fused engine existed;
//! 2. **unfused** — one lowering shared across seeds, traces
//!    materialised per seed, simulated by the optimised backend with
//!    engine working buffers reused ([`SimEngine::simulate`]);
//! 3. **fused** — same shared lowering, the walk writing packed words
//!    straight into the simulator's buffer with no materialised trace
//!    ([`SimEngine::simulate_fused`]).
//!
//! Every phase must produce the identical [`SimResult`] per seed — the
//! measurement asserts full-struct equality in-measurement, so the
//! speedup numbers can never come from divergence.

use ssim::core::simulate_trace_reference;
use ssim::prelude::*;
use std::time::Instant;

/// Wall-clock and throughput numbers for one fused-simulation
/// measurement run.
#[derive(Debug, Clone)]
pub struct SimSpeed {
    /// Reduction factor used.
    pub r: u64,
    /// Simulated points (seeds) per phase.
    pub iters: u32,
    /// Committed instructions per phase (identical across phases;
    /// asserted).
    pub total_instrs: u64,
    /// Total seconds, generate-per-point + frozen reference simulator.
    pub reference_s: f64,
    /// Total seconds, shared lowering + materialised traces + optimised
    /// simulator with reused buffers.
    pub unfused_s: f64,
    /// Total seconds, shared lowering + fused generate-and-simulate.
    pub fused_s: f64,
}

impl SimSpeed {
    /// End-to-end sweep-throughput gain of the fused engine over the
    /// pre-optimisation per-point shape — the headline number.
    pub fn fused_speedup(&self) -> f64 {
        self.reference_s / self.fused_s.max(1e-12)
    }

    /// Gain of the optimised-but-unfused path over the reference shape
    /// (isolates backend optimisation + lowering reuse from fusion).
    pub fn unfused_speedup(&self) -> f64 {
        self.reference_s / self.unfused_s.max(1e-12)
    }

    /// Committed instructions simulated per second on a phase's total
    /// seconds.
    pub fn instrs_per_s(&self, phase_s: f64) -> f64 {
        self.total_instrs as f64 / phase_s.max(1e-12)
    }

    /// The `"sim"` JSON object embedded in `BENCH_parallel.json` (and
    /// the whole of `results/BENCH_sim.json`).
    pub fn json(&self) -> String {
        format!(
            "{{{}, \"r\": {}, \"iters\": {}, \"total_instrs\": {}, \
             \"reference_s\": {:.4}, \"unfused_s\": {:.4}, \"fused_s\": {:.4}, \
             \"reference_instrs_per_s\": {:.0}, \"unfused_instrs_per_s\": {:.0}, \
             \"fused_instrs_per_s\": {:.0}, \
             \"unfused_speedup\": {:.2}, \"fused_speedup\": {:.2}}}",
            crate::host_header_json(),
            self.r,
            self.iters,
            self.total_instrs,
            self.reference_s,
            self.unfused_s,
            self.fused_s,
            self.instrs_per_s(self.reference_s),
            self.instrs_per_s(self.unfused_s),
            self.instrs_per_s(self.fused_s),
            self.unfused_speedup(),
            self.fused_speedup(),
        )
    }

    /// Human-readable phase summary.
    pub fn summary(&self) -> String {
        format!(
            "sweep shape: reference {:.0}k instrs/s | unfused reuse {:.0}k instrs/s ({:.1}x) | \
             fused {:.0}k instrs/s ({:.1}x)",
            self.instrs_per_s(self.reference_s) / 1e3,
            self.instrs_per_s(self.unfused_s) / 1e3,
            self.unfused_speedup(),
            self.instrs_per_s(self.fused_s) / 1e3,
            self.fused_speedup(),
        )
    }
}

/// Measures every phase on one `(profile, machine)` pair. Seeds
/// `0..iters` per phase; asserts bit-identical [`SimResult`]s across
/// all three paths.
pub fn measure_sim_speed(
    profile: &StatisticalProfile,
    machine: &MachineConfig,
    r: u64,
    iters: u32,
) -> SimSpeed {
    assert!(iters > 0, "at least one iteration");

    // Warm-up outside the timed loops (page-in, branch warmup).
    let _ = simulate_fused(&profile.compile(r), 0, machine);

    // Phase 1: the pre-fusion per-point shape. `generate` lowers the
    // profile on every call — exactly what a sweep paid per point —
    // and the frozen reference simulator is the pre-optimisation
    // backend, preserved verbatim for this comparison (and for the
    // equivalence suite).
    let t = Instant::now();
    let reference: Vec<SimResult> = (0..iters)
        .map(|seed| simulate_trace_reference(&profile.generate(r, u64::from(seed)), machine))
        .collect();
    let reference_s = t.elapsed().as_secs_f64();

    // Phase 2: shared lowering + materialised traces + optimised
    // backend with reused working buffers. The lowering is inside the
    // timed region: the phases must stay honest end-to-end costs.
    let t = Instant::now();
    let sampler = profile.compile(r);
    let mut engine = SimEngine::new();
    let unfused: Vec<SimResult> = (0..iters)
        .map(|seed| engine.simulate(&sampler.generate(u64::from(seed)), machine))
        .collect();
    let unfused_s = t.elapsed().as_secs_f64();

    // Phase 3: fused — no trace is ever materialised.
    let t = Instant::now();
    let sampler = profile.compile(r);
    let mut engine = SimEngine::new();
    let fused: Vec<SimResult> = (0..iters)
        .map(|seed| engine.simulate_fused(&sampler, u64::from(seed), machine))
        .collect();
    let fused_s = t.elapsed().as_secs_f64();

    // The speedup is only meaningful over identical work: every field
    // of every result must match bit for bit.
    assert_eq!(reference, unfused, "unfused path diverged from reference");
    assert_eq!(reference, fused, "fused path diverged from reference");

    let total_instrs = reference.iter().map(|r| r.instructions).sum();
    SimSpeed {
        r,
        iters,
        total_instrs,
        reference_s,
        unfused_s,
        fused_s,
    }
}
