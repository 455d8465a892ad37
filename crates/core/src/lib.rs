//! Statistical simulation with statistical flow graphs.
//!
//! This crate implements the contribution of *"Control Flow Modeling in
//! Statistical Simulation for Accurate and Efficient Processor Design
//! Studies"* (Eeckhout, Bell, Stougie, De Bosschere, John — ISCA 2004):
//!
//! 1. **Statistical profiling** ([`profile`]) — a single functional
//!    pass over a benchmark builds a [`StatisticalProfile`]: a
//!    **statistical flow graph** (SFG) of order `k` capturing basic-
//!    block transition probabilities, plus per-context
//!    microarchitecture-independent characteristics (instruction
//!    classes, operand counts, RAW dependency-distance distributions
//!    capped at 512) and microarchitecture-dependent locality events
//!    (three branch probabilities, six cache/TLB miss rates). Branch
//!    characteristics are gathered with **delayed update**
//!    ([`BranchProfileMode::Delayed`]): predictor lookups and updates
//!    are separated by an IFQ-sized FIFO with squash-and-refill on
//!    detected mispredictions (§2.1.3 of the paper).
//! 2. **Synthetic trace generation**
//!    ([`StatisticalProfile::generate`]) — the SFG is reduced by a
//!    factor `R` and random-walked per the nine-step algorithm of
//!    §2.2, emitting a [`SyntheticTrace`] of instructions with
//!    pre-assigned dependencies, cache hit/miss flags and branch
//!    outcomes. Generation runs on a **compiled sampling engine**
//!    ([`StatisticalProfile::compile`] → [`CompiledSampler`]): the
//!    reduced SFG and every per-context distribution are lowered once
//!    into dense tables (interned `u32` node ids, CSR edges, Fenwick
//!    start-node selection, flat cumulative histograms) and walked in
//!    O(log n) per draw, byte-identical to the reference interpreter
//!    kept in the equivalence tests.
//! 3. **Synthetic trace simulation** ([`simulate_trace`]) — the trace
//!    drives the same out-of-order pipeline backend as the reference
//!    execution-driven simulator (`ssim_uarch::Core`), modeling
//!    wrong-path resource contention but no caches or predictors
//!    (§2.3).
//!
//! # Examples
//!
//! ```no_run
//! use ssim_core::{profile, simulate_trace, ProfileConfig};
//! use ssim_uarch::MachineConfig;
//!
//! let cfg = MachineConfig::baseline();
//! let program = ssim_workloads::by_name("gzip").unwrap().program();
//!
//! // 1. one profiling pass (functional simulation + caches + bpred)
//! let profile = profile(&program, &ProfileConfig::new(&cfg).instructions(2_000_000));
//!
//! // 2. generate a synthetic trace 100x smaller
//! let trace = profile.generate(100, 42);
//!
//! // 3. simulate it — orders of magnitude faster than EDS
//! let result = simulate_trace(&trace, &cfg);
//! println!("predicted IPC = {:.3}", result.ipc());
//! ```

mod analysis;
pub mod fxhash;
mod profiler;
mod sampler;
mod serialize;
mod sfg;
mod synth;
mod tracesim;

pub use analysis::{validate_trace, TraceValidation};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use profiler::{note_loaded_profile, profile, BranchProfileMode, ProfileConfig};
pub use sampler::CompiledSampler;
pub use sfg::{
    BranchCtxStats, Context, ContextStats, ExportedNode, Gram, MissStats, Sfg, SlotStats,
    StatisticalProfile,
};
pub use synth::{
    BranchFlags, DataFlags, SyntheticInstr, SyntheticOutcome, SyntheticTrace, WalkReport,
};
pub use tracesim::{simulate_fused, simulate_trace, SimEngine};

/// The paper's cap on recorded dependency distances (§2.1.1): "we limit
/// the dependency distribution to 512 which still allows the modeling
/// of a wide range of current and near-future microprocessors."
pub const MAX_DEP_DISTANCE: u32 = 512;

/// The paper's retry bound when drawing a dependency that must not be
/// produced by a branch or store (§2.2 step 4).
pub const DEP_RETRIES: usize = 1000;
