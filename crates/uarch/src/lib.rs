//! Cycle-level superscalar out-of-order processor simulation.
//!
//! This crate is the framework's `sim-outorder` equivalent: a
//! configurable superscalar, out-of-order pipeline with an instruction
//! fetch queue (IFQ), a register update unit (RUU — unified issue
//! window + reorder buffer, SimpleScalar style), a load/store queue
//! (LSQ), functional-unit pools, a hybrid branch predictor and a
//! two-level cache hierarchy.
//!
//! Two simulators share one pipeline:
//!
//! * [`ExecSim`] — **execution-driven** simulation (EDS): the reference
//!   simulator. It executes a real program through
//!   [`ssim_func::Machine`] as its correct-path oracle, predicts
//!   branches, fetches and dispatches wrong-path instructions after
//!   mispredictions, and drives live cache/TLB models.
//! * the **synthetic trace simulator** in `ssim-core` — reuses
//!   [`Core`] (the backend: dispatch/issue/writeback/commit) but feeds
//!   it statistically generated instructions whose cache and branch
//!   behaviour is pre-assigned, per §2.3 of the paper.
//!
//! Both emit the same [`SimResult`] (IPC, occupancies, branch/cache
//! statistics) and the same [`ActivityCounters`], which the
//! `ssim-power` crate turns into energy estimates.
//!
//! # Examples
//!
//! ```no_run
//! use ssim_uarch::{ExecSim, MachineConfig};
//!
//! let config = MachineConfig::baseline(); // the paper's Table 2
//! let workload = ssim_workloads::by_name("gzip").unwrap();
//! let program = workload.program();
//! let result = ExecSim::new(&config, &program).run(1_000_000);
//! println!("IPC = {:.3}", result.ipc());
//! ```

mod activity;
mod backend;
mod config;
mod exec;
mod result;

pub use activity::{ActivityCounters, Unit, UnitActivity};
pub use backend::{
    BranchResolution, Core, CoreScratch, DispatchInstr, DispatchOutcome, MemKind, CORE_COUNTERS,
};
pub use config::{FuConfig, LatencyConfig, MachineConfig};
pub use exec::ExecSim;
pub use result::{BranchStats, OccupancyMeter, SimResult};
