//! Simulation results and statistics.

use crate::activity::ActivityCounters;
use ssim_cache::HierarchyStats;

/// A per-cycle occupancy accumulator (mean structure occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancyMeter {
    sum: u64,
    samples: u64,
}

impl OccupancyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one per-cycle occupancy sample.
    #[inline]
    pub fn sample(&mut self, occupancy: u64) {
        self.sum += occupancy;
        self.samples += 1;
    }

    /// Records `n` consecutive cycles at the same occupancy — exactly
    /// `n` [`OccupancyMeter::sample`] calls. Lets the simulator account
    /// for skipped quiet cycles without walking them.
    #[inline]
    pub fn sample_n(&mut self, occupancy: u64, n: u64) {
        self.sum += occupancy * n;
        self.samples += n;
    }

    /// Records `n` samples that sum to `sum`.
    #[inline]
    pub fn add(&mut self, sum: u64, n: u64) {
        self.sum += sum;
        self.samples += n;
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean occupancy over all sampled cycles (`0.0` with no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Number of samples (cycles).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Branch behaviour observed over a run (correct path only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Control-transfer instructions executed.
    pub branches: u64,
    /// Taken control transfers.
    pub taken: u64,
    /// Correct predictions (direction and target).
    pub correct: u64,
    /// Fetch redirections (§2.1.2: BTB miss, direction correct).
    pub redirects: u64,
    /// Full mispredictions.
    pub mispredicts: u64,
}

impl BranchStats {
    /// Mispredictions per 1,000 instructions, the Figure 3 metric.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / instructions as f64
        }
    }
}

/// The outcome of one simulation run (execution-driven or synthetic).
///
/// Equality is exact (bit-level on the floating-point fields): the
/// fused-vs-unfused equivalence suite compares entire results with
/// `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Correct-path instructions committed.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Mean RUU occupancy.
    pub ruu_occupancy: f64,
    /// Mean LSQ occupancy.
    pub lsq_occupancy: f64,
    /// Mean IFQ occupancy.
    pub ifq_occupancy: f64,
    /// Branch statistics.
    pub branch: BranchStats,
    /// Cache miss rates observed during the run (zeroes for synthetic
    /// simulation, which models no caches).
    pub cache: HierarchyStats,
    /// Per-unit activity for power modeling.
    pub activity: ActivityCounters,
}

impl SimResult {
    /// Instructions retired per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch mispredictions per 1,000 committed instructions.
    pub fn mpki(&self) -> f64 {
        self.branch.mpki(self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_means() {
        let mut m = OccupancyMeter::new();
        assert_eq!(m.mean(), 0.0);
        m.sample(2);
        m.sample(4);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.samples(), 2);
    }

    #[test]
    fn ipc_and_mpki() {
        let r = SimResult {
            instructions: 1000,
            cycles: 500,
            branch: BranchStats {
                mispredicts: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(r.ipc(), 2.0);
        assert_eq!(r.mpki(), 5.0);
        let empty = SimResult::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.mpki(), 0.0);
    }
}
