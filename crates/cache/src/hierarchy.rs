//! The two-level memory hierarchy with a unified L2.

use crate::cache::{Cache, CacheConfig};
use crate::tlb::TlbConfig;

/// Geometry of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
}

impl HierarchyConfig {
    /// The paper's Table 2 hierarchy: 8 KB/2-way/32 B L1I,
    /// 16 KB/4-way/32 B L1D, 1 MB/4-way/64 B unified L2,
    /// 32-entry 8-way TLBs with 4 KB pages.
    pub fn baseline() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new(8 << 10, 2, 32),
            l1d: CacheConfig::new(16 << 10, 4, 32),
            l2: CacheConfig::new(1 << 20, 4, 64),
            itlb: TlbConfig::baseline(),
            dtlb: TlbConfig::baseline(),
        }
    }

    /// Scales all three cache capacities by `factor` (TLBs fixed) — the
    /// Table 4 cache-size sensitivity axis.
    ///
    /// # Panics
    ///
    /// Panics if a scaled geometry is invalid.
    pub fn scaled(&self, factor: f64) -> Self {
        HierarchyConfig {
            l1i: self.l1i.scaled(factor),
            l1d: self.l1d.scaled(factor),
            l2: self.l2.scaled(factor),
            itlb: self.itlb,
            dtlb: self.dtlb,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// The outcome of one memory access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// L1 miss (instruction or data, depending on the access side).
    pub l1_miss: bool,
    /// Unified-L2 miss (only possible when `l1_miss`).
    pub l2_miss: bool,
    /// TLB miss on the access side.
    pub tlb_miss: bool,
}

/// The six locality probabilities of the paper's statistical profile
/// (§2.1.2), as raw miss rates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HierarchyStats {
    /// L1 I-cache miss rate.
    pub l1i_miss_rate: f64,
    /// L2 miss rate, instruction accesses only.
    pub l2i_miss_rate: f64,
    /// L1 D-cache miss rate.
    pub l1d_miss_rate: f64,
    /// L2 miss rate, data accesses only.
    pub l2d_miss_rate: f64,
    /// I-TLB miss rate.
    pub itlb_miss_rate: f64,
    /// D-TLB miss rate.
    pub dtlb_miss_rate: f64,
    /// L1 D-cache miss rate over *loads only* (stores usually revisit
    /// lines their loads touched, so the combined rate is diluted;
    /// synthetic-trace validation compares load rates).
    pub l1d_load_miss_rate: f64,
}

/// The composed memory hierarchy.
///
/// L2 is unified: both instruction and data refills access the same
/// structure, but misses are accounted separately by source, as the
/// paper requires ("we make a distinction between L2 cache misses due to
/// instructions and due to data", §2.1.2 footnote).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Cache,
    dtlb: Cache,
    l2i: (u64, u64),   // (accesses, misses) from the instruction side
    l2d: (u64, u64),   // (accesses, misses) from the data side
    loads: (u64, u64), // (accesses, misses) from loads specifically
}

impl Hierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            itlb: Cache::new(config.itlb.geometry()),
            dtlb: Cache::new(config.dtlb.geometry()),
            l2i: (0, 0),
            l2d: (0, 0),
            loads: (0, 0),
        }
    }

    /// Fetches the instruction block at byte address `addr`.
    pub fn access_instr(&mut self, addr: u64) -> AccessOutcome {
        let tlb_miss = !self.itlb.access(addr);
        let l1_miss = !self.l1i.access(addr);
        let mut l2_miss = false;
        if l1_miss {
            self.l2i.0 += 1;
            l2_miss = !self.l2.access(addr);
            if l2_miss {
                self.l2i.1 += 1;
            }
        }
        AccessOutcome {
            l1_miss,
            l2_miss,
            tlb_miss,
        }
    }

    /// Performs a *load* access, additionally tracked in the load-only
    /// miss rate.
    pub fn access_load(&mut self, addr: u64) -> AccessOutcome {
        let out = self.access_data(addr);
        self.loads.0 += 1;
        if out.l1_miss {
            self.loads.1 += 1;
        }
        out
    }

    /// Performs a data access (load or store) at byte address `addr`.
    pub fn access_data(&mut self, addr: u64) -> AccessOutcome {
        let tlb_miss = !self.dtlb.access(addr);
        let l1_miss = !self.l1d.access(addr);
        let mut l2_miss = false;
        if l1_miss {
            self.l2d.0 += 1;
            l2_miss = !self.l2.access(addr);
            if l2_miss {
                self.l2d.1 += 1;
            }
        }
        AccessOutcome {
            l1_miss,
            l2_miss,
            tlb_miss,
        }
    }

    /// The six miss rates accumulated so far.
    pub fn stats(&self) -> HierarchyStats {
        let rate = |(a, m): (u64, u64)| if a == 0 { 0.0 } else { m as f64 / a as f64 };
        HierarchyStats {
            l1i_miss_rate: self.l1i.miss_rate(),
            l2i_miss_rate: rate(self.l2i),
            l1d_miss_rate: self.l1d.miss_rate(),
            l2d_miss_rate: rate(self.l2d),
            itlb_miss_rate: self.itlb.miss_rate(),
            dtlb_miss_rate: self.dtlb.miss_rate(),
            l1d_load_miss_rate: rate(self.loads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_geometry_matches_table2() {
        let c = HierarchyConfig::baseline();
        assert_eq!(c.l1i.size, 8 << 10);
        assert_eq!(c.l1d.assoc, 4);
        assert_eq!(c.l2.block, 64);
        assert_eq!(c.itlb.entries, 32);
    }

    #[test]
    fn l2_only_touched_on_l1_miss() {
        let mut h = Hierarchy::new(&HierarchyConfig::baseline());
        let first = h.access_data(0x1234);
        assert!(first.l1_miss && first.l2_miss && first.tlb_miss);
        let second = h.access_data(0x1234);
        assert!(!second.l1_miss && !second.l2_miss && !second.tlb_miss);
        let s = h.stats();
        assert!((s.l1d_miss_rate - 0.5).abs() < 1e-12);
        assert!(
            (s.l2d_miss_rate - 1.0).abs() < 1e-12,
            "one L2 access, one miss"
        );
    }

    #[test]
    fn unified_l2_shares_capacity_between_sides() {
        let mut h = Hierarchy::new(&HierarchyConfig::baseline());
        // Instruction fetch warms the L2 block at 0x4000.
        h.access_instr(0x4000);
        // A data access to the same block hits in L2 (misses L1D).
        let out = h.access_data(0x4000);
        assert!(out.l1_miss);
        assert!(
            !out.l2_miss,
            "unified L2 was warmed by the instruction side"
        );
    }

    #[test]
    fn l2_miss_accounting_split_by_source() {
        let mut h = Hierarchy::new(&HierarchyConfig::baseline());
        h.access_instr(0x8000);
        h.access_data(0x10_0000);
        let s = h.stats();
        assert!((s.l2i_miss_rate - 1.0).abs() < 1e-12);
        assert!((s.l2d_miss_rate - 1.0).abs() < 1e-12);
        assert!((s.itlb_miss_rate - 1.0).abs() < 1e-12);
        assert!((s.dtlb_miss_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_grows_capacity() {
        let base = HierarchyConfig::baseline();
        let big = base.scaled(2.0);
        assert_eq!(big.l1i.size, 16 << 10);
        assert_eq!(big.l2.size, 2 << 20);
        assert_eq!(big.itlb.entries, base.itlb.entries);
    }
}
