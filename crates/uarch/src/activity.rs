//! Per-unit activity accounting for power modeling.

/// A microarchitectural unit whose activity is tracked for the Wattch-
/// style power model (`ssim-power`).
///
/// The set mirrors the units the paper's Table 4 reports power for:
/// fetch, dispatch and issue logic, RUU, LSQ, branch predictor, caches,
/// TLBs, register file and function units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// Fetch engine + IFQ.
    Fetch,
    /// Branch-direction tables, BTB and RAS.
    Bpred,
    /// L1 instruction cache.
    ICache,
    /// Instruction TLB.
    Itlb,
    /// Decode/rename logic.
    Dispatch,
    /// Register update unit (window + ROB).
    Ruu,
    /// Load/store queue.
    Lsq,
    /// Issue selection logic and result buses.
    Issue,
    /// Architectural register file.
    RegFile,
    /// Integer ALUs (incl. multiply/divide).
    IntAlu,
    /// Floating-point units.
    FpAlu,
    /// L1 data cache.
    DCache,
    /// Data TLB.
    Dtlb,
    /// Unified L2 cache.
    L2,
}

impl Unit {
    /// All tracked units, in a stable order.
    pub const ALL: [Unit; 14] = [
        Unit::Fetch,
        Unit::Bpred,
        Unit::ICache,
        Unit::Itlb,
        Unit::Dispatch,
        Unit::Ruu,
        Unit::Lsq,
        Unit::Issue,
        Unit::RegFile,
        Unit::IntAlu,
        Unit::FpAlu,
        Unit::DCache,
        Unit::Dtlb,
        Unit::L2,
    ];

    /// Dense index in `0..14` (discriminants follow the declaration
    /// order of [`Unit::ALL`]; a unit test pins the correspondence).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Activity of one unit: total accesses, and how many cycles saw at
/// least one access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitActivity {
    /// Total accesses over the run.
    pub accesses: u64,
    /// Cycles in which the unit was accessed at least once.
    pub used_cycles: u64,
}

/// Activity counters for all units over a simulation run.
///
/// The Wattch `cc3` clock-gating model needs, per cycle, the fraction of
/// a unit's ports in use — and `0.1 × Pmax` when idle. Summing the
/// per-cycle linear term over the run gives exactly
/// `Pmax × accesses / ports`, so tracking `(accesses, used_cycles)` per
/// unit is sufficient and O(1) per access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityCounters {
    units: [UnitActivity; Unit::ALL.len()],
    /// Per unit, the last cycle with a recorded access (`u64::MAX` for
    /// none): scratch state of a running simulation, which
    /// [`ActivityCounters::set_cycles`] clears.
    last_used: [u64; Unit::ALL.len()],
    cycles: u64,
}

impl Default for ActivityCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl ActivityCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        ActivityCounters {
            units: Default::default(),
            last_used: [u64::MAX; Unit::ALL.len()],
            cycles: 0,
        }
    }

    /// Records one access to `unit` during `cycle`.
    #[inline]
    pub fn record(&mut self, unit: Unit, cycle: u64) {
        self.record_n(unit, cycle, 1);
    }

    /// Records `n` accesses to `unit` during `cycle`.
    #[inline]
    pub fn record_n(&mut self, unit: Unit, cycle: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = unit.index();
        self.units[i].accesses += n;
        if self.last_used[i] != cycle {
            self.last_used[i] = cycle;
            self.units[i].used_cycles += 1;
        }
    }

    /// Adds `a` to `unit`'s totals, as records in cycles that no record
    /// of these counters has used yet would: the per-cycle markers stay
    /// as they are.
    pub fn add(&mut self, unit: Unit, a: UnitActivity) {
        let u = &mut self.units[unit.index()];
        u.accesses += a.accesses;
        u.used_cycles += a.used_cycles;
    }

    /// Sets the total cycle count of the run and clears the per-cycle
    /// markers (call once at the end). A finished run's counters then
    /// hold only totals, so two runs with the same totals compare equal
    /// however their records were made.
    pub fn set_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
        self.last_used = [u64::MAX; Unit::ALL.len()];
    }

    /// Total cycles of the run.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Activity of one unit.
    pub fn unit(&self, unit: Unit) -> UnitActivity {
        self.units[unit.index()]
    }

    /// Cycles in which `unit` performed no access.
    pub fn idle_cycles(&self, unit: Unit) -> u64 {
        self.cycles.saturating_sub(self.unit(unit).used_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, u) in Unit::ALL.iter().enumerate() {
            assert_eq!(u.index(), i);
        }
    }

    #[test]
    fn used_cycles_counted_once_per_cycle() {
        let mut a = ActivityCounters::new();
        a.record(Unit::Ruu, 5);
        a.record(Unit::Ruu, 5);
        a.record(Unit::Ruu, 6);
        a.set_cycles(10);
        let u = a.unit(Unit::Ruu);
        assert_eq!(u.accesses, 3);
        assert_eq!(u.used_cycles, 2);
        assert_eq!(a.idle_cycles(Unit::Ruu), 8);
    }

    /// Finished counters hold only totals: records in other cycles
    /// that add up to the same totals compare equal.
    #[test]
    fn set_cycles_leaves_only_totals() {
        let (mut a, mut b) = (ActivityCounters::new(), ActivityCounters::new());
        a.record_n(Unit::Lsq, 3, 2);
        b.record_n(Unit::Lsq, 7, 2);
        assert_ne!(a, b);
        a.set_cycles(8);
        b.set_cycles(8);
        assert_eq!(a, b);
        b.add(
            Unit::Lsq,
            UnitActivity {
                accesses: 1,
                used_cycles: 1,
            },
        );
        a.record(Unit::Lsq, 9);
        a.set_cycles(8);
        assert_eq!(a, b);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut a = ActivityCounters::new();
        a.record_n(Unit::Lsq, 1, 0);
        assert_eq!(a.unit(Unit::Lsq), UnitActivity::default());
    }

    #[test]
    fn cycle_zero_counts_as_used() {
        let mut a = ActivityCounters::new();
        a.record(Unit::Fetch, 0);
        assert_eq!(a.unit(Unit::Fetch).used_cycles, 1);
    }
}
