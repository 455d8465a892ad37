//! Wattch-style architectural power modeling.
//!
//! The paper estimates energy per cycle (EPC) with Wattch v1.02 at
//! 0.18 µm / 1.2 GHz, using the most aggressive conditional clock
//! gating (`cc3`): *"a unit that is unused consumes 10% of its max
//! power and a unit that is only used for a fraction x only consumes a
//! fraction x of its max power"* (§3).
//!
//! This crate reproduces that structure:
//!
//! * [`PowerModel::new`] derives a **maximum power** per
//!   microarchitectural unit from the machine configuration with
//!   analytic array/logic scaling formulas (monotone in structure
//!   sizes, the property the Table 4 power-trend experiments rely on);
//! * [`PowerModel::evaluate`] folds the per-unit
//!   [`ActivityCounters`] gathered by
//!   either simulator through the `cc3` rule into a
//!   [`PowerBreakdown`].
//!
//! Because both the execution-driven and the synthetic-trace simulator
//! emit identical activity counters, one code path produces EPC for
//! both — exactly how the paper attaches Wattch to both simulators
//! (§4.2.3).
//!
//! Absolute watts are calibration constants, not measurements; the
//! experiments only rely on relative trends.
//!
//! # Examples
//!
//! ```no_run
//! use ssim_power::PowerModel;
//! use ssim_uarch::{ExecSim, MachineConfig};
//!
//! let cfg = MachineConfig::baseline();
//! let program = ssim_workloads::by_name("gzip").unwrap().program();
//! let result = ExecSim::new(&cfg, &program).run(500_000);
//! let power = PowerModel::new(&cfg);
//! let breakdown = power.evaluate(&result.activity);
//! println!("EPC = {:.2} W/cycle, EDP = {:.3}",
//!          breakdown.epc(), breakdown.edp(result.ipc()));
//! ```

use ssim_uarch::{ActivityCounters, MachineConfig, Unit};

/// Per-unit maximum power and access-port model for one machine
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    pmax: [f64; Unit::ALL.len()],
    ports: [f64; Unit::ALL.len()],
}

/// Fraction of max power burned by an idle (clock-gated) unit — the
/// Wattch `cc3` constant.
pub const IDLE_FRACTION: f64 = 0.1;

fn cache_pmax(bytes: usize) -> f64 {
    // Sub-linear growth in capacity: decoders and wordlines grow with
    // sqrt-ish geometry while bitline energy grows with the accessed
    // row, not total capacity.
    0.5 + 0.9 * (bytes as f64 / 1024.0).powf(0.45)
}

fn array_pmax(entries: usize, scale: f64) -> f64 {
    scale * (entries as f64).powf(0.8)
}

impl PowerModel {
    /// Builds the per-unit max-power model for `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut pmax = [0.0; Unit::ALL.len()];
        let mut ports = [1.0; Unit::ALL.len()];
        let width = cfg.issue_width as f64;

        let set = |pmax: &mut [f64], ports: &mut [f64], u: Unit, p: f64, pt: f64| {
            pmax[u.index()] = p;
            ports[u.index()] = pt;
        };

        set(
            &mut pmax,
            &mut ports,
            Unit::Fetch,
            0.3 + 0.03 * cfg.ifq_size as f64 + 0.05 * cfg.fetch_width() as f64,
            cfg.fetch_width() as f64,
        );
        let dir_entries = cfg.bpred.direction_entries();
        let btb_entries = cfg.bpred.btb_sets * cfg.bpred.btb_assoc;
        set(
            &mut pmax,
            &mut ports,
            Unit::Bpred,
            0.5 + 0.4 * (dir_entries as f64 / 1024.0).sqrt()
                + 0.3 * (btb_entries as f64 / 512.0).sqrt(),
            4.0,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::ICache,
            cache_pmax(cfg.hierarchy.l1i.size),
            2.0,
        );
        set(&mut pmax, &mut ports, Unit::Itlb, 0.3, 2.0);
        set(
            &mut pmax,
            &mut ports,
            Unit::Dispatch,
            0.25 * cfg.decode_width as f64,
            cfg.decode_width as f64,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::Ruu,
            0.3 + 0.16 * array_pmax(cfg.ruu_size, 1.0) * (width / 8.0).sqrt(),
            3.0 * width,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::Lsq,
            0.2 + 0.08 * array_pmax(cfg.lsq_size, 1.0),
            4.0,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::Issue,
            0.3 + 0.25 * width + 0.01 * cfg.ruu_size as f64,
            width,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::RegFile,
            1.0 + 0.125 * width,
            3.0 * width,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::IntAlu,
            0.6 * (cfg.fu.int_alu + cfg.fu.int_muldiv) as f64,
            (cfg.fu.int_alu + cfg.fu.int_muldiv) as f64,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::FpAlu,
            1.2 * (cfg.fu.fp_add + cfg.fu.fp_muldiv) as f64,
            (cfg.fu.fp_add + cfg.fu.fp_muldiv) as f64,
        );
        set(
            &mut pmax,
            &mut ports,
            Unit::DCache,
            cache_pmax(cfg.hierarchy.l1d.size),
            cfg.fu.ld_st as f64,
        );
        set(&mut pmax, &mut ports, Unit::Dtlb, 0.3, cfg.fu.ld_st as f64);
        set(
            &mut pmax,
            &mut ports,
            Unit::L2,
            cache_pmax(cfg.hierarchy.l2.size),
            1.0,
        );

        PowerModel { pmax, ports }
    }

    /// Maximum power of one unit in watts.
    pub fn pmax(&self, unit: Unit) -> f64 {
        self.pmax[unit.index()]
    }

    /// Sum of all unit maxima (the unconstrained chip power).
    pub fn total_pmax(&self) -> f64 {
        self.pmax.iter().sum()
    }

    /// Applies the `cc3` clock-gating rule to a run's activity,
    /// producing average per-cycle power per unit.
    ///
    /// # Panics
    ///
    /// Panics if `activity` reports zero cycles.
    pub fn evaluate(&self, activity: &ActivityCounters) -> PowerBreakdown {
        let cycles = activity.cycles();
        assert!(cycles > 0, "activity must cover at least one cycle");
        let mut per_unit = [0.0; Unit::ALL.len()];
        for unit in Unit::ALL {
            let i = unit.index();
            let a = activity.unit(unit);
            // Sum over used cycles of (x · Pmax), with x the port
            // utilisation: exactly accesses/ports, clamped so x ≤ 1 on
            // average, and floored at the clock-gating residual (an
            // active cycle can never burn less than an idle one).
            let linear = (a.accesses as f64 / self.ports[i])
                .max(IDLE_FRACTION * a.used_cycles as f64)
                .min(a.used_cycles as f64);
            let idle = activity.idle_cycles(unit) as f64;
            per_unit[i] = self.pmax[i] * (linear + IDLE_FRACTION * idle) / cycles as f64;
        }
        PowerBreakdown { per_unit }
    }
}

/// Average per-cycle power of a run, per unit.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    per_unit: [f64; Unit::ALL.len()],
}

impl PowerBreakdown {
    /// Average power of one unit (watts per cycle).
    pub fn unit(&self, unit: Unit) -> f64 {
        self.per_unit[unit.index()]
    }

    /// Energy per cycle: the paper's EPC metric (Figure 6 right,
    /// "Watt/cycle").
    pub fn epc(&self) -> f64 {
        self.per_unit.iter().sum()
    }

    /// Energy-delay product, `EDP = EPC · CPI² = EPC / IPC²` (§4.2.3).
    ///
    /// # Panics
    ///
    /// Panics if `ipc` is not positive.
    pub fn edp(&self, ipc: f64) -> f64 {
        assert!(ipc > 0.0, "EDP needs a positive IPC");
        self.epc() / (ipc * ipc)
    }

    /// The fetch-engine power reported in Table 4 ("fetch unit"):
    /// fetch logic + I-cache.
    pub fn fetch_unit(&self) -> f64 {
        self.unit(Unit::Fetch) + self.unit(Unit::ICache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity_with(unit: Unit, accesses: u64, used: u64, cycles: u64) -> ActivityCounters {
        let mut a = ActivityCounters::new();
        for c in 0..used {
            a.record_n(unit, c, accesses / used.max(1));
        }
        a.set_cycles(cycles);
        a
    }

    #[test]
    fn idle_units_burn_ten_percent() {
        let cfg = MachineConfig::baseline();
        let model = PowerModel::new(&cfg);
        let mut a = ActivityCounters::new();
        a.set_cycles(100);
        let b = model.evaluate(&a);
        for unit in Unit::ALL {
            let expected = IDLE_FRACTION * model.pmax(unit);
            assert!(
                (b.unit(unit) - expected).abs() < 1e-9,
                "{unit:?}: idle power should be 10% of max"
            );
        }
    }

    #[test]
    fn fully_used_unit_burns_full_power() {
        let cfg = MachineConfig::baseline();
        let model = PowerModel::new(&cfg);
        // L2 has 1 port: 1 access per cycle for all 100 cycles = Pmax.
        let a = activity_with(Unit::L2, 100, 100, 100);
        let b = model.evaluate(&a);
        assert!((b.unit(Unit::L2) - model.pmax(Unit::L2)).abs() < 1e-9);
    }

    #[test]
    fn power_monotone_in_activity() {
        let cfg = MachineConfig::baseline();
        let model = PowerModel::new(&cfg);
        let low = model.evaluate(&activity_with(Unit::Ruu, 2000, 500, 1000));
        let high = model.evaluate(&activity_with(Unit::Ruu, 20000, 1000, 1000));
        assert!(high.unit(Unit::Ruu) > low.unit(Unit::Ruu));
        assert!(high.epc() > low.epc());
    }

    #[test]
    fn pmax_monotone_in_structure_sizes() {
        let base = PowerModel::new(&MachineConfig::baseline());
        let big_window = PowerModel::new(&MachineConfig::baseline().with_window(256));
        assert!(big_window.pmax(Unit::Ruu) > base.pmax(Unit::Ruu));

        let mut big_caches = MachineConfig::baseline();
        big_caches.hierarchy = big_caches.hierarchy.scaled(4.0);
        let big_caches = PowerModel::new(&big_caches);
        assert!(big_caches.pmax(Unit::DCache) > base.pmax(Unit::DCache));
        assert!(big_caches.pmax(Unit::L2) > base.pmax(Unit::L2));

        let mut big_bpred = MachineConfig::baseline();
        big_bpred.bpred = big_bpred.bpred.scaled(4.0);
        let big_bpred = PowerModel::new(&big_bpred);
        assert!(big_bpred.pmax(Unit::Bpred) > base.pmax(Unit::Bpred));

        let narrow = PowerModel::new(&MachineConfig::baseline().with_width(2));
        assert!(narrow.pmax(Unit::Issue) < base.pmax(Unit::Issue));
        assert!(narrow.total_pmax() < base.total_pmax());
    }

    #[test]
    fn baseline_total_pmax_is_plausible() {
        let model = PowerModel::new(&MachineConfig::baseline());
        let total = model.total_pmax();
        assert!(
            (20.0..120.0).contains(&total),
            "total Pmax {total} outside a plausible 0.18um envelope"
        );
    }

    #[test]
    fn edp_penalises_low_ipc() {
        let cfg = MachineConfig::baseline();
        let model = PowerModel::new(&cfg);
        let a = activity_with(Unit::Ruu, 500, 500, 1000);
        let b = model.evaluate(&a);
        assert!(b.edp(0.5) > b.edp(2.0));
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycle_activity_rejected() {
        let model = PowerModel::new(&MachineConfig::baseline());
        model.evaluate(&ActivityCounters::new());
    }
}
