//! Machine configuration (the paper's Table 2).

use ssim_bpred::BpredConfig;
use ssim_cache::HierarchyConfig;

/// Functional-unit pool sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer ALUs (also execute branches).
    pub int_alu: usize,
    /// Load/store ports.
    pub ld_st: usize,
    /// Floating-point adders (also fp compares/branches).
    pub fp_add: usize,
    /// Integer multiply/divide units.
    pub int_muldiv: usize,
    /// Floating-point multiply/divide units.
    pub fp_muldiv: usize,
}

impl FuConfig {
    /// Table 2: 8 integer ALUs, 4 load/store units, 2 fp adders,
    /// 2 integer and 2 fp mult/div units.
    pub fn baseline() -> Self {
        FuConfig {
            int_alu: 8,
            ld_st: 4,
            fp_add: 2,
            int_muldiv: 2,
            fp_muldiv: 2,
        }
    }
}

/// Operation and memory latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 data-cache hit (load-use) latency.
    pub l1d_hit: u64,
    /// Latency of a load hitting in the unified L2.
    pub l2_hit: u64,
    /// Round-trip main-memory latency.
    pub mem: u64,
    /// Extra cycles charged for a TLB miss (software walk).
    pub tlb_miss: u64,
    /// Integer ALU operations.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// Floating-point add/compare/convert.
    pub fp_alu: u64,
    /// Floating-point multiply.
    pub fp_mul: u64,
    /// Floating-point divide.
    pub fp_div: u64,
    /// Floating-point square root.
    pub fp_sqrt: u64,
}

impl LatencyConfig {
    /// Table 2 latencies (2-cycle L1D, 20-cycle L2, 150-cycle memory)
    /// with SimpleScalar's default operation latencies.
    pub fn baseline() -> Self {
        LatencyConfig {
            l1d_hit: 2,
            l2_hit: 20,
            mem: 150,
            tlb_miss: 30,
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_alu: 2,
            fp_mul: 4,
            fp_div: 12,
            fp_sqrt: 24,
        }
    }
}

/// The full machine configuration.
///
/// [`MachineConfig::baseline`] reproduces the paper's Table 2; the
/// design-space experiments perturb individual fields from there.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Decode/dispatch width (instructions per cycle from IFQ to RUU).
    pub decode_width: usize,
    /// Fetch speed multiplier: fetch width = `decode_width * fetch_speed`.
    pub fetch_speed: usize,
    /// Issue width (instructions entering execution per cycle).
    pub issue_width: usize,
    /// Commit width (instructions retiring per cycle).
    pub commit_width: usize,
    /// Instruction fetch queue capacity.
    pub ifq_size: usize,
    /// Register update unit (unified window + ROB) capacity.
    pub ruu_size: usize,
    /// Load/store queue capacity.
    pub lsq_size: usize,
    /// Cycles between a misprediction resolving at writeback and fetch
    /// resuming on the correct path. Together with pipeline refill this
    /// yields the paper's ~14-cycle effective misprediction penalty.
    pub redirect_latency: u64,
    /// Fetch bubble for a BTB miss with a correct direction (target
    /// computed at decode) — the paper's "fetch redirection".
    pub fetch_redirect_penalty: u64,
    /// Functional-unit pools.
    pub fu: FuConfig,
    /// Operation/memory latencies.
    pub lat: LatencyConfig,
    /// Branch predictor sizing.
    pub bpred: BpredConfig,
    /// Cache/TLB hierarchy sizing.
    pub hierarchy: HierarchyConfig,
    /// Model every cache/TLB access as a hit (Figure 4/5 experiments).
    pub perfect_caches: bool,
    /// Model every branch as correctly predicted (Figure 4 experiment).
    pub perfect_bpred: bool,
    /// Issue instructions strictly in program order (the paper's
    /// future-work extension for in-order cores; §2.1.1).
    pub in_order_issue: bool,
    /// Honour write-after-write and write-after-read register hazards
    /// (no renaming). The paper's out-of-order model removes them
    /// ("dynamically removed through register renaming"); enabling this
    /// models a machine without enough physical registers.
    pub model_anti_deps: bool,
}

/// Most entries an RUU, LSQ or IFQ may have. The §4.6 grid tops out at
/// a 128-entry RUU, and the core sizes its window arrays from the RUU,
/// so an unbounded size in a request could ask for terabytes.
const MAX_QUEUE_ENTRIES: usize = 4096;

/// Widest decode, issue or commit stage a request may ask for.
const MAX_WIDTH: usize = 64;

impl MachineConfig {
    /// The paper's Table 2 baseline: 8-wide out-of-order core, 32-entry
    /// IFQ, 128-entry RUU, 32-entry LSQ, hybrid predictor, 8 KB/16 KB L1
    /// caches with a 1 MB unified L2.
    pub fn baseline() -> Self {
        MachineConfig {
            decode_width: 8,
            fetch_speed: 2,
            issue_width: 8,
            commit_width: 8,
            ifq_size: 32,
            ruu_size: 128,
            lsq_size: 32,
            redirect_latency: 9,
            fetch_redirect_penalty: 2,
            fu: FuConfig::baseline(),
            lat: LatencyConfig::baseline(),
            bpred: BpredConfig::baseline(),
            hierarchy: HierarchyConfig::baseline(),
            perfect_caches: false,
            perfect_bpred: false,
            in_order_issue: false,
            model_anti_deps: false,
        }
    }

    /// Fetch width in instructions per cycle.
    pub fn fetch_width(&self) -> usize {
        self.decode_width * self.fetch_speed
    }

    /// Builder-style override of the processor width (decode = issue =
    /// commit), as swept in Table 4.
    pub fn with_width(mut self, width: usize) -> Self {
        self.decode_width = width;
        self.issue_width = width;
        self.commit_width = width;
        self
    }

    /// Builder-style override of the window (RUU) size with the paper's
    /// §4.5 convention that the LSQ is half the RUU.
    pub fn with_window(mut self, ruu: usize) -> Self {
        self.ruu_size = ruu;
        self.lsq_size = (ruu / 2).max(1);
        self
    }

    /// Builder-style override of the IFQ size.
    pub fn with_ifq(mut self, ifq: usize) -> Self {
        self.ifq_size = ifq;
        self
    }

    /// Builder-style in-order variant: program-order issue with WAW and
    /// WAR hazards honoured (no renaming).
    pub fn in_order(mut self) -> Self {
        self.in_order_issue = true;
        self.model_anti_deps = true;
        self
    }

    /// Checks that this is a machine the simulators can run: every width
    /// and structure size positive, no RUU, LSQ or IFQ over 4,096
    /// entries, no decode, issue or commit width over 64, and an LSQ no
    /// larger than the RUU (the paper's §4.6 constraint).
    ///
    /// # Errors
    ///
    /// Names the first field that breaks a bound, with its value.
    pub fn check(&self) -> Result<(), String> {
        match self.broken_rule(true) {
            None => Ok(()),
            Some((_, error)) => Err(error),
        }
    }

    /// Validates internal consistency: the rules of
    /// [`MachineConfig::check`] but its size limits, which bound the
    /// machines a request or a command line may ask for, not what the
    /// simulators can run.
    ///
    /// # Panics
    ///
    /// Panics if a width or size is zero or the LSQ is larger than the
    /// RUU, with the rule the machine breaks and the check's error.
    pub fn validate(&self) {
        if let Some((rule, error)) = self.broken_rule(false) {
            panic!("{rule}: {error}");
        }
    }

    /// The first rule this machine breaks (the size limits only if
    /// `limits`): the rule, and an error that names the field and its
    /// value.
    fn broken_rule(&self, limits: bool) -> Option<(&'static str, String)> {
        for (name, v) in [
            ("decode width", self.decode_width),
            ("issue width", self.issue_width),
            ("commit width", self.commit_width),
            ("fetch speed", self.fetch_speed),
            ("IFQ", self.ifq_size),
            ("RUU", self.ruu_size),
            ("LSQ", self.lsq_size),
        ] {
            if v == 0 {
                let rule = "every width and size must be positive";
                return Some((rule, format!("{name} must be positive")));
            }
        }
        for (name, v, max) in [
            ("RUU", self.ruu_size, MAX_QUEUE_ENTRIES),
            ("LSQ", self.lsq_size, MAX_QUEUE_ENTRIES),
            ("IFQ", self.ifq_size, MAX_QUEUE_ENTRIES),
            ("decode width", self.decode_width, MAX_WIDTH),
            ("issue width", self.issue_width, MAX_WIDTH),
            ("commit width", self.commit_width, MAX_WIDTH),
        ] {
            if limits && v > max {
                let rule = "no queue or width may be over its limit";
                return Some((
                    rule,
                    format!("machine {name} {v} is over the limit of {max}"),
                ));
            }
        }
        if self.lsq_size > self.ruu_size {
            let error = format!(
                "machine LSQ {} may not exceed the RUU {}",
                self.lsq_size, self.ruu_size
            );
            return Some(("LSQ may not exceed the RUU", error));
        }
        None
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = MachineConfig::baseline();
        assert_eq!(c.decode_width, 8);
        assert_eq!(c.fetch_width(), 16);
        assert_eq!(c.ifq_size, 32);
        assert_eq!(c.ruu_size, 128);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.fu.int_alu, 8);
        assert_eq!(c.lat.mem, 150);
        c.validate();
    }

    #[test]
    fn builders_adjust_linked_fields() {
        let c = MachineConfig::baseline()
            .with_window(64)
            .with_width(4)
            .with_ifq(8);
        assert_eq!(c.ruu_size, 64);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.ifq_size, 8);
        c.validate();
    }

    #[test]
    fn check_names_the_broken_bound() {
        let c = MachineConfig::baseline();
        assert_eq!(c.check(), Ok(()));
        assert_eq!(
            c.clone().with_window(0).check(),
            Err("RUU must be positive".to_string())
        );
        assert_eq!(
            c.clone().with_width(0).check(),
            Err("decode width must be positive".to_string())
        );
        assert_eq!(
            c.clone().with_window(8192).check(),
            Err("machine RUU 8192 is over the limit of 4096".to_string())
        );
        assert_eq!(
            c.clone().with_width(65).check(),
            Err("machine decode width 65 is over the limit of 64".to_string())
        );
        let edge = c.clone().with_window(4096).with_width(64).with_ifq(4096);
        assert_eq!(edge.check(), Ok(()));
        // The limits bound requests, not the simulators.
        c.with_window(8192).validate();
    }

    #[test]
    #[should_panic(expected = "LSQ may not exceed")]
    fn oversized_lsq_rejected() {
        let mut c = MachineConfig::baseline();
        c.lsq_size = 256;
        c.validate();
    }
}
