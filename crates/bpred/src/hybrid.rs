//! The hybrid predictor and the paper's branch-outcome taxonomy.

use crate::btb::Btb;
use crate::config::BpredConfig;
use crate::ras::ReturnAddressStack;
use crate::tables::{Bimodal, Counter2, TwoLevelLocal};
use ssim_isa::Opcode;

// Observability: lookup/update volume, primarily to expose the
// lookup-update separation of delayed-update profiling (§2.1.3).
static OBS_LOOKUPS: ssim_obs::Counter = ssim_obs::Counter::new("bpred.lookups");
static OBS_UPDATES: ssim_obs::Counter = ssim_obs::Counter::new("bpred.updates");

/// The kind of control transfer, as the predictor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// Conditional branch (integer or floating point).
    Cond,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (pushes the RAS).
    Call,
    /// Return (pops the RAS).
    Ret,
    /// Other indirect branch (jump tables).
    Indirect,
}

impl BranchKind {
    /// Classifies a control-transfer opcode; `None` for non-control
    /// opcodes.
    pub fn from_opcode(op: Opcode) -> Option<BranchKind> {
        use Opcode::*;
        Some(match op {
            Beq | Bne | Blt | Bge | Bltu | Bgeu | FBeq | FBlt | FBge => BranchKind::Cond,
            Jmp => BranchKind::Jump,
            Call => BranchKind::Call,
            Ret => BranchKind::Ret,
            Jr => BranchKind::Indirect,
            _ => return None,
        })
    }

    /// Whether this kind is unconditionally taken.
    pub fn always_taken(self) -> bool {
        !matches!(self, BranchKind::Cond)
    }
}

/// The result of a predictor lookup.
///
/// Carries the component predictions so that the delayed update can
/// train the chooser against what was actually predicted at lookup time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (`true` for all unconditional kinds).
    pub taken: bool,
    /// Predicted target, if the BTB (or RAS, for returns) supplied one.
    pub target: Option<usize>,
    /// Bimodal component direction (conditional branches only).
    pub bimodal_taken: bool,
    /// Two-level local component direction (conditional branches only).
    pub local_taken: bool,
    /// Whether the meta table chose the local component.
    pub chose_local: bool,
}

/// The paper's three-way outcome classification (§2.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchOutcome {
    /// Direction and target both correct.
    Correct,
    /// Correct direction, but the target had to be computed at decode
    /// (BTB miss on a taken direct branch).
    FetchRedirect,
    /// Wrong direction, or wrong/unknown target for an indirect branch.
    Mispredict,
}

/// Classifies a resolved branch against its prediction.
///
/// Implements §2.1.2 of the paper:
/// * *fetch redirection* — target misprediction (BTB miss) together with
///   a correct taken/not-taken prediction, for direction-predictable
///   branches;
/// * *branch misprediction* — taken/not-taken misprediction for
///   conditional branches, and BTB/RAS target misses for indirect
///   branches.
pub fn classify(kind: BranchKind, pred: &Prediction, taken: bool, target: usize) -> BranchOutcome {
    match kind {
        BranchKind::Cond => {
            if pred.taken != taken {
                BranchOutcome::Mispredict
            } else if taken && pred.target != Some(target) {
                BranchOutcome::FetchRedirect
            } else {
                BranchOutcome::Correct
            }
        }
        BranchKind::Jump | BranchKind::Call => {
            // Direction is trivially known; a missing/wrong BTB target is
            // recomputed at decode: fetch redirection.
            if pred.target == Some(target) {
                BranchOutcome::Correct
            } else {
                BranchOutcome::FetchRedirect
            }
        }
        BranchKind::Ret | BranchKind::Indirect => {
            // Target known only at execute: a miss costs the full
            // misprediction penalty.
            if pred.target == Some(target) {
                BranchOutcome::Correct
            } else {
                BranchOutcome::Mispredict
            }
        }
    }
}

/// The hybrid (bimodal + two-level local, meta-selected) predictor with
/// BTB and RAS — the paper's Table 2 branch predictor.
///
/// See the [crate docs](crate) for the lookup/update protocol.
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    bimodal: Bimodal,
    local: TwoLevelLocal,
    meta: Vec<Counter2>,
    btb: Btb,
    ras: ReturnAddressStack,
}

impl HybridPredictor {
    /// Builds the predictor described by `config`.
    pub fn new(config: &BpredConfig) -> Self {
        HybridPredictor {
            bimodal: Bimodal::new(config.bimodal_entries),
            local: TwoLevelLocal::new(
                config.local_hist_entries,
                config.local_pht_entries,
                config.hist_bits,
            ),
            meta: vec![Counter2::new(); config.meta_entries],
            btb: Btb::new(config.btb_sets, config.btb_assoc),
            ras: ReturnAddressStack::new(config.ras_entries),
        }
    }

    fn meta_index(&self, pc: usize) -> usize {
        pc & (self.meta.len() - 1)
    }

    /// Predicts the branch at `pc`.
    ///
    /// Reads the direction tables and BTB; pushes/pops the RAS for
    /// calls/returns (the RAS is a fetch-side structure and is *not*
    /// subject to delayed update).
    pub fn lookup(&mut self, pc: usize, kind: BranchKind) -> Prediction {
        OBS_LOOKUPS.inc();
        let bimodal_taken = self.bimodal.predict(pc);
        let local_taken = self.local.predict(pc);
        let chose_local = self.meta[self.meta_index(pc)].predict();
        let dir = if chose_local {
            local_taken
        } else {
            bimodal_taken
        };
        let btb_target = self.btb.lookup(pc);

        match kind {
            BranchKind::Cond => Prediction {
                taken: dir,
                target: btb_target,
                bimodal_taken,
                local_taken,
                chose_local,
            },
            BranchKind::Jump | BranchKind::Indirect => Prediction {
                taken: true,
                target: btb_target,
                bimodal_taken,
                local_taken,
                chose_local,
            },
            BranchKind::Call => {
                self.ras.push(pc + 1);
                Prediction {
                    taken: true,
                    target: btb_target,
                    bimodal_taken,
                    local_taken,
                    chose_local,
                }
            }
            BranchKind::Ret => {
                let ras_target = self.ras.pop();
                Prediction {
                    taken: true,
                    target: ras_target,
                    bimodal_taken,
                    local_taken,
                    chose_local,
                }
            }
        }
    }

    /// Trains the predictor with the resolved outcome of the branch at
    /// `pc`.
    ///
    /// `pred` must be the value returned by the matching
    /// [`HybridPredictor::lookup`]; the chooser is trained only when the
    /// two components disagreed.
    pub fn update(
        &mut self,
        pc: usize,
        kind: BranchKind,
        taken: bool,
        target: usize,
        pred: &Prediction,
    ) {
        OBS_UPDATES.inc();
        if kind == BranchKind::Cond {
            self.bimodal.train(pc, taken);
            self.local.train(pc, taken);
            if pred.bimodal_taken != pred.local_taken {
                let i = self.meta_index(pc);
                self.meta[i].train(pred.local_taken == taken);
            }
        }
        // The BTB caches targets of taken control transfers. Returns are
        // predicted by the RAS, so they do not pollute the BTB.
        if taken && kind != BranchKind::Ret {
            self.btb.update(pc, target);
        }
    }

    /// Checkpoints the RAS pointer (see
    /// [`ReturnAddressStack::pointer`]).
    pub fn ras_checkpoint(&self) -> (usize, usize) {
        self.ras.pointer()
    }

    /// Restores a RAS pointer checkpoint after a pipeline squash.
    pub fn ras_restore(&mut self, checkpoint: (usize, usize)) {
        self.ras.set_pointer(checkpoint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> HybridPredictor {
        HybridPredictor::new(&BpredConfig::baseline())
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = predictor();
        for _ in 0..10 {
            let pred = p.lookup(42, BranchKind::Cond);
            p.update(42, BranchKind::Cond, true, 7, &pred);
        }
        let pred = p.lookup(42, BranchKind::Cond);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(7));
        assert_eq!(
            classify(BranchKind::Cond, &pred, true, 7),
            BranchOutcome::Correct
        );
    }

    #[test]
    fn cold_taken_branch_is_fetch_redirect_when_direction_right() {
        let mut p = predictor();
        // Counters initialise weakly-taken, so direction is right, but the
        // BTB is cold: fetch redirection.
        let pred = p.lookup(42, BranchKind::Cond);
        assert!(pred.taken);
        assert_eq!(pred.target, None);
        assert_eq!(
            classify(BranchKind::Cond, &pred, true, 7),
            BranchOutcome::FetchRedirect
        );
    }

    #[test]
    fn wrong_direction_is_mispredict() {
        let mut p = predictor();
        let pred = p.lookup(42, BranchKind::Cond);
        assert!(pred.taken);
        assert_eq!(
            classify(BranchKind::Cond, &pred, false, 0),
            BranchOutcome::Mispredict
        );
    }

    #[test]
    fn returns_use_the_ras() {
        let mut p = predictor();
        let call_pred = p.lookup(10, BranchKind::Call);
        p.update(10, BranchKind::Call, true, 50, &call_pred);
        let ret_pred = p.lookup(55, BranchKind::Ret);
        assert_eq!(ret_pred.target, Some(11));
        assert_eq!(
            classify(BranchKind::Ret, &ret_pred, true, 11),
            BranchOutcome::Correct
        );
        assert_eq!(
            classify(BranchKind::Ret, &ret_pred, true, 99),
            BranchOutcome::Mispredict
        );
    }

    #[test]
    fn indirect_btb_miss_is_mispredict() {
        let mut p = predictor();
        let pred = p.lookup(30, BranchKind::Indirect);
        assert_eq!(
            classify(BranchKind::Indirect, &pred, true, 12),
            BranchOutcome::Mispredict
        );
        p.update(30, BranchKind::Indirect, true, 12, &pred);
        let pred = p.lookup(30, BranchKind::Indirect);
        assert_eq!(
            classify(BranchKind::Indirect, &pred, true, 12),
            BranchOutcome::Correct
        );
        // Same indirect branch, different target: still a mispredict.
        assert_eq!(
            classify(BranchKind::Indirect, &pred, true, 13),
            BranchOutcome::Mispredict
        );
    }

    #[test]
    fn direct_jump_btb_miss_is_redirect_not_mispredict() {
        let mut p = predictor();
        let pred = p.lookup(20, BranchKind::Jump);
        assert_eq!(
            classify(BranchKind::Jump, &pred, true, 5),
            BranchOutcome::FetchRedirect
        );
        p.update(20, BranchKind::Jump, true, 5, &pred);
        let pred = p.lookup(20, BranchKind::Jump);
        assert_eq!(
            classify(BranchKind::Jump, &pred, true, 5),
            BranchOutcome::Correct
        );
    }

    #[test]
    fn chooser_migrates_to_better_component() {
        let mut p = predictor();
        // Alternating branch: bimodal fails, local succeeds after warmup.
        let mut taken = false;
        for _ in 0..400 {
            let pred = p.lookup(77, BranchKind::Cond);
            p.update(77, BranchKind::Cond, taken, 3, &pred);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..100 {
            let pred = p.lookup(77, BranchKind::Cond);
            if pred.taken == taken {
                correct += 1;
            }
            p.update(77, BranchKind::Cond, taken, 3, &pred);
            taken = !taken;
        }
        assert!(
            correct >= 90,
            "hybrid should learn alternation via local, got {correct}"
        );
    }

    #[test]
    fn branch_kind_from_opcode() {
        assert_eq!(BranchKind::from_opcode(Opcode::Beq), Some(BranchKind::Cond));
        assert_eq!(
            BranchKind::from_opcode(Opcode::FBlt),
            Some(BranchKind::Cond)
        );
        assert_eq!(BranchKind::from_opcode(Opcode::Jmp), Some(BranchKind::Jump));
        assert_eq!(
            BranchKind::from_opcode(Opcode::Call),
            Some(BranchKind::Call)
        );
        assert_eq!(BranchKind::from_opcode(Opcode::Ret), Some(BranchKind::Ret));
        assert_eq!(
            BranchKind::from_opcode(Opcode::Jr),
            Some(BranchKind::Indirect)
        );
        assert_eq!(BranchKind::from_opcode(Opcode::Add), None);
    }
}
