//! The synthetic trace (§2.2 of the paper): the generator's output and
//! the trace simulator's input, one packed 64-bit word per instruction.

use crate::sfg::StatisticalProfile;
use crate::MAX_DEP_DISTANCE;
use ssim_isa::InstrClass;

/// Pre-assigned branch behaviour of a synthetic control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchFlags {
    /// Whether the branch is taken (limits taken branches fetched per
    /// cycle, §2.1.2).
    pub taken: bool,
    /// The pre-assigned prediction outcome.
    pub outcome: SyntheticOutcome,
}

/// The three-way branch outcome carried by a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticOutcome {
    /// Correctly predicted.
    Correct,
    /// Fetch redirection (decode-time target fix-up).
    FetchRedirect,
    /// Full misprediction (squash at resolution).
    Mispredict,
}

/// Pre-assigned data-cache behaviour of a synthetic load (§2.2 step 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataFlags {
    /// L1 D-cache miss.
    pub l1_miss: bool,
    /// Unified-L2 miss (data side).
    pub l2_miss: bool,
    /// D-TLB miss.
    pub tlb_miss: bool,
}

/// One statistically generated instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticInstr {
    /// Semantic class.
    pub class: InstrClass,
    /// Dependency distances per source operand (`None` = no
    /// dependency); instruction *x* depends on instruction *x − δ*.
    pub dep: [Option<u32>; 2],
    /// L1 I-cache miss on fetch (§2.2 step 7).
    pub l1i_miss: bool,
    /// L2 miss on instruction fetch.
    pub l2i_miss: bool,
    /// I-TLB miss on fetch.
    pub itlb_miss: bool,
    /// Data flags for loads.
    pub dmem: Option<DataFlags>,
    /// Branch flags for the block-terminating control instruction.
    pub branch: Option<BranchFlags>,
    /// Anti-dependency distances `(WAW, WAR)`; present only when the
    /// profile tracked them and the machine models register hazards.
    pub anti_dep: [Option<u32>; 2],
}

/// A [`SyntheticInstr`] packed into one 64-bit word — the one trace
/// format: [`SyntheticTrace`] stores these words, the walk writes them
/// and the trace simulator reads them in place.
///
/// The packing is lossless because every dependency distance is clamped
/// to `1..=`[`MAX_DEP_DISTANCE`] (= 512, ten bits) first: generation
/// never emits one outside it, and [`SyntheticTrace::push`] clamps
/// hand-built ones (zero encodes `None`). Layout:
///
/// | bits  | field                                   |
/// |-------|-----------------------------------------|
/// | 0..4  | instruction class index                 |
/// | 4..14 | `dep[0]` distance (0 = none)            |
/// | 14..24| `dep[1]` distance                       |
/// | 24..34| `anti_dep[0]` (WAW) distance            |
/// | 34..44| `anti_dep[1]` (WAR) distance            |
/// | 44..47| `l1i_miss`, `l2i_miss`, `itlb_miss`     |
/// | 47..51| dmem present, `l1_miss`, `l2_miss`, `tlb_miss` |
/// | 51..53| branch present, `taken`                 |
/// | 53..55| branch outcome (0 correct, 1 redirect, 2 mispredict) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedInstr(pub(crate) u64);

impl PackedInstr {
    /// Ten bits per dependency-distance field (distances are 1..=512).
    const DIST_MASK: u64 = 0x3FF;

    /// The branch-present bit.
    pub(crate) const BRANCH: u64 = 1 << 51;

    /// Bits of which at least one is set at every correct-path position
    /// that can stop fetch: an I-cache or ITLB miss flag, a taken branch
    /// or an outcome other than correct. (The taken and outcome bits are
    /// only ever set on a branch.)
    pub(crate) const CORRECT_PATH_STOP: u64 = 1 << 44 | 1 << 46 | 1 << 52 | 0b11 << 53;

    /// The bit set at every wrong-path position that stops fetch: a
    /// taken branch.
    pub(crate) const WRONG_PATH_STOP: u64 = 1 << 52;

    /// Bit `i` set when class `i` defines a register
    /// ([`InstrClass::has_dest`]); indexed by the word's class bits.
    const HAS_DEST: u16 = {
        let mut mask = 0;
        let mut i = 0;
        while i < InstrClass::ALL.len() {
            if InstrClass::ALL[i].has_dest() {
                mask |= 1 << i;
            }
            i += 1;
        }
        mask
    };

    /// Packs `i`, clamping its dependency distances into
    /// `1..=MAX_DEP_DISTANCE`, the range a ten-bit field represents.
    #[inline]
    pub(crate) fn pack(i: &SyntheticInstr) -> Self {
        let dist = |d: Option<u32>| u64::from(d.map_or(0, |d| d.clamp(1, MAX_DEP_DISTANCE)));
        let mut w = i.class.index() as u64;
        w |= dist(i.dep[0]) << 4;
        w |= dist(i.dep[1]) << 14;
        w |= dist(i.anti_dep[0]) << 24;
        w |= dist(i.anti_dep[1]) << 34;
        w |= u64::from(i.l1i_miss) << 44;
        w |= u64::from(i.l2i_miss) << 45;
        w |= u64::from(i.itlb_miss) << 46;
        if let Some(d) = i.dmem {
            w |= 1 << 47;
            w |= u64::from(d.l1_miss) << 48;
            w |= u64::from(d.l2_miss) << 49;
            w |= u64::from(d.tlb_miss) << 50;
        }
        if let Some(b) = i.branch {
            w |= 1 << 51;
            w |= u64::from(b.taken) << 52;
            let o = match b.outcome {
                SyntheticOutcome::Correct => 0u64,
                SyntheticOutcome::FetchRedirect => 1,
                SyntheticOutcome::Mispredict => 2,
            };
            w |= o << 53;
        }
        PackedInstr(w)
    }

    #[inline]
    fn raw_dist(self, shift: u64) -> u32 {
        ((self.0 >> shift) & Self::DIST_MASK) as u32
    }

    /// Instruction class as its `InstrClass::index`.
    #[inline]
    pub(crate) fn class_index(self) -> usize {
        (self.0 & 0xF) as usize
    }

    /// Whether the instruction defines a register — the producer test
    /// of the walk's dependency-retry probe.
    #[inline]
    fn has_dest(self) -> bool {
        (Self::HAS_DEST >> self.class_index()) & 1 != 0
    }

    /// True-dependency distances, zero for none.
    #[inline]
    pub(crate) fn dep_raw(self) -> [u32; 2] {
        [self.raw_dist(4), self.raw_dist(14)]
    }

    /// Anti-dependency (WAW, WAR) distances, zero for none.
    #[inline]
    pub(crate) fn anti_dep_raw(self) -> [u32; 2] {
        [self.raw_dist(24), self.raw_dist(34)]
    }

    /// For a load with data-side flags, `(1, l1_miss)`; otherwise
    /// `(0, 0)`. These are the DTLB and L2 accesses the load charges at
    /// correct-path fetch.
    #[inline]
    pub(crate) fn fetch_data_side(self) -> (u64, u64) {
        let is_load = self.class_index() == InstrClass::Load.index();
        let flagged = u64::from(is_load) & (self.0 >> 47) & 1;
        (flagged, flagged & (self.0 >> 48))
    }

    /// L1 instruction-cache miss flag.
    #[inline]
    pub(crate) fn l1i_miss(self) -> bool {
        self.0 & (1 << 44) != 0
    }

    /// L2 miss flag for the instruction fetch.
    #[inline]
    pub(crate) fn l2i_miss(self) -> bool {
        self.0 & (1 << 45) != 0
    }

    /// Instruction-TLB miss flag.
    #[inline]
    pub(crate) fn itlb_miss(self) -> bool {
        self.0 & (1 << 46) != 0
    }

    /// Data-side locality flags, when pre-assigned.
    #[inline]
    pub(crate) fn dmem(self) -> Option<DataFlags> {
        (self.0 & (1 << 47) != 0).then_some(DataFlags {
            l1_miss: self.0 & (1 << 48) != 0,
            l2_miss: self.0 & (1 << 49) != 0,
            tlb_miss: self.0 & (1 << 50) != 0,
        })
    }

    /// Branch flags, when the instruction ends a basic block.
    #[inline]
    pub(crate) fn branch(self) -> Option<BranchFlags> {
        (self.0 & (1 << 51) != 0).then_some(BranchFlags {
            taken: self.0 & (1 << 52) != 0,
            outcome: match (self.0 >> 53) & 0x3 {
                0 => SyntheticOutcome::Correct,
                1 => SyntheticOutcome::FetchRedirect,
                _ => SyntheticOutcome::Mispredict,
            },
        })
    }

    /// Rebuilds the struct form; the simulator reads fields straight
    /// off the word.
    fn unpack(self) -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::ALL[self.class_index()],
            dep: self.dep_raw().map(|d| (d != 0).then_some(d)),
            anti_dep: self.anti_dep_raw().map(|d| (d != 0).then_some(d)),
            l1i_miss: self.l1i_miss(),
            l2i_miss: self.l2i_miss(),
            itlb_miss: self.itlb_miss(),
            dmem: self.dmem(),
            branch: self.branch(),
        }
    }
}

/// A statistically generated instruction trace, stored as one packed
/// 64-bit word per instruction (8 bytes each, against 44 for a
/// [`SyntheticInstr`]).
///
/// Produced by [`StatisticalProfile::generate`]; consumed by
/// [`simulate_trace`](crate::simulate_trace), which drives the words in
/// place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyntheticTrace {
    words: Vec<u64>,
}

impl SyntheticTrace {
    /// The instructions, in trace order, unpacked from their words.
    pub fn instrs(&self) -> impl ExactSizeIterator<Item = SyntheticInstr> + '_ {
        self.words.iter().map(|&w| PackedInstr(w).unpack())
    }

    /// The instruction at trace position `i`, if the trace is longer.
    pub fn get(&self, i: usize) -> Option<SyntheticInstr> {
        self.words.get(i).map(|&w| PackedInstr(w).unpack())
    }

    /// Trace length in instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Appends one instruction (the walk, and alternative workload
    /// models such as the HLS baseline). Dependency distances are
    /// clamped into `1..=`[`MAX_DEP_DISTANCE`], the range the trace
    /// stores; the generator never emits one outside it.
    #[inline]
    pub fn push(&mut self, instr: SyntheticInstr) {
        self.words.push(PackedInstr::pack(&instr).0);
    }

    /// The packed words, one per instruction — what the simulator reads.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether the instruction at position `i` defines a register.
    #[inline]
    pub(crate) fn has_dest_at(&self, i: usize) -> bool {
        PackedInstr(self.words[i]).has_dest()
    }

    /// Empties the trace, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
    }
}

impl FromIterator<SyntheticInstr> for SyntheticTrace {
    fn from_iter<I: IntoIterator<Item = SyntheticInstr>>(iter: I) -> Self {
        let mut trace = SyntheticTrace::default();
        iter.into_iter().for_each(|i| trace.push(i));
        trace
    }
}

/// Outcome of a generation-free walk of the reduced SFG — the paper's
/// steps 1-2 loop (start-node selection, occurrence bookkeeping, edge
/// draws) with instruction emission stubbed out.
///
/// Produced by [`CompiledSampler::walk`](crate::CompiledSampler::walk);
/// the reference interpreter in the equivalence tests produces the same
/// report field for field for the same `(r, seed)`. `checksum` folds the
/// live budget at every restart, so two walks that visit different node
/// sequences cannot produce equal reports by accident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkReport {
    /// Edges traversed (node occurrences consumed by walking).
    pub steps: u64,
    /// Times the walk restarted at step 2 (including the first start).
    pub restarts: u64,
    /// Budget trajectory fold: `rotate_left(5) ^ budget` per restart.
    pub checksum: u64,
}

impl StatisticalProfile {
    /// Generates a synthetic trace a factor `r` smaller than the
    /// profiled stream, per the nine-step algorithm of §2.2:
    ///
    /// 1. the SFG is *reduced*: node occurrences are divided by `r`
    ///    (`N_i = floor(M_i / r)`) and empty nodes are removed together
    ///    with their edges;
    /// 2. a start node is drawn from the occurrence distribution;
    /// 3. the graph is walked, decrementing occurrences; every visited
    ///    edge emits the corresponding basic block with instruction
    ///    classes, sampled dependency distances (re-drawn up to 1,000
    ///    times if the producer would be a branch or store), sampled
    ///    cache/TLB hit-miss flags and sampled branch outcome flags;
    /// 4. on reaching a node without outgoing edges the walk restarts
    ///    at step 2; the trace ends when the occurrence budget is
    ///    exhausted.
    ///
    /// `seed` makes generation reproducible; the paper's convergence
    /// study (§4.1) varies it.
    ///
    /// Internally the profile is lowered once into a
    /// [`CompiledSampler`](crate::CompiledSampler) and the walk runs off
    /// its dense tables; callers that generate many traces from one
    /// `(profile, r)` pair (the §4.1 multi-seed convergence runs, design
    /// sweeps) should call [`StatisticalProfile::compile`] themselves
    /// and reuse the artifact. The equivalence tests hold the trace
    /// byte-identical to a reference interpreter of the nine steps for
    /// every `(r, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn generate(&self, r: u64, seed: u64) -> SyntheticTrace {
        self.compile(r).generate(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{profile, BranchProfileMode, ProfileConfig};
    use ssim_isa::{Assembler, Reg};
    use ssim_uarch::MachineConfig;

    fn profiled_loop() -> StatisticalProfile {
        let mut a = Assembler::new("p");
        let (i, n, acc, t) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let buf = a.alloc_words(1 << 14);
        a.li(n, 100_000);
        let top = a.here_label();
        a.addi(i, i, 1);
        a.andi(t, i, (1 << 14) - 1);
        a.slli(t, t, 3);
        a.li(acc, buf as i64);
        a.add(t, acc, t);
        a.ld(t, t, 0);
        a.st(t, 0, i);
        a.blt(i, n, top);
        a.halt();
        let program = a.finish().unwrap();
        profile(
            &program,
            &ProfileConfig::new(&MachineConfig::baseline())
                .skip(0)
                .instructions(400_000),
        )
    }

    #[test]
    fn packed_instr_roundtrips() {
        let p = profiled_loop();
        let t = p.generate(50, 9);
        assert!(!t.is_empty());
        for i in t.instrs() {
            assert_eq!(PackedInstr::pack(&i).unpack(), i);
        }
        // Extremes the generated trace may not cover.
        let corner = SyntheticInstr {
            class: InstrClass::FpSqrt,
            dep: [Some(MAX_DEP_DISTANCE), Some(1)],
            anti_dep: [Some(7), Some(MAX_DEP_DISTANCE)],
            l1i_miss: true,
            l2i_miss: true,
            itlb_miss: true,
            dmem: Some(DataFlags {
                l1_miss: true,
                l2_miss: false,
                tlb_miss: true,
            }),
            branch: Some(BranchFlags {
                taken: false,
                outcome: SyntheticOutcome::Mispredict,
            }),
        };
        assert_eq!(PackedInstr::pack(&corner).unpack(), corner);
    }

    #[test]
    fn push_clamps_distances_and_get_unpacks() {
        let far = SyntheticInstr {
            class: InstrClass::IntAlu,
            dep: [Some(0), Some(MAX_DEP_DISTANCE + 9)],
            anti_dep: [Some(u32::MAX), None],
            l1i_miss: false,
            l2i_miss: false,
            itlb_miss: false,
            dmem: None,
            branch: None,
        };
        let t: SyntheticTrace = [far].into_iter().collect();
        let got = t.get(0).expect("one instruction");
        assert_eq!(got.dep, [Some(1), Some(MAX_DEP_DISTANCE)]);
        assert_eq!(got.anti_dep, [Some(MAX_DEP_DISTANCE), None]);
        assert_eq!(t.get(1), None);
        assert_eq!(t.instrs().collect::<Vec<_>>(), vec![got]);
    }

    #[test]
    fn has_dest_mask_matches_the_class_rule() {
        for class in InstrClass::ALL {
            let w = PackedInstr(class.index() as u64);
            assert_eq!(w.has_dest(), class.has_dest(), "{class}");
        }
    }

    #[test]
    fn reduction_factor_controls_length() {
        let p = profiled_loop();
        let t100 = p.generate(100, 1);
        let t1000 = p.generate(1000, 1);
        assert!(!t100.is_empty());
        assert!(!t1000.is_empty());
        let ratio = t100.len() as f64 / t1000.len() as f64;
        assert!(
            (5.0..20.0).contains(&ratio),
            "R=100 trace should be ~10x the R=1000 trace, ratio {ratio}"
        );
        // The R=100 trace is ~1/100th of the profiled stream.
        let frac = t100.len() as f64 / p.instructions() as f64;
        assert!((0.005..0.02).contains(&frac), "got {frac}");
    }

    #[test]
    fn generation_is_reproducible_and_seed_sensitive() {
        let p = profiled_loop();
        let a = p.generate(100, 7);
        let b = p.generate(100, 7);
        let c = p.generate(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn dependencies_never_point_to_branches_or_stores() {
        let p = profiled_loop();
        let t = p.generate(50, 3);
        for (i, instr) in t.instrs().enumerate() {
            for d in instr.dep.iter().flatten() {
                let src = i.checked_sub(*d as usize).expect("deps stay in range");
                let class = t.get(src).expect("in range").class;
                assert!(class.has_dest(), "instr {i} depends on a {class:?}");
            }
        }
    }

    #[test]
    fn trace_mix_matches_profile_mix() {
        let p = profiled_loop();
        let t = p.generate(100, 11);
        let loads = t.instrs().filter(|i| i.class == InstrClass::Load).count();
        let stores = t.instrs().filter(|i| i.class == InstrClass::Store).count();
        let branches = t.instrs().filter(|i| i.branch.is_some()).count();
        // Loop body: 1 load, 1 store, 1 branch out of 8.
        let frac = loads as f64 / t.len() as f64;
        assert!((0.10..0.15).contains(&frac), "load fraction {frac}");
        let frac = stores as f64 / t.len() as f64;
        assert!((0.10..0.15).contains(&frac), "store fraction {frac}");
        let frac = branches as f64 / t.len() as f64;
        assert!((0.10..0.15).contains(&frac), "branch fraction {frac}");
    }

    #[test]
    fn branch_flags_follow_profiled_probabilities() {
        let p = profiled_loop();
        let t = p.generate(50, 5);
        let (mut taken, mut correct, mut total) = (0u64, 0u64, 0u64);
        for i in t.instrs() {
            if let Some(b) = i.branch {
                total += 1;
                taken += u64::from(b.taken);
                correct += u64::from(b.outcome == SyntheticOutcome::Correct);
            }
        }
        assert!(total > 100);
        assert!(taken as f64 / total as f64 > 0.95, "loop branch is taken");
        assert!(
            correct as f64 / total as f64 > 0.9,
            "loop branch predicts well"
        );
    }

    #[test]
    fn zero_budget_profile_yields_empty_trace() {
        let p = profiled_loop();
        // R larger than the block count: everything reduces to zero.
        let t = p.generate(u64::MAX, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn perfect_branch_profile_generates_all_correct() {
        let mut a = Assembler::new("p");
        let (i, n) = (Reg::R1, Reg::R2);
        a.li(n, 50_000);
        let top = a.here_label();
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        let program = a.finish().unwrap();
        let p = profile(
            &program,
            &ProfileConfig::new(&MachineConfig::baseline())
                .skip(0)
                .instructions(100_000)
                .branch_mode(BranchProfileMode::Perfect),
        );
        let t = p.generate(20, 1);
        assert!(t
            .instrs()
            .filter_map(|i| i.branch)
            .all(|b| b.outcome == SyntheticOutcome::Correct));
    }
}
