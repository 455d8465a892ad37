//! Synthetic trace generation (§2.2 of the paper).

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::sfg::{BlockId, Gram, StatisticalProfile};
use crate::{DEP_RETRIES, MAX_DEP_DISTANCE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssim_isa::InstrClass;

// Observability (all no-ops unless SSIM_METRICS enables recording).
// Walk totals accumulate in locals and flush once per generate() call;
// only the rare clamp/retry events record inline. Shared with the
// compiled walk in `sampler.rs` so both paths report under one name.
pub(crate) static OBS_GENERATE_TIME: ssim_obs::TimerStat = ssim_obs::TimerStat::new("synth.time");
pub(crate) static OBS_WALK_STEPS: ssim_obs::Counter = ssim_obs::Counter::new("synth.walk_steps");
pub(crate) static OBS_WALK_RESTARTS: ssim_obs::Counter =
    ssim_obs::Counter::new("synth.walk_restarts");
pub(crate) static OBS_INSTRS_EMITTED: ssim_obs::Counter =
    ssim_obs::Counter::new("synth.instrs_emitted");
pub(crate) static OBS_NODES_DROPPED: ssim_obs::Counter =
    ssim_obs::Counter::new("synth.nodes_dropped_empty");
pub(crate) static OBS_REDUCED_NODES: ssim_obs::Gauge = ssim_obs::Gauge::new("synth.reduced_nodes");
pub(crate) static OBS_DEP_CLAMPED: ssim_obs::Counter =
    ssim_obs::Counter::new("synth.dep_clamped_512");
pub(crate) static OBS_DEP_RETRIES_EXHAUSTED: ssim_obs::Counter =
    ssim_obs::Counter::new("synth.dep_retries_exhausted");

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

/// A [`SyntheticInstr`] packed into one 64-bit word — the trace
/// simulator's instruction format.
///
/// The packing is lossless because generation clamps every dependency
/// distance to [`MAX_DEP_DISTANCE`] (= 512, ten bits) and never emits a
/// `Some(0)` distance (zero encodes `None`). Layout:
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

    pub(crate) fn pack(i: &SyntheticInstr) -> Self {
        debug_assert!(i
            .dep
            .iter()
            .chain(&i.anti_dep)
            .flatten()
            .all(|&d| (1..=MAX_DEP_DISTANCE).contains(&d)));
        let mut w = i.class.index() as u64;
        w |= u64::from(i.dep[0].unwrap_or(0)) << 4;
        w |= u64::from(i.dep[1].unwrap_or(0)) << 14;
        w |= u64::from(i.anti_dep[0].unwrap_or(0)) << 24;
        w |= u64::from(i.anti_dep[1].unwrap_or(0)) << 34;
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

    /// Packs an arbitrary (possibly hand-built) instruction, clamping
    /// dependency distances into the `1..=MAX_DEP_DISTANCE` range the
    /// wire format represents. The generator never emits distances
    /// outside it, so this only affects traces assembled by hand.
    pub(crate) fn pack_clamped(i: &SyntheticInstr) -> Self {
        let clamp = |d: &mut Option<u32>| *d = d.map(|d| d.clamp(1, MAX_DEP_DISTANCE));
        let mut c = *i;
        c.dep.iter_mut().for_each(clamp);
        c.anti_dep.iter_mut().for_each(clamp);
        Self::pack(&c)
    }

    fn dist(self, shift: u64) -> Option<u32> {
        let d = ((self.0 >> shift) & Self::DIST_MASK) as u32;
        (d != 0).then_some(d)
    }

    /// Instruction class.
    #[inline]
    pub(crate) fn class(self) -> InstrClass {
        InstrClass::ALL[(self.0 & 0xF) as usize]
    }

    /// True-dependency distances.
    #[inline]
    pub(crate) fn dep_dists(self) -> [Option<u32>; 2] {
        [self.dist(4), self.dist(14)]
    }

    /// Anti-dependency (WAW, WAR) distances.
    #[inline]
    pub(crate) fn anti_dep_dists(self) -> [Option<u32>; 2] {
        [self.dist(24), self.dist(34)]
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

    /// Rebuilds the struct form — only the round-trip tests need it;
    /// the simulator reads fields straight off the word.
    #[cfg(test)]
    pub(crate) fn unpack(self) -> SyntheticInstr {
        SyntheticInstr {
            class: self.class(),
            dep: self.dep_dists(),
            anti_dep: self.anti_dep_dists(),
            l1i_miss: self.l1i_miss(),
            l2i_miss: self.l2i_miss(),
            itlb_miss: self.itlb_miss(),
            dmem: self.dmem(),
            branch: self.branch(),
        }
    }
}

/// A statistically generated instruction trace.
///
/// Produced by [`StatisticalProfile::generate`]; consumed by
/// [`simulate_trace`](crate::simulate_trace).
#[derive(Debug, Clone, Default)]
pub struct SyntheticTrace {
    pub(crate) instrs: Vec<SyntheticInstr>,
}

impl SyntheticTrace {
    /// The generated instructions, in trace order.
    pub fn instrs(&self) -> &[SyntheticInstr] {
        &self.instrs
    }

    /// Trace length in instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends one instruction (used by alternative workload models
    /// such as the HLS baseline).
    pub fn push(&mut self, instr: SyntheticInstr) {
        self.instrs.push(instr);
    }
}

impl FromIterator<SyntheticInstr> for SyntheticTrace {
    fn from_iter<I: IntoIterator<Item = SyntheticInstr>>(iter: I) -> Self {
        SyntheticTrace {
            instrs: iter.into_iter().collect(),
        }
    }
}

/// Outcome of a generation-free walk of the reduced SFG — the paper's
/// steps 1-2 loop (start-node selection, occurrence bookkeeping, edge
/// draws) with instruction emission stubbed out.
///
/// Produced by both [`StatisticalProfile::walk_reference`] (the
/// interpreter) and [`CompiledSampler::walk`](crate::CompiledSampler::walk)
/// (the compiled tables); for the same `(r, seed)` the two reports are
/// equal field for field, which the equivalence tests and the
/// `synth_speed` benchmark assert. `checksum` folds the live budget at
/// every restart, so two walks that visit different node sequences
/// cannot produce equal reports by accident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkReport {
    /// Edges traversed (node occurrences consumed by walking).
    pub steps: u64,
    /// Times the walk restarted at step 2 (including the first start).
    pub restarts: u64,
    /// Budget trajectory fold: `rotate_left(5) ^ budget` per restart.
    pub checksum: u64,
}

/// One node of the reduced SFG as the reference interpreter sees it:
/// remaining occurrence plus the cumulative outgoing-edge distribution
/// (parallel arrays, sorted by block id).
struct RNode {
    remaining: u64,
    targets: Vec<BlockId>,
    cumulative: Vec<u64>,
    total: u64,
}

/// Step-1 output shared by [`StatisticalProfile::generate_reference`]
/// and [`StatisticalProfile::walk_reference`]: the occurrence-reduced,
/// edge-pruned SFG, its total occurrence budget, and the sorted gram
/// list that start-node selection scans.
struct ReducedSfg {
    nodes: FxHashMap<Gram, RNode>,
    budget: u64,
    start_grams: Vec<Gram>,
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
    /// and reuse the artifact. The trace is byte-identical to the
    /// reference interpreter ([`StatisticalProfile::generate_reference`])
    /// for every `(r, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn generate(&self, r: u64, seed: u64) -> SyntheticTrace {
        self.compile(r).generate(seed)
    }

    /// Builds the occurrence-reduced (`N_i = floor(M_i / r)`),
    /// edge-pruned SFG the interpreter walks — step 1 of §2.2. Shared
    /// by [`StatisticalProfile::generate_reference`] and
    /// [`StatisticalProfile::walk_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    fn reduce_sfg(&self, r: u64) -> ReducedSfg {
        assert!(r > 0, "reduction factor must be positive");
        let mut reduced: FxHashMap<Gram, RNode> = FxHashMap::default();
        for (gram, node) in self.sfg.nodes() {
            let n = node.occurrence / r;
            if n == 0 {
                continue;
            }
            let mut targets = Vec::with_capacity(node.edges.len());
            let mut cumulative = Vec::with_capacity(node.edges.len());
            let mut acc = 0u64;
            // Deterministic iteration order for reproducibility.
            let mut edges: Vec<_> = node.edges.iter().collect();
            edges.sort_unstable_by_key(|(b, _)| **b);
            for (block, count) in edges {
                acc += *count;
                targets.push(*block);
                cumulative.push(acc);
            }
            reduced.insert(
                *gram,
                RNode {
                    remaining: n,
                    targets,
                    cumulative,
                    total: acc,
                },
            );
        }
        debug_assert_eq!(reduced.len(), self.sfg.reduced_node_count(r));
        // Remove edges leading to removed nodes (the paper removes all
        // incoming and outgoing edges of dropped nodes). An edge from
        // state s labeled b leads to state shift(s, b).
        let k = self.sfg.k();
        let live: FxHashSet<Gram> = reduced.keys().copied().collect();
        for (gram, node) in reduced.iter_mut() {
            if k == 0 {
                break; // the k=0 graph has a single node
            }
            let mut acc = 0u64;
            let mut targets = Vec::new();
            let mut cumulative = Vec::new();
            let mut prev = 0u64;
            for (i, block) in node.targets.iter().enumerate() {
                let count = node.cumulative[i] - prev;
                prev = node.cumulative[i];
                if live.contains(&gram.shifted(*block, k)) {
                    acc += count;
                    targets.push(*block);
                    cumulative.push(acc);
                }
            }
            node.targets = targets;
            node.cumulative = cumulative;
            node.total = acc;
        }
        let budget: u64 = reduced.values().map(|n| n.remaining).sum();
        // Start-node selection scans grams in sorted order — the same
        // order the compiled engine's dense ids are assigned in.
        let start_grams: Vec<Gram> = {
            let mut g: Vec<_> = reduced.keys().copied().collect();
            g.sort_unstable();
            g
        };
        ReducedSfg {
            nodes: reduced,
            budget,
            start_grams,
        }
    }

    /// Walks the reduced SFG without emitting instructions — the
    /// interpreter half of the walk-subsystem comparison.
    ///
    /// The RNG stream is start draw + one edge draw per step (no
    /// per-instruction draws), so the visited node sequence differs
    /// from [`StatisticalProfile::generate_reference`]'s; what it
    /// matches exactly — steps, restarts and budget-trajectory
    /// checksum — is [`CompiledSampler::walk`](crate::CompiledSampler::walk)
    /// on the same `(r, seed)`. Each call pays the full pre-compilation
    /// cost shape: SFG reduction, per-step hash-map probes and the
    /// O(nodes) restart scan.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn walk_reference(&self, r: u64, seed: u64) -> WalkReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ReducedSfg {
            nodes: mut reduced,
            mut budget,
            start_grams,
        } = self.reduce_sfg(r);
        let mut report = WalkReport::default();
        if budget == 0 {
            return report;
        }
        let k = self.sfg.k();
        'walk: loop {
            report.restarts += 1;
            report.checksum = report.checksum.rotate_left(5) ^ budget;
            if budget == 0 {
                break 'walk;
            }
            let mut point = rng.gen_range(0..budget);
            let mut state = *start_grams.first().expect("non-empty reduced SFG");
            for g in &start_grams {
                let rem = reduced[g].remaining;
                if point < rem {
                    state = *g;
                    break;
                }
                point -= rem;
            }
            loop {
                let Some(node) = reduced.get_mut(&state) else {
                    continue 'walk; // walked into a removed node: restart
                };
                if node.total == 0 {
                    budget = budget.saturating_sub(node.remaining);
                    node.remaining = 0;
                    if budget == 0 {
                        break 'walk;
                    }
                    continue 'walk;
                }
                if node.remaining == 0 {
                    continue 'walk;
                }
                node.remaining -= 1;
                budget -= 1;
                report.steps += 1;
                let point = rng.gen_range(0..node.total);
                let idx = node.cumulative.partition_point(|&c| c <= point);
                state = state.shifted(node.targets[idx], k);
                if budget == 0 {
                    break 'walk;
                }
            }
        }
        report
    }

    /// Reference interpreter for synthetic trace generation: walks the
    /// reduced SFG through hash-map probes and per-draw histogram scans.
    ///
    /// This is the original (pre-compilation) implementation of
    /// [`StatisticalProfile::generate`], kept as the executable
    /// specification the compiled engine is tested against — the
    /// equivalence suite asserts instruction-for-instruction identical
    /// traces — and as the baseline of the `synth_speed` microbenchmark.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn generate_reference(&self, r: u64, seed: u64) -> SyntheticTrace {
        assert!(r > 0, "reduction factor must be positive");
        let _span = OBS_GENERATE_TIME.span();
        let mut rng = SmallRng::seed_from_u64(seed);

        // ---- step 1: the reduced SFG.
        let reduced = self.reduce_sfg(r);
        OBS_NODES_DROPPED.add((self.sfg.nodes().len() - reduced.nodes.len()) as u64);
        OBS_REDUCED_NODES.set(reduced.nodes.len() as u64);
        let ReducedSfg {
            nodes: mut reduced,
            mut budget,
            start_grams,
        } = reduced;
        if budget == 0 {
            return SyntheticTrace::default();
        }
        let k = self.sfg.k();

        let mut trace = SyntheticTrace::default();
        let mut walk_steps: u64 = 0;
        let mut walk_restarts: u64 = 0;

        'walk: loop {
            walk_restarts += 1;
            // ---- step 2: pick a start node by remaining occurrence.
            // `budget` tracks Σ remaining exactly — every decrement
            // (walk step or dead-end drain) updates both in lockstep —
            // so no O(nodes) rescan is needed per restart.
            debug_assert_eq!(
                budget,
                reduced.values().map(|n| n.remaining).sum::<u64>(),
                "walk budget drifted from the per-node remaining sum"
            );
            if budget == 0 {
                break 'walk;
            }
            let mut point = rng.gen_range(0..budget);
            let mut state = *start_grams.first().expect("non-empty reduced SFG");
            for g in &start_grams {
                let rem = reduced[g].remaining;
                if point < rem {
                    state = *g;
                    break;
                }
                point -= rem;
            }

            // ---- steps 3-9: walk.
            loop {
                let Some(node) = reduced.get_mut(&state) else {
                    continue 'walk; // walked into a removed node: restart
                };
                if node.total == 0 {
                    // Dead end (every outgoing edge was pruned): per the
                    // paper, accessing the node still consumes its
                    // occurrence before restarting at step 1 — otherwise
                    // start-node selection could land here forever.
                    budget = budget.saturating_sub(node.remaining);
                    node.remaining = 0;
                    if budget == 0 {
                        break 'walk;
                    }
                    continue 'walk;
                }
                if node.remaining == 0 {
                    // The node's occurrence budget is exhausted (paper
                    // step 2 decrements it per access; step 1 restarts).
                    // This also bounds the dwell time in states whose
                    // pruned edge set degenerated to a near-certain
                    // self-loop.
                    continue 'walk;
                }
                node.remaining -= 1;
                budget -= 1;
                walk_steps += 1;
                // Pick an outgoing edge by transition probability.
                let point = rng.gen_range(0..node.total);
                let idx = node.cumulative.partition_point(|&c| c <= point);
                let block = node.targets[idx];
                let ctx = state.context_with(block);
                self.emit_block(&ctx, &mut trace, &mut rng);
                state = state.shifted(block, k);
                if budget == 0 {
                    break 'walk;
                }
            }
        }
        OBS_WALK_STEPS.add(walk_steps);
        OBS_WALK_RESTARTS.add(walk_restarts);
        OBS_INSTRS_EMITTED.add(trace.len() as u64);
        trace
    }

    /// Emits one basic block's worth of synthetic instructions for a
    /// context (steps 3-8).
    fn emit_block(&self, ctx: &crate::Context, trace: &mut SyntheticTrace, rng: &mut SmallRng) {
        let Some(stats) = self.contexts.get(ctx) else {
            return; // context never materialised (cannot happen for live edges)
        };
        let nslots = stats.slots.len();
        // One quantile per block occurrence, shared by every operand's
        // first draw: within one dynamic block, dependency distances
        // co-vary (they all measure "how far back did the previous
        // work happen"), and comonotonic sampling preserves that
        // correlation instead of entangling independent chains.
        let u_block: f64 = rng.gen();
        for (s, slot) in stats.slots.iter().enumerate() {
            let mut instr = SyntheticInstr {
                class: slot.class,
                dep: [None, None],
                l1i_miss: false,
                l2i_miss: false,
                itlb_miss: false,
                dmem: None,
                branch: None,
                anti_dep: [None, None],
            };
            // Anti-dependency distances (profiles with anti_deps only).
            for (i, hist) in [&slot.waw, &slot.war].into_iter().enumerate() {
                if !hist.is_empty() {
                    let d = hist.sample_with(rng.gen()).unwrap_or(0);
                    if d > 0 {
                        if d > MAX_DEP_DISTANCE {
                            OBS_DEP_CLAMPED.inc();
                        }
                        instr.anti_dep[i] = Some(d.min(MAX_DEP_DISTANCE));
                    }
                }
            }
            // step 4: dependency distances, retried so the producer is
            // not a branch or store.
            for p in 0..usize::from(slot.src_count.min(2)) {
                let hist = &slot.dep[p];
                if hist.is_empty() {
                    continue;
                }
                let mut chosen = None;
                let mut exhausted = true;
                for attempt in 0..DEP_RETRIES {
                    let u = if attempt == 0 {
                        u_block
                    } else {
                        rng.gen::<f64>()
                    };
                    let d = hist.sample_with(u).expect("non-empty histogram samples");
                    if d == 0 {
                        chosen = None; // "no dependency" mass
                        exhausted = false;
                        break;
                    }
                    if d > MAX_DEP_DISTANCE {
                        // Profiles built by [`profile`] never record past
                        // the cap; this guards hand-built or deserialized
                        // profiles so the ≤512 invariant holds everywhere.
                        OBS_DEP_CLAMPED.inc();
                    }
                    let d = d.min(MAX_DEP_DISTANCE);
                    let pos = trace.instrs.len();
                    match pos.checked_sub(d as usize) {
                        Some(src) => {
                            // Producer must define a register (not a
                            // branch or store).
                            if trace.instrs[src].class.has_dest() {
                                chosen = Some(d);
                                exhausted = false;
                                break;
                            }
                        }
                        None => {
                            // Points before the trace start: drop.
                            chosen = None;
                            exhausted = false;
                            break;
                        }
                    }
                }
                if exhausted {
                    OBS_DEP_RETRIES_EXHAUSTED.inc();
                }
                instr.dep[p] = chosen;
            }
            // step 5: load locality flags.
            if let Some(d) = &slot.dcache {
                let l1_miss = rng.gen::<f64>() < d.l1.probability();
                let l2_miss = l1_miss && rng.gen::<f64>() < d.l2.probability();
                let tlb_miss = rng.gen::<f64>() < d.tlb.probability();
                instr.dmem = Some(DataFlags {
                    l1_miss,
                    l2_miss,
                    tlb_miss,
                });
            }
            // step 7: instruction fetch locality flags.
            instr.l1i_miss = rng.gen::<f64>() < slot.icache.l1.probability();
            instr.l2i_miss = instr.l1i_miss && rng.gen::<f64>() < slot.icache.l2.probability();
            instr.itlb_miss = rng.gen::<f64>() < slot.icache.tlb.probability();
            // step 6: terminal branch flags.
            if s + 1 == nslots {
                if let Some(b) = &stats.branch {
                    let total = b.total();
                    if total > 0 {
                        let taken = rng.gen::<f64>() < b.taken.probability();
                        let point = rng.gen_range(0..total);
                        let outcome = if point < b.correct {
                            SyntheticOutcome::Correct
                        } else if point < b.correct + b.redirect {
                            SyntheticOutcome::FetchRedirect
                        } else {
                            SyntheticOutcome::Mispredict
                        };
                        instr.branch = Some(BranchFlags { taken, outcome });
                    }
                }
            }
            trace.instrs.push(instr); // step 8
        }
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
            assert_eq!(PackedInstr::pack(i).unpack(), *i);
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
        assert_eq!(a.instrs(), b.instrs());
        assert_ne!(a.instrs(), c.instrs(), "different seeds should differ");
    }

    #[test]
    fn dependencies_never_point_to_branches_or_stores() {
        let p = profiled_loop();
        let t = p.generate(50, 3);
        for (i, instr) in t.instrs().iter().enumerate() {
            for d in instr.dep.iter().flatten() {
                let src = i.checked_sub(*d as usize).expect("deps stay in range");
                assert!(
                    t.instrs()[src].class.has_dest(),
                    "instr {i} depends on a {:?}",
                    t.instrs()[src].class
                );
            }
        }
    }

    #[test]
    fn trace_mix_matches_profile_mix() {
        let p = profiled_loop();
        let t = p.generate(100, 11);
        let loads = t
            .instrs()
            .iter()
            .filter(|i| i.class == InstrClass::Load)
            .count();
        let stores = t
            .instrs()
            .iter()
            .filter(|i| i.class == InstrClass::Store)
            .count();
        let branches = t.instrs().iter().filter(|i| i.branch.is_some()).count();
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
            .iter()
            .filter_map(|i| i.branch)
            .all(|b| b.outcome == SyntheticOutcome::Correct));
    }
}
