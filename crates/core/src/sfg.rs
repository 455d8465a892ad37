//! The statistical flow graph and the statistical profile.

use crate::fxhash::FxHashMap;
use ssim_isa::InstrClass;
use ssim_stats::{Histogram, ProbCounter};

/// A basic block identifier: the block's start PC (dynamic basic blocks
/// are uniquely determined by their start PC, since code is static).
pub type BlockId = u32;

/// A `(k+1)`-gram context: the current basic block plus its `k`
/// predecessors, packed into a `u128` (up to four 32-bit block ids, so
/// `k ≤ 3` — the range the paper evaluates).
///
/// The paper's conditional characteristics
/// `P[· | B_n, B_{n-1}, …, B_{n-k}]` are keyed by exactly this context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Context(u128);

/// Maximum supported SFG order.
pub const MAX_K: usize = 3;

impl Context {
    /// Packs `history` (oldest first, length `k`) and the current block.
    ///
    /// # Panics
    ///
    /// Panics if `history.len() > MAX_K`.
    pub fn new(history: &[BlockId], current: BlockId) -> Self {
        assert!(history.len() <= MAX_K, "SFG order limited to {MAX_K}");
        let mut packed: u128 = 1; // sentinel bit distinguishes lengths
        for b in history {
            packed = (packed << 32) | u128::from(*b);
        }
        packed = (packed << 32) | u128::from(current);
        Context(packed)
    }

    /// The current (most recent) block of the context.
    pub fn current(&self) -> BlockId {
        (self.0 & 0xffff_ffff) as BlockId
    }

    /// The raw packed representation (profile serialisation).
    pub fn raw(&self) -> u128 {
        self.0
    }

    /// Reconstitutes a context from [`Context::raw`] output.
    pub fn from_raw(raw: u128) -> Self {
        Context(raw)
    }
}

/// A `k`-gram walk state (the last `k` blocks, oldest first).
///
/// These are the *nodes* of the statistical flow graph; edges consume
/// the next block, matching `P[B_n | B_{n-1}..B_{n-k}]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gram(u128);

impl Gram {
    /// The empty gram (the single node of a 0th-order SFG).
    pub fn empty() -> Self {
        Gram(1)
    }

    /// Packs a history of up to `MAX_K` (3) blocks, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `history.len() > MAX_K`.
    pub fn new(history: &[BlockId]) -> Self {
        assert!(history.len() <= MAX_K, "SFG order limited to {MAX_K}");
        let mut packed: u128 = 1;
        for b in history {
            packed = (packed << 32) | u128::from(*b);
        }
        Gram(packed)
    }

    /// Shifts `block` into the gram, dropping the oldest entry when the
    /// gram already holds `k` blocks.
    pub fn shifted(&self, block: BlockId, k: usize) -> Gram {
        if k == 0 {
            return Gram::empty();
        }
        // Work on the payload without the sentinel so that a full
        // MAX_K-gram cannot shift its sentinel past bit 127.
        let len = self.len().min(k);
        let payload = self.0 & ((1u128 << (32 * len as u32)) - 1);
        let mut packed = (payload << 32) | u128::from(block);
        let new_len = if len + 1 > k {
            packed &= (1u128 << (32 * k as u32)) - 1;
            k
        } else {
            len + 1
        };
        Gram(packed | (1u128 << (32 * new_len as u32)))
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        ((127 - self.0.leading_zeros()) / 32) as usize
    }

    /// Whether the gram is empty (k = 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The context formed by appending `block` to this gram.
    pub fn context_with(&self, block: BlockId) -> Context {
        Context((self.0 << 32) | u128::from(block))
    }

    /// The raw packed representation (profile serialisation).
    pub fn raw(&self) -> u128 {
        self.0
    }

    /// Reconstitutes a gram from [`Gram::raw`] output.
    pub fn from_raw(raw: u128) -> Self {
        Gram(raw)
    }
}

/// Miss statistics for one memory structure pair (L1 + L2 + TLB).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissStats {
    /// L1 miss probability.
    pub l1: ProbCounter,
    /// L2 miss probability (trials = L1 misses).
    pub l2: ProbCounter,
    /// TLB miss probability.
    pub tlb: ProbCounter,
}

/// Per-instruction-slot statistics within a context.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotStats {
    /// The instruction's semantic class (one of the paper's 12).
    pub class: InstrClass,
    /// Number of source register operands.
    pub src_count: u8,
    /// Dependency-distance distribution per operand; distance 0 encodes
    /// "no producer in range" (no dependency).
    pub dep: [Histogram; 2],
    /// Instruction-fetch locality (L1I / L2-instruction / I-TLB).
    pub icache: MissStats,
    /// Data locality for loads (L1D / L2-data / D-TLB).
    pub dcache: Option<MissStats>,
    /// Write-after-write distance distribution (recorded only when the
    /// profile tracks anti-dependencies — the paper's future-work
    /// extension for in-order / register-constrained machines).
    pub waw: Histogram,
    /// Write-after-read distance distribution (see [`SlotStats::waw`]).
    pub war: Histogram,
}

impl SlotStats {
    /// Creates empty statistics for one slot.
    pub fn new(class: InstrClass, src_count: u8) -> Self {
        SlotStats {
            class,
            src_count,
            dep: [Histogram::new(), Histogram::new()],
            icache: MissStats::default(),
            dcache: (class == InstrClass::Load).then(MissStats::default),
            waw: Histogram::new(),
            war: Histogram::new(),
        }
    }
}

/// Terminal-branch statistics of a context (§2.1.2's three branch
/// probabilities).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchCtxStats {
    /// Probability the branch is taken.
    pub taken: ProbCounter,
    /// Correct predictions.
    pub correct: u64,
    /// Fetch redirections (BTB miss, correct direction).
    pub redirect: u64,
    /// Full mispredictions.
    pub mispredict: u64,
}

impl BranchCtxStats {
    /// Total recorded branch executions.
    pub fn total(&self) -> u64 {
        self.correct + self.redirect + self.mispredict
    }
}

/// All statistics recorded for one `(k+1)`-gram context.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextStats {
    /// Occurrences of this context in the profiled stream.
    pub occurrence: u64,
    /// Per-instruction statistics (one entry per instruction of the
    /// basic block).
    pub slots: Vec<SlotStats>,
    /// Terminal branch statistics, when the block ends in a control
    /// instruction.
    pub branch: Option<BranchCtxStats>,
}

/// One exported SFG node: `(raw gram, occurrence, sorted edges)` —
/// the stable wire representation used by profile serialisation.
pub type ExportedNode = (u128, u64, Vec<(BlockId, u64)>);

/// The statistical flow graph: nodes are `k`-grams with occurrence
/// counts; edges carry the next-block transition counts.
#[derive(Debug, Clone, Default)]
pub struct Sfg {
    k: usize,
    nodes: FxHashMap<Gram, NodeData>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct NodeData {
    pub occurrence: u64,
    pub edges: FxHashMap<BlockId, u64>,
}

impl Sfg {
    /// Creates an empty SFG of order `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k > MAX_K`.
    pub fn new(k: usize) -> Self {
        assert!(k <= MAX_K, "SFG order limited to {MAX_K}");
        Sfg {
            k,
            nodes: FxHashMap::default(),
        }
    }

    /// The SFG's order.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Records one observed transition `state --block-->`.
    pub fn record(&mut self, state: Gram, block: BlockId) {
        let node = self.nodes.entry(state).or_default();
        node.occurrence += 1;
        *node.edges.entry(block).or_insert(0) += 1;
    }

    /// Number of nodes (the paper's Table 3 metric). For `k = 0` this
    /// counts the distinct *blocks* (the paper's "no edges" graph keeps
    /// one node per basic block).
    pub fn node_count(&self) -> usize {
        if self.k == 0 {
            self.nodes.get(&Gram::empty()).map_or(0, |n| n.edges.len())
        } else {
            self.nodes.len()
        }
    }

    /// Total recorded transitions (= profiled dynamic basic blocks).
    pub fn total_occurrence(&self) -> u64 {
        self.nodes.values().map(|n| n.occurrence).sum()
    }

    /// Total number of distinct edges across all nodes.
    pub fn edge_count(&self) -> usize {
        self.nodes.values().map(|n| n.edges.len()).sum()
    }

    /// Number of nodes that survive reduction by `r` (§2.2 step 1):
    /// nodes whose occurrence satisfies `floor(M_i / r) > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn reduced_node_count(&self, r: u64) -> usize {
        assert!(r > 0, "reduction factor must be positive");
        self.nodes.values().filter(|n| n.occurrence / r > 0).count()
    }

    /// Transition probability `P[block | state]`, `0.0` if unseen.
    pub fn transition_probability(&self, state: Gram, block: BlockId) -> f64 {
        match self.nodes.get(&state) {
            None => 0.0,
            Some(n) => {
                if n.occurrence == 0 {
                    0.0
                } else {
                    *n.edges.get(&block).unwrap_or(&0) as f64 / n.occurrence as f64
                }
            }
        }
    }

    pub(crate) fn nodes(&self) -> &FxHashMap<Gram, NodeData> {
        &self.nodes
    }

    /// Exports the node list in a stable order (profile serialisation):
    /// `(raw gram, occurrence, sorted edges)`.
    pub fn export_nodes(&self) -> Vec<ExportedNode> {
        let mut out: Vec<_> = self
            .nodes
            .iter()
            .map(|(g, n)| {
                let mut edges: Vec<_> = n.edges.iter().map(|(b, c)| (*b, *c)).collect();
                edges.sort_unstable();
                (g.raw(), n.occurrence, edges)
            })
            .collect();
        out.sort_unstable_by_key(|(g, ..)| *g);
        out
    }

    /// Imports one node (profile deserialisation). Counterpart of
    /// [`Sfg::export_nodes`].
    pub fn import_node(&mut self, gram: Gram, occurrence: u64, edges: Vec<(BlockId, u64)>) {
        let node = self.nodes.entry(gram).or_default();
        node.occurrence += occurrence;
        for (b, c) in edges {
            *node.edges.entry(b).or_insert(0) += c;
        }
    }
}

/// A complete statistical profile: the SFG plus per-context
/// characteristics — everything Figure 1 of the paper lists.
#[derive(Debug, Clone)]
pub struct StatisticalProfile {
    pub(crate) sfg: Sfg,
    pub(crate) contexts: FxHashMap<Context, ContextStats>,
    pub(crate) instructions: u64,
    pub(crate) branch_lookups: u64,
    pub(crate) branch_mispredicts: u64,
}

impl StatisticalProfile {
    /// The SFG order `k`.
    pub fn k(&self) -> usize {
        self.sfg.k()
    }

    /// The underlying statistical flow graph.
    pub fn sfg(&self) -> &Sfg {
        &self.sfg
    }

    /// Number of distinct `(k+1)`-gram contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Instructions profiled.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total branch-predictor lookups that survived to the update side
    /// during profiling.
    pub fn branch_lookups(&self) -> u64 {
        self.branch_lookups
    }

    /// Branch mispredictions per 1,000 profiled instructions — the
    /// Figure 3 metric, as seen by the profiling scheme.
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Total mispredictions observed by the profiling scheme.
    pub fn branch_mispredict_count(&self) -> u64 {
        self.branch_mispredicts
    }

    /// Reassembles a profile from its parts (deserialisation).
    pub fn from_parts(
        sfg: Sfg,
        contexts: FxHashMap<Context, ContextStats>,
        instructions: u64,
        branch_lookups: u64,
        branch_mispredicts: u64,
    ) -> Self {
        StatisticalProfile {
            sfg,
            contexts,
            instructions,
            branch_lookups,
            branch_mispredicts,
        }
    }

    /// Statistics of one context, if recorded.
    pub fn context(&self, ctx: &Context) -> Option<&ContextStats> {
        self.contexts.get(ctx)
    }

    /// Iterates over all recorded contexts.
    pub fn contexts(&self) -> impl Iterator<Item = (&Context, &ContextStats)> {
        self.contexts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_shift_maintains_window() {
        let g = Gram::empty();
        assert_eq!(g.len(), 0);
        let g = g.shifted(10, 2);
        assert_eq!(g.len(), 1);
        let g = g.shifted(20, 2);
        assert_eq!(g.len(), 2);
        let g = g.shifted(30, 2);
        assert_eq!(g.len(), 2);
        assert_eq!(g, Gram::new(&[20, 30]));
    }

    #[test]
    fn gram_k0_stays_empty() {
        let g = Gram::empty().shifted(5, 0);
        assert!(g.is_empty());
        assert_eq!(g, Gram::empty());
    }

    #[test]
    fn contexts_distinguish_histories() {
        let a = Context::new(&[1], 2);
        let b = Context::new(&[3], 2);
        let c = Context::new(&[], 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.current(), 2);
        assert_eq!(c.current(), 2);
    }

    #[test]
    fn context_zero_blocks_distinct_lengths() {
        // Block id 0 must not make (0,0) collide with (0) — the
        // sentinel bit encodes length.
        let one = Context::new(&[], 0);
        let two = Context::new(&[0], 0);
        assert_ne!(one, two);
    }

    #[test]
    fn gram_context_with_matches_context_new() {
        let g = Gram::new(&[7, 9]);
        assert_eq!(g.context_with(4), Context::new(&[7, 9], 4));
    }

    /// The paper's Figure 2 example: sequence AABAABCABC, k = 1.
    #[test]
    fn figure2_first_order_sfg() {
        let (a, b, c) = (1u32, 2u32, 3u32);
        let seq = [a, a, b, a, a, b, c, a, b, c];
        let mut sfg = Sfg::new(1);
        let mut state = Gram::empty();
        for &blk in &seq {
            if !state.is_empty() {
                sfg.record(state, blk);
            }
            state = state.shifted(blk, 1);
        }
        // Node A has occurrence 5 in the figure; we record 4 outgoing
        // transitions (the final C→? edge is missing since A's last
        // occurrence in the figure counts the node, not an edge; our
        // node occurrences count *transitions out*, which is the
        // walkable quantity).
        // Transition probabilities must match the figure: A→A 40%,
        // A→B 60%, B→C 66%, B→A 33%, C→A 100%.
        let ga = Gram::new(&[a]);
        let gb = Gram::new(&[b]);
        let gc = Gram::new(&[c]);
        assert!((sfg.transition_probability(ga, a) - 0.4).abs() < 0.11);
        assert!((sfg.transition_probability(ga, b) - 0.6).abs() < 0.11);
        assert!((sfg.transition_probability(gb, c) - 2.0 / 3.0).abs() < 1e-9);
        assert!((sfg.transition_probability(gb, a) - 1.0 / 3.0).abs() < 1e-9);
        assert!((sfg.transition_probability(gc, a) - 1.0).abs() < 1e-9);
        assert_eq!(sfg.node_count(), 3);
    }

    /// The paper's Figure 2 example, k = 2: five nodes AA AB BA BC CA.
    #[test]
    fn figure2_second_order_sfg() {
        let (a, b, c) = (1u32, 2u32, 3u32);
        let seq = [a, a, b, a, a, b, c, a, b, c];
        let mut sfg = Sfg::new(2);
        let mut state = Gram::empty();
        for &blk in &seq {
            if state.len() == 2 {
                sfg.record(state, blk);
            }
            state = state.shifted(blk, 2);
        }
        assert_eq!(sfg.node_count(), 5);
        let gab = Gram::new(&[a, b]);
        assert!((sfg.transition_probability(gab, a) - 1.0 / 3.0).abs() < 0.2);
        assert!((sfg.transition_probability(gab, c) - 2.0 / 3.0).abs() < 0.2);
        let gaa = Gram::new(&[a, a]);
        assert!((sfg.transition_probability(gaa, b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn k0_node_count_counts_blocks() {
        let mut sfg = Sfg::new(0);
        sfg.record(Gram::empty(), 5);
        sfg.record(Gram::empty(), 5);
        sfg.record(Gram::empty(), 9);
        assert_eq!(sfg.node_count(), 2);
        assert_eq!(sfg.total_occurrence(), 3);
    }
}
