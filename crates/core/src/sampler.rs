//! Compiled sampling engine: the §2.2 random walk lowered to dense
//! tables.
//!
//! Interpreting the reduced SFG directly costs a hash-map probe per
//! walk step, a rescan of the node set per restart and a `BTreeMap`
//! walk per distribution draw — the shape of the reference interpreter
//! the equivalence tests keep (`tests/support/reference.rs`). Synthetic
//! trace generation is the per-design-point inner loop of the
//! methodology, so this module compiles a `(profile, r)` pair **once**
//! into flat arrays and replays them:
//!
//! * **Gram interning** — the reduced node set is sorted and each gram
//!   gets a dense `u32` id; the walk becomes array indexing. Edges are
//!   stored in CSR form with the successor *id* (the gram shift) and
//!   the per-context statistics pointer resolved at compile time.
//! * **Fenwick start-node selection** — restarts draw a start node from
//!   the remaining-occurrence distribution. A binary-indexed tree over
//!   the per-node budgets answers the prefix-sum search in O(log n)
//!   while returning the *exact* node the interpreter's sorted linear
//!   scan would pick (ids are assigned in the same sorted-gram order).
//! * **Compiled histograms** — every per-slot distribution is lowered
//!   to a [`CompiledHistogram`] whose CDF inversion is bit-identical to
//!   `Histogram::sample_with` (see `ssim-stats`).
//!
//! The walk emits straight into a [`SyntheticTrace`]'s packed words,
//! the format the trace simulator reads. It consumes the seeded RNG in
//! exactly the sequence the interpreter does, so traces are
//! **byte-identical** for every `(r, seed)` — pinned by the
//! equivalence tests in `tests/compiled_equivalence.rs`. The artifact
//! borrows nothing from the profile and is `Sync`, so one lowering
//! serves the multi-seed convergence runs of §4.1 and parallel design
//! sweeps.

use crate::fxhash::FxHashMap;
use crate::sfg::{BranchCtxStats, ContextStats, StatisticalProfile};
use crate::synth::{
    BranchFlags, DataFlags, SyntheticInstr, SyntheticOutcome, SyntheticTrace, WalkReport,
};
use crate::{DEP_RETRIES, MAX_DEP_DISTANCE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssim_isa::InstrClass;
use ssim_stats::CompiledHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

// Observability (all no-ops unless SSIM_METRICS enables recording).
// Walk totals accumulate in locals and flush once per walk; only the
// rare clamp/retry events record inline.
static OBS_GENERATE_TIME: ssim_obs::TimerStat = ssim_obs::TimerStat::new("synth.time");
static OBS_WALK_STEPS: ssim_obs::Counter = ssim_obs::Counter::new("synth.walk_steps");
static OBS_WALK_RESTARTS: ssim_obs::Counter = ssim_obs::Counter::new("synth.walk_restarts");
static OBS_INSTRS_EMITTED: ssim_obs::Counter = ssim_obs::Counter::new("synth.instrs_emitted");
static OBS_NODES_DROPPED: ssim_obs::Counter = ssim_obs::Counter::new("synth.nodes_dropped_empty");
static OBS_REDUCED_NODES: ssim_obs::Gauge = ssim_obs::Gauge::new("synth.reduced_nodes");
static OBS_DEP_CLAMPED: ssim_obs::Counter = ssim_obs::Counter::new("synth.dep_clamped_512");
static OBS_DEP_RETRIES_EXHAUSTED: ssim_obs::Counter =
    ssim_obs::Counter::new("synth.dep_retries_exhausted");
static OBS_COMPILE_TIME: ssim_obs::TimerStat = ssim_obs::TimerStat::new("sampler.compile_time");
static OBS_TABLE_NODES: ssim_obs::Gauge = ssim_obs::Gauge::new("sampler.nodes");
static OBS_TABLE_EDGES: ssim_obs::Gauge = ssim_obs::Gauge::new("sampler.edges");
static OBS_TABLE_CONTEXTS: ssim_obs::Gauge = ssim_obs::Gauge::new("sampler.contexts");

/// Sentinel edge-context id: the context never materialised during
/// profiling, so traversing the edge emits nothing (mirrors the
/// interpreter's `contexts.get(ctx) == None` early return).
const NO_CONTEXT: u32 = u32::MAX;

/// A Fenwick (binary-indexed) tree over per-node remaining occurrence
/// counts, answering "which node does cumulative point `p` land in"
/// in O(log n) — the interpreter answers the same question with an
/// O(n) scan over the sorted gram list.
#[derive(Debug, Clone)]
struct Fenwick {
    /// 1-based implicit tree; `tree[i]` sums a `lowbit(i)`-sized range.
    tree: Vec<u64>,
}

impl Fenwick {
    /// Builds in O(n) from per-node values.
    fn from_values(values: &[u64]) -> Self {
        let n = values.len();
        let mut tree = vec![0u64; n + 1];
        tree[1..].copy_from_slice(values);
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        Fenwick { tree }
    }

    /// Subtracts `delta` from the value at 0-based index `i`.
    fn sub(&mut self, i: usize, delta: u64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] -= delta;
            i += i & i.wrapping_neg();
        }
    }

    /// The 0-based index of the first node whose cumulative sum exceeds
    /// `point` — identical to the interpreter's `point < remaining`
    /// scan over nodes in sorted-gram order.
    fn prefix_search(&self, mut point: u64) -> usize {
        let n = self.tree.len() - 1;
        let mut pos = 0usize;
        let mut step = if n == 0 {
            0
        } else {
            1usize << (usize::BITS - 1 - n.leading_zeros())
        };
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= point {
                point -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // 1-based pos, so 0-based index of the *next* node
    }
}

/// Remaining-occurrence bookkeeping for the walk: an exact per-node
/// `remaining` array updated on every step, plus a Fenwick index that
/// is only brought up to date at restart boundaries — the only time it
/// is read. A walk segment between restarts touches few distinct nodes,
/// so deferring turns an O(log n) tree update per step into one per
/// (node, segment) pair, leaving the per-step cost at a bounds check
/// and a decrement.
#[derive(Debug, Clone)]
struct Occupancy {
    remaining: Vec<u64>,
    /// Per-node value the Fenwick tree currently reflects.
    synced: Vec<u64>,
    /// Nodes with `synced != remaining`, each listed once.
    dirty: Vec<u32>,
    tree: Fenwick,
}

impl Occupancy {
    fn new(initial: &[u64]) -> Self {
        Occupancy {
            remaining: initial.to_vec(),
            synced: initial.to_vec(),
            dirty: Vec::with_capacity(16),
            tree: Fenwick::from_values(initial),
        }
    }

    #[inline]
    fn remaining(&self, node: usize) -> u64 {
        self.remaining[node]
    }

    /// Consumes one occurrence (a walk step) without touching the tree.
    #[inline]
    fn consume_one(&mut self, node: usize) {
        if self.synced[node] == self.remaining[node] {
            self.dirty.push(node as u32);
        }
        self.remaining[node] -= 1;
    }

    /// Drains a dead-end node entirely; returns what was left.
    fn drain(&mut self, node: usize) -> u64 {
        let left = self.remaining[node];
        if left > 0 {
            if self.synced[node] == self.remaining[node] {
                self.dirty.push(node as u32);
            }
            self.remaining[node] = 0;
        }
        left
    }

    /// Syncs the tree and picks the node holding cumulative `point` —
    /// restart-time only.
    fn select(&mut self, point: u64) -> usize {
        for i in 0..self.dirty.len() {
            let node = self.dirty[i] as usize;
            self.tree
                .sub(node, self.synced[node] - self.remaining[node]);
            self.synced[node] = self.remaining[node];
        }
        self.dirty.clear();
        self.tree.prefix_search(point)
    }

    /// Σ remaining — the walk's budget invariant (debug assertions).
    fn total(&self) -> u64 {
        self.remaining.iter().sum()
    }
}

/// One CSR edge, interleaved so a walk step touches one record: the
/// cumulative count scanned by [`pick_edge`], the successor node id
/// (the gram shift, resolved at compile time against the reduced node
/// set) and the index into `contexts` ([`NO_CONTEXT`] = emit nothing).
#[derive(Debug, Clone)]
struct CompiledEdge {
    cum: u64,
    target: u32,
    ctx: u32,
}

/// Index of the first edge whose cumulative count exceeds `point` —
/// the same partition point `partition_point(|e| e.cum <= point)`
/// finds, but computed with a branchless accumulation for the small
/// fan-outs that dominate real SFGs: `point` is a fresh random draw
/// every step, so binary-search branches mispredict almost every time,
/// costing more than summing the whole fan.
#[inline]
fn pick_edge(edges: &[CompiledEdge], point: u64) -> usize {
    if edges.len() <= 16 {
        edges.iter().map(|e| usize::from(e.cum <= point)).sum()
    } else {
        edges.partition_point(|e| e.cum <= point)
    }
}

/// One instruction slot's statistics, lowered for the draw hot path:
/// the one record the emit loop reads per instruction. An empty
/// histogram draws nothing, and neither does `dcache` for a slot that
/// is not a load.
#[derive(Debug, Clone)]
struct CompiledSlot {
    class: InstrClass,
    src_count: u8,
    dep: [CompiledHistogram; 2],
    waw: CompiledHistogram,
    war: CompiledHistogram,
    /// (L1I, L2I, I-TLB) miss probabilities.
    icache: [f64; 3],
    /// (L1D, L2D, D-TLB) miss probabilities, loads only.
    dcache: Option<[f64; 3]>,
}

/// Terminal-branch statistics of a context, lowered. Present only when
/// the profile recorded at least one branch execution (`total > 0`), so
/// the emit path's draw is unconditional.
#[derive(Debug, Clone)]
struct CompiledBranch {
    taken: f64,
    correct: u64,
    redirect: u64,
    total: u64,
}

/// All per-context statistics one edge traversal needs.
#[derive(Debug, Clone)]
struct CompiledContext {
    slots: Vec<CompiledSlot>,
    branch: Option<CompiledBranch>,
}

impl CompiledContext {
    fn lower(stats: &ContextStats) -> Self {
        let slots = stats
            .slots
            .iter()
            .map(|s| CompiledSlot {
                class: s.class,
                src_count: s.src_count,
                dep: [s.dep[0].compile(), s.dep[1].compile()],
                waw: s.waw.compile(),
                war: s.war.compile(),
                icache: [
                    s.icache.l1.probability(),
                    s.icache.l2.probability(),
                    s.icache.tlb.probability(),
                ],
                dcache: s
                    .dcache
                    .as_ref()
                    .map(|d| [d.l1.probability(), d.l2.probability(), d.tlb.probability()]),
            })
            .collect();
        let branch = stats.branch.as_ref().and_then(|b: &BranchCtxStats| {
            let total = b.total();
            (total > 0).then(|| CompiledBranch {
                taken: b.taken.probability(),
                correct: b.correct,
                redirect: b.redirect,
                total,
            })
        });
        CompiledContext { slots, branch }
    }
}

/// A `(profile, r)` pair lowered into dense tables (see the module
/// docs). Build with [`StatisticalProfile::compile`]; generate any
/// number of traces with [`CompiledSampler::generate`].
///
/// # Examples
///
/// ```no_run
/// use ssim_core::{profile, ProfileConfig};
/// use ssim_uarch::MachineConfig;
///
/// let program = ssim_workloads::by_name("gzip").unwrap().program();
/// let p = profile(&program, &ProfileConfig::new(&MachineConfig::baseline()));
/// let sampler = p.compile(100); // lower once ...
/// for seed in 0..10 {
///     let trace = sampler.generate(seed); // ... walk many times
///     assert_eq!(trace, p.generate(100, seed));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSampler {
    /// Per-node initial occurrence budget `N_i = floor(M_i / r)`, in
    /// sorted-gram order (the id space).
    initial: Vec<u64>,
    /// CSR row offsets into `edges` (`nodes + 1` entries).
    edge_start: Vec<u32>,
    /// CSR edge records, one 16-byte record per surviving edge — the
    /// cumulative scan and the successor/context lookup hit the same
    /// cache line. A row's last `cum` is its node's transition total,
    /// and a node with none (every edge pruned) is a dead end.
    edges: Vec<CompiledEdge>,
    /// Lowered per-context statistics, indexed by [`CompiledEdge::ctx`].
    contexts: Vec<CompiledContext>,
    /// Σ `initial` — the walk's occurrence budget.
    budget: u64,
    /// Process-unique identity of this lowering, shared by its clones
    /// (the tables are immutable, so a clone walks identically). Keys
    /// the [`SimEngine`](crate::SimEngine)'s walk reuse; never part of
    /// [`CompiledSampler::lowering_digest`].
    pub(crate) id: u64,
}

/// Source of [`CompiledSampler::id`]s: one per lowering, never reused.
static NEXT_SAMPLER_ID: AtomicU64 = AtomicU64::new(0);

impl StatisticalProfile {
    /// Lowers the profile for reduction factor `r` into a reusable
    /// [`CompiledSampler`] (step 1 of §2.2 plus table construction).
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn compile(&self, r: u64) -> CompiledSampler {
        CompiledSampler::lower(self, r)
    }
}

impl CompiledSampler {
    /// The number of reduced-SFG nodes in the compiled tables.
    pub fn node_count(&self) -> usize {
        self.initial.len()
    }

    /// The number of (post-pruning) edges in the compiled tables.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The walk's total occurrence budget (trace length in blocks).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    fn lower(profile: &StatisticalProfile, r: u64) -> Self {
        assert!(r > 0, "reduction factor must be positive");
        let _span = OBS_COMPILE_TIME.span();
        let k = profile.sfg.k();

        // ---- intern: reduced grams in sorted order -> dense u32 ids.
        // Sorted-gram order *is* the interpreter's start-node scan
        // order, which makes the Fenwick prefix search below land on
        // the identical node for every cumulative point.
        let mut grams: Vec<_> = profile
            .sfg
            .nodes()
            .iter()
            .filter(|(_, n)| n.occurrence / r > 0)
            .map(|(g, n)| (*g, n))
            .collect();
        grams.sort_unstable_by_key(|(g, _)| *g);
        let id_of: FxHashMap<_, u32> = grams
            .iter()
            .enumerate()
            .map(|(i, (g, _))| (*g, i as u32))
            .collect();
        OBS_NODES_DROPPED.add((profile.sfg.nodes().len() - grams.len()) as u64);
        OBS_REDUCED_NODES.set(grams.len() as u64);

        // ---- edges: CSR rows with targets, contexts and cumulative
        // counts resolved against the reduced node set. An edge from
        // state s labeled b leads to shift(s, b); edges into dropped
        // nodes are pruned (the paper removes all incoming and outgoing
        // edges of removed nodes). The k = 0 graph has a single node
        // and every edge loops back to it, so nothing prunes.
        let mut initial = Vec::with_capacity(grams.len());
        let mut edge_start = Vec::with_capacity(grams.len() + 1);
        let mut edge_records: Vec<CompiledEdge> = Vec::new();
        let mut contexts = Vec::new();
        edge_start.push(0u32);
        for (gram, node) in &grams {
            initial.push(node.occurrence / r);
            // Deterministic edge order for reproducibility (the
            // interpreter sorts by block id the same way).
            let mut edges: Vec<_> = node.edges.iter().collect();
            edges.sort_unstable_by_key(|(b, _)| **b);
            let mut acc = 0u64;
            for (block, count) in edges {
                let Some(&target) = id_of.get(&gram.shifted(*block, k)) else {
                    continue; // pruned: successor fell out of the reduced set
                };
                acc += *count;
                let ctx = match profile.contexts.get(&gram.context_with(*block)) {
                    Some(stats) => {
                        contexts.push(CompiledContext::lower(stats));
                        (contexts.len() - 1) as u32
                    }
                    None => NO_CONTEXT,
                };
                edge_records.push(CompiledEdge {
                    cum: acc,
                    target,
                    ctx,
                });
            }
            edge_start.push(edge_records.len() as u32);
        }
        let budget: u64 = initial.iter().sum();

        OBS_TABLE_NODES.set(initial.len() as u64);
        OBS_TABLE_EDGES.set(edge_records.len() as u64);
        OBS_TABLE_CONTEXTS.set(contexts.len() as u64);
        CompiledSampler {
            initial,
            edge_start,
            edges: edge_records,
            contexts,
            budget,
            id: NEXT_SAMPLER_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Walks the compiled tables without emitting instructions.
    ///
    /// The RNG stream is start draw + one edge draw per step (no
    /// per-instruction draws), so the visited node sequence differs
    /// from [`CompiledSampler::generate`]'s; what it matches exactly —
    /// steps, restarts and budget-trajectory checksum — is the
    /// equivalence tests' reference interpreter walking the same
    /// `(r, seed)` without emission. The step count depends on the
    /// reduced SFG alone: Σ⌊M_i/r⌋ over the nodes with an edge into the
    /// reduced set, whatever the seed.
    pub fn walk(&self, seed: u64) -> WalkReport {
        self.run_walk(seed, |_, _| {})
    }

    /// Generates one synthetic trace by random-walking the compiled
    /// tables (steps 2–9 of §2.2).
    ///
    /// Byte-identical to the equivalence tests' reference interpreter
    /// for the same `(r, seed)`: the walk draws from the seeded RNG in
    /// exactly the interpreter's sequence and inverts the same CDFs.
    /// The fused generate-and-simulate engine runs the same walk into
    /// its own trace, so the two paths cannot drift.
    pub fn generate(&self, seed: u64) -> SyntheticTrace {
        let mut trace = SyntheticTrace::default();
        self.emit_walk(seed, &mut trace);
        trace
    }

    /// Runs the §2.2 walk for `seed` to completion, appending every
    /// traversed edge's block to the empty `trace` — the one generation
    /// loop behind [`CompiledSampler::generate`] and the fused engine.
    /// Timed by the `synth.time` observability timer.
    pub(crate) fn emit_walk(&self, seed: u64, trace: &mut SyntheticTrace) {
        debug_assert!(trace.is_empty());
        let _span = OBS_GENERATE_TIME.span();
        // A NO_CONTEXT edge finds no context and emits nothing.
        let report = self.run_walk(seed, |edge, rng| {
            if let Some(ctx) = self.contexts.get(edge.ctx as usize) {
                ctx.emit_into(trace, rng);
            }
        });
        OBS_WALK_STEPS.add(report.steps);
        OBS_WALK_RESTARTS.add(report.restarts);
        OBS_INSTRS_EMITTED.add(trace.len() as u64);
    }

    /// The random walk of §2.2 over the compiled tables, run to
    /// completion. `on_edge` sees each traversed edge with the RNG right
    /// after its edge draw, so any draws it makes interleave with the
    /// walk's in the interpreter's order.
    #[inline]
    fn run_walk(
        &self,
        seed: u64,
        mut on_edge: impl FnMut(&CompiledEdge, &mut SmallRng),
    ) -> WalkReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut budget = self.budget;
        let mut report = WalkReport::default();
        if budget == 0 {
            return report;
        }
        let mut occupancy = Occupancy::new(&self.initial);
        'walk: loop {
            // ---- step 2: pick a start node by remaining occurrence.
            report.restarts += 1;
            report.checksum = report.checksum.rotate_left(5) ^ budget;
            debug_assert_eq!(budget, occupancy.total());
            if budget == 0 {
                break 'walk;
            }
            let point = rng.gen_range(0..budget);
            let mut node = occupancy.select(point);
            // ---- steps 3-9: walk the id space.
            loop {
                let row =
                    &self.edges[self.edge_start[node] as usize..self.edge_start[node + 1] as usize];
                let total = row.last().map_or(0, |e| e.cum);
                if total == 0 {
                    // Dead end (every outgoing edge was pruned): per the
                    // paper, accessing the node still consumes its
                    // occurrence before restarting at step 1 — otherwise
                    // start-node selection could land here forever.
                    budget = budget.saturating_sub(occupancy.drain(node));
                    if budget == 0 {
                        break 'walk;
                    }
                    continue 'walk;
                }
                if occupancy.remaining(node) == 0 {
                    // Occurrence budget exhausted: restart at step 2.
                    continue 'walk;
                }
                occupancy.consume_one(node);
                budget -= 1;
                report.steps += 1;
                // Pick an outgoing edge by transition probability.
                let point = rng.gen_range(0..total);
                let edge = &row[pick_edge(row, point)];
                on_edge(edge, &mut rng);
                node = edge.target as usize;
                if budget == 0 {
                    break 'walk;
                }
            }
        }
        report
    }

    /// A deterministic digest over the lowered tables — node budgets,
    /// CSR edges, and each slot's class, operand count, distribution
    /// presence bits and I-cache probabilities — pinned by the frozen
    /// wire-format tests so accidental changes to the lowering are
    /// caught as test failures, not silent behaviour drift.
    pub fn lowering_digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::fxhash::FxHasher::default();
        h.write_u64(self.budget);
        h.write_usize(self.initial.len());
        for &v in &self.initial {
            h.write_u64(v);
        }
        for &v in &self.edge_start {
            h.write_u32(v);
        }
        for e in &self.edges {
            h.write_u64(e.cum);
            h.write_u32(e.target);
            h.write_u32(e.ctx);
        }
        h.write_usize(self.contexts.len());
        for slot in self.contexts.iter().flat_map(|c| &c.slots) {
            h.write_usize(slot.class.index());
            h.write_u8(slot.src_count);
            let present = [
                !slot.dep[0].is_empty(),
                !slot.dep[1].is_empty(),
                !slot.waw.is_empty(),
                !slot.war.is_empty(),
                slot.dcache.is_some(),
            ];
            h.write_u8(present.iter().fold(0, |bits, &p| bits << 1 | u8::from(p)));
            for p in slot.icache {
                h.write_u64(p.to_bits());
            }
        }
        h.finish()
    }
}

impl CompiledContext {
    /// Emits one basic block's worth of synthetic instructions
    /// (steps 3-8) — the compiled mirror of the interpreter's
    /// `emit_block`, consuming the RNG in the identical sequence: a
    /// distribution draws only when its histogram has mass, and the
    /// data-side flags only for a load.
    fn emit_into(&self, trace: &mut SyntheticTrace, rng: &mut SmallRng) {
        let nslots = self.slots.len();
        // One quantile per block occurrence, shared by every operand's
        // first draw: within one dynamic block, dependency distances
        // co-vary (they all measure "how far back did the previous
        // work happen"), and comonotonic sampling preserves that
        // correlation instead of entangling independent chains.
        let u_block: f64 = rng.gen();
        for (s, slot) in self.slots.iter().enumerate() {
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
                if hist.is_empty() {
                    continue;
                }
                let d = hist.sample_with(rng.gen()).unwrap_or(0);
                if d > 0 {
                    if d > MAX_DEP_DISTANCE {
                        OBS_DEP_CLAMPED.inc();
                    }
                    instr.anti_dep[i] = Some(d.min(MAX_DEP_DISTANCE));
                }
            }
            // step 4: dependency distances, retried so the producer is
            // not a branch or store. (Indexed: iterating `slot.dep` with
            // `enumerate()` compiled this loop measurably slower.)
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
                        // Guards hand-built or deserialized profiles so
                        // the ≤512 invariant holds everywhere.
                        OBS_DEP_CLAMPED.inc();
                    }
                    let d = d.min(MAX_DEP_DISTANCE);
                    let pos = trace.len();
                    match pos.checked_sub(d as usize) {
                        Some(src) => {
                            // Producer must define a register (not a
                            // branch or store): the producer's word
                            // answers from its class bits.
                            if trace.has_dest_at(src) {
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
                let l1_miss = rng.gen::<f64>() < d[0];
                let l2_miss = l1_miss && rng.gen::<f64>() < d[1];
                let tlb_miss = rng.gen::<f64>() < d[2];
                instr.dmem = Some(DataFlags {
                    l1_miss,
                    l2_miss,
                    tlb_miss,
                });
            }
            // step 7: instruction fetch locality flags.
            instr.l1i_miss = rng.gen::<f64>() < slot.icache[0];
            instr.l2i_miss = instr.l1i_miss && rng.gen::<f64>() < slot.icache[1];
            instr.itlb_miss = rng.gen::<f64>() < slot.icache[2];
            // step 6: terminal branch flags.
            if s + 1 == nslots {
                if let Some(b) = &self.branch {
                    let taken = rng.gen::<f64>() < b.taken;
                    let point = rng.gen_range(0..b.total);
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
            trace.push(instr); // step 8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfg::{Gram, Sfg};

    #[test]
    fn fenwick_prefix_search_matches_linear_scan() {
        let values = [3u64, 0, 5, 1, 0, 2];
        let f = Fenwick::from_values(&values);
        let total: u64 = values.iter().sum();
        for point in 0..total {
            // Reference: first index whose cumulative sum exceeds point.
            let mut p = point;
            let mut want = 0usize;
            for (i, &v) in values.iter().enumerate() {
                if p < v {
                    want = i;
                    break;
                }
                p -= v;
            }
            assert_eq!(f.prefix_search(point), want, "point {point}");
        }
    }

    #[test]
    fn fenwick_sub_keeps_search_consistent() {
        let mut values = vec![4u64, 2, 0, 7, 1];
        let mut f = Fenwick::from_values(&values);
        // Drain in a fixed pattern, checking the search after each op.
        for (i, delta) in [(0usize, 2u64), (3, 7), (0, 2), (4, 1), (1, 2)] {
            f.sub(i, delta);
            values[i] -= delta;
            let total: u64 = values.iter().sum();
            for point in 0..total {
                let mut p = point;
                let mut want = 0usize;
                for (j, &v) in values.iter().enumerate() {
                    if p < v {
                        want = j;
                        break;
                    }
                    p -= v;
                }
                assert_eq!(f.prefix_search(point), want);
            }
        }
    }

    #[test]
    fn fenwick_single_node() {
        let f = Fenwick::from_values(&[5]);
        for point in 0..5 {
            assert_eq!(f.prefix_search(point), 0);
        }
    }

    #[test]
    fn compile_resolves_tables_for_hand_built_sfg() {
        // Figure 2's k = 1 graph: A→{A,B}, B→{A,C}, C→{A}.
        let (a, b, c) = (1u32, 2u32, 3u32);
        let mut sfg = Sfg::new(1);
        sfg.import_node(Gram::new(&[a]), 5, vec![(a, 2), (b, 3)]);
        sfg.import_node(Gram::new(&[b]), 3, vec![(a, 1), (c, 2)]);
        sfg.import_node(Gram::new(&[c]), 2, vec![(a, 2)]);
        let p = StatisticalProfile::from_parts(sfg, FxHashMap::default(), 10, 0, 0);

        let s = p.compile(1);
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 5);
        assert_eq!(s.budget(), 10);

        // R = 3 drops C (2/3 = 0) and prunes B→C with it.
        let s = p.compile(3);
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.budget(), 2);

        // R beyond every occurrence: empty tables, empty trace.
        let s = p.compile(100);
        assert_eq!(s.node_count(), 0);
        assert_eq!(s.budget(), 0);
        assert!(s.generate(1).is_empty());
    }
}
