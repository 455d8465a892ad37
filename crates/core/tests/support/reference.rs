//! Frozen reference interpreter for synthetic trace generation — the
//! executable specification for `ssim_core`'s compiled sampler.
//!
//! This module is a deliberate, self-contained copy of the §2.2
//! generator *as it stood before the compiled sampling engine landed*:
//! it reduces the SFG into a hash map on every call, probes that map at
//! every walk step, rescans the sorted node list at every restart and
//! walks each histogram's `BTreeMap` at every draw. It plays the same
//! role for the sampler that `refsim.rs` plays for the trace simulator:
//! slow, obvious and trusted. The equivalence suite asserts that the
//! compiled walk produces an identical trace and an identical
//! [`WalkReport`] for every `(r, seed)`.
//!
//! It reads the profile only through public accessors
//! ([`Sfg::export_nodes`](ssim_core::Sfg::export_nodes),
//! [`StatisticalProfile::context`], [`Gram`]'s constructors), so it
//! shares no table with the code it checks. Do not optimise this
//! module. Only touch it when the *modelled generator* changes, and
//! change the sampler in lockstep.
//!
//! Unlike the production path this module records no observability
//! metrics.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssim_core::{
    BranchFlags, Context, DataFlags, Gram, StatisticalProfile, SyntheticInstr, SyntheticOutcome,
    SyntheticTrace, WalkReport, DEP_RETRIES, MAX_DEP_DISTANCE,
};
use std::collections::{HashMap, HashSet};

/// One node of the reduced SFG: remaining occurrence plus the
/// cumulative outgoing-edge distribution (parallel arrays, sorted by
/// block id).
struct RNode {
    remaining: u64,
    targets: Vec<u32>,
    cumulative: Vec<u64>,
    total: u64,
}

/// Step 1 of §2.2: the occurrence-reduced (`N_i = floor(M_i / r)`),
/// edge-pruned SFG, its total occurrence budget, and the sorted gram
/// list that start-node selection scans.
struct ReducedSfg {
    nodes: HashMap<Gram, RNode>,
    budget: u64,
    start_grams: Vec<Gram>,
}

/// Builds the reduced SFG: nodes with `floor(M_i / r) == 0` are
/// removed together with every edge into them (an edge from state `s`
/// labeled `b` leads to state `shift(s, b)`).
///
/// # Panics
///
/// Panics if `r` is zero.
fn reduce_sfg(p: &StatisticalProfile, r: u64) -> ReducedSfg {
    assert!(r > 0, "reduction factor must be positive");
    let k = p.k();
    let exported = p.sfg().export_nodes();
    let live: HashSet<Gram> = exported
        .iter()
        .filter(|(_, occurrence, _)| occurrence / r > 0)
        .map(|(raw, ..)| Gram::from_raw(*raw))
        .collect();
    let mut nodes = HashMap::new();
    for (raw, occurrence, edges) in &exported {
        let gram = Gram::from_raw(*raw);
        if !live.contains(&gram) {
            continue;
        }
        let (mut targets, mut cumulative, mut acc) = (Vec::new(), Vec::new(), 0u64);
        // `export_nodes` sorts edges by block id: a deterministic order.
        for &(block, count) in edges {
            if live.contains(&gram.shifted(block, k)) {
                acc += count;
                targets.push(block);
                cumulative.push(acc);
            }
        }
        let node = RNode {
            remaining: occurrence / r,
            targets,
            cumulative,
            total: acc,
        };
        nodes.insert(gram, node);
    }
    let budget = nodes.values().map(|n| n.remaining).sum();
    let mut start_grams: Vec<Gram> = nodes.keys().copied().collect();
    start_grams.sort_unstable();
    ReducedSfg {
        nodes,
        budget,
        start_grams,
    }
}

/// Steps 2–9 of §2.2 over the reduced SFG for `(r, seed)`. `on_edge`
/// sees each traversed edge (the state it leaves and the block it
/// takes) with the RNG right after the edge draw, so any draws it makes
/// interleave with the walk's.
fn walk(
    p: &StatisticalProfile,
    r: u64,
    seed: u64,
    mut on_edge: impl FnMut(Gram, u32, &mut SmallRng),
) -> WalkReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ReducedSfg {
        mut nodes,
        mut budget,
        start_grams,
    } = reduce_sfg(p, r);
    let mut report = WalkReport::default();
    if budget == 0 {
        return report;
    }
    let k = p.k();
    'walk: loop {
        report.restarts += 1;
        report.checksum = report.checksum.rotate_left(5) ^ budget;
        // `budget` tracks Σ remaining exactly: every decrement (walk
        // step or dead-end drain) updates both in lockstep.
        debug_assert_eq!(budget, nodes.values().map(|n| n.remaining).sum::<u64>());
        if budget == 0 {
            break 'walk;
        }
        // ---- step 2: pick a start node by remaining occurrence.
        let mut point = rng.gen_range(0..budget);
        let mut state = start_grams[0];
        for g in &start_grams {
            let rem = nodes[g].remaining;
            if point < rem {
                state = *g;
                break;
            }
            point -= rem;
        }
        // ---- steps 3-9: walk.
        loop {
            let node = nodes
                .get_mut(&state)
                .expect("edges lead only into the reduced SFG");
            if node.total == 0 {
                // Dead end (every outgoing edge was pruned): accessing
                // the node still consumes its occurrence before the
                // restart, or start-node selection could land here
                // forever.
                budget -= node.remaining;
                node.remaining = 0;
                if budget == 0 {
                    break 'walk;
                }
                continue 'walk;
            }
            if node.remaining == 0 {
                // The node's occurrence budget is spent: restart.
                continue 'walk;
            }
            node.remaining -= 1;
            budget -= 1;
            report.steps += 1;
            // Pick an outgoing edge by transition probability.
            let point = rng.gen_range(0..node.total);
            let block = node.targets[node.cumulative.partition_point(|&c| c <= point)];
            on_edge(state, block, &mut rng);
            state = state.shifted(block, k);
            if budget == 0 {
                break 'walk;
            }
        }
    }
    report
}

/// Walks the reduced SFG without emitting instructions: the start draw
/// and one edge draw per step. Matches `CompiledSampler::walk` on the
/// same `(r, seed)` field for field.
pub fn walk_reference(p: &StatisticalProfile, r: u64, seed: u64) -> WalkReport {
    walk(p, r, seed, |_, _, _| {})
}

/// Generates the synthetic trace for `(r, seed)`: the walk, emitting
/// every traversed edge's block. Matches `StatisticalProfile::generate`
/// instruction for instruction.
pub fn generate_reference(p: &StatisticalProfile, r: u64, seed: u64) -> SyntheticTrace {
    let mut trace = SyntheticTrace::default();
    walk(p, r, seed, |state, block, rng| {
        emit_block(p, &state.context_with(block), &mut trace, rng)
    });
    trace
}

/// Emits one basic block's worth of synthetic instructions for a
/// context (steps 3-8).
fn emit_block(
    p: &StatisticalProfile,
    ctx: &Context,
    trace: &mut SyntheticTrace,
    rng: &mut SmallRng,
) {
    let Some(stats) = p.context(ctx) else {
        return; // context never materialised: the edge emits nothing
    };
    let nslots = stats.slots.len();
    // One quantile per block occurrence, shared by every operand's
    // first draw: within one dynamic block, dependency distances co-vary,
    // and comonotonic sampling preserves that correlation.
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
                    instr.anti_dep[i] = Some(d.min(MAX_DEP_DISTANCE));
                }
            }
        }
        // step 4: dependency distances, retried so the producer is not
        // a branch or store.
        for op in 0..usize::from(slot.src_count.min(2)) {
            let hist = &slot.dep[op];
            if hist.is_empty() {
                continue;
            }
            let mut chosen = None;
            for attempt in 0..DEP_RETRIES {
                let u = if attempt == 0 { u_block } else { rng.gen() };
                let d = hist.sample_with(u).expect("non-empty histogram samples");
                if d == 0 {
                    chosen = None; // "no dependency" mass
                    break;
                }
                let d = d.min(MAX_DEP_DISTANCE);
                let Some(src) = trace.len().checked_sub(d as usize) else {
                    chosen = None; // points before the trace start: drop
                    break;
                };
                // Producer must define a register (not a branch or store).
                if trace.get(src).expect("in the trace").class.has_dest() {
                    chosen = Some(d);
                    break;
                }
            }
            instr.dep[op] = chosen;
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
        trace.push(instr); // step 8
    }
}
