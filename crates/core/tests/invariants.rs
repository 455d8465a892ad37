//! Statistical invariants of the SFG pipeline.
//!
//! These pin the paper's structural guarantees rather than any one
//! workload's numbers:
//!
//! * outgoing SFG edge probabilities form a distribution (§2.1: the SFG
//!   stores `P[B_n | B_{n-1}…B_{n-k}]` as edge counts over node
//!   occurrences);
//! * dependency distances never exceed the 512 cap (§2.1.1), whether
//!   the profile came from the profiler or was built by hand;
//! * SFG reduction keeps exactly the nodes with `floor(M_i / R) > 0`
//!   and drops the rest with their edges (§2.2 step 1);
//! * the walk's step count is fixed by the reduced SFG alone, whatever
//!   the seed (§2.2 steps 2–9: node visits are budgeted, only the edges
//!   drawn vary).

use ssim_core::{
    profile, BranchCtxStats, Context, ContextStats, FxHashMap, Gram, ProfileConfig, Sfg, SlotStats,
    StatisticalProfile, MAX_DEP_DISTANCE,
};
use ssim_isa::{Assembler, InstrClass, Reg};
use ssim_uarch::MachineConfig;

/// A small loop with a load, a store and a backward branch — enough to
/// populate several SFG nodes and dependency histograms.
fn profiled_loop() -> StatisticalProfile {
    let mut a = Assembler::new("inv");
    let (i, n, acc, t) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    let buf = a.alloc_words(1 << 10);
    a.li(n, 100_000);
    let top = a.here_label();
    let skip = a.label();
    a.addi(i, i, 1);
    a.andi(t, i, (1 << 10) - 1);
    a.slli(t, t, 3);
    a.li(acc, buf as i64);
    a.add(t, acc, t);
    a.ld(t, t, 0);
    a.andi(t, t, 1);
    a.beq(t, Reg::R0, skip);
    a.st(t, 0, i);
    a.bind(skip).unwrap();
    a.blt(i, n, top);
    a.halt();
    let program = a.finish().unwrap();
    profile(
        &program,
        &ProfileConfig::new(&MachineConfig::baseline())
            .skip(0)
            .instructions(120_000),
    )
}

#[test]
fn sfg_edge_probabilities_sum_to_one() {
    let p = profiled_loop();
    let sfg = p.sfg();
    let nodes = sfg.export_nodes();
    assert!(
        nodes.len() > 1,
        "loop with a conditional should yield several nodes"
    );
    for (raw, occurrence, edges) in &nodes {
        assert!(*occurrence > 0, "recorded nodes always have occurrences");
        // Exact in counts: edge counts partition the node's occurrences.
        let total: u64 = edges.iter().map(|(_, c)| *c).sum();
        assert_eq!(total, *occurrence, "node {raw:#x}");
        // And in probability space, to the paper's semantics.
        let gram = Gram::from_raw(*raw);
        let psum: f64 = edges
            .iter()
            .map(|(b, _)| sfg.transition_probability(gram, *b))
            .sum();
        assert!(
            (psum - 1.0).abs() < 1e-9,
            "node {raw:#x}: outgoing probabilities sum to {psum}"
        );
    }
}

#[test]
fn emitted_dependency_distances_respect_the_cap() {
    let p = profiled_loop();
    let mut deps_seen = 0u64;
    for seed in [1, 7, 42] {
        let t = p.generate(20, seed);
        assert!(!t.is_empty());
        for (i, instr) in t.instrs().enumerate() {
            for d in instr.dep.iter().flatten() {
                deps_seen += 1;
                assert!(*d >= 1, "distance 0 means 'no dependency' and must be None");
                assert!(*d <= MAX_DEP_DISTANCE, "instr {i} has distance {d}");
                assert!(i >= *d as usize, "instr {i} depends on pre-trace instr");
            }
            for d in instr.anti_dep.iter().flatten() {
                assert!(*d <= MAX_DEP_DISTANCE, "instr {i} anti-dep distance {d}");
            }
        }
    }
    assert!(
        deps_seen > 1000,
        "the loop body is dependency-dense, saw {deps_seen}"
    );
}

/// A one-node, one-block profile whose dependency histogram holds all
/// its mass *above* the cap — only constructible by hand or through
/// deserialisation, exactly the surface the generation-side clamp
/// guards.
fn hand_profile_with_deps(dep_values: &[(u32, u64)], occurrence: u64) -> StatisticalProfile {
    let mut sfg = Sfg::new(0);
    sfg.import_node(Gram::empty(), occurrence, vec![(1, occurrence)]);
    let mut slots: Vec<SlotStats> = (0..3)
        .map(|_| SlotStats::new(InstrClass::IntAlu, 0))
        .collect();
    let mut consumer = SlotStats::new(InstrClass::IntAlu, 1);
    for (v, c) in dep_values {
        consumer.dep[0].record_n(*v, *c);
    }
    slots.push(consumer);
    let mut contexts = FxHashMap::default();
    contexts.insert(
        Gram::empty().context_with(1),
        ContextStats {
            occurrence,
            slots,
            branch: None,
        },
    );
    StatisticalProfile::from_parts(sfg, contexts, occurrence * 4, 0, 0)
}

#[test]
fn hand_built_profiles_clamp_out_of_cap_mass_to_512() {
    let p = hand_profile_with_deps(&[(600, 1), (1000, 1)], 2_000);
    let t = p.generate(1, 99);
    assert_eq!(t.len(), 2_000 * 4);
    let mut saw_cap = false;
    for (i, instr) in t.instrs().enumerate() {
        if let Some(d) = instr.dep[0] {
            assert!(d <= MAX_DEP_DISTANCE, "instr {i} distance {d}");
            assert!(i >= d as usize);
            saw_cap |= d == MAX_DEP_DISTANCE;
        }
    }
    assert!(
        saw_cap,
        "mass above the cap must collapse onto {MAX_DEP_DISTANCE}"
    );
}

#[test]
fn reduction_keeps_exactly_floor_m_over_r_nodes() {
    let p = profiled_loop();
    let sfg = p.sfg();
    let nodes = sfg.export_nodes();
    for r in [1, 2, 7, 15, 100, 1_000, u64::MAX] {
        let manual = nodes.iter().filter(|(_, occ, _)| occ / r > 0).count();
        assert_eq!(sfg.reduced_node_count(r), manual, "r = {r}");
    }
    // A reduction factor above every occurrence empties the graph — and
    // the generated trace with it.
    let r_max = nodes.iter().map(|(_, occ, _)| *occ).max().unwrap() + 1;
    assert_eq!(sfg.reduced_node_count(r_max), 0);
    assert!(p.generate(r_max, 1).is_empty());
}

/// The walk's step count as the reduced SFG fixes it: Σ⌊M_i/R⌋ over
/// the reduced nodes with at least one edge into the reduced set. A
/// restart or an edge lands on such a node until its ⌊M_i/R⌋ visits are
/// spent, each visit one step; a node without one is drained unvisited.
/// Computed from [`Sfg::export_nodes`] alone.
fn expected_walk_steps(p: &StatisticalProfile, r: u64) -> u64 {
    let k = p.k();
    let nodes = p.sfg().export_nodes();
    let reduced: std::collections::HashSet<u128> = nodes
        .iter()
        .filter(|(_, m, _)| m / r > 0)
        .map(|(raw, ..)| *raw)
        .collect();
    nodes
        .iter()
        .filter(|(raw, m, edges)| {
            m / r > 0
                && edges.iter().any(|&(block, count)| {
                    count > 0 && reduced.contains(&Gram::from_raw(*raw).shifted(block, k).raw())
                })
        })
        .map(|(_, m, _)| m / r)
        .sum()
}

/// A seed-independent oracle for the walk's budget accounting: every
/// walk takes exactly [`expected_walk_steps`] steps, on the loop
/// program and on the ten suite workloads at `fused_equivalence`'s
/// budget (order 1, 60k instructions). Only which edge each visit
/// takes is random.
#[test]
fn walk_steps_are_fixed_by_the_reduced_sfg() {
    let suite = ssim_workloads::all().iter().map(|w| {
        let p = profile(
            &w.program(),
            &ProfileConfig::new(&MachineConfig::baseline())
                .order(1)
                .instructions(60_000),
        );
        (w.name().to_string(), p)
    });
    for (label, p) in std::iter::once(("loop".to_string(), profiled_loop())).chain(suite) {
        for r in [1u64, 10, 80] {
            let want = expected_walk_steps(&p, r);
            assert!(want > 0, "{label} at r={r} walks nowhere");
            let sampler = p.compile(r);
            for seed in [0u64, 1, 7, 12345] {
                assert_eq!(
                    sampler.walk(seed).steps,
                    want,
                    "{label} at r={r} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn reduction_boundaries_are_exact() {
    // Occurrences 30 / 15 / 7 at R = 15: floor gives 2, 1, 0 — the
    // third node is empty and must be dropped (§2.2 step 1).
    let mut sfg = Sfg::new(1);
    sfg.import_node(Gram::new(&[1]), 30, vec![(2, 30)]);
    sfg.import_node(Gram::new(&[2]), 15, vec![(3, 15)]);
    sfg.import_node(Gram::new(&[3]), 7, vec![(1, 7)]);
    assert_eq!(sfg.reduced_node_count(15), 2);
    assert_eq!(sfg.reduced_node_count(7), 3);
    assert_eq!(sfg.reduced_node_count(31), 0);
    assert_eq!(sfg.reduced_node_count(1), 3);
}

/// Regression for the dead `2048.min(u32::MAX)` guard: a requested cap
/// above [`MAX_DEP_DISTANCE`] used to pass through the builder
/// unclamped, so the profiler recorded distances in `(512, cap]` that
/// generation then silently collapsed onto exactly 512. The builder and
/// the profiler now clamp, so the profile itself never holds a value
/// past the paper's distribution limit.
#[test]
fn dep_cap_above_512_is_clamped_at_profiling_time() {
    let cfg = ProfileConfig::new(&MachineConfig::baseline()).dep_cap(2048);
    assert_eq!(cfg.dep_cap, MAX_DEP_DISTANCE, "builder must clamp the cap");

    // A loop that keeps consuming a register defined once before the
    // loop: the producer distance grows without bound, far past 512.
    let mut a = Assembler::new("farprod");
    let (base, i, n, t) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    a.li(base, 12345);
    a.li(n, 50_000);
    let top = a.here_label();
    a.addi(i, i, 1);
    a.add(t, base, i); // distance to `li base` grows every iteration
    a.slli(t, t, 1);
    a.blt(i, n, top);
    a.halt();
    let program = a.finish().unwrap();

    let p = profile(&program, &cfg.skip(0).instructions(100_000));
    let mut max_seen = 0u32;
    for (_, stats) in p.contexts() {
        for slot in &stats.slots {
            for hist in &slot.dep {
                if let Some(m) = hist.max() {
                    max_seen = max_seen.max(m);
                }
            }
        }
    }
    assert!(max_seen > 0, "the loop records real dependencies");
    assert!(
        max_seen <= MAX_DEP_DISTANCE,
        "profile recorded distance {max_seen} past the cap"
    );
}

// Silence an unused warning: the golden-format test exercises
// BranchCtxStats and Context; keep the imports honest here too by
// touching them in a tiny smoke check.
#[test]
fn context_packing_roundtrips() {
    let ctx = Context::new(&[4, 5], 6);
    assert_eq!(Context::from_raw(ctx.raw()), ctx);
    assert_eq!(ctx.current(), 6);
    let b = BranchCtxStats::default();
    assert_eq!(b.total(), 0);
}
