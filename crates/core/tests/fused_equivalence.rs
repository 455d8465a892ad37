//! The fused engine's determinism contract: for every
//! `(profile, r, seed, machine)`, having the walk write its packed
//! words into the engine's own trace ([`ssim_core::simulate_fused`])
//! produces a [`SimResult`] **bit-identical** — every field, including
//! the float occupancies and activity counters — to generating the
//! trace and simulating it, and both match the frozen pre-optimisation
//! reference simulator (`support/refsim.rs`, which ships only with the
//! tests).
//!
//! The chain `reference == unfused == fused` is what lets the sweep
//! infrastructure take the fused path without perturbing a single
//! published number.
//!
//! The engine's walk reuse (a fused call at the `(sampler, seed)` the
//! engine last walked reruns only the driver), capacity reuse (a kept
//! result answers a machine that differs only in RUU/LSQ sizes neither
//! run filled) and segment reuse (a driver run replays the stretches
//! between empty pipelines that earlier runs on the walk simulated) are
//! held to the same contract: every result on a long-lived engine
//! equals a fresh engine's, whatever mix of samplers, seeds,
//! capacities, clones, re-lowerings and unfused calls came before it.

use proptest::prelude::*;
use ssim_core::{
    profile, simulate_trace, BranchProfileMode, CompiledSampler, ProfileConfig, SimEngine,
    StatisticalProfile,
};
use ssim_isa::{Assembler, Program, Reg};
use ssim_uarch::MachineConfig;
use std::sync::OnceLock;

#[path = "support/refsim.rs"]
mod refsim;
use refsim::simulate_trace_reference;

/// The machine grid the equivalence chain is checked on: the paper's
/// baseline plus narrower / smaller-window / in-order variants, which
/// stress dispatch stalls, squash depth and issue-order paths
/// differently.
fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::baseline(),
        MachineConfig::baseline()
            .with_width(4)
            .with_window(64)
            .with_ifq(16),
        MachineConfig::baseline().with_width(2).with_window(32),
        MachineConfig::baseline().in_order(),
    ]
}

/// Asserts the full three-way chain on one `(sampler, seed)` point,
/// reusing `engine` across calls exactly like the sweep bins do.
fn assert_chain(
    p: &StatisticalProfile,
    r: u64,
    seed: u64,
    cfg: &MachineConfig,
    engine: &mut SimEngine,
    label: &str,
) {
    let sampler = p.compile(r);
    let trace = sampler.generate(seed);
    let reference = simulate_trace_reference(&trace, cfg);
    let unfused = engine.simulate(&trace, cfg);
    let fused = engine.simulate_fused(&sampler, seed, cfg);
    assert_eq!(
        reference, unfused,
        "unfused diverged from reference at {label}"
    );
    assert_eq!(unfused, fused, "fused diverged from unfused at {label}");
}

/// The headline acceptance test: the chain holds on all ten paper
/// workloads across seeds and machine configurations, with one engine
/// reused for every point.
#[test]
fn fused_matches_unfused_on_all_workloads() {
    let cfgs = machines();
    let mut engine = SimEngine::new();
    for w in ssim_workloads::all() {
        let p = profile(
            &w.program(),
            &ProfileConfig::new(&MachineConfig::baseline())
                .order(1)
                .instructions(60_000),
        );
        let r = (p.instructions() / 4_000).max(1);
        for seed in [1u64, 7] {
            for (c, cfg) in cfgs.iter().enumerate() {
                let label = format!("{} r={r} seed={seed} cfg#{c}", w.name());
                assert_chain(&p, r, seed, cfg, &mut engine, &label);
            }
        }
    }
}

/// Deeper seed and reduction-factor coverage on one branchy workload,
/// including r=1 (no reduction) and a reduction so aggressive that most
/// nodes are pruned (dead ends and restarts dominate the walk).
#[test]
fn fused_matches_unfused_across_r_and_seed() {
    let w = ssim_workloads::by_name("gcc").expect("gcc exists");
    let p = profile(
        &w.program(),
        &ProfileConfig::new(&MachineConfig::baseline())
            .order(1)
            .branch_mode(BranchProfileMode::Delayed)
            .instructions(80_000),
    );
    let cfg = MachineConfig::baseline();
    let mut engine = SimEngine::new();
    for r in [1u64, 5, 40, 300, 2_000] {
        for seed in [0u64, 3, 12345] {
            let label = format!("gcc r={r} seed={seed}");
            assert_chain(&p, r, seed, &cfg, &mut engine, &label);
        }
    }
}

/// A zero-budget sampler (reduction beyond every node occurrence)
/// drains all three paths to the same empty-machine result.
#[test]
fn fused_empty_budget_matches_unfused() {
    let w = ssim_workloads::by_name("gzip").expect("gzip exists");
    let p = profile(
        &w.program(),
        &ProfileConfig::new(&MachineConfig::baseline()).instructions(30_000),
    );
    let cfg = MachineConfig::baseline();
    let mut engine = SimEngine::new();
    assert_chain(&p, u64::MAX, 1, &cfg, &mut engine, "empty budget");
    let fused = engine.simulate_fused(&p.compile(u64::MAX), 1, &cfg);
    assert_eq!(fused.instructions, 0);
    assert_eq!(fused.cycles, 1);
}

/// Hand-built instructions for [`edge_case_traces_match_the_reference`].
mod hand {
    use ssim_core::{BranchFlags, DataFlags, SyntheticInstr, SyntheticOutcome};
    use ssim_isa::InstrClass;

    pub fn alu() -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::IntAlu,
            dep: [None, None],
            l1i_miss: false,
            l2i_miss: false,
            itlb_miss: false,
            dmem: None,
            branch: None,
            anti_dep: [None, None],
        }
    }

    pub fn chained(dist: u32) -> SyntheticInstr {
        SyntheticInstr {
            dep: [Some(dist), None],
            ..alu()
        }
    }

    pub fn load(l1_miss: bool, l2_miss: bool, tlb_miss: bool) -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::Load,
            dmem: Some(DataFlags {
                l1_miss,
                l2_miss,
                tlb_miss,
            }),
            ..alu()
        }
    }

    pub fn store() -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::Store,
            ..alu()
        }
    }

    pub fn branch(taken: bool, outcome: SyntheticOutcome) -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::IntCondBranch,
            branch: Some(BranchFlags { taken, outcome }),
            ..alu()
        }
    }
}

/// Traces built by hand to pin fetch groups at their boundaries: runs
/// longer than any run-length cap, fetch stops at the first and last
/// position, branches and missing loads inside a run, wrong-path fetch
/// that meets a taken branch or the end of the trace, and WAW/WAR
/// distances. On every machine — the baseline, a 2-wide machine, an IFQ
/// smaller than the fetch width, an in-order machine with register
/// hazards, and one whose I-side miss latencies are zero (a flagged
/// position that does not stop fetch) — `SimEngine::simulate` must equal
/// the frozen reference, and an engine reused across all of them must
/// equal a fresh one.
#[test]
fn edge_case_traces_match_the_reference() {
    use hand::*;
    use ssim_core::{SyntheticOutcome as O, SyntheticTrace};

    let mut traces: Vec<(&str, Vec<ssim_core::SyntheticInstr>)> = Vec::new();
    traces.push(("10,000 ALUs, no stop", vec![alu(); 10_000]));

    let mut v = vec![chained(3); 400];
    v[0].l1i_miss = true;
    v[399].itlb_miss = true;
    traces.push(("I-cache miss first, ITLB miss last", v));
    let mut v = vec![alu(); 400];
    v[0].itlb_miss = true;
    v[399].l1i_miss = true;
    v[399].l2i_miss = true;
    traces.push(("ITLB miss first, I-cache and L2 miss last", v));
    let mut v = vec![alu(); 300];
    v[150].l2i_miss = true;
    traces.push(("an L2 flag without an I-cache miss", v));

    let in_runs: Vec<_> = (0..3_000)
        .map(|i| match i % 9 {
            1 => branch(false, O::Correct),
            3 => load(i % 2 == 0, i % 4 == 1, i % 5 == 0),
            5 => store(),
            6 => load(false, false, false),
            7 => chained(2),
            _ => alu(),
        })
        .collect();
    traces.push(("not-taken branches and missing loads in runs", in_runs));

    let mut v = Vec::new();
    for i in 0..400 {
        v.extend(vec![chained(1); 6]);
        v.push(match i % 4 {
            0 => branch(false, O::FetchRedirect),
            1 => branch(true, O::FetchRedirect),
            2 => branch(false, O::Mispredict),
            _ => branch(true, O::Correct),
        });
        // Fetched on the wrong path after a mispredict, not as the
        // correct path, until the branch resolves.
        v.push(branch(true, O::Mispredict));
        v.push(load(true, true, true));
    }
    traces.push(("redirects, and taken branches on the wrong path", v));

    let mut v = vec![chained(1); 60];
    v.push(branch(true, O::Mispredict));
    traces.push(("ends on a mispredicted branch", v));
    let mut v = vec![alu(); 40];
    v.push(load(true, true, false));
    v.push(branch(false, O::Mispredict));
    v.extend(vec![alu(); 5]);
    traces.push(("wrong path runs off the end", v));

    let hazards: Vec<_> = (0..2_000u32)
        .map(|i| ssim_core::SyntheticInstr {
            anti_dep: [(i % 3 != 0).then_some(1 + i % 5), (i % 4 == 0).then_some(2)],
            ..if i % 7 == 3 {
                load(true, false, false)
            } else {
                chained(1 + i % 3)
            }
        })
        .collect();
    traces.push(("WAW and WAR distances", hazards));

    let mut zero_miss = MachineConfig::baseline();
    zero_miss.lat.l2_hit = 0;
    zero_miss.lat.tlb_miss = 0;
    let cfgs = [
        MachineConfig::baseline(),
        MachineConfig::baseline().with_width(2),
        MachineConfig::baseline().with_ifq(4),
        MachineConfig::baseline().in_order(),
        zero_miss,
    ];
    let mut engine = SimEngine::new();
    for (c, cfg) in cfgs.iter().enumerate() {
        for (label, instrs) in &traces {
            let mut t = SyntheticTrace::default();
            for &i in instrs {
                t.push(i);
            }
            let reference = simulate_trace_reference(&t, cfg);
            assert_eq!(
                engine.simulate(&t, cfg),
                reference,
                "{label} cfg#{c}: reused engine diverged from the reference"
            );
            assert_eq!(
                simulate_trace(&t, cfg),
                reference,
                "{label} cfg#{c}: fresh engine diverged from the reference"
            );
        }
    }
}

/// Reduction factor of the walk-reuse tests: ~3k-instruction traces.
const REUSE_R: u64 = 20;

/// Profiles of two workloads for the walk-reuse tests, built once per
/// test binary.
fn reuse_profiles() -> &'static [StatisticalProfile; 2] {
    static PROFILES: OnceLock<[StatisticalProfile; 2]> = OnceLock::new();
    PROFILES.get_or_init(|| {
        ["gcc", "bzip2"].map(|name| {
            let w = ssim_workloads::by_name(name).expect("suite workload");
            profile(
                &w.program(),
                &ProfileConfig::new(&MachineConfig::baseline())
                    .order(1)
                    .instructions(60_000),
            )
        })
    })
}

/// What a fresh engine returns for `(sampler, seed, cfg)`: the trace
/// materialised and simulated on its own.
fn fresh(sampler: &CompiledSampler, seed: u64, cfg: &MachineConfig) -> ssim_uarch::SimResult {
    simulate_trace(&sampler.generate(seed), cfg)
}

/// One engine through a schedule that mixes everything that could leave
/// a stale walk behind: runs at one `(sampler, seed)` (the reuse path),
/// calls that alternate samplers and seeds every time, an unfused call
/// between two fused calls at the same key, a clone, and samplers
/// dropped with another profile lowered in their place.
#[test]
fn walk_reuse_matches_fresh_engines_on_an_interleaved_schedule() {
    let [gcc_p, bzip2_p] = reuse_profiles();
    let cfgs = machines();
    let gcc = gcc_p.compile(REUSE_R);
    let bzip2 = bzip2_p.compile(REUSE_R);
    let mut engine = SimEngine::new();
    let check = |engine: &mut SimEngine, s: &CompiledSampler, seed: u64, c: usize, label: &str| {
        assert_eq!(
            engine.simulate_fused(s, seed, &cfgs[c]),
            fresh(s, seed, &cfgs[c]),
            "{label} seed={seed} cfg#{c}"
        );
    };

    // (sampler, seed)-major: every machine after the first reuses.
    for (name, s) in [("gcc", &gcc), ("bzip2", &bzip2)] {
        for seed in [1u64, 2] {
            for c in 0..cfgs.len() {
                check(&mut engine, s, seed, c, name);
            }
        }
    }
    // Machine-major: the key changes on every call.
    for c in 0..cfgs.len() {
        for seed in [1u64, 2] {
            for (name, s) in [("gcc", &gcc), ("bzip2", &bzip2)] {
                check(&mut engine, s, seed, c, name);
            }
        }
    }
    // An unfused call drives the caller's words and leaves the engine's
    // walk alone, so the next fused call at the key before it reruns the
    // driver over that walk.
    check(&mut engine, &gcc, 1, 0, "before unfused");
    let other = bzip2.generate(2);
    assert_eq!(
        engine.simulate(&other, &cfgs[1]),
        simulate_trace(&other, &cfgs[1])
    );
    check(&mut engine, &gcc, 1, 2, "after unfused");
    // A clone shares the tables, and so the walk.
    let gcc_clone = gcc.clone();
    check(&mut engine, &gcc_clone, 1, 3, "clone");
    check(&mut engine, &gcc, 2, 3, "original after clone");
    check(&mut engine, &gcc_clone, 2, 0, "clone after original");
    // Samplers lowered one after another into the same stack slot,
    // alternating profiles: each drop may free memory the next lowering
    // reuses, so an address-keyed engine would replay a stale walk.
    for (i, p) in [gcc_p, bzip2_p, gcc_p, bzip2_p].into_iter().enumerate() {
        let s = p.compile(REUSE_R);
        check(&mut engine, &s, 1, i % cfgs.len(), "relowered");
    }
}

/// A run whose LSQ filled cannot answer a larger LSQ: the next point
/// must run the driver, equal a fresh engine's result and differ from
/// the filled run's.
#[test]
fn capacity_reuse_refuses_a_queue_that_filled() {
    let [gcc_p, _] = reuse_profiles();
    let gcc = gcc_p.compile(REUSE_R);
    let tiny = MachineConfig {
        lsq_size: 2,
        ..MachineConfig::baseline()
    };
    let roomy = MachineConfig {
        lsq_size: 32,
        ..MachineConfig::baseline()
    };
    let mut engine = SimEngine::new();
    let filled = engine.simulate_fused(&gcc, 1, &tiny);
    assert_eq!(filled, fresh(&gcc, 1, &tiny));
    let got = engine.simulate_fused(&gcc, 1, &roomy);
    assert_eq!(got, fresh(&gcc, 1, &roomy));
    assert_ne!(got, filled, "a 2-entry LSQ must throttle gcc");
}

/// Runs `(ruu, lsq)` points of one `width` in order on a fresh engine
/// (so its window arrays start at the smallest size that holds the first
/// point) and checks each result against a fresh engine's.
fn check_in_order(
    sampler: &CompiledSampler,
    seed: u64,
    width: usize,
    points: &[(usize, usize)],
    label: &str,
) {
    let mut engine = SimEngine::new();
    for &(ruu, lsq) in points {
        let cfg = MachineConfig {
            ruu_size: ruu,
            lsq_size: lsq,
            ..MachineConfig::baseline().with_width(width)
        };
        assert_eq!(
            engine.simulate_fused(sampler, seed, &cfg),
            fresh(sampler, seed, &cfg),
            "{label}: RUU {ruu}, LSQ {lsq}"
        );
    }
}

/// A point that differs from an earlier run only in a larger LSQ
/// replays that run's segments in which the LSQ did not fill. On bzip2
/// at seed 1 and width 2, a 12-entry LSQ first fills once 84% of the
/// trace has committed, and a 96-entry RUU never fills.
#[test]
fn replays_segments_before_a_late_full_lsq_stall() {
    let [_, bzip2_p] = reuse_profiles();
    check_in_order(
        &bzip2_p.compile(REUSE_R),
        1,
        2,
        &[(96, 12), (96, 16)],
        "bzip2",
    );
}

/// The same for the RUU: on bzip2 at seed 1 and width 2, a 48-entry RUU
/// first fills at 84% of the trace, and a 128-entry RUU replays the
/// segments before. The window arrays grow from 64 to 128 entries
/// between the two runs, so the sequence numbers a replay moves on must
/// land anywhere in them.
#[test]
fn replays_segments_before_a_late_full_ruu_stall() {
    let [_, bzip2_p] = reuse_profiles();
    check_in_order(
        &bzip2_p.compile(REUSE_R),
        1,
        2,
        &[(48, 48), (128, 48)],
        "bzip2",
    );
}

/// A segment in which the RUU filled cannot serve a larger RUU. On gcc
/// at seed 1 and width 2, a 24-entry RUU fills early and a 4-entry LSQ
/// first fills at 83% of the trace; the point with a 32-entry RUU and
/// an 8-entry LSQ replays only segments in which neither filled.
#[test]
fn replay_skips_segments_in_which_the_ruu_filled() {
    let [gcc_p, _] = reuse_profiles();
    check_in_order(&gcc_p.compile(REUSE_R), 1, 2, &[(24, 4), (32, 8)], "gcc");
}

/// A run that replayed segments adds the ones it simulated, and a later
/// point replays both kinds: the 24-entry LSQ run replays segments of
/// the 12-entry and of the 16-entry run.
#[test]
fn replays_segments_of_a_run_that_replayed() {
    let [_, bzip2_p] = reuse_profiles();
    check_in_order(
        &bzip2_p.compile(REUSE_R),
        1,
        2,
        &[(96, 12), (96, 16), (96, 24)],
        "bzip2",
    );
}

/// Segments replay across an RUU change that no kept result answers: on
/// gcc at seed 1 and width 8, a 16-entry RUU fills, so its result cannot
/// answer a 64-entry RUU with the same LSQ, but its segments in which
/// the RUU did not fill replay for it, and the 32-entry RUU after both
/// replays segments again.
#[test]
fn segments_replay_across_an_ruu_change() {
    let [gcc_p, _] = reuse_profiles();
    check_in_order(
        &gcc_p.compile(REUSE_R),
        1,
        8,
        &[(16, 8), (64, 8), (32, 8)],
        "gcc",
    );
}

/// A segment in which a queue filled passes only its own capacity of
/// that queue. On gcc at seed 1 and width 8, a 4-entry LSQ fills in
/// some segments; the 8-entry LSQ point replays the others, but must
/// simulate from each of those on, since the queue found full at 4 has
/// room at 8 (a rule that let a peak equal the smaller capacity would
/// replay them).
#[test]
fn segment_replay_refuses_a_segment_in_which_a_queue_filled() {
    let [gcc_p, _] = reuse_profiles();
    check_in_order(
        &gcc_p.compile(REUSE_R),
        1,
        8,
        &[(64, 4), (64, 8), (64, 6)],
        "gcc",
    );
}

/// The config is validated before the kept results are searched. Every
/// capacity here is above the trace length, which no occupancy can
/// exceed, so the valid run's result would answer the invalid machine
/// if the lookup came first.
#[test]
#[should_panic(expected = "LSQ may not exceed the RUU")]
fn invalid_config_panics_even_after_a_matching_run() {
    let [gcc_p, _] = reuse_profiles();
    let gcc = gcc_p.compile(REUSE_R);
    let t = gcc.generate(1).len();
    let valid = MachineConfig {
        ruu_size: t + 3,
        lsq_size: t + 2,
        ..MachineConfig::baseline()
    };
    let mut engine = SimEngine::new();
    engine.simulate_fused(&gcc, 1, &valid);
    let invalid = MachineConfig {
        ruu_size: t + 1,
        ..valid
    };
    engine.simulate_fused(&gcc, 1, &invalid);
}

/// Machine `m` of a random schedule: one of the four fixed shapes
/// ([`machines`]) for `m < 4`, otherwise a `width`-wide machine
/// (2, 4 or 8) with the given RUU size, an LSQ of `1..=ruu` picked by
/// `lsq_pick`, and in-order issue when `in_order`.
fn random_machine(
    (m, ruu, lsq_pick, width, in_order): (usize, usize, usize, usize, bool),
) -> MachineConfig {
    if m < 4 {
        return machines().swap_remove(m);
    }
    let mut cfg = MachineConfig::baseline().with_width([2, 4, 8][width]);
    if in_order {
        cfg = cfg.in_order();
    }
    cfg.ruu_size = ruu;
    cfg.lsq_size = 1 + lsq_pick % ruu;
    cfg
}

/// A small but branchy program driven by the given PRNG seed (xorshift
/// over a table, with a data-dependent skip branch) — the same shape
/// the compiled-sampler equivalence suite uses.
fn program(seed: u64) -> Program {
    let mut a = Assembler::new("equiv");
    let buf = a.alloc_words(256);
    let (x, i, n, t0, t1) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    a.li(x, (seed | 1) as i64);
    a.li(n, 30_000);
    let top = a.here_label();
    let skip = a.label();
    a.slli(t0, x, 13);
    a.xor(x, x, t0);
    a.srli(t0, x, 7);
    a.xor(x, x, t0);
    a.andi(t0, x, 255);
    a.slli(t0, t0, 3);
    a.li(t1, buf as i64);
    a.add(t1, t1, t0);
    a.ld(t0, t1, 0);
    a.addi(t0, t0, 1);
    a.st(t1, 0, t0);
    a.andi(t0, x, 3);
    a.beq(t0, Reg::R0, skip);
    a.addi(i, i, 1);
    a.bind(skip).unwrap();
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a.halt();
    a.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Equivalence holds for arbitrary workloads, SFG orders, reduction
    /// factors, seeds and machine shapes — the proptest pin demanded by
    /// the determinism contract.
    #[test]
    fn fused_matches_unfused(
        ws in 0u64..500,
        k in 0usize..=2,
        r in 2u64..80,
        seed in 0u64..1000,
        m in 0usize..4,
    ) {
        let p = profile(
            &program(ws),
            &ProfileConfig::new(&MachineConfig::baseline())
                .order(k)
                .branch_mode(BranchProfileMode::Delayed)
                .skip(0)
                .instructions(60_000),
        );
        let cfg = machines().swap_remove(m);
        let sampler = p.compile(r);
        let trace = sampler.generate(seed);
        let mut engine = SimEngine::new();
        let unfused = engine.simulate(&trace, &cfg);
        let fused = engine.simulate_fused(&sampler, seed, &cfg);
        prop_assert_eq!(&simulate_trace_reference(&trace, &cfg), &unfused);
        prop_assert_eq!(&unfused, &fused);
        prop_assert_eq!(&fused, &simulate_trace(&trace, &cfg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Walk and capacity reuse over random schedules on one engine.
    /// Each op is `(kind, slot, seed, machine)` over three sampler
    /// slots: kind 0 re-lowers the slot from the other profile
    /// (dropping the old sampler), 1 is an unfused call on the slot's
    /// trace, 2 a fused call through a fresh clone, anything else a
    /// fused call. Machines are the four fixed shapes or random
    /// capacities (RUU 8–256, LSQ ≤ RUU) at widths 2, 4 and 8, in order
    /// or not (see [`random_machine`]). Every result must equal a fresh
    /// engine's.
    #[test]
    fn walk_reuse_matches_fresh_engines_on_random_schedules(
        ops in prop::collection::vec(
            (
                0u8..6,
                0usize..3,
                1u64..3,
                (0usize..8, 8usize..=256, 0usize..256, 0usize..3, any::<bool>()),
            ),
            1..32,
        ),
    ) {
        let profiles = reuse_profiles();
        let mut which = [0usize, 1, 0];
        let mut slots: Vec<CompiledSampler> =
            which.iter().map(|&p| profiles[p].compile(REUSE_R)).collect();
        let mut engine = SimEngine::new();
        for (kind, slot, seed, m) in ops {
            let cfg = &random_machine(m);
            match kind {
                0 => {
                    which[slot] ^= 1;
                    slots[slot] = profiles[which[slot]].compile(REUSE_R);
                }
                1 => {
                    let t = slots[slot].generate(seed);
                    prop_assert_eq!(&engine.simulate(&t, cfg), &simulate_trace(&t, cfg));
                }
                2 => {
                    let clone = slots[slot].clone();
                    let got = engine.simulate_fused(&clone, seed, cfg);
                    prop_assert_eq!(&got, &fresh(&clone, seed, cfg));
                }
                _ => {
                    let got = engine.simulate_fused(&slots[slot], seed, cfg);
                    prop_assert_eq!(&got, &fresh(&slots[slot], seed, cfg));
                }
            }
        }
    }
}
