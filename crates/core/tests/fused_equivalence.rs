//! The fused engine's determinism contract: for every
//! `(profile, r, seed, machine)`, having the walk write packed words
//! straight into the simulator's buffer ([`ssim_core::simulate_fused`])
//! produces a [`SimResult`] **bit-identical** — every field, including
//! the float occupancies and activity counters — to materialising the
//! trace and simulating it, and both match the frozen pre-optimisation
//! reference simulator ([`ssim_core::simulate_trace_reference`]).
//!
//! The chain `reference == unfused == fused` is what lets the sweep
//! infrastructure take the fused path without perturbing a single
//! published number.

use proptest::prelude::*;
use ssim_core::{
    profile, simulate_trace, simulate_trace_reference, BranchProfileMode, ProfileConfig, SimEngine,
    StatisticalProfile,
};
use ssim_isa::{Assembler, Program, Reg};
use ssim_uarch::MachineConfig;

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
