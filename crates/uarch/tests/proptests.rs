//! Property-based tests for the out-of-order backend: arbitrary
//! well-formed instruction streams, dispatched by distance as synthetic
//! traces are, must drain without deadlock and conserve instructions,
//! on out-of-order and in-order machines, with and without register
//! hazards (`model_anti_deps`, which makes WAW/WAR distances bind).

use proptest::prelude::*;
use ssim_isa::InstrClass;
use ssim_uarch::{Core, DispatchOutcome, MachineConfig, MemKind};

/// A simplified instruction description the strategy generates.
#[derive(Debug, Clone, Copy)]
struct Gen {
    class_pick: u8,
    dep1: u32,
    dep2: u32,
    waw: u32,
    war: u32,
    load_latency: u64,
}

/// Dispatches `g` by distance; distances of zero mean none.
fn dispatch(core: &mut Core, g: &Gen) -> DispatchOutcome {
    let class = match g.class_pick % 6 {
        0 => InstrClass::IntAlu,
        1 => InstrClass::Load,
        2 => InstrClass::Store,
        3 => InstrClass::IntMul,
        4 => InstrClass::FpAlu,
        _ => InstrClass::IntCondBranch,
    };
    let mem = match class {
        InstrClass::Load => Some(MemKind::Load {
            latency: 1 + g.load_latency % 160,
        }),
        InstrClass::Store => Some(MemKind::Store),
        _ => None,
    };
    core.try_dispatch_dists(
        class.index(),
        [g.dep1 % 40, g.dep2 % 64],
        [g.waw % 48, g.war % 32],
        mem,
        false,
        false,
    )
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    (
        any::<u8>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(class_pick, dep1, dep2, waw, war, load_latency)| Gen {
            class_pick,
            dep1,
            dep2,
            waw,
            war,
            load_latency,
        })
}

/// A `ruu`-entry, `width`-wide machine: out of order with renaming
/// (`kind` 0), out of order with register hazards (1), or
/// `MachineConfig::in_order` (2, which also models register hazards).
fn small_config(ruu: usize, width: usize, kind: u8) -> MachineConfig {
    let mut cfg = MachineConfig::baseline();
    match kind % 3 {
        0 => {}
        1 => cfg.model_anti_deps = true,
        _ => cfg = cfg.in_order(),
    }
    cfg.ruu_size = ruu;
    cfg.lsq_size = (ruu / 2).max(1);
    cfg.decode_width = width;
    cfg.issue_width = width;
    cfg.commit_width = width;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any stream of well-formed instructions drains completely, with
    /// every instruction committing exactly once.
    #[test]
    fn backend_never_deadlocks(
        instrs in prop::collection::vec(gen_strategy(), 1..300),
        ruu in 2usize..32,
        width in 1usize..8,
        kind in 0u8..3,
    ) {
        let cfg = small_config(ruu, width, kind);
        let mut core = Core::new(&cfg);
        let mut sent = 0usize;
        let mut cycles_guard = 0u64;
        while sent < instrs.len() || !core.is_empty() {
            core.cycle();
            while sent < instrs.len() {
                match dispatch(&mut core, &instrs[sent]) {
                    DispatchOutcome::Dispatched(_) => sent += 1,
                    DispatchOutcome::Stalled => break,
                }
            }
            core.advance();
            cycles_guard += 1;
            prop_assert!(cycles_guard < 500_000, "deadlock suspected");
            prop_assert!(core.in_flight() <= ruu, "RUU overflow");
        }
        prop_assert_eq!(core.committed(), instrs.len() as u64);
    }

    /// Squashing after an arbitrary prefix preserves the prefix and
    /// removes the suffix; the survivors still drain.
    #[test]
    fn squash_conserves_prefix(
        instrs in prop::collection::vec(gen_strategy(), 2..60),
        cut in 0usize..59,
        kind in 0u8..3,
    ) {
        let cut = cut % instrs.len();
        let cfg = small_config(64, 8, kind);
        let mut core = Core::new(&cfg);
        let mut seqs = Vec::new();
        let mut sent = 0;
        // Dispatch everything (advancing cycles as needed).
        let mut guard = 0;
        while sent < instrs.len() {
            match dispatch(&mut core, &instrs[sent]) {
                DispatchOutcome::Dispatched(s) => {
                    seqs.push(s);
                    sent += 1;
                }
                DispatchOutcome::Stalled => {
                    core.cycle();
                    core.advance();
                }
            }
            guard += 1;
            prop_assert!(guard < 100_000);
        }
        // Advancing cycles during dispatch may already have committed
        // part of the prefix (commits are in order, oldest first).
        let already_committed = core.committed() as usize;
        let before = core.in_flight();
        let removed = core.squash_after(seqs[cut]);
        let prefix_in_flight = (cut + 1).saturating_sub(already_committed.min(cut + 1));
        prop_assert_eq!(removed, before - prefix_in_flight);
        prop_assert_eq!(core.in_flight(), prefix_in_flight);
        // Survivors drain and commit.
        let mut guard = 0u64;
        while !core.is_empty() {
            core.cycle();
            core.advance();
            guard += 1;
            prop_assert!(guard < 500_000, "post-squash deadlock");
        }
        // Everything up to the cut retires exactly once; if commits ran
        // past the cut before the squash, those extras stay committed.
        prop_assert_eq!(
            core.committed(),
            (cut + 1).max(already_committed) as u64
        );
    }

    /// More resources never hurt: a wider/deeper machine finishes a
    /// fixed stream in no more cycles than a narrower one of the same
    /// kind.
    #[test]
    fn monotone_in_resources(
        instrs in prop::collection::vec(gen_strategy(), 20..150),
        kind in 0u8..3,
    ) {
        let run = |ruu: usize, width: usize| -> u64 {
            let cfg = small_config(ruu, width, kind);
            let mut core = Core::new(&cfg);
            let mut sent = 0usize;
            while sent < instrs.len() || !core.is_empty() {
                core.cycle();
                while sent < instrs.len() {
                    match dispatch(&mut core, &instrs[sent]) {
                        DispatchOutcome::Dispatched(_) => sent += 1,
                        DispatchOutcome::Stalled => break,
                    }
                }
                core.advance();
            }
            core.now()
        };
        let narrow = run(8, 2);
        let wide = run(32, 8);
        prop_assert!(wide <= narrow, "wide {wide} vs narrow {narrow}");
    }
}
