//! Property-based tests for the statistical-simulation core.

use proptest::prelude::*;
use ssim_core::{Gram, Sfg};

/// Builds an SFG of order `k` from a block sequence.
fn sfg_from(seq: &[u32], k: usize) -> Sfg {
    let mut sfg = Sfg::new(k);
    let mut state = Gram::empty();
    for &b in seq {
        if state.len() == k {
            sfg.record(state, b);
        }
        state = state.shifted(b, k);
    }
    sfg
}

proptest! {
    /// Transition probabilities out of every node sum to 1.
    #[test]
    fn sfg_transitions_sum_to_one(seq in prop::collection::vec(0u32..8, 5..300), k in 0usize..=3) {
        let sfg = sfg_from(&seq, k);
        let mut state = Gram::empty();
        let mut checked = std::collections::HashSet::new();
        for &b in &seq {
            if state.len() == k && checked.insert(state) {
                let total: f64 = (0u32..8).map(|n| sfg.transition_probability(state, n)).sum();
                // Nodes that were recorded at least once sum to 1.
                if sfg.transition_probability(state, b) > 0.0 {
                    prop_assert!((total - 1.0).abs() < 1e-9, "node sums to {total}");
                }
            }
            state = state.shifted(b, k);
        }
    }

    /// Total occurrence equals the number of recorded transitions.
    #[test]
    fn sfg_occurrence_conservation(seq in prop::collection::vec(0u32..6, 0..200), k in 0usize..=3) {
        let sfg = sfg_from(&seq, k);
        let expected = seq.len().saturating_sub(k) as u64;
        prop_assert_eq!(sfg.total_occurrence(), expected);
    }

    /// Gram shifting maintains exactly the last-k window.
    #[test]
    fn gram_shift_is_last_k_window(seq in prop::collection::vec(0u32..1000, 1..50), k in 0usize..=3) {
        let mut g = Gram::empty();
        for &b in &seq {
            g = g.shifted(b, k);
        }
        let want = &seq[seq.len().saturating_sub(k)..];
        prop_assert_eq!(g, Gram::new(want));
        prop_assert!(g.len() <= k);
    }

    /// Contexts formed from distinct histories are distinct.
    #[test]
    fn contexts_injective(h1 in prop::collection::vec(0u32..100, 0..=3),
                          h2 in prop::collection::vec(0u32..100, 0..=3),
                          cur in 0u32..100) {
        let a = ssim_core::Context::new(&h1, cur);
        let b = ssim_core::Context::new(&h2, cur);
        prop_assert_eq!(a == b, h1 == h2);
        prop_assert_eq!(a.current(), cur);
    }
}

mod packing_and_hashing {
    use super::*;
    use ssim_core::{Context, FxHasher};
    use std::hash::Hasher;

    fn fx_u128(n: u128) -> u64 {
        let mut h = FxHasher::default();
        h.write_u128(n);
        h.finish()
    }

    proptest! {
        /// `raw`/`from_raw` round-trips grams exactly, and the packed
        /// length matches the history length for every block value
        /// (including 0, which only the sentinel bit disambiguates).
        #[test]
        fn gram_raw_round_trip(h in prop::collection::vec(any::<u32>(), 0..=3)) {
            let g = Gram::new(&h);
            prop_assert_eq!(Gram::from_raw(g.raw()), g);
            prop_assert_eq!(g.len(), h.len());
            prop_assert_eq!(g.is_empty(), h.is_empty());
        }

        /// `raw`/`from_raw` round-trips contexts, and `current` recovers
        /// the most recent block regardless of history contents.
        #[test]
        fn context_raw_round_trip(h in prop::collection::vec(any::<u32>(), 0..=3),
                                  cur in any::<u32>()) {
            let c = Context::new(&h, cur);
            prop_assert_eq!(Context::from_raw(c.raw()), c);
            prop_assert_eq!(c.current(), cur);
        }

        /// Shifting a full MAX_K gram keeps the sentinel in range (the
        /// bit-127 edge case) and drops exactly the oldest block.
        #[test]
        fn gram_shift_full_window_keeps_sentinel(h in prop::collection::vec(any::<u32>(), 3..=3),
                                                 b in any::<u32>()) {
            let g = Gram::new(&h).shifted(b, 3);
            prop_assert_eq!(g.len(), 3);
            prop_assert_eq!(g, Gram::new(&[h[1], h[2], b]));
            prop_assert!(g.raw().leading_zeros() >= 127 - 96);
        }

        /// Shifting into a *smaller* k than the gram currently holds
        /// truncates to the last k blocks (order changes mid-walk).
        #[test]
        fn gram_shift_truncates_to_k(h in prop::collection::vec(any::<u32>(), 0..=3),
                                     b in any::<u32>(), k in 0usize..=3) {
            let g = Gram::new(&h).shifted(b, k);
            let mut want: Vec<u32> = h.clone();
            want.push(b);
            let want = &want[want.len() - want.len().min(k)..];
            prop_assert_eq!(g, Gram::new(want));
        }

        /// Histories padded with block id 0 never alias histories of a
        /// different length — the property the sentinel bit exists for.
        #[test]
        fn zero_blocks_do_not_alias_lengths(la in 0usize..=3, lb in 0usize..=3) {
            let a = Gram::new(&vec![0u32; la]);
            let b = Gram::new(&vec![0u32; lb]);
            prop_assert_eq!(a == b, la == lb);
            let ca = Context::new(&vec![0u32; la], 0);
            let cb = Context::new(&vec![0u32; lb], 0);
            prop_assert_eq!(ca == cb, la == lb);
        }

        /// `context_with` agrees with building the context from parts.
        #[test]
        fn context_with_matches_new(h in prop::collection::vec(any::<u32>(), 0..=3),
                                    cur in any::<u32>()) {
            prop_assert_eq!(Gram::new(&h).context_with(cur), Context::new(&h, cur));
        }

        /// The u128 fast path hashes exactly like two word writes (low
        /// word first), and like the 16-byte little-endian `write` path —
        /// so mixed-width call sites agree on the same buckets.
        #[test]
        fn fxhash_u128_matches_word_and_byte_writes(n in any::<u128>()) {
            let mut words = FxHasher::default();
            words.write_u64(n as u64);
            words.write_u64((n >> 64) as u64);
            prop_assert_eq!(fx_u128(n), words.finish());

            let mut bytes = FxHasher::default();
            bytes.write(&n.to_le_bytes());
            prop_assert_eq!(fx_u128(n), bytes.finish());
        }

        /// Each mixing round is a bijection per word, so u128 keys that
        /// differ in only one half can never collide — grams differing
        /// only in old history stay distinct in the map.
        #[test]
        fn fxhash_single_half_never_collides(n in any::<u128>(), d in 1u64..=u64::MAX) {
            let lo_flip = n ^ u128::from(d);
            let hi_flip = n ^ (u128::from(d) << 64);
            prop_assert_ne!(fx_u128(n), fx_u128(lo_flip));
            prop_assert_ne!(fx_u128(n), fx_u128(hi_flip));
        }
    }
}

mod trace_properties {
    use super::*;
    use ssim_core::{profile, BranchProfileMode, ProfileConfig};
    use ssim_isa::{Assembler, Program, Reg};
    use ssim_uarch::MachineConfig;

    /// A small but branchy program driven by the given PRNG seed.
    fn program(seed: u64) -> Program {
        let mut a = Assembler::new("prop");
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
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Generated traces respect every structural invariant the
        /// synthetic simulator relies on.
        #[test]
        fn generated_traces_are_well_formed(seed in 0u64..1000, k in 0usize..=2, r in 5u64..50) {
            let program = program(seed);
            let p = profile(
                &program,
                &ProfileConfig::new(&MachineConfig::baseline())
                    .order(k)
                    .branch_mode(BranchProfileMode::Delayed)
                    .skip(0)
                    .instructions(60_000),
            );
            let trace = p.generate(r, seed);
            for (i, instr) in trace.instrs().enumerate() {
                // Dependencies point backwards at register producers.
                for d in instr.dep.iter().flatten() {
                    prop_assert!(*d >= 1);
                    prop_assert!(*d as usize <= i, "dep out of range at {i}");
                    let src = i - *d as usize;
                    prop_assert!(trace.get(src).is_some_and(|producer| producer.class.has_dest()));
                }
                // L2 misses only below L1 misses.
                prop_assert!(!instr.l2i_miss || instr.l1i_miss);
                if let Some(dm) = instr.dmem {
                    prop_assert_eq!(instr.class, ssim_isa::InstrClass::Load);
                    prop_assert!(!dm.l2_miss || dm.l1_miss);
                }
                // Branch flags only on control classes.
                if instr.branch.is_some() {
                    prop_assert!(instr.class.is_control());
                }
            }
        }

        /// The reduction factor bounds the trace length.
        #[test]
        fn trace_length_tracks_reduction(seed in 0u64..500, r in 4u64..64) {
            let program = program(seed);
            let p = profile(
                &program,
                &ProfileConfig::new(&MachineConfig::baseline())
                    .skip(0)
                    .instructions(60_000),
            );
            let trace = p.generate(r, 1);
            let expected = p.instructions() as f64 / r as f64;
            prop_assert!(!trace.is_empty());
            let len = trace.len() as f64;
            prop_assert!(
                len > expected * 0.4 && len < expected * 2.5,
                "len {len} vs expected ~{expected}"
            );
        }

        /// Profiling is deterministic.
        #[test]
        fn profiling_is_deterministic(seed in 0u64..200) {
            let program = program(seed);
            let cfg = ProfileConfig::new(&MachineConfig::baseline()).skip(0).instructions(40_000);
            let a = profile(&program, &cfg);
            let b = profile(&program, &cfg);
            prop_assert_eq!(a.instructions(), b.instructions());
            prop_assert_eq!(a.sfg().node_count(), b.sfg().node_count());
            prop_assert_eq!(a.branch_mpki(), b.branch_mpki());
            let (ta, tb) = (a.generate(10, 3), b.generate(10, 3));
            prop_assert_eq!(ta, tb);
        }
    }
}
