//! Golden test freezing the v1 profile wire format.
//!
//! The on-disk profile cache (`results/.profile-cache/`) stores
//! serialized profiles across processes and sessions; a silent format
//! change would make every cached artifact unreadable (best case) or
//! misread (worst case). This test serialises a hand-built profile that
//! exercises every record type of the format — SFG nodes with multiple
//! edges, ALU/load/branch slots, dependency and anti-dependency
//! histograms, cache miss counters, terminal branch statistics — and
//! compares the bytes against a committed fixture.
//!
//! If this test fails because you *intentionally* changed the format:
//! bump `VERSION` in `serialize.rs`, keep a loader for v1, and
//! regenerate the fixture with
//! `SSIM_BLESS=1 cargo test -p ssim-core --test wire_format`.

use proptest::prelude::*;
use ssim_core::{
    BranchCtxStats, Context, ContextStats, FxHashMap, Gram, MissStats, Sfg, SlotStats,
    StatisticalProfile,
};
use ssim_isa::InstrClass;
use ssim_stats::ProbCounter;
use std::path::PathBuf;

/// Deterministic, hand-built profile covering the format surface. All
/// containers are serialised in sorted order, so the byte stream is
/// identical on every platform and run.
fn golden_profile() -> StatisticalProfile {
    let mut sfg = Sfg::new(1);
    sfg.import_node(Gram::new(&[1]), 8, vec![(1, 5), (2, 3)]);
    sfg.import_node(Gram::new(&[2]), 3, vec![(1, 3)]);

    let mut contexts = FxHashMap::default();

    // Context 1→1: a three-slot block (ALU, load, conditional branch).
    let mut alu = SlotStats::new(InstrClass::IntAlu, 2);
    alu.dep[0].record_n(1, 4);
    alu.dep[0].record_n(3, 1);
    alu.dep[1].record_n(0, 5);
    alu.waw.record_n(2, 1);
    alu.war.record_n(4, 2);
    alu.icache.l1 = ProbCounter::from_counts(1, 5);
    alu.icache.l2 = ProbCounter::from_counts(0, 1);
    alu.icache.tlb = ProbCounter::from_counts(0, 5);
    let mut ld = SlotStats::new(InstrClass::Load, 1);
    ld.dep[0].record_n(2, 5);
    ld.dcache = Some(MissStats {
        l1: ProbCounter::from_counts(2, 5),
        l2: ProbCounter::from_counts(1, 2),
        tlb: ProbCounter::from_counts(0, 5),
    });
    let mut br = SlotStats::new(InstrClass::IntCondBranch, 2);
    br.dep[0].record_n(1, 5);
    br.dep[1].record_n(2, 5);
    contexts.insert(
        Context::new(&[1], 1),
        ContextStats {
            occurrence: 5,
            slots: vec![alu, ld, br],
            branch: Some(BranchCtxStats {
                taken: ProbCounter::from_counts(4, 5),
                correct: 3,
                redirect: 1,
                mispredict: 1,
            }),
        },
    );

    // Context 1→2: a single-ALU block without a terminal branch.
    contexts.insert(
        Context::new(&[1], 2),
        ContextStats {
            occurrence: 3,
            slots: vec![SlotStats::new(InstrClass::IntAlu, 0)],
            branch: None,
        },
    );

    // Context 2→1: a store block (no destination register).
    let mut st = SlotStats::new(InstrClass::Store, 2);
    st.dep[0].record_n(1, 3);
    st.dep[1].record_n(2, 3);
    contexts.insert(
        Context::new(&[2], 1),
        ContextStats {
            occurrence: 3,
            slots: vec![st],
            branch: None,
        },
    );

    StatisticalProfile::from_parts(sfg, contexts, 33, 5, 1)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/profile_v1.ssimprf")
}

#[test]
fn golden_bytes_are_frozen() {
    let mut bytes = Vec::new();
    golden_profile().save(&mut bytes).unwrap();

    let path = fixture_path();
    if std::env::var("SSIM_BLESS").is_ok_and(|v| v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()));
    assert_eq!(
        bytes, golden,
        "profile wire format drifted from the committed v1 fixture; \
         bump VERSION and re-bless if this was intentional"
    );
}

#[test]
fn fixture_header_is_v1() {
    let golden = std::fs::read(fixture_path()).expect("fixture exists");
    assert_eq!(&golden[..8], b"SSIMPRF\0", "magic");
    assert_eq!(
        u32::from_le_bytes(golden[8..12].try_into().unwrap()),
        1,
        "version"
    );
    assert_eq!(
        u32::from_le_bytes(golden[12..16].try_into().unwrap()),
        1,
        "SFG order k"
    );
}

/// Freezes the compiled lowering — node budgets, CSR edge tables, and
/// each slot's class, operand count, distribution presence bits and
/// I-cache probabilities — via `CompiledSampler::lowering_digest`.
/// Every generation path walks these tables directly, so silent drift
/// here would change generated traces (and every downstream number)
/// without any serialized byte moving. Like the byte fixture above, an
/// intentional lowering change updates the pinned values in the same
/// commit that justifies it.
#[test]
fn lowering_digest_is_frozen() {
    let p = golden_profile();
    let digests: Vec<u64> = [1u64, 2]
        .iter()
        .map(|&r| p.compile(r).lowering_digest())
        .collect();
    assert_eq!(
        digests,
        vec![0xf67fdd958691dbda, 0x49b6032a6ac4b324],
        "compiled lowering drifted from the pinned digests; update them \
         only with an intentional lowering change (actual: {digests:#018x?})"
    );
}

fn golden_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    golden_profile().save(&mut bytes).unwrap();
    bytes
}

proptest! {
    /// Truncating the stream at *any* point yields a clean `io::Error`
    /// — the loader never panics on, and never accepts, a partial
    /// profile. (The on-disk cache relies on this: a torn write must
    /// read as a miss, not as a mangled profile.)
    #[test]
    fn any_truncation_is_a_clean_error(cut_seed in any::<u64>()) {
        let bytes = golden_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let err = StatisticalProfile::load(&mut &bytes[..cut]).expect_err("truncated load succeeded");
        prop_assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::InvalidData
            ),
            "unexpected error kind {:?} at cut {cut}",
            err.kind()
        );
    }

    /// Corrupting any single byte never panics or aborts the loader:
    /// it either fails cleanly or produces a profile that still
    /// behaves like a profile (count prefixes are the dangerous case —
    /// they drive preallocation and loop bounds).
    #[test]
    fn any_single_byte_corruption_is_handled(idx_seed in any::<u64>(), mask in 1u8..=255) {
        let mut bytes = golden_bytes();
        let idx = (idx_seed % bytes.len() as u64) as usize;
        bytes[idx] ^= mask;
        let outcome = std::panic::catch_unwind(|| {
            match StatisticalProfile::load(&mut bytes.as_slice()) {
                Err(e) => Some(e.kind()),
                Ok(p) => {
                    // A flip that survives validation must still yield a
                    // usable profile end to end.
                    let _ = p.generate(4, 7);
                    let _ = p.content_hash();
                    None
                }
            }
        });
        prop_assert!(outcome.is_ok(), "loader panicked on byte {idx} ^ {mask:#04x}");
        // Header corruption is always detected outright.
        if idx < 16 {
            prop_assert!(outcome.unwrap().is_some(), "corrupt header accepted (byte {idx})");
        }
    }
}

#[test]
fn fixture_roundtrips_to_equivalent_profile() {
    let golden = std::fs::read(fixture_path()).expect("fixture exists");
    let loaded = StatisticalProfile::load(&mut golden.as_slice()).unwrap();
    let built = golden_profile();
    assert_eq!(loaded.k(), built.k());
    assert_eq!(loaded.instructions(), built.instructions());
    assert_eq!(loaded.branch_lookups(), built.branch_lookups());
    assert_eq!(loaded.context_count(), built.context_count());
    assert_eq!(loaded.sfg().export_nodes(), built.sfg().export_nodes());
    // The strongest equivalence the pipeline cares about: identical
    // synthetic traces from identical seeds.
    let (a, b) = (loaded.generate(1, 5), built.generate(1, 5));
    assert_eq!(a, b);
    assert!(!a.is_empty());
}
