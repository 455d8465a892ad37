//! Fuzzing the profile decoder: hostile bytes must come back from
//! [`StatisticalProfile::load`] as `Ok` or `Err`, never as a panic, an
//! outsized allocation or a long stall.
//!
//! Profiles cross process boundaries through the on-disk profile cache,
//! so a damaged or foreign file reaches the loader. The corpus is the
//! committed v1 fixture (every record type of the format) and real
//! profiles of a suite workload at SFG orders 1 and 2. Each input is a
//! corpus entry with seeded byte flips, truncations, splices, deleted
//! runs or an extreme count written over a word.
//!
//! A counting global allocator records the largest single allocation
//! each thread makes, and every input must stay under [`alloc_cap`] of
//! its length and decode within [`TIME_CAP`]. A profile that loads must
//! also save and load back to the same content hash.
//!
//! The in-repo proptest stand-in derives its RNG stream from the test
//! name, so every run sees the same cases.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use ssim_core::{profile, Gram, ProfileConfig, StatisticalProfile};
use ssim_uarch::MachineConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The system allocator, noting the largest single request each thread
/// makes.
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread past its teardown has no slot left; nothing it
    // allocates then belongs to a case.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The largest single allocation decoding `len` input bytes may make:
/// linear in the input, plus the loader's capped speculative
/// reservations for declared counts (the largest, 4,096 instruction
/// slots, is 960 KiB).
fn alloc_cap(len: usize) -> usize {
    64 * len + (1 << 20)
}

/// The longest one input may take to decode (and, if it loads, to
/// save and load again).
const TIME_CAP: Duration = Duration::from_secs(2);

/// Loads `bytes`. A panic fails the case with the input attached, and
/// so does an allocation over [`alloc_cap`] or a decode over
/// [`TIME_CAP`]. Returns whether the bytes loaded.
fn feed(bytes: &[u8]) -> bool {
    LARGEST.with(|m| m.set(0));
    let started = Instant::now();
    let loaded = StatisticalProfile::load(&mut &bytes[..]);
    let ok = loaded.is_ok();
    if let Ok(p) = loaded {
        let mut again = Vec::new();
        p.save(&mut again).expect("save into memory");
        let q = StatisticalProfile::load(&mut again.as_slice())
            .unwrap_or_else(|e| panic!("a loaded profile saved bytes that do not load: {e}"));
        assert_eq!(
            q.content_hash(),
            p.content_hash(),
            "save/load changed a profile"
        );
    }
    let took = started.elapsed();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= alloc_cap(bytes.len()),
        "a {}-byte profile made a {largest}-byte allocation",
        bytes.len()
    );
    assert!(
        took < TIME_CAP,
        "a {}-byte profile took {took:?} to decode",
        bytes.len()
    );
    ok
}

/// Valid profiles: the committed fixture, and gzip at orders 1 and 2.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut out = vec![include_bytes!("fixtures/profile_v1.ssimprf").to_vec()];
        let program = ssim_workloads::by_name("gzip").unwrap().program();
        for k in [1, 2] {
            let p = profile(
                &program,
                &ProfileConfig::new(&MachineConfig::baseline())
                    .order(k)
                    .skip(0)
                    .instructions(4_000),
            );
            let mut bytes = Vec::new();
            p.save(&mut bytes).unwrap();
            out.push(bytes);
        }
        out
    })
}

/// Counts and sizes that sit at the edges of their fields.
const EXTREMES: &[u64] = &[
    0,
    1,
    2,
    u32::MAX as u64,
    1 << 32,
    u64::MAX / 2,
    u64::MAX - 1,
    u64::MAX,
];

/// Applies one seeded mutation to a profile.
fn mutate(bytes: &[u8], corpus: &[Vec<u8>], rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    if bytes.is_empty() {
        return corpus[0].clone();
    }
    match rng.below(5) {
        // Byte flips.
        0 => {
            for _ in 0..=rng.below(8) {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= (rng.below(255) + 1) as u8;
            }
        }
        // Truncation.
        1 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        // Splice a slice of another profile in at a random offset.
        2 => {
            let other = &corpus[rng.below(corpus.len() as u64) as usize];
            let from = rng.below(other.len() as u64) as usize;
            let to = from + rng.below((other.len() - from) as u64 + 1) as usize;
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.splice(at..at, other[from..to].iter().copied());
        }
        // Delete a random run.
        3 => {
            let from = rng.below(bytes.len() as u64) as usize;
            let to = from + rng.below((bytes.len() - from) as u64 + 1) as usize;
            bytes.drain(from..to);
        }
        // An extreme count over a 4- or 8-byte word.
        _ => {
            let v = EXTREMES[rng.below(EXTREMES.len() as u64) as usize].to_le_bytes();
            let width = if rng.below(2) == 0 { 4 } else { 8 };
            let at = rng.below(bytes.len() as u64) as usize;
            let end = (at + width).min(bytes.len());
            bytes[at..end].copy_from_slice(&v[..end - at]);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated corpus: real profiles, lightly damaged.
    #[test]
    fn mutated_profiles_never_panic(seed in any::<u64>()) {
        let corpus = corpus();
        let mut rng = TestRng::from_seed(seed);
        let mut bytes = corpus[rng.below(corpus.len() as u64) as usize].clone();
        for _ in 0..=rng.below(3) {
            bytes = mutate(&bytes, corpus, &mut rng);
        }
        feed(&bytes);
    }
}

/// Every corpus entry loads, so the mutations start from inputs that
/// reach the loader's far end.
#[test]
fn the_corpus_is_valid() {
    for bytes in corpus() {
        assert!(feed(bytes), "a corpus profile does not load");
    }
}

/// The header of a k = 1 profile with no branch statistics, followed by
/// `nodes` SFG nodes of one edge each (`(gram, occurrence)`, all to
/// block 1) and no contexts.
fn one_edge_nodes(nodes: &[(u128, u64)]) -> Vec<u8> {
    let mut b = b"SSIMPRF\0".to_vec();
    b.extend(1u32.to_le_bytes()); // format version
    b.extend(1u32.to_le_bytes()); // k
    for header in [0u64, 0, 0] {
        // instructions, branch lookups, branch mispredicts
        b.extend(header.to_le_bytes());
    }
    b.extend((nodes.len() as u64).to_le_bytes());
    for &(gram, occurrence) in nodes {
        b.extend(gram.to_le_bytes());
        b.extend(occurrence.to_le_bytes());
        b.extend(1u32.to_le_bytes()); // edges
        b.extend(1u32.to_le_bytes()); // to block 1
        b.extend(occurrence.to_le_bytes());
    }
    b.extend(0u64.to_le_bytes()); // contexts
    b
}

/// Two node records for one gram, whose occurrences sum past
/// `u64::MAX`: each record is valid alone, and adding the second onto
/// the first used to overflow (a panic in a debug build, a wrapped
/// occurrence in a release build).
#[test]
fn a_repeated_sfg_node_is_invalid_data() {
    let gram = Gram::new(&[1]).raw();
    let bytes = one_edge_nodes(&[(gram, u64::MAX), (gram, 1)]);
    let err = StatisticalProfile::load(&mut bytes.as_slice()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(err.to_string(), "duplicate SFG node");
    assert!(!feed(&bytes));

    // The same records under two grams load.
    let other = Gram::new(&[2]).raw();
    assert!(feed(&one_edge_nodes(&[(gram, u64::MAX), (other, 1)])));
}

/// Declared counts far beyond the bytes that follow fail at the end of
/// the input, without reserving for the count.
#[test]
fn huge_declared_counts_fail_fast() {
    let mut b = one_edge_nodes(&[]);
    // Replace the node count (just before the 8-byte context count).
    let at = b.len() - 16;
    b[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(!feed(&b));
    let mut b = one_edge_nodes(&[(Gram::new(&[1]).raw(), 1)]);
    // The one node's edge count, then nothing.
    let at = 8 + 4 + 4 + 24 + 8 + 16 + 8;
    b.truncate(at);
    b.extend(u32::MAX.to_le_bytes());
    assert!(!feed(&b));
}
