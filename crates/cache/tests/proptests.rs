//! Property-based tests for the cache and TLB models.

use proptest::prelude::*;
use ssim_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig, TlbConfig};

proptest! {
    /// After any access, the block is resident; miss rates stay in
    /// [0, 1]; accesses are counted exactly.
    #[test]
    fn cache_access_invariants(addrs in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut c = Cache::new(CacheConfig::new(4 << 10, 2, 32));
        for (i, &a) in addrs.iter().enumerate() {
            c.access(a);
            prop_assert!(c.probe(a), "just-accessed block must be resident");
            prop_assert_eq!(c.accesses(), (i + 1) as u64);
            prop_assert!(c.misses() <= c.accesses());
        }
        prop_assert!((0.0..=1.0).contains(&c.miss_rate()));
    }

    /// A working set no larger than one set's associativity never
    /// conflicts: re-accessing it yields all hits.
    #[test]
    fn within_associativity_never_evicts(base in 0u64..1_000, assoc in 1usize..8) {
        let sets = 16usize;
        let block = 64u64;
        let mut c = Cache::new(CacheConfig::new(sets * assoc * block as usize, assoc, block as usize));
        // `assoc` blocks mapping to the same set.
        let addrs: Vec<u64> =
            (0..assoc as u64).map(|i| (base + i * sets as u64) * block).collect();
        for &a in &addrs {
            c.access(a);
        }
        for &a in &addrs {
            prop_assert!(c.access(a), "address {a:#x} should still be resident");
        }
    }

    /// A bigger cache never has more misses on the same trace.
    #[test]
    fn capacity_monotonicity(addrs in prop::collection::vec(0u64..100_000, 10..400)) {
        let mut small = Cache::new(CacheConfig::new(1 << 10, 2, 32));
        let mut large = Cache::new(CacheConfig::new(16 << 10, 2, 32));
        for &a in &addrs {
            small.access(a);
            large.access(a);
        }
        // Strict inclusion is not a theorem for set-associative LRU,
        // but a 16x capacity gap at equal associativity should never
        // make things substantially worse.
        prop_assert!(large.miss_rate() <= small.miss_rate() + 0.25,
            "16K cache much worse than 1K: {} vs {}", large.miss_rate(), small.miss_rate());
    }

    /// TLB pages are position-independent: on a cache with TLB geometry,
    /// any address within a page hits after any other address in the
    /// same page was accessed.
    #[test]
    fn tlb_page_granularity(pages in prop::collection::vec(0u64..64, 1..100), offset in 0u64..4096) {
        let mut t = Cache::new(TlbConfig { entries: 64, assoc: 8, page: 4096 }.geometry());
        for &p in &pages {
            t.access(p << 12);
        }
        // With 64 entries and <=64 distinct pages, everything fits.
        let distinct: std::collections::HashSet<_> = pages.iter().collect();
        if distinct.len() <= 8 {
            // Definitely fits within one set's worth per index.
            for &&p in &distinct {
                prop_assert!(t.access((p << 12) + offset));
            }
        }
    }

    /// The unified L2 always sees fewer accesses than L1 misses
    /// generate, and stats stay consistent.
    #[test]
    fn hierarchy_consistency(ops in prop::collection::vec((any::<bool>(), 0u64..5_000_000), 1..400)) {
        let mut h = Hierarchy::new(&HierarchyConfig::baseline());
        for &(is_instr, addr) in &ops {
            let out = if is_instr { h.access_instr(addr) } else { h.access_data(addr) };
            prop_assert!(!out.l2_miss || out.l1_miss, "L2 access implies L1 miss");
        }
        let s = h.stats();
        for rate in [
            s.l1i_miss_rate,
            s.l2i_miss_rate,
            s.l1d_miss_rate,
            s.l2d_miss_rate,
            s.itlb_miss_rate,
            s.dtlb_miss_rate,
            s.l1d_load_miss_rate,
        ] {
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }
}
