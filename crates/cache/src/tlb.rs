//! Translation lookaside buffers: a TLB is a [`Cache`](crate::Cache)
//! whose blocks are pages.

use crate::cache::CacheConfig;

/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
    /// Page size in bytes.
    pub page: usize,
}

impl TlbConfig {
    /// The paper's Table 2 TLBs: 32 entries, 8-way, 4 KB pages.
    pub fn baseline() -> Self {
        TlbConfig {
            entries: 32,
            assoc: 8,
            page: 4 << 10,
        }
    }

    /// The TLB as a cache of pages: `entries` page-sized blocks in
    /// `assoc`-way sets. [`Cache::access`](crate::Cache::access) on this
    /// geometry hits when the page of its address is resident, and a
    /// miss allocates the page's entry (LRU victim within the set).
    ///
    /// # Panics
    ///
    /// Panics unless entries/assoc/page are positive, the page size is a
    /// power of two, `entries % assoc == 0` and the set count is a power
    /// of two (see [`CacheConfig::new`]).
    pub fn geometry(&self) -> CacheConfig {
        CacheConfig::new(self.entries * self.page, self.assoc, self.page)
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cache;

    #[test]
    fn same_page_hits() {
        let mut t = Cache::new(TlbConfig::baseline().geometry());
        assert!(!t.access(0x1000));
        assert!(t.access(0x1ff8), "same 4K page");
        assert!(!t.access(0x2000), "next page misses");
    }

    #[test]
    fn capacity_eviction() {
        // 4 entries, fully associative within 1 set (assoc 4), 4K pages.
        let mut t = Cache::new(
            TlbConfig {
                entries: 4,
                assoc: 4,
                page: 4096,
            }
            .geometry(),
        );
        for p in 0..4u64 {
            t.access(p << 12);
        }
        // All four resident.
        for p in 0..4u64 {
            assert!(t.access(p << 12));
        }
        // A fifth page evicts the LRU (page 0).
        t.access(4 << 12);
        assert!(!t.access(0), "page 0 was evicted");
    }

    #[test]
    fn stats() {
        let mut t = Cache::new(TlbConfig::baseline().geometry());
        t.access(0);
        t.access(0);
        assert_eq!(t.accesses(), 2);
        assert_eq!(t.misses(), 1);
        assert!((t.miss_rate() - 0.5).abs() < 1e-12);
    }
}
