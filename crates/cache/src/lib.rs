//! Cache and TLB models for the ssim framework.
//!
//! Implements the memory-hierarchy structures of the paper's baseline
//! configuration (Table 2): split L1 instruction/data caches, a unified
//! L2, and separate instruction/data TLBs, each a [`Cache`] of pages
//! ([`TlbConfig::geometry`]). [`Hierarchy`] composes them
//! and reports the **six locality probabilities** the paper's
//! statistical profile records (§2.1.2): L1 I-cache, L2-instruction,
//! L1 D-cache, L2-data, I-TLB and D-TLB miss rates.
//!
//! All structures are set-associative with true-LRU replacement, like
//! SimpleScalar's `sim-cache`.
//!
//! # Examples
//!
//! ```
//! use ssim_cache::{Cache, CacheConfig};
//!
//! let mut l1 = Cache::new(CacheConfig::new(16 << 10, 4, 32));
//! assert!(!l1.access(0x1000)); // cold miss
//! assert!(l1.access(0x1000)); // hit
//! assert!(l1.access(0x1008)); // same 32-byte block
//! ```

mod cache;
mod hierarchy;
mod sweep;
mod tlb;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{AccessOutcome, Hierarchy, HierarchyConfig, HierarchyStats};
pub use sweep::{AssocSweep, CapacitySweep};
pub use tlb::TlbConfig;
