//! Property and stress coverage for the owner-slice work-stealing
//! scheduler and the sharded build-once cache — the two primitives the
//! sweep hot path leans on for multi-core scaling.

use proptest::prelude::*;
use ssim_par::{par_map_with, ShardedCache};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

proptest! {
    /// Parallel execution is observationally identical to the serial
    /// map — same values, same order — for adversarial per-item cost
    /// profiles (the spin loop makes item cost swing by ~100× in
    /// generated patterns, so completion order scrambles thoroughly and
    /// workers run dry at different times and steal).
    #[test]
    fn chunked_matches_serial_under_adversarial_costs(
        costs in prop::collection::vec(0u64..100, 0..=600),
        threads in 1usize..=16,
    ) {
        let f = |(&i, &cost): &(&usize, &u64)| {
            let mut acc = i as u64;
            for step in 0..cost * 50 {
                acc = acc.wrapping_add(step).rotate_left(7);
            }
            (i, acc)
        };
        let indices: Vec<usize> = (0..costs.len()).collect();
        let items: Vec<(&usize, &u64)> = indices.iter().zip(costs.iter()).collect();
        let serial: Vec<(usize, u64)> = items.iter().map(f).collect();
        let parallel = par_map_with(threads, &items, f);
        prop_assert_eq!(serial, parallel);
    }

    /// Every index is visited exactly once regardless of how the slices
    /// split the items and how the steals fall.
    #[test]
    fn chunked_visits_each_index_once(
        n in 0usize..=600,
        threads in 1usize..=16,
    ) {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        par_map_with(threads, &items, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {} visited wrong count", i);
        }
    }
}

/// Worker `t` of `T` starts at the front of its own slice, index
/// `⌊t·n/T⌋`. Each worker's first call waits on a barrier of `T`, so no
/// worker can run dry and steal before every worker has taken its
/// first item; the set of first items is then exactly the slice fronts.
#[test]
fn each_worker_starts_at_the_front_of_its_slice() {
    thread_local! {
        static STARTED: Cell<bool> = const { Cell::new(false) };
    }
    for (n, threads) in [(3, 2), (7, 3), (16, 16), (64, 4), (100, 7), (600, 16)] {
        let barrier = Barrier::new(threads);
        let firsts = Mutex::new(BTreeSet::new());
        let items: Vec<usize> = (0..n).collect();
        par_map_with(threads, &items, |&i| {
            // Workers are fresh threads on every call, so the flag is
            // unset exactly on each worker's first item.
            if !STARTED.with(|s| s.replace(true)) {
                firsts.lock().unwrap().insert(i);
                barrier.wait();
            }
        });
        let fronts: BTreeSet<usize> = (0..threads).map(|t| t * n / threads).collect();
        assert_eq!(
            firsts.into_inner().unwrap(),
            fronts,
            "n={n} threads={threads}"
        );
    }
}

/// Concurrent same-key hits on a sharded cache all receive the *same*
/// `Arc` (pointer-identical, not merely equal), and the builder runs
/// exactly once per key — the duplicate-build race the global
/// `Mutex<HashMap>` caches used to have.
#[test]
fn sharded_cache_same_key_stress() {
    let cache: ShardedCache<u64, Arc<Vec<u8>>> = ShardedCache::new(16);
    let threads = 12;
    let rounds = 40u64;
    let barrier = Barrier::new(threads);
    let results: Vec<Vec<Arc<Vec<u8>>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (cache, barrier) = (&cache, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    // Interleave keys so every key sees many concurrent
                    // first-misses from differently-phased threads.
                    (0..rounds)
                        .map(|r| {
                            let key = (r + t as u64) % rounds;
                            cache.get_or_build(key, || Arc::new(vec![key as u8; 64]))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        cache.builds(),
        rounds,
        "a key was built more than once under concurrency"
    );
    // All threads touching one key got the identical allocation
    // (thread 0 visits key `k` at round `k`, so it indexes directly).
    for t in 1..threads {
        for r in 0..rounds as usize {
            let key = (r + t) % rounds as usize;
            assert!(
                Arc::ptr_eq(&results[t][r], &results[0][key]),
                "thread {t} key {key}: distinct Arc for the same key"
            );
        }
    }
}
