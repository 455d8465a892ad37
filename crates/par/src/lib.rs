//! std-only parallel experiment engine.
//!
//! The experiment binaries sweep hundreds to thousands of independent
//! design points (§4.6 of the paper runs a 1,792-point EDP study), and
//! each point is pure CPU work with no shared mutable state. This crate
//! gives them a single primitive, [`par_map`], that fans such work out
//! across OS threads while **preserving input order**, so sweep output
//! is byte-identical no matter how many threads run it.
//!
//! Design constraints and choices:
//!
//! * **No external dependencies.** The build environment cannot fetch
//!   crates, so this is `std::thread::scope` + `Mutex`es, not rayon.
//! * **Owner slices with half-range stealing.** Worker `t` starts on
//!   the contiguous slice `[t·n/T, (t+1)·n/T)` of the `n` items and
//!   takes them from its front, one at a time; only thieves ever touch
//!   another worker's slice, so a claim is an uncontended lock. A worker
//!   whose slice runs dry steals the back half of the fullest remaining
//!   slice, so uneven per-item costs (a wide-window design point
//!   simulates far slower than a narrow one) still balance at the tail.
//!   Each worker thus sweeps long runs of neighbouring items: per-thread
//!   state that pays off on neighbours — a sweep engine's kept walk and
//!   results, for points ordered `(sampler, seed)`-major — pays off the
//!   same at any thread count.
//! * **Deterministic output.** Each worker tags results with the input
//!   index; the results are merged and sorted at the end. Only the
//!   *schedule* is nondeterministic, never the output.
//! * **Panic transparency.** A panicking task panics the caller (via
//!   `std::thread::scope`), exactly like the serial loop it replaces.
//!
//! Thread count comes from `SSIM_THREADS` (default: available
//! parallelism); `SSIM_THREADS=1` gives the exact serial execution path.
//!
//! The sibling [`ShardedCache`] serves the other half of sweep
//! scalability: keeping the per-process artifact caches (compiled
//! samplers, results) off a single global lock.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, OnceLock};

mod shard;
pub use shard::{ShardedCache, DEFAULT_SHARDS};

// Observability: fan-out volume and load balance. The per-worker task
// histogram makes load skew visible (a flat histogram means the owner
// slices and steals balanced the sweep); `par.steals` counts how often
// a worker ran dry and took half of another's slice.
static OBS_TASKS: ssim_obs::Counter = ssim_obs::Counter::new("par.tasks");
static OBS_THREADS: ssim_obs::Gauge = ssim_obs::Gauge::new("par.threads");
static OBS_TASKS_PER_WORKER: ssim_obs::LogHistogram =
    ssim_obs::LogHistogram::new("par.tasks_per_worker");
static OBS_STEALS: ssim_obs::Counter = ssim_obs::Counter::new("par.steals");

/// Resolves a raw `SSIM_THREADS` value against a fallback pool size.
///
/// Every malformed setting — unset, empty, `0`, negative, fractional,
/// non-numeric, overflowing — uniformly falls back; surrounding
/// whitespace is tolerated. The result is never zero as long as
/// `fallback` is not (and even then the pool is floored to one thread
/// by [`par_map_with`]'s clamp).
pub fn resolve_thread_count(raw: Option<&str>, fallback: usize) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(fallback)
}

/// The host's available parallelism (floored at one) — recorded in
/// every `BENCH_*.json` header so speedup numbers are interpretable:
/// a `threads=4` run on a 1-core box *cannot* show a 4× win, and the
/// artifact should say so.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The pool size used by [`par_map`]: `SSIM_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
///
/// Read once and cached for the life of the process.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        resolve_thread_count(
            std::env::var("SSIM_THREADS").ok().as_deref(),
            available_parallelism(),
        )
        .max(1)
    })
}

/// Maps `f` over `items` in parallel on [`num_threads`] threads,
/// returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` — including output
/// order and panic behaviour — but wall-clock scales with core count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(num_threads(), items, f)
}

/// [`par_map`] with an explicit thread count (exposed for determinism
/// tests; experiment code should use [`par_map`]).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    OBS_TASKS.add(n as u64);
    OBS_THREADS.set_max(threads as u64);
    if threads == 1 || n <= 1 {
        OBS_TASKS_PER_WORKER.record(n as u64);
        return items.iter().map(f).collect();
    }

    let slices: Vec<Slice> = (0..threads)
        .map(|t| {
            Slice(Mutex::new(
                slice_start(t, n, threads)..slice_start(t + 1, n, threads),
            ))
        })
        .collect();
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for me in 0..threads {
            let (slices, collected, f) = (&slices, &collected, &f);
            s.spawn(move || {
                let mut local = Vec::new();
                loop {
                    // A statement of its own, so the guard is dropped
                    // before `f` runs.
                    let next = slices[me].lock().next();
                    if let Some(i) = next {
                        local.push((i, f(&items[i])));
                    } else if let Some(stolen) = steal(slices, me) {
                        *slices[me].lock() = stolen;
                    } else {
                        break;
                    }
                }
                OBS_TASKS_PER_WORKER.record(local.len() as u64);
                // One lock per worker, not per item.
                collected.lock().unwrap().extend(local);
            });
        }
    });

    let mut tagged = collected.into_inner().unwrap();
    debug_assert_eq!(tagged.len(), n);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// The indices one worker has yet to take. Aligned to its own cache
/// lines, so owners taking items from their fronts never share a line.
#[repr(align(128))]
struct Slice(Mutex<Range<usize>>);

impl Slice {
    fn lock(&self) -> MutexGuard<'_, Range<usize>> {
        self.0
            .lock()
            .expect("a slice is locked only for range updates, which cannot panic")
    }
}

/// `⌊t·n/threads⌋`, without forming `t·n` (which could overflow).
fn slice_start(t: usize, n: usize, threads: usize) -> usize {
    t * (n / threads) + t * (n % threads) / threads
}

/// Takes the back half of the fullest slice other than `me`'s (all of
/// it if one item is left), or `None` once every other slice is empty.
///
/// Only a slice's owner ever refills it, and only once it is empty, so
/// a worker that finds every other slice empty can stop: an item that
/// is in no slice is in the hands of a thief that will run it.
fn steal(slices: &[Slice], me: usize) -> Option<Range<usize>> {
    loop {
        let (victim, len) = slices
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != me)
            .map(|(v, slice)| (v, slice.lock().len()))
            .max_by_key(|&(_, len)| len)?;
        if len == 0 {
            return None;
        }
        let mut range = slices[victim].lock();
        if range.is_empty() {
            continue; // drained since the scan: look again
        }
        let mid = range.start + range.len() / 2;
        let stolen = mid..range.end;
        range.end = mid;
        OBS_STEALS.inc();
        return Some(stolen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn thread_count_resolution_never_yields_zero() {
        // Valid settings are honoured…
        assert_eq!(resolve_thread_count(Some("1"), 8), 1);
        assert_eq!(resolve_thread_count(Some("16"), 8), 16);
        assert_eq!(resolve_thread_count(Some(" 4 "), 8), 4);
        // …and every malformed one falls back uniformly.
        for bad in [
            None,
            Some(""),
            Some("0"),
            Some("-2"),
            Some("2.5"),
            Some("many"),
            Some("99999999999999999999999"),
        ] {
            assert_eq!(resolve_thread_count(bad, 8), 8, "input {bad:?}");
        }
        // A zero fallback (available_parallelism pathologies) still
        // cannot produce an unusable pool: num_threads floors at one,
        // and par_map_with clamps independently.
        assert_eq!(resolve_thread_count(Some("0"), 0).max(1), 1);
        assert!(num_threads() >= 1);
        assert_eq!(par_map_with(0, &[1u32, 2, 3], |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..500).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_with(threads, &items, |&x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn visits_every_item_exactly_once() {
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..hits.len()).collect();
        par_map(&items, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items much more expensive than late ones so the
        // completion order inverts the input order.
        let items: Vec<usize> = (0..64).collect();
        let got = par_map_with(8, &items, |&i| {
            let spin = (64 - i) * 2000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k as u64).rotate_left(7);
            }
            (i, acc != 1)
        });
        for (pos, (i, _)) in got.iter().enumerate() {
            assert_eq!(pos, *i);
        }
    }

    #[test]
    fn chunked_claims_cover_every_index_once() {
        // Adversarial (n, threads) combinations, including more threads
        // than items, one-item slices and uneven splits.
        for n in [0usize, 1, 2, 7, 64, 257, 1000] {
            let items: Vec<usize> = (0..n).collect();
            let expect: Vec<usize> = items.iter().map(|&x| x + 1).collect();
            for threads in [1usize, 2, 3, 8, 16, 31] {
                let got = par_map_with(threads, &items, |&x| x + 1);
                assert_eq!(got, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn slices_tile_the_input() {
        for (n, threads) in [(7usize, 3usize), (64, 4), (1000, 31), (usize::MAX, 16)] {
            assert_eq!(slice_start(0, n, threads), 0);
            assert_eq!(slice_start(threads, n, threads), n);
            for t in 0..threads {
                let (start, end) = (slice_start(t, n, threads), slice_start(t + 1, n, threads));
                assert!(end - start >= n / threads, "n={n} threads={threads} t={t}");
                if let Some(tn) = t.checked_mul(n) {
                    assert_eq!(start, tn / threads);
                }
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        par_map_with(4, &items, |&x| {
            if x == 13 {
                panic!("boom");
            }
            x
        });
    }
}
