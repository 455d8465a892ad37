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
//!   crates, so this is `std::thread::scope` + atomics, not rayon.
//! * **Work stealing via adaptive chunked claiming.** Workers claim
//!   `max(1, remaining / (threads × K))` items at a time from a shared
//!   `AtomicUsize` cursor (`K` = 8). Early claims are large — ~10³–10⁶
//!   cheap points would otherwise serialise on the cursor's cache line —
//!   and shrink geometrically toward single items as the queue drains, so
//!   uneven per-item costs (a wide-window design point simulates far
//!   slower than a narrow one) still balance at the tail exactly like
//!   the old one-item cursor did.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

mod shard;
pub use shard::{ShardedCache, DEFAULT_SHARDS};

// Observability: fan-out volume and load balance. The per-worker task
// histogram makes work-stealing skew visible (a flat histogram means
// the chunk-claiming scheduler balanced the sweep); the chunk-size
// histogram shows the claim cadence (geometric decay from n/(t·K) down
// to 1 as the queue drains).
static OBS_TASKS: ssim_obs::Counter = ssim_obs::Counter::new("par.tasks");
static OBS_THREADS: ssim_obs::Gauge = ssim_obs::Gauge::new("par.threads");
static OBS_TASKS_PER_WORKER: ssim_obs::LogHistogram =
    ssim_obs::LogHistogram::new("par.tasks_per_worker");
static OBS_CHUNKS: ssim_obs::Counter = ssim_obs::Counter::new("par.chunks");
static OBS_CHUNK_ITEMS: ssim_obs::LogHistogram = ssim_obs::LogHistogram::new("par.chunk_items");

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

/// The chunk divisor `K`: each claim takes roughly `1/(threads × K)` of
/// the remaining items, so every worker makes ~`K·log(n)` claims total
/// instead of `n/threads`. 8 keeps tail imbalance under 1/(8·threads)
/// of the sweep while cutting cursor traffic by orders of magnitude on
/// cheap points.
const CHUNK_FACTOR: usize = 8;

/// [`par_map`] with an explicit thread count (exposed for determinism
/// tests; experiment code should use [`par_map`]).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_chunked(threads, CHUNK_FACTOR, items, f)
}

/// [`par_map_with`] with an explicit chunk divisor `K` (exposed so the
/// property tests can sweep adversarial `(threads, K)` combinations;
/// experiment code should use [`par_map`], which uses `K` = 8).
pub fn par_map_chunked<T, R, F>(threads: usize, k: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    let k = k.max(1);
    OBS_TASKS.add(n as u64);
    OBS_THREADS.set_max(threads as u64);
    if threads == 1 || n <= 1 {
        OBS_TASKS_PER_WORKER.record(n as u64);
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    // Size the claim off a racy read of the cursor: a
                    // stale value only skews the chunk size, never the
                    // claimed range — `fetch_add` below is what reserves
                    // `[start, start+chunk)` exclusively.
                    let claimed = cursor.load(Ordering::Relaxed);
                    if claimed >= n {
                        break;
                    }
                    let chunk = ((n - claimed) / threads.saturating_mul(k)).max(1);
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    OBS_CHUNKS.inc();
                    OBS_CHUNK_ITEMS.record((end - start) as u64);
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        local.push((i, f(item)));
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

/// Runs `f` over `items` in parallel for its side effects on the return
/// values' Drop — a convenience wrapper when results are unit.
pub fn par_for_each<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    par_map(items, |t| f(t));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
        par_for_each(&items, |&i| {
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
        // Adversarial (n, threads, K) combinations, including chunk
        // sizes larger than the remaining work and K so big it degrades
        // to the old one-item cursor.
        for n in [0usize, 1, 2, 7, 64, 257, 1000] {
            let items: Vec<usize> = (0..n).collect();
            let expect: Vec<usize> = items.iter().map(|&x| x + 1).collect();
            for threads in [1usize, 2, 3, 8, 31] {
                for k in [1usize, 2, 8, usize::MAX / 2] {
                    let got = par_map_chunked(threads, k, &items, |&x| x + 1);
                    assert_eq!(got, expect, "n={n} threads={threads} k={k}");
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
