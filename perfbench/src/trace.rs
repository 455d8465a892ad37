//! Spans around the benchmark's calls into each layer of the library.
//!
//! The program itself is not instrumented: every span here wraps a call
//! the benchmark makes into a crate's public API. Spans live in memory
//! while the run goes and are written out once it ends. With tracing off
//! (the default, and every end-to-end measurement) a span is one relaxed
//! load and a direct call.
//!
//! A span's name is `layer.operation`. Names that start with the name of
//! a workload (`sweep.`, `study.`, `serve.`) belong to the benchmark's
//! own harness: their self time is the part of wall time that no layer
//! accounts for.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (instructions, steps, requests…), as
    /// counted at the same boundary.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Relaxed));
        }
        t.get()
    })
}

/// Turns span recording on or off.
pub fn set(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Relaxed)
}

/// The innermost open span on this thread (`0` outside any span).
pub fn current() -> u32 {
    CURRENT.with(Cell::get)
}

/// Runs `f` with `parent` as this thread's enclosing span, so spans
/// opened on pool threads hang under the span that fanned them out.
pub fn with_parent<T>(parent: u32, f: impl FnOnce() -> T) -> T {
    let prev = CURRENT.with(|c| c.replace(parent));
    let out = f();
    CURRENT.with(|c| c.set(prev));
    out
}

/// Records `f` as span `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_n(name, f, |_| 0)
}

/// Records `f` as span `name`, with `work(&result)` as its work count.
pub fn span_n<T>(name: &'static str, f: impl FnOnce() -> T, work: impl FnOnce(&T) -> u64) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set(parent));
    let span = Span {
        id,
        parent,
        name,
        thread: thread_id(),
        start_ns,
        end_ns,
        work: work(&out),
    };
    SPANS.lock().expect("span buffer lock").push(span);
    out
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span buffer lock").clone()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    /// This name's share of the roots' wall time (see [`account`]).
    pub wall_ns: f64,
    pub work: u64,
}

/// How the wall time of a set of root spans divides among span names.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    pub wall_ns: u64,
    pub by_name: BTreeMap<&'static str, LayerTotals>,
}

impl Accounting {
    /// Wall time spent in the benchmark's own harness spans (names
    /// starting with `prefix`), i.e. not attributed to any layer.
    pub fn unattributed_ns(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.wall_ns)
            .sum()
    }
}

/// Accounts the subtrees under every root span named `root`.
///
/// * **Self time** of a span is its duration minus the part of its
///   interval that its direct children cover (children may run on other
///   threads; their intervals are merged).
/// * **Wall share**: at each instant of a root's wall time, the time is
///   split evenly among the innermost spans open at that instant (spans
///   with no open child). Shares therefore sum to the roots' wall time,
///   also when a fan-out runs children on several threads at once.
pub fn account(all: &[Span], root: &str) -> Accounting {
    let mut children: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in all.iter().enumerate() {
        children.entry(s.parent).or_default().push(i);
    }
    let mut acc = Accounting::default();
    for (ri, r) in all.iter().enumerate().filter(|(_, s)| s.name == root) {
        acc.wall_ns += r.dur_ns();
        // Collect the subtree with depths.
        let mut subtree: Vec<(usize, u32)> = vec![(ri, 0)];
        let mut k = 0;
        while k < subtree.len() {
            let (i, d) = subtree[k];
            if let Some(kids) = children.get(&all[i].id) {
                subtree.extend(kids.iter().map(|&c| (c, d + 1)));
            }
            k += 1;
        }
        for &(i, _) in &subtree {
            let s = &all[i];
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let covered = union_ns(kids.iter().map(|&c| {
                let c = &all[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            }));
            let t = acc.by_name.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += s.dur_ns().saturating_sub(covered);
            t.work += s.work;
        }
        wall_shares(all, &subtree, &mut acc.by_name);
    }
    acc
}

/// Total length of the union of half-open intervals.
fn union_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Splits a subtree's wall time among its innermost open spans.
fn wall_shares(
    all: &[Span],
    subtree: &[(usize, u32)],
    out: &mut BTreeMap<&'static str, LayerTotals>,
) {
    // Events: (time, order, depth key, index). Ends sort before starts
    // at equal times; among starts, parents first; among ends, children
    // first.
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(subtree.len() * 2);
    let local: BTreeMap<u32, usize> = subtree
        .iter()
        .enumerate()
        .map(|(k, &(i, _))| (all[i].id, k))
        .collect();
    for (k, &(i, d)) in subtree.iter().enumerate() {
        events.push((all[i].end_ns, 0, -(d as i64), k));
        events.push((all[i].start_ns, 1, d as i64, k));
    }
    events.sort_unstable();
    let n = subtree.len();
    let mut open = vec![false; n];
    let mut open_kids = vec![0u32; n];
    let mut innermost: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut n_inner = 0u32;
    let mut last_t = events.first().map_or(0, |e| e.0);
    for (t, kind, _, k) in events {
        if n_inner > 0 && t > last_t {
            let dt = (t - last_t) as f64;
            for (name, &c) in &innermost {
                if c > 0 {
                    out.entry(name).or_default().wall_ns += dt * f64::from(c) / f64::from(n_inner);
                }
            }
        }
        last_t = t;
        let s = &all[subtree[k].0];
        let parent = local.get(&s.parent).copied().filter(|&p| open[p]);
        if kind == 1 {
            open[k] = true;
            if let Some(p) = parent {
                open_kids[p] += 1;
                if open_kids[p] == 1 {
                    *innermost.entry(all[subtree[p].0].name).or_default() -= 1;
                    n_inner -= 1;
                }
            }
            *innermost.entry(s.name).or_default() += 1;
            n_inner += 1;
        } else {
            if open_kids[k] == 0 {
                *innermost.entry(s.name).or_default() -= 1;
                n_inner -= 1;
            }
            open[k] = false;
            if let Some(p) = parent {
                open_kids[p] -= 1;
                if open_kids[p] == 0 {
                    *innermost.entry(all[subtree[p].0].name).or_default() += 1;
                    n_inner += 1;
                }
            }
        }
    }
}

/// Renders spans as a JSON array, one object per line.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}{}\n",
            s.id,
            s.parent,
            s.name,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.work,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread: 0,
            start_ns: a,
            end_ns: b,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            sp(1, 0, "w.pass", 0, 100),
            sp(2, 1, "par.map", 10, 90),
            sp(3, 2, "x.a", 10, 60),
            sp(4, 2, "x.a", 20, 90),
        ];
        let acc = account(&spans, "w.pass");
        assert_eq!(acc.wall_ns, 100);
        assert_eq!(acc.by_name["w.pass"].self_ns, 20);
        assert_eq!(acc.by_name["par.map"].self_ns, 0);
        assert_eq!(acc.by_name["x.a"].self_ns, 120);
        // Wall shares sum to the root's wall time: 10..20 belongs to
        // the one open child, 20..60 is split between two children.
        let total: f64 = acc.by_name.values().map(|t| t.wall_ns).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((acc.by_name["x.a"].wall_ns - 80.0).abs() < 1e-9);
        assert!((acc.unattributed_ns("w.") - 20.0).abs() < 1e-9);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns([(0, 5), (3, 8), (10, 12)].into_iter()), 10);
        assert_eq!(union_ns(std::iter::empty()), 0);
    }
}
