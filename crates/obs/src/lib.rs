//! Pipeline observability: counters, gauges, histograms and timing
//! spans for the statistical-simulation pipeline.
//!
//! The profile → SFG → random-walk → trace-sim pipeline is a chain of
//! stages whose cost and behaviour were previously invisible: one bench
//! JSON at the end, nothing about *where* time and accuracy go. This
//! crate gives every stage a shared, zero-dependency vocabulary:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64` (events:
//!   instructions profiled, FIFO squashes, cache hits…);
//! * [`Gauge`] — a last-write-wins value (SFG node counts, thread
//!   counts…);
//! * [`LogHistogram`] — a 65-bucket power-of-two histogram for value
//!   distributions (per-cycle queue occupancy, tasks per worker…) with
//!   monotone quantile estimates;
//! * [`TimerStat`] + [`SpanGuard`] — RAII wall-clock spans aggregating
//!   total/max time per stage.
//!
//! All metric types are `const`-constructible so instrumentation sites
//! declare them as `static`s; each registers itself with the global
//! registry on first touch. A process-wide gate — the `SSIM_METRICS`
//! environment variable — keeps the disabled hot path to a single
//! relaxed atomic load and a predictable branch:
//!
//! * unset or `SSIM_METRICS=0` — metrics off (the default; recording is
//!   a no-op);
//! * `SSIM_METRICS=1` — record, and print a human-readable report to
//!   stderr from [`finish`];
//! * `SSIM_METRICS=json` — record, and write
//!   `results/METRICS_<bin>.json` from [`finish`].
//!
//! [`force_enable`] turns recording on programmatically (used by the
//! server and gateway, whose `metrics` endpoint reads live values, and
//! by tests).
//!
//! # Examples
//!
//! ```
//! use ssim_obs as obs;
//!
//! static STEPS: obs::Counter = obs::Counter::new("walk.steps");
//!
//! obs::force_enable();
//! STEPS.add(3);
//! STEPS.inc();
//! assert_eq!(STEPS.get(), 4);
//! let snap = obs::snapshot();
//! assert!(snap.counters.iter().any(|(n, v)| *n == "walk.steps" && *v == 4));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---- the gate -------------------------------------------------------

/// How the process exports metrics (from `SSIM_METRICS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Recording disabled; [`finish`] emits nothing.
    Off,
    /// Recording enabled; [`finish`] prints a text report to stderr.
    Text,
    /// Recording enabled; [`finish`] writes `results/METRICS_<bin>.json`.
    Json,
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static MODE: OnceLock<Mode> = OnceLock::new();

fn mode_from_env() -> Mode {
    match std::env::var("SSIM_METRICS") {
        Err(_) => Mode::Off,
        Ok(v) => match v.trim() {
            "" | "0" => Mode::Off,
            "json" | "JSON" => Mode::Json,
            _ => Mode::Text,
        },
    }
}

/// The process's export mode, resolved once from `SSIM_METRICS`.
pub fn mode() -> Mode {
    let m = *MODE.get_or_init(mode_from_env);
    // Keep the fast-path flag coherent with the resolved mode.
    let state = if m == Mode::Off { STATE_OFF } else { STATE_ON };
    let _ = STATE.compare_exchange(STATE_UNINIT, state, Relaxed, Relaxed);
    m
}

/// Whether recording is active. This is the hot-path gate: one relaxed
/// atomic load once the state is resolved.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Relaxed) {
        STATE_OFF => false,
        STATE_UNINIT => mode() != Mode::Off,
        _ => true,
    }
}

/// Turns recording on regardless of `SSIM_METRICS` (idempotent).
///
/// The export mode keeps whatever `SSIM_METRICS` asked for; if the
/// variable asked for `Off`, [`finish`] still emits nothing, but
/// in-process consumers (e.g. a server's `metrics` endpoint) see live
/// values via [`snapshot`].
pub fn force_enable() {
    let _ = MODE.get_or_init(mode_from_env);
    STATE.store(STATE_ON, Relaxed);
}

// ---- the registry ---------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    histograms: Mutex<Vec<&'static LogHistogram>>,
    timers: Mutex<Vec<&'static TimerStat>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

// ---- runtime-named metrics ------------------------------------------

/// Name-interned storage for metrics whose names are only known at
/// runtime (metric *families* indexed per instance — e.g. one gauge per
/// fleet backend). Repeated lookups of the same name return the same
/// instance, so re-creating a consumer never duplicates registry rows.
struct DynMetrics {
    counters: Mutex<std::collections::HashMap<String, &'static Counter>>,
    gauges: Mutex<std::collections::HashMap<String, &'static Gauge>>,
}

fn dyn_metrics() -> &'static DynMetrics {
    static DYN: OnceLock<DynMetrics> = OnceLock::new();
    DYN.get_or_init(|| DynMetrics {
        counters: Mutex::new(std::collections::HashMap::new()),
        gauges: Mutex::new(std::collections::HashMap::new()),
    })
}

/// A counter with a runtime-built name, interned for the process
/// lifetime (the name and the counter are leaked once per distinct
/// name; calling again with the same name returns the same counter).
pub fn dyn_counter(name: &str) -> &'static Counter {
    let mut map = dyn_metrics().counters.lock().unwrap();
    if let Some(c) = map.get(name) {
        return c;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter::new(Box::leak(
        name.to_string().into_boxed_str(),
    ))));
    map.insert(name.to_string(), leaked);
    leaked
}

/// A gauge with a runtime-built name, interned like [`dyn_counter`].
pub fn dyn_gauge(name: &str) -> &'static Gauge {
    let mut map = dyn_metrics().gauges.lock().unwrap();
    if let Some(g) = map.get(name) {
        return g;
    }
    let leaked: &'static Gauge = Box::leak(Box::new(Gauge::new(Box::leak(
        name.to_string().into_boxed_str(),
    ))));
    map.insert(name.to_string(), leaked);
    leaked
}

// ---- counter --------------------------------------------------------

/// A named, thread-safe, monotonically increasing counter.
///
/// Declare as a `static`; the counter registers itself on first
/// increment. When metrics are disabled increments are no-ops.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter (const — usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        self.value.fetch_add(n, Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Relaxed) {
            registry().counters.lock().unwrap().push(self);
        }
    }
}

// ---- gauge ----------------------------------------------------------

/// A named, thread-safe, last-write-wins value (with a `set_max`
/// variant for high-water marks).
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// A new gauge (const — usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the value (no-op while metrics are disabled).
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        self.value.store(v, Relaxed);
    }

    /// Adds `n` (for gauges tracking a live population — open
    /// connections, outstanding jobs — updated from many threads with
    /// no shared lock to read-modify-write under).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        self.value.fetch_add(n, Relaxed);
    }

    /// Subtracts `n`, saturating at zero (a decrement racing a reset
    /// must not wrap to 2^64 − n).
    #[inline]
    pub fn sub(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        let mut cur = self.value.load(Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the value to `v` if larger (high-water mark).
    #[inline]
    pub fn set_max(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        self.value.fetch_max(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Relaxed) {
            registry().gauges.lock().unwrap().push(self);
        }
    }
}

// ---- log-scale histogram --------------------------------------------

/// Number of buckets: bucket 0 holds value 0, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// A named, thread-safe histogram over `u64` values with power-of-two
/// buckets.
///
/// Log-scale bucketing keeps recording to one `leading_zeros` and one
/// atomic add while still resolving the shape of heavy-tailed
/// distributions (queue occupancies, latencies, task counts). Quantile
/// estimates report the *upper bound* of the containing bucket, which
/// makes them monotone in the requested quantile by construction.
pub struct LogHistogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

/// The bucket index of a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value a bucket can hold.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LogHistogram {
    /// A new histogram (const — usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        LogHistogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation (no-op while metrics are disabled).
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
        }
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Relaxed) {
            registry().histograms.lock().unwrap().push(self);
        }
    }
}

/// A consistent copy of one [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket observation counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// containing bucket; `None` when the histogram is empty.
    ///
    /// Upper-bound reporting makes the estimate conservative and
    /// monotone: `quantile(a) <= quantile(b)` whenever `a <= b`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

// ---- timing spans ---------------------------------------------------

/// Aggregated wall-clock statistics of one named pipeline stage.
///
/// [`TimerStat::span`] returns an RAII guard; dropping it adds the
/// elapsed time. While metrics are disabled the guard carries no
/// `Instant` and drop is free.
pub struct TimerStat {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    registered: AtomicBool,
}

impl TimerStat {
    /// A new timer (const — usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        TimerStat {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The timer's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Starts a span; the elapsed time records when the guard drops.
    #[inline]
    pub fn span(&'static self) -> SpanGuard {
        if !enabled() {
            return SpanGuard { inner: None };
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        SpanGuard {
            inner: Some((self, Instant::now())),
        }
    }

    /// (count, total nanoseconds, max nanoseconds) recorded so far.
    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.count.load(Relaxed),
            self.total_ns.load(Relaxed),
            self.max_ns.load(Relaxed),
        )
    }

    fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Relaxed) {
            registry().timers.lock().unwrap().push(self);
        }
    }
}

/// RAII guard of one [`TimerStat`] span.
pub struct SpanGuard {
    inner: Option<(&'static TimerStat, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stat, start)) = self.inner.take() {
            let ns = start.elapsed().as_nanos();
            stat.record_ns(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

// ---- snapshot & export ----------------------------------------------

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` of every registered counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` of every registered gauge.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(name, state)` of every registered histogram.
    pub histograms: Vec<(&'static str, HistSnapshot)>,
    /// `(name, (count, total_ns, max_ns))` of every registered timer.
    pub timers: Vec<(&'static str, (u64, u64, u64))>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timers.is_empty()
    }
}

/// Captures every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut s = Snapshot {
        counters: reg
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|c| (c.name, c.get()))
            .collect(),
        gauges: reg
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|g| (g.name, g.get()))
            .collect(),
        histograms: reg
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|h| (h.name, h.snapshot()))
            .collect(),
        timers: reg
            .timers
            .lock()
            .unwrap()
            .iter()
            .map(|t| (t.name, t.get()))
            .collect(),
    };
    s.counters.sort_unstable_by_key(|(n, _)| *n);
    s.gauges.sort_unstable_by_key(|(n, _)| *n);
    s.histograms.sort_unstable_by_key(|(n, _)| *n);
    s.timers.sort_unstable_by_key(|(n, _)| *n);
    s
}

/// Zeroes every registered metric (test support: metrics are process
/// globals, so tests that assert exact totals reset first).
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().iter() {
        c.value.store(0, Relaxed);
    }
    for g in reg.gauges.lock().unwrap().iter() {
        g.value.store(0, Relaxed);
    }
    for h in reg.histograms.lock().unwrap().iter() {
        for b in &h.buckets {
            b.store(0, Relaxed);
        }
        h.count.store(0, Relaxed);
        h.sum.store(0, Relaxed);
        h.max.store(0, Relaxed);
    }
    for t in reg.timers.lock().unwrap().iter() {
        t.count.store(0, Relaxed);
        t.total_ns.store(0, Relaxed);
        t.max_ns.store(0, Relaxed);
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot as the `METRICS_<bin>.json` document.
pub fn render_json(bin: &str, s: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bin\": \"{}\",\n", json_escape(bin)));

    out.push_str("  \"counters\": {");
    let items: Vec<String> = s
        .counters
        .iter()
        .map(|(n, v)| format!("\n    \"{}\": {v}", json_escape(n)))
        .collect();
    out.push_str(&items.join(","));
    out.push_str(if items.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"gauges\": {");
    let items: Vec<String> = s
        .gauges
        .iter()
        .map(|(n, v)| format!("\n    \"{}\": {v}", json_escape(n)))
        .collect();
    out.push_str(&items.join(","));
    out.push_str(if items.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"histograms\": {");
    let items: Vec<String> = s
        .histograms
        .iter()
        .map(|(n, h)| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| format!("[{}, {c}]", bucket_upper(i)))
                .collect();
            format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.4}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                json_escape(n),
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.quantile(0.50).unwrap_or(0),
                h.quantile(0.90).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                buckets.join(", ")
            )
        })
        .collect();
    out.push_str(&items.join(","));
    out.push_str(if items.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"timers\": {");
    let items: Vec<String> = s
        .timers
        .iter()
        .map(|(n, (count, total_ns, max_ns))| {
            let total_s = *total_ns as f64 / 1e9;
            let mean_s = if *count == 0 {
                0.0
            } else {
                total_s / *count as f64
            };
            format!(
                "\n    \"{}\": {{\"count\": {count}, \"total_s\": {total_s:.6}, \
                 \"mean_s\": {mean_s:.6}, \"max_s\": {:.6}}}",
                json_escape(n),
                *max_ns as f64 / 1e9,
            )
        })
        .collect();
    out.push_str(&items.join(","));
    out.push_str(if items.is_empty() { "}\n" } else { "\n  }\n" });

    out.push_str("}\n");
    out
}

/// Renders a snapshot as an aligned human-readable report.
pub fn render_text(bin: &str, s: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("---- metrics [{bin}] ----\n"));
    for (n, v) in &s.counters {
        out.push_str(&format!("counter {n:<44} {v}\n"));
    }
    for (n, v) in &s.gauges {
        out.push_str(&format!("gauge   {n:<44} {v}\n"));
    }
    for (n, h) in &s.histograms {
        out.push_str(&format!(
            "hist    {n:<44} count={} mean={:.2} p50={} p99={} max={}\n",
            h.count,
            h.mean(),
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max
        ));
    }
    for (n, (count, total_ns, max_ns)) in &s.timers {
        out.push_str(&format!(
            "timer   {n:<44} count={count} total={:.3}s max={:.3}s\n",
            *total_ns as f64 / 1e9,
            *max_ns as f64 / 1e9
        ));
    }
    out
}

/// Exports this process's metrics per the [`mode`]:
///
/// * `Off` — nothing;
/// * `Text` — human-readable report on stderr;
/// * `Json` — writes `results/METRICS_<bin>.json` (creating `results/`)
///   and returns the path.
///
/// Every experiment binary calls this once at the end of `main`.
pub fn finish(bin: &str) -> Option<std::path::PathBuf> {
    match mode() {
        Mode::Off => None,
        Mode::Text => {
            eprint!("{}", render_text(bin, &snapshot()));
            None
        }
        Mode::Json => {
            let dir = std::path::Path::new("results");
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("METRICS_{bin}.json"));
            let doc = render_json(bin, &snapshot());
            match std::fs::write(&path, doc) {
                Ok(()) => {
                    eprintln!("metrics: wrote {}", path.display());
                    Some(path)
                }
                Err(e) => {
                    eprintln!("metrics: failed to write {}: {e}", path.display());
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn counters_and_gauges_record_when_forced() {
        static C: Counter = Counter::new("test.unit.counter");
        static G: Gauge = Gauge::new("test.unit.gauge");
        force_enable();
        C.add(41);
        C.inc();
        G.set(7);
        G.set_max(3); // lower: no effect
        G.set_max(9);
        assert_eq!(C.get(), 42);
        assert_eq!(G.get(), 9);
        let s = snapshot();
        assert_eq!(s.counter("test.unit.counter"), Some(42));
        assert_eq!(s.gauge("test.unit.gauge"), Some(9));
    }

    #[test]
    fn gauge_deltas_saturate_at_zero() {
        static G: Gauge = Gauge::new("test.unit.gauge_delta");
        force_enable();
        G.add(5);
        G.add(2);
        G.sub(3);
        assert_eq!(G.get(), 4);
        G.sub(100); // saturates, never wraps
        assert_eq!(G.get(), 0);
        G.add(1);
        assert_eq!(G.get(), 1);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        static H: LogHistogram = LogHistogram::new("test.unit.hist");
        force_enable();
        for v in [0u64, 1, 1, 3, 9, 200, 4096, 70_000] {
            H.record(v);
        }
        let h = H.snapshot();
        assert!(h.count >= 8);
        assert_eq!(h.max, 70_000);
        let mut prev = 0;
        for pct in 0..=100 {
            let q = h.quantile(pct as f64 / 100.0).unwrap();
            assert!(q >= prev, "quantile not monotone at {pct}%");
            assert!(q <= h.max);
            prev = q;
        }
    }

    #[test]
    fn timer_spans_accumulate() {
        static T: TimerStat = TimerStat::new("test.unit.timer");
        force_enable();
        for _ in 0..3 {
            let _g = T.span();
            std::hint::black_box((0..1000u64).sum::<u64>());
        }
        let (count, total, max) = T.get();
        assert_eq!(count, 3);
        assert!(total > 0);
        assert!(max <= total);
    }

    #[test]
    fn dyn_metrics_are_interned_and_registered() {
        force_enable();
        let a = dyn_counter("test.unit.dyn.backend0.retries");
        let b = dyn_counter("test.unit.dyn.backend0.retries");
        assert!(std::ptr::eq(a, b), "same name must intern to one counter");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let g1 = dyn_gauge("test.unit.dyn.backend1.inflight");
        let g2 = dyn_gauge("test.unit.dyn.backend1.inflight");
        assert!(std::ptr::eq(g1, g2));
        g1.add(3);
        g2.sub(1);
        assert_eq!(g1.get(), 2);
        let s = snapshot();
        assert_eq!(s.counter("test.unit.dyn.backend0.retries"), Some(2));
        assert_eq!(s.gauge("test.unit.dyn.backend1.inflight"), Some(2));
        // Distinct names are distinct instances.
        assert!(!std::ptr::eq(
            a,
            dyn_counter("test.unit.dyn.backend1.retries")
        ));
    }

    #[test]
    fn json_rendering_is_well_formed_enough() {
        static C: Counter = Counter::new("test.unit.json_counter");
        force_enable();
        C.inc();
        let doc = render_json("unit", &snapshot());
        assert!(doc.starts_with("{\n"));
        assert!(doc.trim_end().ends_with('}'));
        assert!(doc.contains("\"bin\": \"unit\""));
        assert!(doc.contains("\"test.unit.json_counter\": "));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
