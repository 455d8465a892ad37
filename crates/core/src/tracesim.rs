//! Synthetic trace simulation (§2.3 of the paper).
//!
//! Two entry points share one driver over a slice of packed
//! instruction words, the words a [`SyntheticTrace`] holds:
//!
//! * [`simulate_trace`] — drives a caller's [`SyntheticTrace`] in place;
//! * [`simulate_fused`] — runs a [`CompiledSampler`] walk into the
//!   engine's own trace and drives that, with no trace handed back.
//!   Bit-identical to generate-then-simulate for the same
//!   `(sampler, seed, config)` because both paths run the same walk and
//!   emission code (`CompiledSampler::emit_walk`) and the same driver.
//!
//! Callers running many simulations (design-space sweeps, convergence
//! studies) should hold a [`SimEngine`] and reuse its working memory
//! across runs instead of calling the free functions in a loop (an
//! engine also reuses its last fused walk, results across RUU/LSQ sizes
//! on it, and the stretches of its runs between empty pipelines; see
//! [`SimEngine`]).

use crate::synth::{PackedInstr, SyntheticOutcome, SyntheticTrace};
use crate::{CompiledSampler, FxHashMap};
use ssim_isa::InstrClass;
use ssim_uarch::{
    Core, CoreScratch, DispatchOutcome, MachineConfig, MemKind, OccupancyMeter, SimResult, Unit,
    CORE_COUNTERS,
};
// Observability (all no-ops unless SSIM_METRICS enables recording).
// Nothing is recorded per cycle: the run counters are added once per
// run, the wrong-path ones once per squash and per injected
// instruction, and reused segments once per segment.
static OBS_SIM_TIME: ssim_obs::TimerStat = ssim_obs::TimerStat::new("tracesim.time");
static OBS_INSTRUCTIONS: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.instructions");
static OBS_CYCLES: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.cycles");
static OBS_WRONG_PATH_INJECTED: ssim_obs::Counter =
    ssim_obs::Counter::new("tracesim.wrong_path_injected");
static OBS_WRONG_PATH_SQUASHED: ssim_obs::Counter =
    ssim_obs::Counter::new("tracesim.wrong_path_squashed");
static OBS_WALKS_REUSED: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.walks_reused");
static OBS_POINTS_REUSED: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.points_reused");
static OBS_SEGMENTS_REUSED: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.segments_reused");

/// Simulates a synthetic trace on the configured machine.
///
/// The simulator reuses the out-of-order backend of the
/// execution-driven simulator (`ssim_uarch::Core`) but, per §2.3 of the
/// paper:
///
/// * models **no caches and no branch predictor** — every locality
///   event is pre-assigned in the trace;
/// * on a pre-assigned **misprediction**, keeps fetching subsequent
///   synthetic instructions *as if they were from the incorrect path*
///   (resource contention), squashes them when the branch resolves at
///   writeback, rewinds and re-fetches them as the correct path;
/// * applies the configured memory latencies to the pre-assigned
///   L1/L2/TLB hit-miss flags of loads and instruction fetches;
/// * does **not** let wrong-path instructions touch the caches — their
///   miss flags are ignored while speculative (the paper calls this
///   out as the main difference from execution-driven simulation).
///
/// The returned [`SimResult`] reports zeroed cache statistics (there
/// are no caches) and branch statistics reconstructed from the trace
/// flags.
///
/// # Panics
///
/// Panics if the machine configuration is invalid or the pipeline
/// stops making forward progress.
pub fn simulate_trace(trace: &SyntheticTrace, cfg: &MachineConfig) -> SimResult {
    SimEngine::new().simulate(trace, cfg)
}

/// Generates and simulates in one call: the compiled walk writes its
/// packed instruction words into the engine's own trace, which the
/// driver then reads; no trace is handed back.
///
/// The result — every field of [`SimResult`], bit for bit — equals
/// `simulate_trace(&sampler.generate(seed), cfg)`. Generation is timed
/// by the `synth.time` observability timer and simulation by
/// `tracesim.time`, as on the generate-then-simulate path. A fresh
/// engine walks on every call; hold a [`SimEngine`] to reuse the walk,
/// and results and segments across machine points.
///
/// # Panics
///
/// Panics if the machine configuration is invalid or the pipeline
/// stops making forward progress.
pub fn simulate_fused(sampler: &CompiledSampler, seed: u64, cfg: &MachineConfig) -> SimResult {
    SimEngine::new().simulate_fused(sampler, seed, cfg)
}

/// Most results a [`SimEngine`] keeps for one walk. It stops keeping
/// more when full (about 0.9 MiB, at 904 B an entry on 64-bit targets):
/// `ssim-serve` workers keep their engines for the life of the process.
const KEPT_MAX: usize = 1024;

/// Most bytes a walk's segment memo holds; it adds nothing once full.
const MEMO_BYTES_MAX: usize = 4 << 20;

/// A segment in which a queue filled passes only runs with that queue's
/// capacity, so it is added only while the memo holds fewer bytes than
/// this. The rest of the room goes to segments that pass every larger
/// capacity.
const MEMO_FILLED_BYTES_MAX: usize = 1 << 20;

/// How many values [`TraceSim::counters`] returns: the core's, then the
/// IFQ occupancy sum and the five branch counts.
const COUNTERS: usize = CORE_COUNTERS + 6;

/// Whether a run with capacities `new` takes the same branch at every
/// capacity check as an earlier run (or segment of one) on the same
/// walk and masked machine took while its peaks were `peak` and its
/// capacities `old`: for each queue, the new capacity is the old one,
/// or the peak stayed below both.
fn fits(old: (usize, usize), peak: (usize, usize), new: (usize, usize)) -> bool {
    let one = |old: usize, new: usize, peak: usize| new == old || peak < old.min(new);
    one(old.0, new.0, peak.0) && one(old.1, new.1, peak.1)
}

/// The larger of two peak pairs, queue by queue.
fn max_peak(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    (a.0.max(b.0), a.1.max(b.1))
}

/// An earlier fused run on the engine's current walk.
#[derive(Debug)]
struct Kept {
    /// The machine it ran on, `ruu_size` and `lsq_size` zeroed.
    masked: MachineConfig,
    /// The `(ruu_size, lsq_size)` it ran with.
    sizes: (usize, usize),
    /// The run's peak RUU and LSQ occupancy at the capacity checks.
    peak: (usize, usize),
    result: SimResult,
}

impl Kept {
    /// Whether a run on the same walk with `masked` and capacities
    /// `sizes` must produce this result.
    fn answers(&self, masked: &MachineConfig, sizes: (usize, usize)) -> bool {
        fits(self.sizes, self.peak, sizes) && self.masked == *masked
    }
}

/// The segments the fused runs on one walk simulated (see
/// [`SimEngine`]), keyed by masked machine and start cursor.
#[derive(Debug, Default)]
struct SegmentMemo {
    /// The masked machines of the walk's runs; a key names one by its
    /// index here.
    machines: Vec<MachineConfig>,
    /// The newest entry of each key, `machine << 32 | start cursor`, as
    /// an offset into `arena`.
    heads: FxHashMap<u64, u32>,
    /// The entries, in chunks of [`CHUNK`] bytes; an offset `at` names
    /// byte `at % CHUNK` of chunk `at / CHUNK`, and no entry spans two
    /// chunks. Each entry is the offset of the next older entry of its
    /// key (4 bytes, little-endian, `u32::MAX` for none), then LEB128
    /// varints: the `(ruu_size, lsq_size)` its run had, its segment
    /// peaks, and the [`COUNTERS`] differences across it.
    arena: Vec<Vec<u8>>,
}

/// Bytes per chunk of a segment memo's arena. Chunks this size stay
/// under glibc's mmap threshold (128 KiB at the least), so they come
/// from its heap, and the next engine's memo reuses them. One growing
/// buffer instead, freed and grown again by the short-lived worker
/// threads of every sweep, left about 5 MiB more resident in a 2-thread
/// sweep of the benchmark's shape: each large block freed raises
/// glibc's mmap and trim thresholds, and the next ones land on fresh
/// heap pages.
const CHUNK: usize = 32 << 10;

/// Most bytes one entry takes: the link, then at most 10 bytes per
/// varint.
const ENTRY_MAX: usize = 4 + (4 + COUNTERS) * 10;

impl SegmentMemo {
    fn clear(&mut self) {
        self.machines.clear();
        self.heads.clear();
        self.arena.clear();
    }

    /// Bytes held: the arena's chunks, and each key and machine at its
    /// size.
    fn bytes(&self) -> usize {
        self.arena.len() * CHUNK
            + self.heads.len() * std::mem::size_of::<(u64, u32)>()
            + self.machines.len() * std::mem::size_of::<MachineConfig>()
    }

    /// The index of `masked` among the walk's machines, added if new;
    /// `None` if it is new and the memo is full.
    fn machine(&mut self, masked: &MachineConfig) -> Option<u32> {
        if let Some(i) = self.machines.iter().position(|m| m == masked) {
            return Some(i as u32);
        }
        if self.bytes() + std::mem::size_of::<MachineConfig>() > MEMO_BYTES_MAX {
            return None;
        }
        self.machines.push(masked.clone());
        Some(self.machines.len() as u32 - 1)
    }

    /// An entry of `key` whose run's capacities and segment peaks
    /// [`fits`] passes against `sizes`: its peaks and differences.
    fn find(&self, key: u64, sizes: (usize, usize)) -> Option<((usize, usize), [u64; COUNTERS])> {
        let mut at = *self.heads.get(&key)? as usize;
        while at != u32::MAX as usize {
            let entry = &self.arena[at / CHUNK][at % CHUNK..];
            let mut pos = 4;
            let mut next = || read_varint(entry, &mut pos);
            let old = (next() as usize, next() as usize);
            let peak = (next() as usize, next() as usize);
            if fits(old, peak, sizes) {
                let mut d = [0; COUNTERS];
                d.fill_with(next);
                return Some((peak, d));
            }
            at = u32::from_le_bytes(entry[..4].try_into().expect("4-byte link")) as usize;
        }
        None
    }

    /// Adds the segment a run with capacities `sizes` simulated from the
    /// boundary `key` names, if there is room (see [`MEMO_BYTES_MAX`]
    /// and [`MEMO_FILLED_BYTES_MAX`]).
    fn insert(
        &mut self,
        key: u64,
        sizes: (usize, usize),
        peak: (usize, usize),
        d: &[u64; COUNTERS],
    ) {
        let filled = peak.0 >= sizes.0 || peak.1 >= sizes.1;
        let room = if filled {
            MEMO_FILLED_BYTES_MAX
        } else {
            MEMO_BYTES_MAX
        };
        let new_chunk = self
            .arena
            .last()
            .is_none_or(|c| c.len() + ENTRY_MAX > CHUNK);
        let grows = usize::from(new_chunk) * CHUNK + std::mem::size_of::<(u64, u32)>();
        if self.bytes() + grows > room {
            return;
        }
        if new_chunk {
            self.arena.push(Vec::with_capacity(CHUNK));
        }
        let last = self.arena.len() - 1;
        let chunk = &mut self.arena[last];
        let at = (last * CHUNK + chunk.len()) as u32;
        let next = self.heads.get(&key).copied().unwrap_or(u32::MAX);
        chunk.extend_from_slice(&next.to_le_bytes());
        for v in [sizes.0, sizes.1, peak.0, peak.1] {
            write_varint(chunk, v as u64);
        }
        for &v in d {
            write_varint(chunk, v);
        }
        self.heads.insert(key, at);
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0, 0);
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// A reusable synthetic-simulation engine.
///
/// Owns every working buffer the simulator needs — the core's RUU
/// entry storage and timing wheel ([`CoreScratch`]) plus the trace of
/// its last fused walk — so repeated [`SimEngine::simulate`] /
/// [`SimEngine::simulate_fused`] calls (design-space sweeps simulate
/// thousands of points) allocate nothing after warm-up. A fresh engine
/// per call is exactly the free functions' behaviour; reuse changes no
/// results, only allocation and walk traffic.
///
/// The walk's trace is whole: 8 bytes per synthetic instruction.
/// Traces are short by design (1/R of the profiled stream), so this
/// stays in the tens to hundreds of KiB. [`SimEngine::simulate`] drives
/// the caller's trace in place and leaves the walk, and everything kept
/// for it, as it was.
///
/// **Walk reuse.** The engine remembers which `(sampler, seed)` wrote
/// its walk. A [`SimEngine::simulate_fused`] call with the same pair
/// skips the walk and reruns only the driver, so a sweep that visits
/// every machine point of one `(sampler, seed)` in a row walks once.
/// This is sound because the walk reads only the sampler's tables and
/// the seed, never the [`MachineConfig`], and the driver only reads the
/// words. The sampler half of the key is a process-unique id assigned
/// at lowering and shared by clones — not an address (a freed sampler's
/// address can come back holding another profile) and not a hash of
/// the tables (not collision-resistant). The key is cleared only when a
/// new walk starts, before it runs, so a panic mid-walk never leaves a
/// stale hit. Reuses count in the `tracesim.walks_reused`
/// observability counter.
///
/// **Capacity reuse.** For the walk it holds, the engine also keeps the
/// results of earlier fused calls with each run's peak RUU and LSQ
/// occupancy at the capacity checks ([`Core::peak_occupancy`]). A call
/// whose machine differs from a kept one only in `ruu_size`/`lsq_size`
/// gets the kept result back without running the driver when, for each
/// of the two capacities, `new == old || peak < min(old, new)`. This is
/// exact: on this path the capacities are read only by the core's
/// full-queue checks (and for array sizing, which never changes a
/// result), so a run whose peaks stayed below both capacities takes the
/// same branch at every check under either. The config is validated
/// before the lookup, so an invalid one still panics. Kept results are
/// dropped wherever the walk key is, and at most 1,024 are kept per
/// walk. Hits count in `tracesim.points_reused` and record no
/// `tracesim.*` time, instructions or cycles.
///
/// **Segment reuse.** A *boundary* is a cycle start at which the RUU,
/// the LSQ and the IFQ are empty, no wrong path is pending, and fetch
/// is free to run (or the trace is done). From a boundary the rest of a
/// run depends only on the trace position and the machine, so for the
/// walk it holds the engine also keeps a memo of every *segment* its
/// fused runs simulated between two boundaries, keyed by masked machine
/// and start position: the capacities the run had, the segment's own
/// peak RUU and LSQ occupancy at the checks, and what it added to every
/// counter of the result. A driver run replays, boundary after
/// boundary, each entry whose peaks pass the same rule against its
/// capacities, and simulates only from the first boundary with none,
/// adding its own segments as it goes. A replay adds the segment's
/// differences (cycles, commits, occupancy sums, unit activity, branch
/// counts) and moves the cursors on, which is exactly what simulating
/// it would do. A walk's memo holds at most 4 MiB, and a segment in
/// which a queue filled is added only while it holds under 1 MiB; it is
/// dropped with the kept results. Replays count in
/// `tracesim.segments_reused`; `tracesim.cycles` and
/// `tracesim.instructions` count only what the driver simulated.
#[derive(Debug, Default)]
pub struct SimEngine {
    scratch: CoreScratch,
    /// The last fused walk's trace.
    walk: SyntheticTrace,
    /// `(sampler id, seed)` of the walk `walk` holds; `None` while it
    /// holds nothing complete.
    walked: Option<(u64, u64)>,
    /// Earlier fused runs on the walk `walked` names.
    kept: Vec<Kept>,
    /// The segments of those runs.
    memo: SegmentMemo,
}

impl SimEngine {
    /// Creates an engine with empty working buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a materialised trace (see [`simulate_trace`]),
    /// driving its words in place. The engine's walk and what is kept
    /// for it stay as they were.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid or the pipeline
    /// stops making forward progress.
    pub fn simulate(&mut self, trace: &SyntheticTrace, cfg: &MachineConfig) -> SimResult {
        drive(cfg, trace.words(), &mut self.scratch, None).result
    }

    /// Generates and simulates in one call (see [`simulate_fused`]).
    /// If this engine's last walk was for the same `(sampler, seed)` —
    /// the same lowering or a clone of it — the walk is skipped and only
    /// the driver runs; and if an earlier call on
    /// that walk ran a machine that differs only in RUU/LSQ capacities
    /// neither run could fill, its result is returned without running
    /// the driver, or else the driver replays the segments earlier runs
    /// simulated wherever their capacity checks fit (see the type docs).
    /// The result is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid or the pipeline
    /// stops making forward progress.
    pub fn simulate_fused(
        &mut self,
        sampler: &CompiledSampler,
        seed: u64,
        cfg: &MachineConfig,
    ) -> SimResult {
        // Before the lookup: an invalid config must panic even when a
        // kept result would match it.
        cfg.validate();
        let masked = MachineConfig {
            ruu_size: 0,
            lsq_size: 0,
            ..cfg.clone()
        };
        let sizes = (cfg.ruu_size, cfg.lsq_size);
        let key = (sampler.id, seed);
        if self.walked == Some(key) {
            if let Some(k) = self.kept.iter().find(|k| k.answers(&masked, sizes)) {
                OBS_POINTS_REUSED.inc();
                return k.result.clone();
            }
            OBS_WALKS_REUSED.inc();
        } else {
            // A new walk: forget the old one, with everything kept for
            // it, before this one starts.
            self.walked = None;
            self.kept.clear();
            self.memo.clear();
            self.walk.clear();
            sampler.emit_walk(seed, &mut self.walk);
            self.walked = Some(key);
        }
        let memo = self.memo.machine(&masked).map(|m| (&mut self.memo, m));
        let run = drive(cfg, self.walk.words(), &mut self.scratch, memo);
        if self.kept.len() < KEPT_MAX {
            self.kept.push(Kept {
                masked,
                sizes,
                peak: run.peak,
                result: run.result.clone(),
            });
        }
        run.result
    }
}

/// Runs the driver over `words` on `cfg`, replaying and adding segments
/// of the memo under the given machine index if there is one. The core
/// borrows its working memory from `scratch`.
fn drive(
    cfg: &MachineConfig,
    words: &[u64],
    scratch: &mut CoreScratch,
    memo: Option<(&mut SegmentMemo, u32)>,
) -> Run {
    let sim = TraceSim::new(cfg, words, std::mem::take(scratch), memo);
    let (run, returned) = sim.run();
    *scratch = returned;
    run
}

/// A finished driver run.
struct Run {
    result: SimResult,
    /// The run's peak RUU and LSQ occupancy at the capacity checks.
    peak: (usize, usize),
}

struct TraceSim<'a> {
    cfg: &'a MachineConfig,
    /// The trace, one [`PackedInstr`] word per instruction.
    words: &'a [u64],
    cursor: usize,
    core: Core<'a>,
    /// Next stream position to dispatch. The IFQ holds exactly the
    /// positions `ifq_head..cursor`: fetch appends strictly sequential
    /// positions and a mispredict recovery empties the queue before
    /// rewinding, so the queue is always one contiguous range and two
    /// cursors replace any per-entry storage. Everything dispatch needs
    /// is re-derived from the trace by position (see
    /// [`TraceSim::dispatch`]).
    ifq_head: usize,
    ifq_meter: OccupancyMeter,
    branch_stats: ssim_uarch::BranchStats,
    fetch_stall_until: u64,
    /// `Some(rewind_cursor)` while fetching the wrong path: the cursor
    /// to resume from (the instruction right after the mispredicted
    /// branch).
    wrong_path: Option<usize>,
    pending_seq: Option<u64>,
    /// Deadlock watchdog: the cycle and committed count when commits
    /// last advanced.
    progress: (u64, u64),
    /// Instructions committed before the current cycle.
    cycle_committed: u64,
    /// The walk's segment memo and this run's masked machine in it;
    /// `None` on the unfused path.
    memo: Option<(&'a mut SegmentMemo, u32)>,
    /// The segment being simulated: its start cursor and
    /// [`TraceSim::counters`] there.
    segment: Option<(usize, [u64; COUNTERS])>,
    /// Peaks of the segments before the current one, replayed ones
    /// included (the core's cover only the current segment).
    peak: (usize, usize),
    /// Cycles and instructions replayed rather than simulated.
    replayed: (u64, u64),
}

impl<'a> TraceSim<'a> {
    fn new(
        cfg: &'a MachineConfig,
        words: &'a [u64],
        scratch: CoreScratch,
        memo: Option<(&'a mut SegmentMemo, u32)>,
    ) -> Self {
        TraceSim {
            cfg,
            words,
            cursor: 0,
            core: Core::with_scratch(cfg, scratch),
            ifq_head: 0,
            ifq_meter: OccupancyMeter::new(),
            branch_stats: ssim_uarch::BranchStats::default(),
            fetch_stall_until: 0,
            wrong_path: None,
            pending_seq: None,
            progress: (0, 0),
            cycle_committed: 0,
            memo,
            segment: None,
            peak: (0, 0),
            replayed: (0, 0),
        }
    }

    /// Current IFQ occupancy (the two-cursor queue's length).
    #[inline]
    fn ifq_len(&self) -> usize {
        self.cursor - self.ifq_head
    }

    /// Runs to the end of the trace.
    fn run(mut self) -> (Run, CoreScratch) {
        let _span = OBS_SIM_TIME.span();
        loop {
            if self.memo.is_some() && self.at_boundary() {
                self.boundary();
            }
            if self.begin_cycle() {
                break;
            }
            self.dispatch();
            let dispatched = self.core.dispatched();
            let cursor_before = self.cursor;
            self.fetch();
            self.core.advance();
            self.skip_quiet_cycles(dispatched, cursor_before);

            let now = self.core.now();
            if self.cycle_committed > self.progress.1 {
                self.progress = (now, self.cycle_committed);
            }
            assert!(
                now - self.progress.0 < 500_000,
                "synthetic pipeline deadlock at cycle {now} (committed {})",
                self.cycle_committed
            );
        }
        let cycles = self.core.now().max(1);
        let instructions = self.core.committed();
        OBS_CYCLES.add(cycles - self.replayed.0);
        OBS_INSTRUCTIONS.add(instructions - self.replayed.1);
        let peak = max_peak(self.peak, self.core.peak_occupancy());
        let (mut activity, ruu, lsq, scratch) = self.core.finish_reuse();
        activity.set_cycles(cycles);
        let result = SimResult {
            instructions,
            cycles,
            ruu_occupancy: ruu.mean(),
            lsq_occupancy: lsq.mean(),
            ifq_occupancy: self.ifq_meter.mean(),
            branch: self.branch_stats,
            cache: Default::default(),
            activity,
        };
        (Run { result, peak }, scratch)
    }

    /// Whether this cycle start is a boundary: the window and the IFQ
    /// are empty, no wrong path is pending, and fetch is free to run or
    /// the trace is done. From here on the run depends only on the
    /// cursor and the machine: a pending fetch stall would carry its
    /// remaining cycles across, and nothing else does (see
    /// [`Core::replay`]). Quiet-cycle skips never jump over a boundary:
    /// at one, fetch moves or the run ends.
    #[inline]
    fn at_boundary(&self) -> bool {
        self.ifq_head == self.cursor
            && self.wrong_path.is_none()
            && self.core.is_empty()
            && (self.core.now() >= self.fetch_stall_until || self.cursor == self.words.len())
    }

    /// At a boundary: adds the segment that ends here to the memo, then
    /// replays memo entries from here while one fits this machine, and
    /// starts the next segment.
    fn boundary(&mut self) {
        let peak = self.core.take_peak_occupancy();
        self.peak = max_peak(self.peak, peak);
        let counters = self.counters();
        let sizes = (self.cfg.ruu_size, self.cfg.lsq_size);
        let Some((memo, machine)) = self.memo.as_mut() else {
            return;
        };
        let key = |cursor: usize| u64::from(*machine) << 32 | cursor as u64;
        // A segment always commits something (fetch is free to run at
        // its start); one that did not is never added, so a replay
        // always moves the cursor on.
        if let Some((start, before)) = self.segment.take().filter(|s| s.0 < self.cursor) {
            let mut d = counters;
            for (d, b) in d.iter_mut().zip(before) {
                *d -= b;
            }
            memo.insert(key(start), sizes, peak, &d);
        }
        while let Some((peak, d)) = memo.find(key(self.cursor), sizes) {
            let (core, rest) = d.split_at(CORE_COUNTERS);
            self.core
                .replay(core.try_into().expect("core counters first"));
            let (cycles, commits) = (d[0], d[1]);
            self.cursor += commits as usize;
            self.ifq_head = self.cursor;
            self.ifq_meter.add(rest[0], cycles);
            let b = &mut self.branch_stats;
            for (s, d) in [
                &mut b.branches,
                &mut b.taken,
                &mut b.correct,
                &mut b.redirects,
                &mut b.mispredicts,
            ]
            .into_iter()
            .zip(&rest[1..])
            {
                *s += d;
            }
            self.peak = max_peak(self.peak, peak);
            self.replayed.0 += cycles;
            self.replayed.1 += commits;
            self.progress = (self.core.now(), self.core.committed());
            OBS_SEGMENTS_REUSED.inc();
        }
        if self.cursor < self.words.len() {
            self.segment = Some((self.cursor, self.counters()));
        }
    }

    /// Every counter a segment adds to: the core's (see
    /// [`Core::counters`]), then the IFQ occupancy sum and the branch,
    /// taken, correct, redirect and mispredict counts.
    fn counters(&self) -> [u64; COUNTERS] {
        let mut c = [0; COUNTERS];
        c[..CORE_COUNTERS].copy_from_slice(&self.core.counters());
        let b = &self.branch_stats;
        c[CORE_COUNTERS..].copy_from_slice(&[
            self.ifq_meter.sum(),
            b.branches,
            b.taken,
            b.correct,
            b.redirects,
            b.mispredicts,
        ]);
        c
    }

    /// Starts a cycle: writeback, issue and commit, then the recovery
    /// from a mispredict that resolved. Returns `true` instead when the
    /// machine has fully drained and the trace is exhausted. (A trace
    /// ending in a mispredict never stalls here: resolution and the
    /// rewind both happen inside one `cycle()` call, so `wrong_path` is
    /// `None` again by the time the drain check can pass.)
    fn begin_cycle(&mut self) -> bool {
        self.cycle_committed = self.core.committed();
        if self.wrong_path.is_none()
            && self.ifq_len() == 0
            && self.core.is_empty()
            && self.cursor == self.words.len()
        {
            return true;
        }
        if let Some(seq) = self.core.cycle() {
            self.recover(seq);
        }
        false
    }

    /// Fast-forwards over cycles in which provably nothing can happen.
    ///
    /// The cycle just completed must have been fully idle: the core
    /// reports quiet (no writeback, issue or commit — see
    /// [`Core::quiet_until`]), dispatch moved nothing, and fetch made no
    /// progress. Until the core's bound (or the end of a timed fetch
    /// stall, whichever is sooner) every pipeline stage is blocked for
    /// the same reason it was blocked this cycle, and an unskipped run
    /// would idle through the same cycles touching nothing — so only the
    /// per-cycle occupancy samples need to be replayed, in one batched
    /// step each. Results are bit-identical.
    fn skip_quiet_cycles(&mut self, dispatched: usize, cursor_before: usize) {
        if dispatched != 0 || self.cursor != cursor_before {
            return;
        }
        let Some(bound) = self.core.quiet_until() else {
            return;
        };
        // `advance` already ran: the cycle that produced the quiet
        // verdict is `now - 1`.
        let now = self.core.now();
        let mut wake = bound;
        if now - 1 < self.fetch_stall_until {
            // Fetch wakes on a timer, not a core event.
            wake = wake.min(self.fetch_stall_until);
        }
        if wake == u64::MAX {
            // Nothing pending anywhere: the machine is drained and the
            // main loop's termination check is about to fire.
            return;
        }
        let k = wake.saturating_sub(now);
        if k == 0 {
            return;
        }
        self.core.skip_quiet(k);
        self.ifq_meter.sample_n(self.ifq_len() as u64, k);
    }

    fn recover(&mut self, seq: u64) {
        debug_assert_eq!(self.pending_seq, Some(seq));
        self.pending_seq = None;
        let squashed = self.core.squash_after(seq) + self.ifq_len();
        OBS_WRONG_PATH_SQUASHED.add(squashed as u64);
        self.cursor = self
            .wrong_path
            .take()
            .expect("resolution implies wrong-path mode");
        // Emptying the IFQ keeps it a contiguous range across the
        // rewind: the discarded wrong-path positions are re-fetched as
        // the correct path from the new cursor.
        self.ifq_head = self.cursor;
        self.fetch_stall_until = self.core.now() + self.cfg.redirect_latency;
    }

    /// Dispatches from the IFQ until a check stalls.
    ///
    /// Dispatch re-reads each instruction from the trace at `ifq_head`
    /// and hands its fields straight from the word to
    /// [`Core::try_dispatch_dists`] — everything the fetch stage knew is
    /// a pure function of the instruction's flags and its stream
    /// position: an entry is wrong-path iff it sits at or past the
    /// rewind cursor (fetch turns wrong-path mode on for the position
    /// *after* the mispredicted branch and recovery empties the queue
    /// before turning it off, so fetch-time and dispatch-time status
    /// agree), and the mode-triggering branch itself is exactly the
    /// entry just below the rewind cursor.
    fn dispatch(&mut self) {
        while self.ifq_head < self.cursor {
            let pos = self.ifq_head;
            let w = PackedInstr(self.words[pos]);
            let wrong_path = self.wrong_path.is_some_and(|rw| pos >= rw);
            let mispredict_marker = self.wrong_path == Some(pos + 1);
            let class = w.class_index();
            let mem = if class == InstrClass::Load.index() {
                let latency = match w.dmem() {
                    Some(f) if !wrong_path => self.load_latency(f),
                    // Wrong-path loads (or flag-less loads) behave as
                    // L1 hits.
                    _ => 1 + self.cfg.lat.l1d_hit,
                };
                Some(MemKind::Load { latency })
            } else if class == InstrClass::Store.index() {
                Some(MemKind::Store)
            } else {
                None
            };
            match self.core.try_dispatch_dists(
                class,
                w.dep_raw(),
                w.anti_dep_raw(),
                mem,
                wrong_path,
                mispredict_marker,
            ) {
                DispatchOutcome::Dispatched(seq) => {
                    self.ifq_head += 1;
                    if w.0 & PackedInstr::BRANCH != 0 && !wrong_path {
                        // The synthetic machine still charges predictor
                        // update activity at dispatch.
                        let now = self.core.now();
                        self.core.activity_mut().record(Unit::Bpred, now);
                    }
                    if mispredict_marker {
                        self.pending_seq = Some(seq);
                    }
                }
                DispatchOutcome::Stalled => break,
            }
        }
    }

    /// Total load latency for pre-assigned flags.
    fn load_latency(&self, f: crate::DataFlags) -> u64 {
        let lat = &self.cfg.lat;
        let mut l = if f.l1_miss {
            if f.l2_miss {
                lat.mem
            } else {
                lat.l2_hit
            }
        } else {
            lat.l1d_hit
        };
        if f.tlb_miss {
            l += lat.tlb_miss;
        }
        1 + l // address generation
    }

    /// Fetches up to the fetch width, the IFQ's room and the end of the
    /// trace, stopping early where a position stops fetch. Positions
    /// that cannot stop it (see [`TraceSim::fetch_run`]) are taken a
    /// run at a time; each other position goes through
    /// [`TraceSim::fetch_one`].
    fn fetch(&mut self) {
        let now = self.core.now();
        if now < self.fetch_stall_until {
            self.ifq_meter.sample(self.ifq_len() as u64);
            return;
        }
        let mut budget = self.cfg.fetch_width();
        loop {
            let room = budget.min(self.cfg.ifq_size.saturating_sub(self.ifq_len()));
            let end = self.words.len().min(self.cursor + room);
            let start = self.cursor;
            self.fetch_run(end);
            budget -= self.cursor - start;
            if self.cursor == end {
                break;
            }
            // The position at the cursor may stop fetch.
            let w = PackedInstr(self.words[self.cursor]);
            self.cursor += 1;
            budget -= 1;
            if self.fetch_one(w, self.wrong_path.is_some()) {
                break;
            }
        }
        self.ifq_meter.sample(self.ifq_len() as u64);
    }

    /// Fetches, as one group, the positions from the cursor up to `end`
    /// that cannot stop fetch, stopping at the first that can. On the
    /// correct path those carry no I-cache or ITLB miss flag, no taken
    /// branch and no outcome other than correct; on the wrong path, no
    /// taken branch. The group charges each unit once with
    /// [`ActivityCounters::record_n`](ssim_uarch::ActivityCounters::record_n)
    /// and adds its branch counts once: every record falls in this one
    /// cycle, so the accesses and used cycles are those of
    /// [`TraceSim::fetch_one`] run position by position.
    fn fetch_run(&mut self, end: usize) {
        let wrong_path = self.wrong_path.is_some();
        let stop = if wrong_path {
            PackedInstr::WRONG_PATH_STOP
        } else {
            PackedInstr::CORRECT_PATH_STOP
        };
        let (mut n, mut branches, mut dtlb, mut l2) = (0u64, 0u64, 0u64, 0u64);
        for &w in &self.words[self.cursor..end] {
            if w & stop != 0 {
                break;
            }
            n += 1;
            branches += u64::from(w & PackedInstr::BRANCH != 0);
            let (d, l) = PackedInstr(w).fetch_data_side();
            dtlb += d;
            l2 += l;
        }
        if n == 0 {
            return;
        }
        self.cursor += n as usize;
        let now = self.core.now();
        let activity = self.core.activity_mut();
        activity.record_n(Unit::Fetch, now, n);
        activity.record_n(Unit::Bpred, now, branches);
        if wrong_path {
            OBS_WRONG_PATH_INJECTED.add(n);
        } else {
            activity.record_n(Unit::ICache, now, n);
            activity.record_n(Unit::Itlb, now, n);
            activity.record_n(Unit::L2, now, l2);
            activity.record_n(Unit::Dtlb, now, dtlb);
            // Every branch of the run is a correct, not-taken one.
            self.branch_stats.branches += branches;
            self.branch_stats.correct += branches;
        }
    }

    /// Fetches one synthetic instruction (the position just appended to
    /// the IFQ range by the caller); returns `true` if fetch stops for
    /// this cycle. Only stall timing, statistics and activity accounting
    /// happen here — dispatch rebuilds the instruction's pipeline form
    /// from the trace when its turn comes.
    fn fetch_one(&mut self, w: PackedInstr, wrong_path: bool) -> bool {
        let now = self.core.now();
        self.core.activity_mut().record(Unit::Fetch, now);
        if wrong_path {
            OBS_WRONG_PATH_INJECTED.inc();
        }
        let mut stop = false;

        // Instruction-fetch locality: the synthetic simulator models no
        // caches, but the pre-assigned flags stall fetch with the
        // configured latencies (§2.3). Wrong-path instructions do not
        // access the caches, so their flags are ignored.
        if !wrong_path {
            self.core.activity_mut().record(Unit::ICache, now);
            self.core.activity_mut().record(Unit::Itlb, now);
            let mut stall = 0;
            if w.l1i_miss() {
                self.core.activity_mut().record(Unit::L2, now);
                stall += if w.l2i_miss() {
                    self.cfg.lat.mem
                } else {
                    self.cfg.lat.l2_hit
                };
            }
            if w.itlb_miss() {
                stall += self.cfg.lat.tlb_miss;
            }
            if stall > 0 {
                self.fetch_stall_until = now + stall;
                stop = true;
            }
            // Correct-path loads touch the data-side structures at fetch.
            let (dtlb, l2) = w.fetch_data_side();
            self.core.activity_mut().record_n(Unit::L2, now, l2);
            self.core.activity_mut().record_n(Unit::Dtlb, now, dtlb);
        }

        if let Some(b) = w.branch() {
            self.core.activity_mut().record(Unit::Bpred, now);
            if !wrong_path {
                self.branch_stats.branches += 1;
                if b.taken {
                    self.branch_stats.taken += 1;
                }
                match b.outcome {
                    SyntheticOutcome::Correct => {
                        self.branch_stats.correct += 1;
                        stop |= b.taken;
                    }
                    SyntheticOutcome::FetchRedirect => {
                        self.branch_stats.redirects += 1;
                        self.fetch_stall_until =
                            self.fetch_stall_until.max(now) + self.cfg.fetch_redirect_penalty;
                        stop = true;
                    }
                    SyntheticOutcome::Mispredict => {
                        self.branch_stats.mispredicts += 1;
                        // Subsequent trace instructions fill the pipeline
                        // as the wrong path; remember where to rewind.
                        // Dispatch recognises this branch as the resolver
                        // by its position just below the rewind cursor.
                        self.wrong_path = Some(self.cursor);
                        stop = true;
                    }
                }
            } else if b.taken {
                // Wrong-path taken branches still end the fetch group.
                stop = true;
            }
        }

        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{BranchFlags, DataFlags, SyntheticInstr};

    /// Hand-builds a trace (the generator is exercised elsewhere).
    fn trace_of(instrs: Vec<SyntheticInstr>) -> SyntheticTrace {
        let mut t = SyntheticTrace::default();
        for i in instrs {
            t.push(i);
        }
        t
    }

    fn alu() -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::IntAlu,
            dep: [None, None],
            l1i_miss: false,
            l2i_miss: false,
            itlb_miss: false,
            dmem: None,
            branch: None,
            anti_dep: [None, None],
        }
    }

    fn load(flags: DataFlags) -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::Load,
            dmem: Some(flags),
            ..alu()
        }
    }

    fn branch(outcome: SyntheticOutcome) -> SyntheticInstr {
        SyntheticInstr {
            class: InstrClass::IntCondBranch,
            branch: Some(BranchFlags {
                taken: true,
                outcome,
            }),
            ..alu()
        }
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let t = trace_of(vec![alu(); 50_000]);
        let r = simulate_trace(&t, &MachineConfig::baseline());
        assert_eq!(r.instructions, 50_000);
        assert!(
            r.ipc() > 6.0,
            "8-wide machine on independent ALUs, IPC = {}",
            r.ipc()
        );
    }

    #[test]
    fn dependence_chain_limits_ipc_to_one() {
        let mut i = alu();
        i.dep = [Some(1), None];
        let t = trace_of(vec![i; 20_000]);
        let r = simulate_trace(&t, &MachineConfig::baseline());
        assert!(
            r.ipc() < 1.1,
            "serial chain can't exceed 1 IPC, got {}",
            r.ipc()
        );
    }

    #[test]
    fn memory_misses_slow_the_machine() {
        let hit = trace_of(vec![load(DataFlags::default()); 10_000]);
        let miss = trace_of(vec![
            load(DataFlags {
                l1_miss: true,
                l2_miss: true,
                tlb_miss: false
            });
            10_000
        ]);
        let cfg = MachineConfig::baseline();
        let fast = simulate_trace(&hit, &cfg);
        let slow = simulate_trace(&miss, &cfg);
        assert!(
            slow.cycles > fast.cycles,
            "L2 misses must cost cycles: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn mispredicts_cost_cycles_and_rewind_correctly() {
        let mut correct_path = Vec::new();
        let mut mispredicted = Vec::new();
        for _ in 0..2_000 {
            for _ in 0..4 {
                correct_path.push(alu());
                mispredicted.push(alu());
            }
            correct_path.push(branch(SyntheticOutcome::Correct));
            mispredicted.push(branch(SyntheticOutcome::Mispredict));
        }
        let cfg = MachineConfig::baseline();
        let good = simulate_trace(&trace_of(correct_path), &cfg);
        let bad = simulate_trace(&trace_of(mispredicted), &cfg);
        assert_eq!(
            good.instructions, bad.instructions,
            "every instruction still commits"
        );
        assert!(
            bad.cycles as f64 > good.cycles as f64 * 1.5,
            "mispredicts must hurt: {} vs {}",
            bad.cycles,
            good.cycles
        );
        assert_eq!(bad.branch.mispredicts, 2_000);
    }

    #[test]
    fn fetch_redirects_cost_less_than_mispredicts() {
        let build = |outcome| {
            let mut v = Vec::new();
            for _ in 0..2_000 {
                for _ in 0..4 {
                    v.push(alu());
                }
                v.push(branch(outcome));
            }
            trace_of(v)
        };
        let cfg = MachineConfig::baseline();
        let correct = simulate_trace(&build(SyntheticOutcome::Correct), &cfg);
        let redirect = simulate_trace(&build(SyntheticOutcome::FetchRedirect), &cfg);
        let mispredict = simulate_trace(&build(SyntheticOutcome::Mispredict), &cfg);
        assert!(correct.cycles <= redirect.cycles);
        assert!(redirect.cycles < mispredict.cycles);
    }

    #[test]
    fn icache_miss_flags_stall_fetch() {
        let mut missy = alu();
        missy.l1i_miss = true;
        let clean = trace_of(vec![alu(); 5_000]);
        let dirty = trace_of(
            (0..5_000)
                .map(|i| if i % 10 == 0 { missy } else { alu() })
                .collect(),
        );
        let cfg = MachineConfig::baseline();
        let fast = simulate_trace(&clean, &cfg);
        let slow = simulate_trace(&dirty, &cfg);
        assert!(
            slow.cycles > fast.cycles * 3,
            "{} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let r = simulate_trace(&SyntheticTrace::default(), &MachineConfig::baseline());
        assert_eq!(r.instructions, 0);
    }

    /// An engine that sees more distinct machines on one walk than it
    /// may keep results for stops keeping at the cap; an entry stays
    /// under 1 KiB.
    #[test]
    fn kept_results_are_bounded() {
        assert!(std::mem::size_of::<Kept>() < 1024);
        let w = ssim_workloads::by_name("gzip").expect("suite workload");
        let p = crate::profile(
            &w.program(),
            &crate::ProfileConfig::new(&MachineConfig::baseline()).instructions(5_000),
        );
        // An empty walk, so every point is a trivial run.
        let sampler = p.compile(u64::MAX);
        let mut engine = SimEngine::new();
        for redirect_latency in 0..KEPT_MAX as u64 + 8 {
            let cfg = MachineConfig {
                redirect_latency,
                ..MachineConfig::baseline()
            };
            engine.simulate_fused(&sampler, 1, &cfg);
        }
        assert_eq!(engine.kept.len(), KEPT_MAX);
    }

    /// A walk's memo stops adding segments at its caps: those in which a
    /// queue filled at 1 MiB, the others at 4 MiB, and new machines at
    /// 4 MiB too. Entries here carry the widest varints.
    #[test]
    fn segment_memo_is_bounded() {
        let d = [u64::MAX >> 1; COUNTERS];
        let (sizes, roomy, filled) = ((64, 32), (8, 4), (64, 4));
        let mut memo = SegmentMemo::default();
        let mut key = 0;
        for (peak, cap) in [(filled, MEMO_FILLED_BYTES_MAX), (roomy, MEMO_BYTES_MAX)] {
            loop {
                let before = memo.bytes();
                memo.insert(key, sizes, peak, &d);
                if memo.bytes() == before {
                    break;
                }
                key += 1;
            }
            let full = memo.bytes();
            assert!(full <= cap && full + CHUNK > cap, "{full} bytes");
        }
        // New machines stop at the same cap.
        for redirect_latency in 0.. {
            let m = MachineConfig {
                redirect_latency,
                ..MachineConfig::baseline()
            };
            if memo.machine(&m).is_none() {
                break;
            }
        }
        assert!(memo.bytes() <= MEMO_BYTES_MAX);
        // What was added reads back, and only for capacities it fits.
        assert_eq!(memo.find(key - 1, (128, 32)), Some((roomy, d)));
        assert_eq!(memo.find(0, (64, 32)), Some((filled, d)));
        assert_eq!(memo.find(0, (128, 32)), None);
        assert_eq!(memo.find(key, sizes), None);
    }

    #[test]
    fn engine_reuse_matches_fresh_engines() {
        let mut mixed = Vec::new();
        for i in 0..3_000 {
            mixed.push(alu());
            mixed.push(load(DataFlags {
                l1_miss: i % 7 == 0,
                l2_miss: i % 21 == 0,
                tlb_miss: false,
            }));
            mixed.push(branch(if i % 5 == 0 {
                SyntheticOutcome::Mispredict
            } else {
                SyntheticOutcome::Correct
            }));
        }
        let traces = [
            trace_of(mixed),
            trace_of(vec![alu(); 10_000]),
            SyntheticTrace::default(),
        ];
        let cfgs = [
            MachineConfig::baseline(),
            MachineConfig::baseline().with_width(2),
        ];
        let mut engine = SimEngine::new();
        for cfg in &cfgs {
            for t in &traces {
                assert_eq!(engine.simulate(t, cfg), simulate_trace(t, cfg));
            }
        }
    }
}
