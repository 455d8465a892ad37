//! Synthetic trace simulation (§2.3 of the paper).
//!
//! Two entry points share one driver over a slice of packed
//! instruction words:
//!
//! * [`simulate_trace`] — simulates a materialised [`SyntheticTrace`],
//!   packing it into words first;
//! * [`simulate_fused`] — runs a [`CompiledSampler`] walk straight into
//!   the packed words, never building a [`SyntheticTrace`].
//!   Bit-identical to generate-then-simulate for the same
//!   `(sampler, seed, config)` because both paths run the same walk and
//!   emission code (`CompiledSampler::emit_walk`) and the same driver.
//!
//! Callers running many simulations (design-space sweeps, convergence
//! studies) should hold a [`SimEngine`] and reuse its working memory
//! across runs instead of calling the free functions in a loop (an
//! engine also reuses its last fused walk, and results across RUU/LSQ
//! sizes on it; see [`SimEngine`]).

use crate::sampler::EmitSink;
use crate::synth::{PackedInstr, SyntheticInstr, SyntheticOutcome, SyntheticTrace};
use crate::CompiledSampler;
use ssim_uarch::{
    BranchResolution, Core, CoreScratch, DispatchInstr, DispatchOutcome, MachineConfig, MemKind,
    OccupancyMeter, SimResult, Unit,
};
// Observability (all no-ops unless SSIM_METRICS enables recording).
// Nothing is recorded per cycle: the run counters are added once per
// run, the wrong-path ones once per squash and per injected instruction.
static OBS_SIM_TIME: ssim_obs::TimerStat = ssim_obs::TimerStat::new("tracesim.time");
static OBS_INSTRUCTIONS: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.instructions");
static OBS_CYCLES: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.cycles");
static OBS_WRONG_PATH_INJECTED: ssim_obs::Counter =
    ssim_obs::Counter::new("tracesim.wrong_path_injected");
static OBS_WRONG_PATH_SQUASHED: ssim_obs::Counter =
    ssim_obs::Counter::new("tracesim.wrong_path_squashed");
static OBS_WALKS_REUSED: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.walks_reused");
static OBS_POINTS_REUSED: ssim_obs::Counter = ssim_obs::Counter::new("tracesim.points_reused");

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

/// Generates and simulates in one call: the compiled walk writes
/// packed instruction words straight into the simulator's buffer, so no
/// [`SyntheticTrace`] is ever materialised.
///
/// The result — every field of [`SimResult`], bit for bit — equals
/// `simulate_trace(&sampler.generate(seed), cfg)`. Generation is timed
/// by the `synth.time` observability timer and simulation by
/// `tracesim.time`, as on the generate-then-simulate path. A fresh
/// engine walks on every call; hold a [`SimEngine`] to reuse the walk,
/// and results across RUU/LSQ sizes, across machine points.
///
/// # Panics
///
/// Panics if the machine configuration is invalid or the pipeline
/// stops making forward progress.
pub fn simulate_fused(sampler: &CompiledSampler, seed: u64, cfg: &MachineConfig) -> SimResult {
    SimEngine::new().simulate_fused(sampler, seed, cfg)
}

/// [`EmitSink`] writing the walk's instructions as packed words plus
/// the sideband producer-index bytes the dependency-retry probe reads.
struct PackedSink<'e> {
    words: &'e mut Vec<u64>,
    has_dest: &'e mut Vec<u8>,
}

impl EmitSink for PackedSink<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.has_dest.len()
    }
    #[inline]
    fn has_dest_at(&self, idx: usize) -> bool {
        self.has_dest[idx] != 0
    }
    #[inline]
    fn push(&mut self, instr: SyntheticInstr, has_dest: u8) {
        self.words.push(PackedInstr::pack(&instr).0);
        self.has_dest.push(has_dest);
    }
}

/// Most results a [`SimEngine`] keeps for one walk. It stops keeping
/// more when full (about 0.9 MiB, at under 1 KiB an entry): `ssim-serve`
/// workers keep their engines for the life of the process.
const KEPT_MAX: usize = 1024;

/// An earlier fused result on the engine's current walk.
#[derive(Debug)]
struct Kept {
    /// The machine it ran on, `ruu_size` and `lsq_size` zeroed.
    masked: MachineConfig,
    /// The `(ruu_size, lsq_size)` it ran with.
    sizes: (usize, usize),
    /// The run's [`Core::peak_occupancy`].
    peak: (usize, usize),
    result: SimResult,
}

impl Kept {
    /// Whether a run on the same walk with `masked` and capacities
    /// `sizes` must produce this result: the machines differ at most in
    /// the two capacities, and for each capacity the new one is the old
    /// one, or the peak stayed below both.
    fn answers(&self, masked: &MachineConfig, sizes: (usize, usize)) -> bool {
        let fits = |old: usize, new: usize, peak: usize| new == old || peak < old.min(new);
        fits(self.sizes.0, sizes.0, self.peak.0)
            && fits(self.sizes.1, sizes.1, self.peak.1)
            && self.masked == *masked
    }
}

/// A reusable synthetic-simulation engine.
///
/// Owns every working buffer the simulator needs — the core's RUU
/// entry storage and timing wheel ([`CoreScratch`]) plus the trace's
/// packed words and the walk's producer-index sideband — so repeated
/// [`SimEngine::simulate`] / [`SimEngine::simulate_fused`] calls
/// (design-space sweeps simulate thousands of points) allocate nothing
/// after warm-up. A fresh engine per call is exactly the free
/// functions' behaviour; reuse changes no results, only allocation
/// and walk traffic.
///
/// The word buffer holds the whole trace: 8 bytes per synthetic
/// instruction, plus one sideband byte on the fused path. Traces are
/// short by design (1/R of the profiled stream), so this stays in the
/// tens to hundreds of KiB.
///
/// **Walk reuse.** The engine remembers which `(sampler, seed)` wrote
/// its packed words. A [`SimEngine::simulate_fused`] call with the same
/// pair skips the walk and reruns only the driver, so a sweep that
/// visits every machine point of one `(sampler, seed)` in a row walks
/// once. This is sound because the walk reads only the sampler's tables
/// and the seed, never the [`MachineConfig`], and the driver only reads
/// the words. The sampler half of the key is a process-unique id
/// assigned at lowering and shared by clones — not an address (a freed
/// sampler's address can come back holding another profile) and not a
/// hash of the tables (not collision-resistant). The key is cleared
/// before a walk starts and by [`SimEngine::simulate`], so a panic
/// mid-walk or an unfused call never leaves a stale hit. Reuses count
/// in the `tracesim.walks_reused` observability counter.
///
/// **Capacity reuse.** For the walk it holds, the engine also keeps the
/// results of earlier fused calls with each run's peak RUU and LSQ
/// occupancy ([`Core::peak_occupancy`]). A call whose machine differs
/// from a kept one only in `ruu_size`/`lsq_size` gets the kept result
/// back without running the driver when, for each of the two
/// capacities, `new == old || peak < min(old, new)`. This is exact: on
/// this path the capacities are read only by the core's full-queue
/// checks (and for array sizing, which never changes a result), so a
/// run whose peaks stayed below both capacities takes the same branch
/// at every check under either. The config is validated before the
/// lookup, so an invalid one still panics. Kept results are dropped
/// wherever the walk key is, and at most 1,024 are kept per walk.
/// Hits count in `tracesim.points_reused` and record no `tracesim.*`
/// time, instructions or cycles.
#[derive(Debug, Default)]
pub struct SimEngine {
    scratch: CoreScratch,
    /// The trace being simulated, one [`PackedInstr`] word per
    /// instruction — the driver's only instruction storage.
    packed: Vec<u64>,
    /// One byte per instruction, `class.has_dest()`, for the walk's
    /// dependency-retry probe on the fused path.
    has_dest: Vec<u8>,
    /// `(sampler id, seed)` of the walk `packed` holds; `None` when
    /// `packed` holds anything else (or nothing complete).
    walked: Option<(u64, u64)>,
    /// Results of earlier fused calls on the walk `walked` names.
    kept: Vec<Kept>,
}

impl SimEngine {
    /// Creates an engine with empty working buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a materialised trace (see [`simulate_trace`]).
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid or the pipeline
    /// stops making forward progress.
    pub fn simulate(&mut self, trace: &SyntheticTrace, cfg: &MachineConfig) -> SimResult {
        // One packing pass up front; the driver then reads plain words.
        // Hand-built traces may carry dependency distances outside the
        // generator's range — those clamp to `1..=MAX_DEP_DISTANCE`,
        // the range the wire format represents.
        self.walked = None;
        self.kept.clear();
        self.packed.clear();
        self.packed.extend(
            trace
                .instrs()
                .iter()
                .map(|i| PackedInstr::pack_clamped(i).0),
        );
        self.run(cfg).0
    }

    /// Generates and simulates in one call (see [`simulate_fused`]).
    /// If this engine's last call was `simulate_fused` with the same
    /// `(sampler, seed)` — the same lowering or a clone of it — the walk
    /// is skipped and only the driver runs; and if an earlier call on
    /// that walk ran a machine that differs only in RUU/LSQ capacities
    /// neither run could fill, its result is returned without running
    /// the driver (see the type docs). The result is the same either
    /// way.
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
            self.walked = None;
            self.kept.clear();
            self.packed.clear();
            self.has_dest.clear();
            let mut sink = PackedSink {
                words: &mut self.packed,
                has_dest: &mut self.has_dest,
            };
            sampler.emit_walk(seed, &mut sink);
            self.walked = Some(key);
        }
        let (result, peak) = self.run(cfg);
        if self.kept.len() < KEPT_MAX {
            self.kept.push(Kept {
                masked,
                sizes,
                peak,
                result: result.clone(),
            });
        }
        result
    }

    /// Runs the driver over the packed words; returns the result and
    /// the run's [`Core::peak_occupancy`].
    fn run(&mut self, cfg: &MachineConfig) -> (SimResult, (usize, usize)) {
        let scratch = std::mem::take(&mut self.scratch);
        let (result, peak, scratch) = TraceSim::new(cfg, &self.packed, scratch).run();
        self.scratch = scratch;
        (result, peak)
    }
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
}

impl<'a> TraceSim<'a> {
    fn new(cfg: &'a MachineConfig, words: &'a [u64], scratch: CoreScratch) -> Self {
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
        }
    }

    /// Current IFQ occupancy (the two-cursor queue's length).
    #[inline]
    fn ifq_len(&self) -> usize {
        self.cursor - self.ifq_head
    }

    fn run(mut self) -> (SimResult, (usize, usize), CoreScratch) {
        let _span = OBS_SIM_TIME.span();
        let mut last_progress = (0u64, 0u64);
        loop {
            let committed = self.core.committed();
            // Done when the machine has fully drained and the trace is
            // exhausted. (A trace ending in a mispredict never stalls
            // here: resolution and the rewind both happen inside one
            // `cycle()` call, so `wrong_path` is `None` again by the
            // time the drain check can pass.)
            if self.wrong_path.is_none()
                && self.ifq_len() == 0
                && self.core.is_empty()
                && self.cursor == self.words.len()
            {
                break;
            }
            if let Some(seq) = self.core.cycle() {
                self.recover(seq);
            }
            let dispatched = self.dispatch();
            let cursor_before = self.cursor;
            self.fetch();
            self.core.advance();
            self.skip_quiet_cycles(dispatched, cursor_before);

            let now = self.core.now();
            if committed > last_progress.1 {
                last_progress = (now, committed);
            }
            assert!(
                now - last_progress.0 < 500_000,
                "synthetic pipeline deadlock at cycle {now} (committed {committed})"
            );
        }
        let cycles = self.core.now().max(1);
        let instructions = self.core.committed();
        OBS_CYCLES.add(cycles);
        OBS_INSTRUCTIONS.add(instructions);
        let peak = self.core.peak_occupancy();
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
        (result, peak, scratch)
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
    fn skip_quiet_cycles(&mut self, dispatched: u64, cursor_before: usize) {
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

    /// Returns the number of instructions dispatched this cycle.
    ///
    /// Dispatch re-reads each instruction from the trace at `ifq_head`
    /// and rebuilds its [`DispatchInstr`] on the spot — everything the
    /// fetch stage knew is a pure function of the instruction's flags
    /// and its stream position: an entry is wrong-path iff it sits at or
    /// past the rewind cursor (fetch turns wrong-path mode on for the
    /// position *after* the mispredicted branch and recovery empties the
    /// queue before turning it off, so fetch-time and dispatch-time
    /// status agree), and the mode-triggering branch itself is exactly
    /// the entry just below the rewind cursor.
    fn dispatch(&mut self) -> u64 {
        let mut dispatched = 0;
        while self.ifq_head < self.cursor {
            if self.core.dispatch_blocked() {
                break;
            }
            let pos = self.ifq_head;
            let w = PackedInstr(self.words[pos]);
            let wrong_path = self.wrong_path.is_some_and(|rw| pos >= rw);
            let mispredict_marker = self.wrong_path == Some(pos + 1);
            let class = w.class();
            let mem = match (class, w.dmem(), wrong_path) {
                (ssim_isa::InstrClass::Load, Some(f), false) => Some(MemKind::Load {
                    latency: self.load_latency(f),
                }),
                // Wrong-path loads (or flag-less loads) behave as L1 hits.
                (ssim_isa::InstrClass::Load, _, _) => Some(MemKind::Load {
                    latency: 1 + self.cfg.lat.l1d_hit,
                }),
                (ssim_isa::InstrClass::Store, _, _) => Some(MemKind::Store),
                _ => None,
            };
            let di = DispatchInstr {
                class: Some(class),
                srcs: [None, None],
                dep_dists: w.dep_dists(),
                dest: None,
                mem,
                mem_dep_addr: None,
                branch: if mispredict_marker {
                    BranchResolution::Mispredict
                } else {
                    BranchResolution::None
                },
                wrong_path,
                anti_dep_dists: w.anti_dep_dists(),
            };
            match self.core.try_dispatch(di) {
                DispatchOutcome::Dispatched(seq) => {
                    dispatched += 1;
                    self.ifq_head += 1;
                    if w.branch().is_some() && !wrong_path {
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
        dispatched
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

    fn fetch(&mut self) {
        let now = self.core.now();
        if now < self.fetch_stall_until {
            self.ifq_meter.sample(self.ifq_len() as u64);
            return;
        }
        let mut budget = self.cfg.fetch_width();
        while budget > 0 && self.ifq_len() < self.cfg.ifq_size {
            let Some(&w) = self.words.get(self.cursor) else {
                break;
            };
            self.cursor += 1;
            let on_wrong_path = self.wrong_path.is_some();
            let stop = self.fetch_one(PackedInstr(w), on_wrong_path);
            budget -= 1;
            if stop {
                break;
            }
        }
        self.ifq_meter.sample(self.ifq_len() as u64);
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
            if let (ssim_isa::InstrClass::Load, Some(f)) = (w.class(), w.dmem()) {
                if f.l1_miss {
                    self.core.activity_mut().record(Unit::L2, now);
                }
                self.core.activity_mut().record(Unit::Dtlb, now);
            }
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
    use crate::synth::{BranchFlags, DataFlags};
    use ssim_isa::InstrClass;

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
