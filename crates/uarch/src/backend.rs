//! The shared out-of-order pipeline backend: dispatch, issue,
//! writeback, commit.
//!
//! [`Core`] models a SimpleScalar-style register update unit (RUU): a
//! unified issue window and reorder buffer, plus a load/store queue.
//! Dependencies are expressed either through architectural registers
//! (execution-driven simulation renames them internally, through
//! [`Core::try_dispatch`]) or through **dependency distances**
//! (synthetic trace simulation, §2.2 step 4 of the paper, through
//! [`Core::try_dispatch_dists`]); both resolve to producer *sequence
//! numbers* at dispatch and end in one routine that writes the window
//! entry.

use crate::activity::{ActivityCounters, Unit, UnitActivity};
use crate::config::MachineConfig;
use crate::result::OccupancyMeter;
use ssim_isa::{InstrClass, RegId};

/// Memory behaviour of a dispatched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// A load with its full execute latency (address generation +
    /// memory access) already resolved.
    Load {
        /// Total execute latency in cycles.
        latency: u64,
    },
    /// A store (executes as address generation; data is written to the
    /// cache at commit).
    Store,
}

/// How a control instruction resolves at writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchResolution {
    /// Not a branch, or predicted correctly: no pipeline action.
    #[default]
    None,
    /// Mispredicted: the core reports the branch's sequence number when
    /// it resolves so the driver can squash and redirect fetch.
    Mispredict,
}

/// One register-named instruction handed to the backend by
/// execution-driven simulation (see [`Core::try_dispatch`]; synthetic
/// traces dispatch by distance through [`Core::try_dispatch_dists`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchInstr {
    /// Semantic class (selects functional unit and latency).
    pub class: Option<InstrClass>,
    /// Architectural source registers.
    pub srcs: [Option<RegId>; 2],
    /// Architectural destination register.
    pub dest: Option<RegId>,
    /// Memory behaviour.
    pub mem: Option<MemKind>,
    /// Word-granularity effective address, for store→load dependence
    /// detection.
    pub mem_dep_addr: Option<u64>,
    /// Branch resolution behaviour at writeback.
    pub branch: BranchResolution,
    /// Whether this instruction is from a misspeculated path (occupies
    /// resources but never commits and never triggers recovery).
    pub wrong_path: bool,
}

/// Result of a dispatch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// Accepted; the instruction got this sequence number.
    Dispatched(u64),
    /// Structural stall: RUU (or LSQ, for memory operations) full.
    Stalled,
}

// Per-entry "hot words" — `state | pool << 2 | aux << 8` — the only
// per-entry data the issue scan touches until an instruction is
// actually ready (eight entries per cache line, one load and compare to
// skip). The aux field holds the memoised wakeup cycle while Waiting
// and the scheduled completion cycle while Issued.
const HOT_STATE: u64 = 0b11;
const HOT_WAITING: u64 = 0;
const HOT_ISSUED: u64 = 1;
const HOT_DONE: u64 = 2;
const HOT_POOL_SHIFT: u32 = 2;
const HOT_AUX_SHIFT: u32 = 8;

// Per-entry flag bits (the `flags` array), precomputed at dispatch so
// the issue/writeback/commit loops decide everything from one byte.
const F_WRONG_PATH: u8 = 1 << 0;
const F_MEM: u8 = 1 << 1;
const F_LOAD: u8 = 1 << 2;
const F_STORE: u8 = 1 << 3;
const F_DEST: u8 = 1 << 4;
/// Correct-path mispredicted branch: reports resolution at writeback.
const F_RESOLVES: u8 = 1 << 5;
const F_INT: u8 = 1 << 6;
const F_FP: u8 = 1 << 7;

/// Absent-dependency sentinel in the `deps` arrays (sequence numbers
/// stay far below it for any realistic run length).
const NO_SEQ: u64 = u64::MAX;

/// What an instruction class alone fixes on one machine: its FU pool,
/// its execute latency and its [`F_INT`]/[`F_FP`] bit. A memory
/// operation overrides the pool and the latency (see
/// [`Core::write_entry`]). [`Core::with_scratch`] builds one per class.
#[derive(Debug, Clone, Copy, Default)]
struct ClassInfo {
    pool: u64,
    lat: u64,
    unit: u8,
}

impl ClassInfo {
    fn new(cfg: &MachineConfig, class: InstrClass) -> Self {
        let lat = &cfg.lat;
        let (pool, lat) = match class {
            InstrClass::IntAlu | InstrClass::IntCondBranch | InstrClass::IndirectBranch => {
                (0, lat.int_alu)
            }
            InstrClass::Load | InstrClass::Store => (1, 1),
            InstrClass::IntMul => (2, lat.int_mul),
            InstrClass::IntDiv => (2, lat.int_div),
            InstrClass::FpAlu | InstrClass::FpCondBranch => (3, lat.fp_alu),
            InstrClass::FpMul => (4, lat.fp_mul),
            InstrClass::FpDiv => (4, lat.fp_div),
            InstrClass::FpSqrt => (4, lat.fp_sqrt),
        };
        let unit = match class {
            InstrClass::FpAlu
            | InstrClass::FpMul
            | InstrClass::FpDiv
            | InstrClass::FpSqrt
            | InstrClass::FpCondBranch => F_FP,
            InstrClass::Load | InstrClass::Store => 0,
            _ => F_INT,
        };
        ClassInfo { pool, lat, unit }
    }
}

/// Producer of the instruction `dist` positions before `seq` (synthetic
/// mode); distance zero means none.
#[inline]
fn dist_seq(seq: u64, dist: u32) -> u64 {
    if dist == 0 {
        NO_SEQ
    } else {
        enc(seq.checked_sub(u64::from(dist)))
    }
}

/// A window entry resolved by one of the two front halves
/// ([`Core::try_dispatch`], [`Core::try_dispatch_dists`]), ready for
/// [`Core::write_entry`].
struct NewEntry {
    /// `[dep0, dep1, waw, war, mem_dep]` producer sequence numbers.
    deps: [u64; 5],
    /// Index into [`Core::classes`] (`InstrClass::index`).
    class: usize,
    mem: Option<MemKind>,
    wrong_path: bool,
    /// A mispredicted branch (resolves at writeback unless wrong-path).
    mispredict: bool,
    /// Destination register dense index and its rename-map undo value.
    dest: Option<(u16, u64)>,
    /// Store address for store→load detection ([`NO_SEQ`] if none).
    mem_addr: u64,
    /// Register-file reads (source operands named by register).
    reg_reads: u64,
}

#[inline]
fn enc(seq: Option<u64>) -> u64 {
    seq.unwrap_or(NO_SEQ)
}

#[inline]
fn dec(seq: u64) -> Option<u64> {
    (seq != NO_SEQ).then_some(seq)
}

/// Completion timing-wheel size (a power of two): one slot per upcoming
/// cycle, so writeback drains exactly one slot per cycle instead of
/// paying heap maintenance per instruction. Latencies beyond one turn
/// are rare; their records re-arm each turn until due.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// Tag bit on a wheel record's sequence field marking a *wakeup* record
/// (re-admit a sleeping Waiting entry to the ready set) rather than a
/// completion record. Sequence numbers stay far below bit 63.
const REC_WAKE: u64 = 1 << 63;

/// How many values [`Core::counters`] returns.
pub const CORE_COUNTERS: usize = 4 + 2 * Unit::ALL.len();

/// Reusable working memory for [`Core`].
///
/// Sweeps build one core per design point; reusing the window arrays
/// and the completion wheel across points keeps the hot loop off the
/// allocator. Obtain one from [`Core::finish_reuse`] and hand it to the
/// next core via [`Core::with_scratch`].
#[derive(Debug, Default)]
pub struct CoreScratch {
    hot: Vec<u64>,
    lat: Vec<u64>,
    deps: Vec<[u64; 5]>,
    flags: Vec<u8>,
    dest: Vec<u16>,
    prev_writer: Vec<u64>,
    mem_addr: Vec<u64>,
    ready: Vec<u64>,
    wheel: Vec<Vec<(u64, u64)>>,
}

/// The out-of-order backend shared by execution-driven and synthetic
/// simulation.
///
/// The instruction window is stored structure-of-arrays: entries live
/// at `seq & mask` in parallel preallocated arrays (the window is at
/// most `ruu_size` wide and the capacity is the next power of two, so
/// live sequence numbers never collide). Commit and squash are pure
/// index arithmetic on the `front_seq..next_seq` window — no queue
/// churn, no per-entry moves — and the whole window footprint is a few
/// cache-resident kilobytes.
///
/// Drive it one cycle at a time:
///
/// 1. [`Core::cycle`] — writeback (wakeup), issue, commit; returns the
///    sequence number of a correct-path mispredicted branch that
///    resolved this cycle, if any;
/// 2. on a resolution, call [`Core::squash_after`] and redirect fetch;
/// 3. [`Core::try_dispatch`] (or [`Core::try_dispatch_dists`]) up to
///    `decode_width` instructions;
/// 4. [`Core::advance`] to start the next cycle.
#[derive(Debug, Clone)]
pub struct Core<'a> {
    cfg: &'a MachineConfig,
    /// Packed state words, indexed by `seq & mask` (see [`HOT_STATE`]).
    hot: Vec<u64>,
    /// Execute latency, resolved once at dispatch (after store→load
    /// forwarding may have rewritten the memory behaviour).
    lat: Vec<u64>,
    /// Producer sequence numbers per entry —
    /// `[dep0, dep1, waw, war, mem_dep]`, [`NO_SEQ`] when absent.
    /// Satisfied slots are destructively cleared by the issue scan.
    deps: Vec<[u64; 5]>,
    /// Per-entry flag byte (see [`F_MEM`] and friends).
    flags: Vec<u8>,
    /// Destination register dense index (valid when [`F_DEST`]).
    dest: Vec<u16>,
    /// Rename-map undo value for the destination ([`NO_SEQ`] = none).
    prev_writer: Vec<u64>,
    /// Store address for store→load dependence detection ([`NO_SEQ`]
    /// when absent or not a store).
    mem_addr: Vec<u64>,
    /// Index mask for all window arrays (capacity − 1).
    mask: u64,
    /// Per-class pool, latency and unit bit, indexed by
    /// `InstrClass::index`; fixed by the machine, built once per core.
    classes: [ClassInfo; InstrClass::ALL.len()],
    /// Dependency slots the issue probe reads: the two true
    /// dependences until some entry of this run fills a WAW, WAR or
    /// store→load slot, all five from then on. Every entry is written
    /// with all five slots, so while this is 2 the unread ones hold
    /// [`NO_SEQ`] and would probe as satisfied.
    live_slots: usize,
    /// Issued-but-not-complete instructions as `(done, seq)` records on
    /// a timing wheel indexed by `done & WHEEL_MASK`; writeback drains
    /// one slot per cycle. Records are validated lazily against the
    /// live entry (sequence numbers are reused after a squash).
    wheel: Vec<Vec<(u64, u64)>>,
    /// Occupancy bitmap over the timing wheel (one bit per slot): the
    /// quiet-cycle probe finds the next completion with a handful of
    /// word scans instead of walking 1024 slots. Bits are set on every
    /// arm and cleared when a drain leaves the slot empty; a stale bit
    /// (squashed record) costs one spurious wake, never a missed one.
    wheel_bits: [u64; WHEEL_SLOTS / 64],
    /// Ready bitmap (out-of-order configs): one bit per window slot,
    /// set when the entry is Waiting and its memoised wakeup has been
    /// reached — the only entries the issue scan examines. Blocked
    /// probes clear the bit and schedule a tagged wakeup record on the
    /// wheel, so sleeping entries cost nothing per cycle.
    ready: Vec<u64>,
    /// Whether the ready-bitmap scheduler is active (out-of-order
    /// issue). In-order pipes gate issue on the oldest Waiting entry —
    /// including sleeping ones — so they use a linear prefix scan.
    event_sched: bool,
    /// In-order scan hint: every entry below it is Issued or Done.
    first_waiting: usize,
    front_seq: u64,
    next_seq: u64,
    lsq_used: usize,
    /// Highest RUU and LSQ occupancy a capacity check has seen (see
    /// [`Core::peak_occupancy`]).
    peak_ruu: usize,
    peak_lsq: usize,
    dispatched_this_cycle: usize,
    cycle: u64,
    committed: u64,
    rename: [Option<u64>; RegId::DENSE_COUNT],
    last_reader: [Option<u64>; RegId::DENSE_COUNT],
    activity: ActivityCounters,
    ruu_meter: OccupancyMeter,
    lsq_meter: OccupancyMeter,
    /// `cycle()`'s verdict on the cycle it just ran: `0` if anything
    /// happened (writeback, issue or commit), otherwise the earliest
    /// future cycle at which the core could possibly act (see
    /// [`Core::quiet_until`]).
    quiet_until: u64,
}

impl<'a> Core<'a> {
    /// Creates an empty backend for `cfg`, borrowing the configuration
    /// for the core's lifetime (sweeps build thousands of cores per
    /// config; cloning the config per core was measurable).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(cfg: &'a MachineConfig) -> Self {
        Self::with_scratch(cfg, CoreScratch::default())
    }

    /// Like [`Core::new`], but reuses previously allocated working
    /// memory (see [`CoreScratch`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn with_scratch(cfg: &'a MachineConfig, scratch: CoreScratch) -> Self {
        cfg.validate();
        let CoreScratch {
            mut hot,
            mut lat,
            mut deps,
            mut flags,
            mut dest,
            mut prev_writer,
            mut mem_addr,
            mut ready,
            mut wheel,
        } = scratch;
        // Stale array contents need no clearing: every read is gated on
        // membership in the `front_seq..next_seq` window, and dispatch
        // rewrites an entry's slots before it can enter the window.
        let cap = cfg.ruu_size.next_power_of_two().max(64).max(hot.len());
        hot.resize(cap, 0);
        lat.resize(cap, 0);
        deps.resize(cap, [NO_SEQ; 5]);
        flags.resize(cap, 0);
        dest.resize(cap, 0);
        prev_writer.resize(cap, NO_SEQ);
        mem_addr.resize(cap, NO_SEQ);
        // A drained run always leaves the ready bitmap empty (issue and
        // squash both clear bits), so reuse needs no re-zeroing.
        ready.resize(cap / 64, 0);
        if wheel.len() != WHEEL_SLOTS {
            wheel = vec![Vec::new(); WHEEL_SLOTS];
        } else {
            for slot in &mut wheel {
                slot.clear();
            }
        }
        let mut classes = [ClassInfo::default(); InstrClass::ALL.len()];
        for class in InstrClass::ALL {
            classes[class.index()] = ClassInfo::new(cfg, class);
        }
        Core {
            cfg,
            hot,
            lat,
            deps,
            flags,
            dest,
            prev_writer,
            mem_addr,
            mask: cap as u64 - 1,
            classes,
            live_slots: 2,
            ready,
            event_sched: !cfg.in_order_issue,
            wheel,
            wheel_bits: [0; WHEEL_SLOTS / 64],
            first_waiting: 0,
            front_seq: 0,
            next_seq: 0,
            lsq_used: 0,
            peak_ruu: 0,
            peak_lsq: 0,
            dispatched_this_cycle: 0,
            cycle: 0,
            committed: 0,
            rename: [None; RegId::DENSE_COUNT],
            last_reader: [None; RegId::DENSE_COUNT],
            activity: ActivityCounters::new(),
            ruu_meter: OccupancyMeter::new(),
            lsq_meter: OccupancyMeter::new(),
            quiet_until: 0,
        }
    }

    /// Current cycle number.
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// Correct-path instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// In-flight instructions (RUU occupancy).
    pub fn in_flight(&self) -> usize {
        (self.next_seq - self.front_seq) as usize
    }

    /// Whether the backend holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.front_seq == self.next_seq
    }

    /// The highest `(RUU, LSQ)` occupancy that a capacity check of the
    /// dispatch stall test has seen; commits and squashes never lower
    /// it. The RUU is checked on every dispatch attempt that the decode
    /// width allows, the LSQ on such an attempt by a memory operation
    /// once the RUU check has passed.
    ///
    /// These checks are the only reads of the two capacities that can
    /// change the core's behaviour. So a core whose RUU peak is below
    /// `ruu_size` never stalled on a full RUU, and the same calls on a
    /// core with any RUU size above the peak take the same branch at
    /// every check; likewise for the LSQ. A peak equal to its capacity
    /// means that queue was found full. The per-cycle occupancy meters
    /// sample after commit, so they cannot stand in for this.
    pub fn peak_occupancy(&self) -> (usize, usize) {
        (self.peak_ruu, self.peak_lsq)
    }

    /// Returns [`Core::peak_occupancy`] and starts both peaks again from
    /// zero, so the next call covers only the checks in between.
    pub fn take_peak_occupancy(&mut self) -> (usize, usize) {
        let peak = self.peak_occupancy();
        (self.peak_ruu, self.peak_lsq) = (0, 0);
        peak
    }

    /// The core's additive counters, [`CORE_COUNTERS`] of them: the
    /// cycle, the committed instructions, the RUU and LSQ occupancy sums
    /// (one sample per cycle), then each unit's accesses and used cycles
    /// in [`Unit::ALL`] order. What a stretch of a run adds to them is
    /// their difference across it; [`Core::replay`] adds such a
    /// difference back.
    pub fn counters(&self) -> [u64; CORE_COUNTERS] {
        let mut c = [0; CORE_COUNTERS];
        c[0] = self.cycle;
        c[1] = self.committed;
        c[2] = self.ruu_meter.sum();
        c[3] = self.lsq_meter.sum();
        for (i, unit) in Unit::ALL.into_iter().enumerate() {
            let a = self.activity.unit(unit);
            c[4 + 2 * i] = a.accesses;
            c[5 + 2 * i] = a.used_cycles;
        }
        c
    }

    /// Moves an empty core over a stretch that a core driven by distance
    /// on the same machine simulated from an empty window at a cycle
    /// start, up to the next cycle start at which its window was empty:
    /// adds the stretch's counter differences `d` (see
    /// [`Core::counters`]), one occupancy sample per cycle, and moves the
    /// sequence numbers on by its commits.
    ///
    /// Nothing else carries over an empty window. Every earlier
    /// instruction has committed, so dependences reaching back past the
    /// stretch read as satisfied however far back they reach, and the
    /// per-cycle activity markers all name earlier cycles. What is left
    /// on the timing wheel belongs to committed instructions, whose
    /// sequence numbers never come back, or to squashed ones, whose
    /// records at most wake early an entry that reuses their sequence
    /// number, and its probe puts it back to sleep. The stretch's peaks
    /// are the caller's to keep.
    ///
    /// # Panics
    ///
    /// Panics if the window is not empty.
    pub fn replay(&mut self, d: &[u64; CORE_COUNTERS]) {
        assert!(self.is_empty(), "replay into an empty window");
        let (cycles, commits) = (d[0], d[1]);
        self.cycle += cycles;
        self.committed += commits;
        self.front_seq += commits;
        self.next_seq = self.front_seq;
        self.ruu_meter.add(d[2], cycles);
        self.lsq_meter.add(d[3], cycles);
        for (i, unit) in Unit::ALL.into_iter().enumerate() {
            let a = UnitActivity {
                accesses: d[4 + 2 * i],
                used_cycles: d[5 + 2 * i],
            };
            self.activity.add(unit, a);
        }
    }

    /// Instructions dispatched so far in the current cycle.
    pub fn dispatched(&self) -> usize {
        self.dispatched_this_cycle
    }

    /// Mutable access to the shared activity counters (the fetch-side
    /// driver records its own units here).
    pub fn activity_mut(&mut self) -> &mut ActivityCounters {
        &mut self.activity
    }

    /// Schedules a completion record on the timing wheel.
    #[inline]
    fn arm(&mut self, done: u64, seq: u64) {
        let slot = (done & WHEEL_MASK) as usize;
        self.wheel[slot].push((done, seq));
        self.wheel_bits[slot / 64] |= 1u64 << (slot % 64);
    }

    /// The next cycle strictly after `now` whose wheel slot holds any
    /// record (`u64::MAX` if the wheel is empty). A slot may hold only
    /// far-future records; waking on it is harmless — the drain re-arms
    /// them and the following probe looks further ahead.
    fn next_wheel_event(&self, now: u64) -> u64 {
        let start = ((now + 1) & WHEEL_MASK) as usize;
        let words = self.wheel_bits.len();
        let (w0, b0) = (start / 64, start % 64);
        let first = self.wheel_bits[w0] >> b0;
        if first != 0 {
            return now + 1 + u64::from(first.trailing_zeros());
        }
        for j in 1..=words {
            let w = self.wheel_bits[(w0 + j) % words];
            if w != 0 {
                let base = now + 1 + (64 - b0 as u64) + (j as u64 - 1) * 64;
                return base + u64::from(w.trailing_zeros());
            }
        }
        u64::MAX
    }

    /// If the cycle just run by [`Core::cycle`] was completely quiet —
    /// no writeback, no issue, no commit — returns a cycle strictly
    /// before which the core provably cannot act: the minimum of the
    /// next timing-wheel completion and the smallest memoised wakeup
    /// over the Waiting window (every Waiting entry's hot word is read
    /// by the scan whenever nothing issues, so the bound is exact and
    /// free). The driver may fast-forward to it with
    /// [`Core::skip_quiet`]; in the skipped cycles an unskipped run
    /// would memo-skip every entry and change nothing, so results stay
    /// bit-identical. `Some(u64::MAX)` means no event is pending at all.
    pub fn quiet_until(&self) -> Option<u64> {
        (self.quiet_until != 0).then_some(self.quiet_until)
    }

    /// Fast-forwards over `k` provably quiet cycles, recording the
    /// occupancy samples those cycles would have produced.
    pub fn skip_quiet(&mut self, k: u64) {
        self.ruu_meter.sample_n(self.in_flight() as u64, k);
        self.lsq_meter.sample_n(self.lsq_used as u64, k);
        self.cycle += k;
    }

    /// Records the per-unit activity of one instruction issuing.
    #[inline]
    fn issue_activity(&mut self, idx: usize, now: u64) {
        let f = self.flags[idx];
        self.activity.record(Unit::Issue, now);
        if f & F_MEM != 0 {
            self.activity.record(Unit::Lsq, now);
            if f & F_LOAD != 0 {
                self.activity.record(Unit::DCache, now);
            }
        }
        if f & F_FP != 0 {
            self.activity.record(Unit::FpAlu, now);
        } else if f & F_INT != 0 {
            self.activity.record(Unit::IntAlu, now);
        }
    }

    /// Probes one dependency slot: `None` if satisfied, otherwise a
    /// cycle before which it cannot possibly become satisfied. An
    /// issued producer completes exactly at its scheduled writeback. A
    /// still-waiting producer is older than its consumer, so the
    /// oldest-first scan already passed it this cycle and left it
    /// Waiting: it issues no earlier than `now + 1` — or than its own
    /// memoised wakeup — plus its execute latency. Chaining through the
    /// producer's wakeup propagates exact dependence-chain depths across
    /// the window in a single scan.
    #[inline]
    fn dep_bound(&self, seq: u64, now: u64) -> Option<u64> {
        if seq < self.front_seq || seq >= self.next_seq {
            // Absent, long committed, or produced by a squashed
            // instruction ([`NO_SEQ`] is above any live sequence).
            return None;
        }
        let idx = (seq & self.mask) as usize;
        let h = self.hot[idx];
        match h & HOT_STATE {
            HOT_DONE => None,
            HOT_ISSUED => Some(h >> HOT_AUX_SHIFT),
            _ => {
                let wake = h >> HOT_AUX_SHIFT;
                Some(wake.max(now + 1) + self.lat[idx].max(1))
            }
        }
    }

    /// Probes an entry's live dependency slots (see
    /// [`Core::live_slots`]): clears every satisfied slot for good and
    /// returns the largest bound of the unsatisfied ones, if any. `Done`
    /// is terminal until commit, and a producer is always older than its
    /// consumer, so no squash can remove one while its consumer
    /// survives.
    #[inline]
    fn probe(&self, slots: &mut [u64; 5], now: u64) -> Option<u64> {
        if self.live_slots == 2 {
            self.probe_first::<2>(slots, now)
        } else {
            self.probe_first::<5>(slots, now)
        }
    }

    #[inline(always)]
    fn probe_first<const N: usize>(&self, slots: &mut [u64; 5], now: u64) -> Option<u64> {
        let mut blocked = false;
        let mut bound = 0;
        for slot in &mut slots[..N] {
            match self.dep_bound(*slot, now) {
                None => *slot = NO_SEQ,
                Some(lb) => {
                    blocked = true;
                    bound = bound.max(lb);
                }
            }
        }
        blocked.then_some(bound)
    }

    /// Runs writeback, issue and commit for the current cycle.
    ///
    /// Returns the sequence number of the oldest correct-path
    /// mispredicted branch that resolved this cycle; the driver must
    /// respond with [`Core::squash_after`] and a fetch redirect.
    pub fn cycle(&mut self) -> Option<u64> {
        let now = self.cycle;
        let mut resolved: Option<u64> = None;
        let mut active = false;
        // Earliest cycle any currently-Waiting entry could issue; only
        // consulted when the whole cycle turns out quiet.
        let mut min_wake = u64::MAX;

        // ---- writeback: complete the executions falling due now.
        // The wheel slot for `now` holds every record scheduled for this
        // cycle. A record only completes an entry if that entry is still
        // live, still Issued, and carries this record's exact completion
        // time — anything else is a stale record for a squashed (and
        // possibly reused) sequence number, which its own record will
        // complete when it falls due. A record whose latency exceeded
        // one wheel turn lands here early and re-arms itself.
        let slot = (now & WHEEL_MASK) as usize;
        if !self.wheel[slot].is_empty() {
            let mut due = std::mem::take(&mut self.wheel[slot]);
            self.wheel_bits[slot / 64] &= !(1u64 << (slot % 64));
            for &(done, rec) in due.iter() {
                if done > now {
                    // Re-arms land in this same slot (done ≡ now mod
                    // the wheel size), one turn or more ahead.
                    self.arm(done, rec);
                    continue;
                }
                let seq = rec & !REC_WAKE;
                if seq < self.front_seq || seq >= self.next_seq {
                    continue;
                }
                let idx = (seq & self.mask) as usize;
                let h = self.hot[idx];
                if rec & REC_WAKE != 0 {
                    // Wakeup record: re-admit a sleeping entry to the
                    // ready set. A stale record (squashed-and-reused
                    // sequence number) at worst wakes an entry before
                    // its own record falls due; the probe re-blocks it.
                    // Setting a bit is not activity — the probe at this
                    // cycle decides whether anything actually issues.
                    if h & HOT_STATE == HOT_WAITING {
                        self.ready[idx / 64] |= 1u64 << (idx % 64);
                    }
                    continue;
                }
                if h & HOT_STATE != HOT_ISSUED || h >> HOT_AUX_SHIFT != done {
                    continue;
                }
                self.hot[idx] = HOT_DONE;
                active = true;
                let f = self.flags[idx];
                self.activity.record(Unit::Ruu, now);
                if f & F_DEST != 0 {
                    self.activity.record(Unit::RegFile, now);
                }
                if f & F_RESOLVES != 0 {
                    resolved = Some(resolved.map_or(seq, |r| r.min(seq)));
                }
            }
            due.clear();
            // Keep the allocation if nothing re-armed into this slot.
            if self.wheel[slot].is_empty() {
                self.wheel[slot] = due;
            }
        }

        // ---- issue: oldest-first selection under width and FU limits.
        let mut issued = 0;
        let mut fu_used = [0usize; 5];
        let fu_limits = [
            self.cfg.fu.int_alu,
            self.cfg.fu.ld_st,
            self.cfg.fu.int_muldiv,
            self.cfg.fu.fp_add,
            self.cfg.fu.fp_muldiv,
        ];
        if self.event_sched {
            // Event-driven selection: only ready entries are examined.
            // Bits are set at dispatch and by wakeup records falling
            // due; a blocked probe puts the entry to sleep — clears the
            // bit and schedules a wakeup at the probe's bound — so
            // stalled entries cost nothing per cycle. Every set bit
            // belongs to a live Waiting entry (issue, squash and wakeup
            // validation maintain this), and the window occupies a
            // contiguous circular index range, so scanning the bitmap
            // circularly from the window head visits entries in
            // sequence order: oldest-first priority is preserved.
            let words = self.ready.len();
            let front_idx = (self.front_seq & self.mask) as usize;
            let (w0, b0) = (front_idx / 64, front_idx % 64);
            'scan: for step in 0..=words {
                let w = (w0 + step) % words;
                let mut bits = self.ready[w];
                if step == 0 {
                    bits &= !0u64 << b0;
                } else if step == words {
                    // The wrapped-around remainder of the first word.
                    bits &= (1u64 << b0) - 1;
                }
                while bits != 0 {
                    if issued >= self.cfg.issue_width {
                        break 'scan;
                    }
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let idx = w * 64 + b;
                    let h = self.hot[idx];
                    debug_assert_eq!(h & HOT_STATE, HOT_WAITING);
                    let pool = ((h >> HOT_POOL_SHIFT) & 0x7) as usize;
                    if fu_used[pool] >= fu_limits[pool] {
                        // Keep the bit: with a zero-unit pool this is
                        // the only wake source, and re-examining every
                        // cycle preserves the deadlock watchdog.
                        min_wake = now + 1;
                        continue;
                    }
                    // Unsatisfied slots yield a completion lower bound.
                    let mut slots = self.deps[idx];
                    let blocked = self.probe(&mut slots, now);
                    let off = idx.wrapping_sub(front_idx) as u64 & self.mask;
                    let seq = self.front_seq + off;
                    if let Some(bound) = blocked {
                        // Sleep until the bound: clear the ready bit,
                        // memoise the bound (dependants chain through
                        // it) and schedule the wakeup.
                        self.ready[w] &= !(1u64 << b);
                        self.deps[idx] = slots;
                        self.hot[idx] = HOT_WAITING
                            | ((pool as u64) << HOT_POOL_SHIFT)
                            | (bound << HOT_AUX_SHIFT);
                        self.arm(bound, seq | REC_WAKE);
                        continue;
                    }
                    self.ready[w] &= !(1u64 << b);
                    let latency = self.lat[idx].max(1);
                    let done = now + latency;
                    self.hot[idx] =
                        HOT_ISSUED | ((pool as u64) << HOT_POOL_SHIFT) | (done << HOT_AUX_SHIFT);
                    self.arm(done, seq);
                    active = true;
                    issued += 1;
                    fu_used[pool] += 1;
                    self.issue_activity(idx, now);
                }
            }
        } else {
            // Program-order issue: the oldest Waiting entry gates all
            // younger ones — including entries the bitmap would have
            // asleep — so the in-order pipe scans linearly past the
            // Issued/Done prefix and stops at the first entry that
            // cannot issue.
            let len = self.in_flight();
            let mut i = self.first_waiting.min(len);
            while i < len && issued < self.cfg.issue_width {
                let idx = ((self.front_seq + i as u64) & self.mask) as usize;
                let h = self.hot[idx];
                if h & HOT_STATE != HOT_WAITING {
                    i += 1;
                    continue;
                }
                // Wakeup memo: an earlier probe proved this entry
                // cannot issue before the memoised cycle.
                if (h >> HOT_AUX_SHIFT) > now {
                    min_wake = min_wake.min(h >> HOT_AUX_SHIFT);
                    break;
                }
                let pool = ((h >> HOT_POOL_SHIFT) & 0x7) as usize;
                if fu_used[pool] >= fu_limits[pool] {
                    // Structural hazard stalls the in-order pipe.
                    min_wake = now + 1;
                    break;
                }
                let mut slots = self.deps[idx];
                if let Some(bound) = self.probe(&mut slots, now) {
                    min_wake = min_wake.min(bound);
                    self.deps[idx] = slots;
                    self.hot[idx] =
                        HOT_WAITING | ((pool as u64) << HOT_POOL_SHIFT) | (bound << HOT_AUX_SHIFT);
                    break;
                }
                let latency = self.lat[idx].max(1);
                let done = now + latency;
                self.hot[idx] =
                    HOT_ISSUED | ((pool as u64) << HOT_POOL_SHIFT) | (done << HOT_AUX_SHIFT);
                self.arm(done, self.front_seq + i as u64);
                active = true;
                issued += 1;
                fu_used[pool] += 1;
                self.issue_activity(idx, now);
                i += 1;
            }
            // Everything below the stopping point is Issued or Done.
            self.first_waiting = i;
        }

        // ---- commit: in-order retirement of completed instructions.
        let mut retired = 0;
        while retired < self.cfg.commit_width && self.front_seq < self.next_seq {
            let idx = (self.front_seq & self.mask) as usize;
            let f = self.flags[idx];
            // Wrong-path instructions never retire: when one reaches
            // the head, its mispredicted branch has already resolved
            // (same cycle) and the driver is about to squash it.
            if f & F_WRONG_PATH != 0 || self.hot[idx] & HOT_STATE != HOT_DONE {
                break;
            }
            if f & F_MEM != 0 {
                self.lsq_used -= 1;
            }
            if f & F_STORE != 0 {
                self.activity.record(Unit::DCache, now);
            }
            self.activity.record(Unit::Ruu, now);
            self.front_seq += 1;
            self.committed += 1;
            active = true;
            retired += 1;
        }
        self.first_waiting = self.first_waiting.saturating_sub(retired);

        self.quiet_until = if active {
            0
        } else {
            min_wake.min(self.next_wheel_event(now))
        };

        // ---- occupancy sampling.
        self.ruu_meter.sample(self.in_flight() as u64);
        self.lsq_meter.sample(self.lsq_used as u64);

        resolved
    }

    /// Whether a dispatch this cycle stalls: decode width or RUU used
    /// up, or, for a memory operation, a full LSQ. Each capacity check
    /// that runs raises its queue's peak (see [`Core::peak_occupancy`]).
    #[inline]
    fn dispatch_stalls(&mut self, is_mem: bool) -> bool {
        if self.dispatched_this_cycle >= self.cfg.decode_width {
            return true;
        }
        let ruu = self.in_flight();
        self.peak_ruu = self.peak_ruu.max(ruu);
        if ruu >= self.cfg.ruu_size {
            return true;
        }
        if is_mem {
            self.peak_lsq = self.peak_lsq.max(self.lsq_used);
            return self.lsq_used >= self.cfg.lsq_size;
        }
        false
    }

    /// Attempts to dispatch one register-named instruction into the
    /// RUU/LSQ (execution-driven simulation). Dependences resolve
    /// through the rename map; on machines without renaming, WAW and
    /// WAR hazards through the rename and last-reader tables; a load
    /// depends on the youngest in-flight store to its word.
    ///
    /// At most `decode_width` instructions are accepted per cycle;
    /// further attempts stall.
    pub fn try_dispatch(&mut self, instr: DispatchInstr) -> DispatchOutcome {
        if self.dispatch_stalls(instr.mem.is_some()) {
            return DispatchOutcome::Stalled;
        }
        let seq = self.next_seq;
        let mut deps = [NO_SEQ; 5];
        for (slot, src) in deps[..2].iter_mut().zip(instr.srcs) {
            *slot = src.map_or(NO_SEQ, |reg| enc(self.rename[reg.dense_index()]));
        }

        // WAW/WAR hazards (machines without register renaming): the
        // write must wait for the previous writer and the previous
        // readers of its destination.
        if self.cfg.model_anti_deps {
            if let Some(d) = instr.dest {
                deps[2] = enc(self.rename[d.dense_index()]); // WAW
                deps[3] = enc(self.last_reader[d.dense_index()]); // WAR
            }
            for src in instr.srcs.iter().flatten() {
                self.last_reader[src.dense_index()] = Some(seq);
            }
        }

        // Store→load memory dependence: a load depends on the youngest
        // older store to the same word that is still in flight, and
        // receives its value through the store buffer (forwarding) —
        // 1-cycle data latency instead of a cache access.
        let mut mem = instr.mem;
        if let (Some(MemKind::Load { .. }), Some(addr)) = (instr.mem, instr.mem_dep_addr) {
            let mut s = self.next_seq;
            while s > self.front_seq {
                s -= 1;
                let pi = (s & self.mask) as usize;
                if self.flags[pi] & F_STORE != 0 && self.mem_addr[pi] == addr {
                    mem = Some(MemKind::Load { latency: 2 });
                    if self.hot[pi] & HOT_STATE != HOT_DONE {
                        deps[4] = s;
                    }
                    break;
                }
            }
        }

        // Rename-map update with an undo log for squash recovery.
        let dest = instr.dest.map(|d| {
            let prev = enc(self.rename[d.dense_index()].replace(seq));
            (d.dense_index() as u16, prev)
        });
        let is_store = matches!(mem, Some(MemKind::Store));
        self.write_entry(NewEntry {
            deps,
            class: instr.class.unwrap_or(InstrClass::IntAlu).index(),
            mem,
            wrong_path: instr.wrong_path,
            mispredict: instr.branch == BranchResolution::Mispredict,
            dest,
            mem_addr: instr.mem_dep_addr.filter(|_| is_store).unwrap_or(NO_SEQ),
            reg_reads: instr.srcs.iter().flatten().count() as u64,
        })
    }

    /// Attempts to dispatch one synthetic-trace instruction into the
    /// RUU/LSQ. Operand *p* depends on the instruction `deps[p]`
    /// positions earlier in the dispatch stream; on machines that model
    /// register hazards (`MachineConfig::model_anti_deps`), the write
    /// also waits for the instructions `anti[0]` (WAW) and `anti[1]`
    /// (WAR) positions earlier. A distance of zero means none. `class`
    /// is the instruction's `InstrClass::index`; a load carries its
    /// resolved latency in `mem`. A `mispredict` branch that is not on
    /// the wrong path reports its resolution at writeback.
    ///
    /// At most `decode_width` instructions are accepted per cycle;
    /// further attempts stall.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class index.
    #[inline]
    pub fn try_dispatch_dists(
        &mut self,
        class: usize,
        deps: [u32; 2],
        anti: [u32; 2],
        mem: Option<MemKind>,
        wrong_path: bool,
        mispredict: bool,
    ) -> DispatchOutcome {
        if self.dispatch_stalls(mem.is_some()) {
            return DispatchOutcome::Stalled;
        }
        let seq = self.next_seq;
        let anti = if self.cfg.model_anti_deps {
            anti
        } else {
            [0, 0]
        };
        self.write_entry(NewEntry {
            deps: [
                dist_seq(seq, deps[0]),
                dist_seq(seq, deps[1]),
                dist_seq(seq, anti[0]),
                dist_seq(seq, anti[1]),
                NO_SEQ,
            ],
            class,
            mem,
            wrong_path,
            mispredict,
            dest: None,
            mem_addr: NO_SEQ,
            reg_reads: 0,
        })
    }

    /// Writes a resolved entry into the window at `next_seq` — the one
    /// place both front halves put an instruction into the RUU/LSQ —
    /// and charges its dispatch activity. The caller has checked that
    /// the dispatch does not stall.
    #[inline(always)]
    fn write_entry(&mut self, e: NewEntry) -> DispatchOutcome {
        let seq = self.next_seq;
        let now = self.cycle;
        let idx = (seq & self.mask) as usize;
        let info = self.classes[e.class];
        let (mem_flags, pool, lat) = match e.mem {
            Some(MemKind::Load { latency }) => (F_MEM | F_LOAD, 1, latency),
            Some(MemKind::Store) => (F_MEM | F_STORE, 1, 1),
            None => (0, info.pool, info.lat),
        };
        let mut f = info.unit | mem_flags;
        if e.wrong_path {
            f |= F_WRONG_PATH;
        } else if e.mispredict {
            f |= F_RESOLVES;
        }
        let (dest_idx, prev) = match e.dest {
            Some(d) => {
                f |= F_DEST;
                d
            }
            None => (0, NO_SEQ),
        };
        // All three hazard slots empty ANDs to NO_SEQ (all ones).
        if e.deps[2] & e.deps[3] & e.deps[4] != NO_SEQ {
            self.live_slots = 5;
        }

        self.first_waiting = self.first_waiting.min(self.in_flight());
        if self.event_sched {
            self.ready[idx / 64] |= 1u64 << (idx % 64);
        }
        self.hot[idx] = HOT_WAITING | (pool << HOT_POOL_SHIFT);
        self.lat[idx] = lat;
        self.deps[idx] = e.deps;
        self.flags[idx] = f;
        self.dest[idx] = dest_idx;
        self.prev_writer[idx] = prev;
        self.mem_addr[idx] = e.mem_addr;
        self.next_seq += 1;
        let is_mem = e.mem.is_some();
        if is_mem {
            self.lsq_used += 1;
        }
        self.dispatched_this_cycle += 1;
        self.activity.record(Unit::Dispatch, now);
        self.activity.record(Unit::Ruu, now);
        self.activity.record_n(Unit::RegFile, now, e.reg_reads);
        if is_mem {
            self.activity.record(Unit::Lsq, now);
        }
        DispatchOutcome::Dispatched(seq)
    }

    /// Squashes every instruction younger than `seq`, unwinding the
    /// rename map. Returns the number of squashed instructions.
    pub fn squash_after(&mut self, seq: u64) -> usize {
        let mut squashed = 0;
        while self.next_seq > seq + 1 && self.next_seq > self.front_seq {
            self.next_seq -= 1;
            let idx = (self.next_seq & self.mask) as usize;
            let f = self.flags[idx];
            if f & F_DEST != 0 {
                self.rename[self.dest[idx] as usize] = dec(self.prev_writer[idx]);
            }
            if f & F_MEM != 0 {
                self.lsq_used -= 1;
            }
            self.ready[idx / 64] &= !(1u64 << (idx % 64));
            squashed += 1;
        }
        self.first_waiting = self.first_waiting.min(self.in_flight());
        // Reader tracking must not survive the squash: sequence numbers
        // are reused, so a stale reader entry would alias a *future*
        // instruction and (under in-order issue) deadlock the pipe.
        // Only machines that model register hazards write the table.
        if self.cfg.model_anti_deps {
            for slot in &mut self.last_reader {
                if slot.is_some_and(|s| s > seq) {
                    *slot = None;
                }
            }
        }
        squashed
    }

    /// Advances to the next cycle.
    pub fn advance(&mut self) {
        self.cycle += 1;
        self.dispatched_this_cycle = 0;
    }

    /// Finalises counters and hands back activity + occupancy meters.
    pub fn finish(self) -> (ActivityCounters, OccupancyMeter, OccupancyMeter) {
        let (activity, ruu, lsq, _) = self.finish_reuse();
        (activity, ruu, lsq)
    }

    /// Like [`Core::finish`], but also returns the core's working
    /// memory for reuse by a later [`Core::with_scratch`].
    pub fn finish_reuse(
        mut self,
    ) -> (
        ActivityCounters,
        OccupancyMeter,
        OccupancyMeter,
        CoreScratch,
    ) {
        self.activity.set_cycles(self.cycle);
        (
            self.activity,
            self.ruu_meter,
            self.lsq_meter,
            CoreScratch {
                hot: self.hot,
                lat: self.lat,
                deps: self.deps,
                flags: self.flags,
                dest: self.dest,
                prev_writer: self.prev_writer,
                mem_addr: self.mem_addr,
                ready: self.ready,
                wheel: self.wheel,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MachineConfig {
        let mut c = MachineConfig::baseline();
        c.decode_width = 4;
        c.issue_width = 4;
        c.commit_width = 4;
        c.ruu_size = 8;
        c.lsq_size = 4;
        c
    }

    fn alu() -> DispatchInstr {
        DispatchInstr {
            class: Some(InstrClass::IntAlu),
            ..Default::default()
        }
    }

    fn alu_rw(dest: RegId, src: RegId) -> DispatchInstr {
        DispatchInstr {
            class: Some(InstrClass::IntAlu),
            srcs: [Some(src), None],
            dest: Some(dest),
            ..Default::default()
        }
    }

    /// Dispatches a correct-path instruction by distance.
    fn dists(
        core: &mut Core,
        class: InstrClass,
        deps: [u32; 2],
        anti: [u32; 2],
    ) -> DispatchOutcome {
        core.try_dispatch_dists(class.index(), deps, anti, None, false, false)
    }

    fn run_empty(core: &mut Core) -> u64 {
        let start = core.now();
        while !core.is_empty() {
            core.cycle();
            core.advance();
            assert!(core.now() - start < 10_000, "backend deadlocked");
        }
        core.now() - start
    }

    #[test]
    fn single_instruction_commits() {
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        assert!(matches!(
            core.try_dispatch(alu()),
            DispatchOutcome::Dispatched(0)
        ));
        run_empty(&mut core);
        assert_eq!(core.committed(), 1);
    }

    #[test]
    fn dependent_chain_serialises() {
        let r1 = RegId::Int(ssim_isa::Reg::R1);
        let r2 = RegId::Int(ssim_isa::Reg::R2);
        // Chain of 6 dependent 1-cycle ALU ops: takes ~6 cycles.
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        core.try_dispatch(alu_rw(r1, r2));
        for _ in 0..5 {
            core.advance();
            core.cycle();
            core.try_dispatch(alu_rw(r1, r1));
        }
        let cycles = run_empty(&mut core);
        assert_eq!(core.committed(), 6);
        assert!(cycles >= 2, "dependences must serialise execution");

        // Independent ops: finish much faster in a 4-wide core.
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        for _ in 0..4 {
            core.try_dispatch(alu());
        }
        let fast = run_empty(&mut core);
        assert!(fast <= cycles, "independent ops should not be slower");
        assert_eq!(core.committed(), 4);
    }

    #[test]
    fn decode_width_limits_dispatch() {
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        for i in 0..4 {
            assert!(
                matches!(core.try_dispatch(alu()), DispatchOutcome::Dispatched(s) if s == i),
                "first four dispatch"
            );
        }
        assert_eq!(core.try_dispatch(alu()), DispatchOutcome::Stalled);
        core.advance();
        assert!(matches!(
            core.try_dispatch(alu()),
            DispatchOutcome::Dispatched(4)
        ));
    }

    #[test]
    fn ruu_capacity_stalls_dispatch() {
        let mut cfg = small_cfg();
        cfg.ruu_size = 2;
        cfg.lsq_size = 2;
        let mut core = Core::new(&cfg);
        assert!(matches!(
            core.try_dispatch(alu()),
            DispatchOutcome::Dispatched(_)
        ));
        assert!(matches!(
            core.try_dispatch(alu()),
            DispatchOutcome::Dispatched(_)
        ));
        assert_eq!(core.try_dispatch(alu()), DispatchOutcome::Stalled);
    }

    #[test]
    fn lsq_capacity_stalls_memory_ops_only() {
        let mut cfg = small_cfg();
        cfg.lsq_size = 1;
        let mut core = Core::new(&cfg);
        let load = DispatchInstr {
            class: Some(InstrClass::Load),
            mem: Some(MemKind::Load { latency: 2 }),
            ..Default::default()
        };
        assert!(matches!(
            core.try_dispatch(load),
            DispatchOutcome::Dispatched(_)
        ));
        assert_eq!(core.try_dispatch(load), DispatchOutcome::Stalled);
        assert!(matches!(
            core.try_dispatch(alu()),
            DispatchOutcome::Dispatched(_)
        ));
    }

    #[test]
    fn long_latency_load_delays_commit() {
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        let load = DispatchInstr {
            class: Some(InstrClass::Load),
            mem: Some(MemKind::Load { latency: 150 }),
            ..Default::default()
        };
        core.try_dispatch(load);
        let cycles = run_empty(&mut core);
        assert!(cycles >= 150, "memory latency must show up, took {cycles}");
    }

    #[test]
    fn mispredicted_branch_reports_and_squash_cleans() {
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        let br = DispatchInstr {
            class: Some(InstrClass::IntCondBranch),
            branch: BranchResolution::Mispredict,
            ..Default::default()
        };
        let DispatchOutcome::Dispatched(bseq) = core.try_dispatch(br) else {
            panic!("dispatches")
        };
        // Wrong-path fill.
        let wp = DispatchInstr {
            class: Some(InstrClass::IntAlu),
            wrong_path: true,
            ..alu()
        };
        core.try_dispatch(wp);
        core.try_dispatch(wp);
        let mut resolved = None;
        for _ in 0..10 {
            if let Some(seq) = core.cycle() {
                resolved = Some(seq);
                break;
            }
            core.advance();
        }
        assert_eq!(resolved, Some(bseq));
        let squashed = core.squash_after(bseq);
        assert_eq!(squashed, 2);
        // The branch itself either committed in the resolving cycle or
        // is still in flight; either way only it retires.
        run_empty(&mut core);
        assert_eq!(core.committed(), 1);
    }

    #[test]
    fn squash_unwinds_rename_map() {
        let r1 = RegId::Int(ssim_isa::Reg::R1);
        let r9 = RegId::Int(ssim_isa::Reg::R9);
        let mut cfg = small_cfg();
        cfg.decode_width = 8;
        cfg.issue_width = 8;
        let mut core = Core::new(&cfg);
        // Producer of r1 (seq 0), then a "branch" (seq 1), then a
        // wrong-path overwrite of r1 (seq 2).
        core.try_dispatch(alu_rw(r1, r9));
        core.try_dispatch(alu());
        core.try_dispatch(DispatchInstr {
            wrong_path: true,
            ..alu_rw(r1, r9)
        });
        core.squash_after(1);
        // A new consumer of r1 must depend on seq 0, not on the squashed
        // seq 2 — which would otherwise alias the next dispatched seq.
        let DispatchOutcome::Dispatched(seq) = core.try_dispatch(alu_rw(r9, r1)) else {
            panic!("dispatches")
        };
        assert_eq!(seq, 2, "sequence numbers are reused after squash");
        // Drain: if the dep pointed at the squashed entry the consumer
        // would wait on itself and deadlock.
        run_empty(&mut core);
        assert_eq!(core.committed(), 3);
    }

    #[test]
    fn dep_distance_resolves_to_earlier_seq() {
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        // seq 0: long divide producing (synthetically) a value.
        dists(&mut core, InstrClass::IntDiv, [0, 0], [0, 0]);
        // seq 1: depends on distance 1 => seq 0.
        dists(&mut core, InstrClass::IntAlu, [1, 0], [0, 0]);
        let cycles = run_empty(&mut core);
        assert!(
            cycles >= 20,
            "consumer must wait for the divide, took {cycles}"
        );
    }

    #[test]
    fn store_to_load_same_word_serialises() {
        let r1 = RegId::Int(ssim_isa::Reg::R1);
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        let store = DispatchInstr {
            class: Some(InstrClass::Store),
            mem: Some(MemKind::Store),
            mem_dep_addr: Some(64),
            // Make the store wait on a divide so it stays not-done.
            srcs: [Some(r1), None],
            ..Default::default()
        };
        core.try_dispatch(DispatchInstr {
            class: Some(InstrClass::IntDiv),
            dest: Some(r1),
            ..Default::default()
        });
        core.try_dispatch(store);
        let load = DispatchInstr {
            class: Some(InstrClass::Load),
            mem: Some(MemKind::Load { latency: 2 }),
            mem_dep_addr: Some(64),
            ..Default::default()
        };
        core.try_dispatch(load);
        let cycles = run_empty(&mut core);
        assert!(
            cycles >= 20,
            "load must wait behind the aliasing store, took {cycles}"
        );
    }

    #[test]
    fn fu_pool_limits_throughput() {
        let mut cfg = small_cfg();
        cfg.decode_width = 8;
        cfg.issue_width = 8;
        cfg.ruu_size = 16;
        cfg.fu.fp_muldiv = 1;
        let mut core = Core::new(&cfg);
        for _ in 0..4 {
            core.try_dispatch(DispatchInstr {
                class: Some(InstrClass::FpDiv),
                ..Default::default()
            });
        }
        let cycles = run_empty(&mut core);
        // One fp divider: 4 divides must start on 4 different cycles.
        assert!(
            cycles >= 4 + 12,
            "pool limit must serialise issues, took {cycles}"
        );
    }

    #[test]
    fn in_order_issue_blocks_behind_the_head() {
        // Head: long divide. Behind it: an independent ALU op. Out of
        // order the ALU finishes early; in order it waits for the head
        // to issue first (same cycle is fine) but the *third* op behind
        // a stalled head must wait.
        let mut cfg = small_cfg();
        cfg.in_order_issue = true;
        let mut core = Core::new(&cfg);
        // A divide that waits on a (missing-producer) distance handled
        // as ready — instead make the second op depend on the divide so
        // the head is a genuine stall for op 3.
        dists(&mut core, InstrClass::IntDiv, [0, 0], [0, 0]);
        dists(&mut core, InstrClass::IntAlu, [1, 0], [0, 0]);
        core.try_dispatch(alu());
        let in_order_cycles = run_empty(&mut core);

        let ooo_cfg = small_cfg();
        let mut ooo = Core::new(&ooo_cfg);
        dists(&mut ooo, InstrClass::IntDiv, [0, 0], [0, 0]);
        dists(&mut ooo, InstrClass::IntAlu, [1, 0], [0, 0]);
        ooo.try_dispatch(alu());
        let ooo_cycles = run_empty(&mut ooo);
        assert!(
            in_order_cycles >= ooo_cycles,
            "{in_order_cycles} < {ooo_cycles}"
        );
    }

    #[test]
    fn waw_hazard_serialises_without_renaming() {
        let r1 = RegId::Int(ssim_isa::Reg::R1);
        let r2 = RegId::Int(ssim_isa::Reg::R2);
        let run = |anti: bool| -> u64 {
            let mut cfg = small_cfg();
            cfg.model_anti_deps = anti;
            let mut core = Core::new(&cfg);
            // Divide writing r1, then an independent ALU also writing r1:
            // with renaming they overlap; without, WAW serialises.
            core.try_dispatch(DispatchInstr {
                class: Some(InstrClass::IntDiv),
                dest: Some(r1),
                srcs: [Some(r2), None],
                ..Default::default()
            });
            core.try_dispatch(DispatchInstr {
                class: Some(InstrClass::IntAlu),
                dest: Some(r1),
                srcs: [Some(r2), None],
                ..Default::default()
            });
            run_empty(&mut core)
        };
        assert!(
            run(true) > run(false),
            "WAW must cost cycles without renaming"
        );
    }

    #[test]
    fn war_hazard_serialises_without_renaming() {
        let r1 = RegId::Int(ssim_isa::Reg::R1);
        let r3 = RegId::Int(ssim_isa::Reg::R3);
        let run = |anti: bool| -> u64 {
            let mut cfg = small_cfg();
            cfg.model_anti_deps = anti;
            let mut core = Core::new(&cfg);
            // A slow reader of r1 followed by a writer of r1 (WAR).
            core.try_dispatch(DispatchInstr {
                class: Some(InstrClass::IntDiv),
                dest: Some(r3),
                srcs: [Some(r1), None],
                ..Default::default()
            });
            core.try_dispatch(DispatchInstr {
                class: Some(InstrClass::IntAlu),
                dest: Some(r1),
                ..Default::default()
            });
            run_empty(&mut core)
        };
        assert!(
            run(true) > run(false),
            "WAR must cost cycles without renaming"
        );
    }

    /// On a machine that models register hazards, a squash forgets the
    /// squashed readers: the next writer of their register reuses a
    /// squashed reader's sequence number and would otherwise wait on
    /// itself.
    #[test]
    fn squash_forgets_squashed_readers() {
        let r1 = RegId::Int(ssim_isa::Reg::R1);
        let r2 = RegId::Int(ssim_isa::Reg::R2);
        let mut cfg = small_cfg();
        cfg.model_anti_deps = true;
        let mut core = Core::new(&cfg);
        core.try_dispatch(alu());
        core.try_dispatch(DispatchInstr {
            wrong_path: true,
            ..alu_rw(r2, r1)
        });
        assert_eq!(core.squash_after(0), 1);
        assert_eq!(
            core.try_dispatch(alu_rw(r1, r2)),
            DispatchOutcome::Dispatched(1)
        );
        run_empty(&mut core);
        assert_eq!(core.committed(), 2);
    }

    #[test]
    fn synthetic_anti_dep_distances_serialise() {
        let mut cfg = small_cfg();
        cfg.model_anti_deps = true;
        let mut core = Core::new(&cfg);
        dists(&mut core, InstrClass::IntDiv, [0, 0], [0, 0]);
        dists(&mut core, InstrClass::IntAlu, [0, 0], [1, 0]);
        let cycles = run_empty(&mut core);
        assert!(
            cycles >= 20,
            "synthetic WAW distance must bind, took {cycles}"
        );
    }

    /// Peaks are the occupancies the capacity checks saw, which can stay
    /// below what a dispatch leaves: the RUU is checked on every attempt
    /// the decode width lets through, the LSQ on such an attempt by a
    /// memory operation once the RUU check has passed. A peak reaches
    /// its capacity only at a check that finds the queue full.
    #[test]
    fn peak_occupancy_tracks_what_the_checks_saw() {
        let cfg = small_cfg(); // decode width 4, RUU 8, LSQ 4
        let load = DispatchInstr {
            class: Some(InstrClass::Load),
            mem: Some(MemKind::Load { latency: 150 }),
            ..Default::default()
        };
        let store = DispatchInstr {
            class: Some(InstrClass::Store),
            mem: Some(MemKind::Store),
            ..Default::default()
        };
        let dispatch = |core: &mut Core, i: DispatchInstr| {
            assert!(matches!(
                core.try_dispatch(i),
                DispatchOutcome::Dispatched(_)
            ));
        };
        let next_cycle = |core: &mut Core| {
            core.cycle();
            core.advance();
        };

        let mut core = Core::new(&cfg);
        assert_eq!(core.peak_occupancy(), (0, 0));
        // Cycle 0: a long load at the head keeps everything behind it
        // from committing. Each check sees the occupancy before its
        // dispatch: the RUU checks 0 to 3, the LSQ checks 0, 1 and 2.
        for i in [load, alu(), store, load] {
            dispatch(&mut core, i);
        }
        assert_eq!((core.in_flight(), core.peak_occupancy()), (4, (3, 2)));
        // A fifth attempt stalls on the decode width before either
        // capacity check.
        assert_eq!(core.try_dispatch(load), DispatchOutcome::Stalled);
        assert_eq!(core.peak_occupancy(), (3, 2));
        next_cycle(&mut core);
        dispatch(&mut core, alu());
        dispatch(&mut core, alu());
        assert_eq!(core.peak_occupancy(), (5, 2));
        // Squashing the four youngest (a store and a load among them)
        // leaves the peaks where they were, and so do checks below them.
        assert_eq!(core.squash_after(1), 4);
        dispatch(&mut core, load);
        dispatch(&mut core, store);
        assert_eq!((core.in_flight(), core.peak_occupancy()), (4, (5, 2)));
        next_cycle(&mut core);
        for i in [alu(), alu(), alu(), load] {
            dispatch(&mut core, i);
        }
        assert_eq!((core.in_flight(), core.peak_occupancy()), (8, (7, 3)));
        // The next check finds the RUU full: its peak reaches the
        // capacity, and the LSQ (full too, at 4) goes unchecked.
        next_cycle(&mut core);
        assert_eq!(core.try_dispatch(load), DispatchOutcome::Stalled);
        assert_eq!(core.peak_occupancy(), (8, 3));
        // Commits drain the window; the peaks stay.
        run_empty(&mut core);
        assert_eq!(core.committed(), 8);
        assert_eq!(core.peak_occupancy(), (8, 3));

        // With room in the RUU, a memory operation's check finds the
        // LSQ full.
        let mut core = Core::new(&cfg);
        for _ in 0..4 {
            dispatch(&mut core, load);
        }
        next_cycle(&mut core);
        assert_eq!(core.try_dispatch(store), DispatchOutcome::Stalled);
        assert_eq!(core.peak_occupancy(), (4, 4));
    }

    /// A core that replays a stretch another core simulated from the
    /// same empty state ends with the same counters and goes on alike;
    /// the stretch's peaks stay with the caller.
    #[test]
    fn replay_adds_what_a_stretch_added() {
        let cfg = small_cfg();
        let load = MemKind::Load { latency: 30 };
        let stretch = |core: &mut Core| {
            dists(core, InstrClass::IntDiv, [0, 0], [0, 0]);
            core.try_dispatch_dists(
                InstrClass::Load.index(),
                [1, 0],
                [0, 0],
                Some(load),
                false,
                false,
            );
            dists(core, InstrClass::IntAlu, [1, 0], [0, 0]);
            run_empty(core);
        };
        let (mut a, mut b) = (Core::new(&cfg), Core::new(&cfg));
        stretch(&mut a);
        stretch(&mut b);
        assert_eq!(a.take_peak_occupancy(), (2, 0));
        b.take_peak_occupancy();
        let before = a.counters();
        stretch(&mut a);
        let mut d = a.counters();
        for (d, b) in d.iter_mut().zip(before) {
            *d -= b;
        }
        assert_eq!((d[1], a.take_peak_occupancy()), (3, (2, 0)));
        b.replay(&d);
        assert_eq!(b.counters(), a.counters());
        assert_eq!(b.peak_occupancy(), (0, 0));
        for core in [&mut a, &mut b] {
            assert_eq!(
                dists(core, InstrClass::IntAlu, [2, 0], [0, 0]),
                DispatchOutcome::Dispatched(6)
            );
            run_empty(core);
        }
        assert_eq!(a.counters(), b.counters());
        let (a, b) = (a.finish(), b.finish());
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_meters_accumulate() {
        let cfg = small_cfg();
        let mut core = Core::new(&cfg);
        core.try_dispatch(alu());
        run_empty(&mut core);
        let (activity, ruu, _lsq) = core.finish();
        assert!(ruu.mean() > 0.0);
        assert!(activity.unit(Unit::Dispatch).accesses == 1);
        assert!(
            activity.unit(Unit::Ruu).accesses >= 2,
            "dispatch + writeback + commit"
        );
    }
}
