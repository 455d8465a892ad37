//! Frozen reference trace simulator — the executable specification for
//! the optimised engine in `ssim_core`'s `tracesim` module.
//!
//! This module is a deliberate, self-contained copy of the synthetic
//! trace simulator *as it stood before the fused generate-and-simulate
//! engine landed*: a straightforward `VecDeque` RUU with full writeback
//! and issue scans every cycle, driven by a materialised
//! [`SyntheticTrace`] unpacked into an owned `Vec` of instructions. It
//! plays the same role for the simulator that `reference.rs` plays for
//! the compiled sampler: slow, obvious, and trusted. The equivalence
//! suite asserts that the optimised unfused and fused paths produce a
//! bit-identical [`SimResult`].
//!
//! Do not optimise this module. Only touch it when the *modelled
//! machine* changes, and change `tracesim` in lockstep.
//!
//! Only the synthetic-mode subset of the backend is reproduced here:
//! dependencies arrive as distances (never architectural registers),
//! instructions carry no destination registers, and loads never alias
//! stores by address — so the rename map, last-reader tracking and
//! store→load forwarding scan of `ssim_uarch::Core` are structurally
//! dead and omitted. The emitted activity records are identical.
//!
//! Unlike the production path this module records no observability
//! metrics; `SimResult` is unaffected.

use ssim_core::{DataFlags, SyntheticInstr, SyntheticOutcome, SyntheticTrace};
use ssim_isa::InstrClass;
use ssim_uarch::{
    ActivityCounters, BranchResolution, BranchStats, MachineConfig, MemKind, OccupancyMeter,
    SimResult, Unit,
};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Issued { done: u64 },
    Done,
}

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    class: InstrClass,
    deps: [Option<u64>; 2],
    anti_deps: [Option<u64>; 2],
    mem: Option<MemKind>,
    state: State,
    branch: BranchResolution,
    wrong_path: bool,
}

/// Synthetic-mode instruction handed to the reference backend.
#[derive(Debug, Clone, Copy)]
struct RefDispatch {
    class: InstrClass,
    dep_dists: [Option<u32>; 2],
    anti_dep_dists: [Option<u32>; 2],
    mem: Option<MemKind>,
    branch: BranchResolution,
    wrong_path: bool,
}

/// The pre-optimisation out-of-order backend: full scans every cycle.
struct RefCore<'a> {
    cfg: &'a MachineConfig,
    entries: VecDeque<Entry>,
    front_seq: u64,
    next_seq: u64,
    lsq_used: usize,
    dispatched_this_cycle: usize,
    cycle: u64,
    committed: u64,
    activity: ActivityCounters,
    ruu_meter: OccupancyMeter,
    lsq_meter: OccupancyMeter,
}

impl<'a> RefCore<'a> {
    fn new(cfg: &'a MachineConfig) -> Self {
        cfg.validate();
        RefCore {
            cfg,
            entries: VecDeque::with_capacity(cfg.ruu_size),
            front_seq: 0,
            next_seq: 0,
            lsq_used: 0,
            dispatched_this_cycle: 0,
            cycle: 0,
            committed: 0,
            activity: ActivityCounters::new(),
            ruu_meter: OccupancyMeter::new(),
            lsq_meter: OccupancyMeter::new(),
        }
    }

    fn now(&self) -> u64 {
        self.cycle
    }

    fn committed(&self) -> u64 {
        self.committed
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn execute_latency(&self, e: &Entry) -> u64 {
        let lat = &self.cfg.lat;
        match e.mem {
            Some(MemKind::Load { latency }) => latency,
            Some(MemKind::Store) => 1,
            None => match e.class {
                InstrClass::IntAlu | InstrClass::IntCondBranch | InstrClass::IndirectBranch => {
                    lat.int_alu
                }
                InstrClass::IntMul => lat.int_mul,
                InstrClass::IntDiv => lat.int_div,
                InstrClass::FpAlu | InstrClass::FpCondBranch => lat.fp_alu,
                InstrClass::FpMul => lat.fp_mul,
                InstrClass::FpDiv => lat.fp_div,
                InstrClass::FpSqrt => lat.fp_sqrt,
                InstrClass::Load | InstrClass::Store => 1,
            },
        }
    }

    fn fu_pool(class: InstrClass, mem: Option<MemKind>) -> usize {
        if mem.is_some() {
            return 1; // load/store ports
        }
        match class {
            InstrClass::Load | InstrClass::Store => 1,
            InstrClass::IntAlu | InstrClass::IntCondBranch | InstrClass::IndirectBranch => 0,
            InstrClass::IntMul | InstrClass::IntDiv => 2,
            InstrClass::FpAlu | InstrClass::FpCondBranch => 3,
            InstrClass::FpMul | InstrClass::FpDiv | InstrClass::FpSqrt => 4,
        }
    }

    fn dep_satisfied(&self, dep: Option<u64>) -> bool {
        match dep {
            None => true,
            Some(seq) => {
                if seq < self.front_seq {
                    return true; // committed (or squashed) long ago
                }
                match self.entries.get((seq - self.front_seq) as usize) {
                    Some(e) => e.state == State::Done,
                    None => true, // produced by a squashed instruction
                }
            }
        }
    }

    fn cycle(&mut self) -> Option<u64> {
        let now = self.cycle;
        let mut resolved = None;

        // ---- writeback: complete finished executions, wake dependents.
        for i in 0..self.entries.len() {
            let e = &mut self.entries[i];
            if let State::Issued { done } = e.state {
                if done <= now {
                    e.state = State::Done;
                    self.activity.record(Unit::Ruu, now);
                    if e.branch == BranchResolution::Mispredict && !e.wrong_path {
                        resolved.get_or_insert(e.seq);
                    }
                }
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
        for i in 0..self.entries.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            let e = &self.entries[i];
            if e.state != State::Waiting {
                continue;
            }
            let pool = Self::fu_pool(e.class, e.mem);
            if fu_used[pool] >= fu_limits[pool] {
                if self.cfg.in_order_issue {
                    break; // structural hazard stalls an in-order pipe
                }
                continue;
            }
            if !(self.dep_satisfied(e.deps[0])
                && self.dep_satisfied(e.deps[1])
                && self.dep_satisfied(e.anti_deps[0])
                && self.dep_satisfied(e.anti_deps[1]))
            {
                if self.cfg.in_order_issue {
                    break; // program-order issue: stall behind the head
                }
                continue;
            }
            let latency = self.execute_latency(e);
            let class = e.class;
            let is_mem = e.mem.is_some();
            let is_load = matches!(e.mem, Some(MemKind::Load { .. }));
            let e = &mut self.entries[i];
            e.state = State::Issued {
                done: now + latency,
            };
            issued += 1;
            fu_used[pool] += 1;
            self.activity.record(Unit::Issue, now);
            if is_mem {
                self.activity.record(Unit::Lsq, now);
                if is_load {
                    self.activity.record(Unit::DCache, now);
                }
            }
            match class {
                InstrClass::FpAlu
                | InstrClass::FpMul
                | InstrClass::FpDiv
                | InstrClass::FpSqrt
                | InstrClass::FpCondBranch => self.activity.record(Unit::FpAlu, now),
                InstrClass::Load | InstrClass::Store => {}
                _ => self.activity.record(Unit::IntAlu, now),
            }
        }

        // ---- commit: in-order retirement of completed instructions.
        let mut retired = 0;
        while retired < self.cfg.commit_width {
            match self.entries.front() {
                Some(e) if e.wrong_path => break,
                Some(e) if e.state == State::Done => {
                    let is_store = matches!(e.mem, Some(MemKind::Store));
                    let is_mem = e.mem.is_some();
                    let e = self.entries.pop_front().expect("front exists");
                    self.front_seq = e.seq + 1;
                    if is_mem {
                        self.lsq_used -= 1;
                    }
                    if is_store {
                        self.activity.record(Unit::DCache, now);
                    }
                    self.activity.record(Unit::Ruu, now);
                    self.committed += 1;
                    retired += 1;
                }
                _ => break,
            }
        }

        // ---- occupancy sampling.
        self.ruu_meter.sample(self.entries.len() as u64);
        self.lsq_meter.sample(self.lsq_used as u64);

        resolved
    }

    fn try_dispatch(&mut self, instr: RefDispatch) -> Option<u64> {
        if self.dispatched_this_cycle >= self.cfg.decode_width {
            return None;
        }
        if self.entries.len() >= self.cfg.ruu_size {
            return None;
        }
        let is_mem = instr.mem.is_some();
        if is_mem && self.lsq_used >= self.cfg.lsq_size {
            return None;
        }
        let seq = self.next_seq;
        let now = self.cycle;

        let mut deps = [None, None];
        for (p, slot) in deps.iter_mut().enumerate() {
            *slot = match instr.dep_dists[p] {
                Some(0) | None => None,
                Some(dist) => seq.checked_sub(u64::from(dist)),
            };
        }

        let mut anti_deps = [None, None];
        if self.cfg.model_anti_deps {
            for (i, slot) in anti_deps.iter_mut().enumerate() {
                *slot = match instr.anti_dep_dists[i] {
                    Some(0) | None => None,
                    Some(dist) => seq.checked_sub(u64::from(dist)),
                };
            }
        }

        self.entries.push_back(Entry {
            seq,
            class: instr.class,
            deps,
            anti_deps,
            mem: instr.mem,
            state: State::Waiting,
            branch: instr.branch,
            wrong_path: instr.wrong_path,
        });
        self.next_seq += 1;
        if is_mem {
            self.lsq_used += 1;
        }
        self.dispatched_this_cycle += 1;
        self.activity.record(Unit::Dispatch, now);
        self.activity.record(Unit::Ruu, now);
        if is_mem {
            self.activity.record(Unit::Lsq, now);
        }
        Some(seq)
    }

    fn squash_after(&mut self, seq: u64) -> usize {
        let mut squashed = 0;
        while let Some(back) = self.entries.back() {
            if back.seq <= seq {
                break;
            }
            let e = self.entries.pop_back().expect("back exists");
            if e.mem.is_some() {
                self.lsq_used -= 1;
            }
            squashed += 1;
        }
        self.next_seq = seq + 1;
        squashed
    }

    fn advance(&mut self) {
        self.cycle += 1;
        self.dispatched_this_cycle = 0;
    }

    fn finish(mut self) -> (ActivityCounters, OccupancyMeter, OccupancyMeter) {
        self.activity.set_cycles(self.cycle);
        (self.activity, self.ruu_meter, self.lsq_meter)
    }
}

#[derive(Debug, Clone, Copy)]
struct IfqEntry {
    di: RefDispatch,
    is_branch: bool,
    mispredict_marker: bool,
}

struct RefTraceSim<'a> {
    cfg: &'a MachineConfig,
    trace: Vec<SyntheticInstr>,
    cursor: usize,
    core: RefCore<'a>,
    ifq: VecDeque<IfqEntry>,
    ifq_meter: OccupancyMeter,
    branch_stats: BranchStats,
    fetch_stall_until: u64,
    wrong_path: Option<usize>,
    pending_seq: Option<u64>,
}

impl<'a> RefTraceSim<'a> {
    fn new(trace: &SyntheticTrace, cfg: &'a MachineConfig) -> Self {
        RefTraceSim {
            cfg,
            trace: trace.instrs().collect(),
            cursor: 0,
            core: RefCore::new(cfg),
            ifq: VecDeque::with_capacity(cfg.ifq_size),
            ifq_meter: OccupancyMeter::new(),
            branch_stats: BranchStats::default(),
            fetch_stall_until: 0,
            wrong_path: None,
            pending_seq: None,
        }
    }

    fn run(mut self) -> SimResult {
        let target = self.trace.len() as u64;
        let mut last_progress = (0u64, 0u64);
        loop {
            let committed = self.core.committed();
            if committed >= target
                || (self.cursor >= self.trace.len()
                    && self.core.is_empty()
                    && self.ifq.is_empty()
                    && self.wrong_path.is_none())
            {
                break;
            }
            if let Some(seq) = self.core.cycle() {
                self.recover(seq);
            }
            self.dispatch();
            self.fetch();
            self.core.advance();

            let now = self.core.now();
            if committed > last_progress.1 {
                last_progress = (now, committed);
            }
            assert!(
                now - last_progress.0 < 500_000,
                "reference pipeline deadlock at cycle {now} (committed {committed})"
            );
        }
        let cycles = self.core.now().max(1);
        let instructions = self.core.committed();
        let (mut activity, ruu, lsq) = self.core.finish();
        activity.set_cycles(cycles);
        SimResult {
            instructions,
            cycles,
            ruu_occupancy: ruu.mean(),
            lsq_occupancy: lsq.mean(),
            ifq_occupancy: self.ifq_meter.mean(),
            branch: self.branch_stats,
            cache: Default::default(),
            activity,
        }
    }

    fn recover(&mut self, seq: u64) {
        debug_assert_eq!(self.pending_seq, Some(seq));
        self.pending_seq = None;
        self.core.squash_after(seq);
        self.ifq.clear();
        self.cursor = self
            .wrong_path
            .take()
            .expect("resolution implies wrong-path mode");
        self.fetch_stall_until = self.core.now() + self.cfg.redirect_latency;
    }

    fn dispatch(&mut self) {
        while let Some(entry) = self.ifq.front() {
            match self.core.try_dispatch(entry.di) {
                Some(seq) => {
                    let entry = self.ifq.pop_front().expect("front exists");
                    if entry.is_branch && !entry.di.wrong_path {
                        let now = self.core.now();
                        self.core.activity.record(Unit::Bpred, now);
                    }
                    if entry.mispredict_marker {
                        self.pending_seq = Some(seq);
                    }
                }
                None => break,
            }
        }
    }

    fn load_latency(&self, f: DataFlags) -> u64 {
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
            self.ifq_meter.sample(self.ifq.len() as u64);
            return;
        }
        let mut budget = self.cfg.fetch_width();
        while budget > 0 && self.ifq.len() < self.cfg.ifq_size {
            let Some(instr) = self.trace.get(self.cursor).copied() else {
                break;
            };
            self.cursor += 1;
            let on_wrong_path = self.wrong_path.is_some();
            let stop = self.fetch_one(&instr, on_wrong_path);
            budget -= 1;
            if stop {
                break;
            }
        }
        self.ifq_meter.sample(self.ifq.len() as u64);
    }

    fn fetch_one(&mut self, instr: &SyntheticInstr, wrong_path: bool) -> bool {
        let now = self.core.now();
        self.core.activity.record(Unit::Fetch, now);
        let mut stop = false;

        if !wrong_path {
            self.core.activity.record(Unit::ICache, now);
            self.core.activity.record(Unit::Itlb, now);
            let mut stall = 0;
            if instr.l1i_miss {
                self.core.activity.record(Unit::L2, now);
                stall += if instr.l2i_miss {
                    self.cfg.lat.mem
                } else {
                    self.cfg.lat.l2_hit
                };
            }
            if instr.itlb_miss {
                stall += self.cfg.lat.tlb_miss;
            }
            if stall > 0 {
                self.fetch_stall_until = now + stall;
                stop = true;
            }
        }

        let mem = match (instr.class, instr.dmem, wrong_path) {
            (InstrClass::Load, Some(f), false) => {
                if f.l1_miss {
                    self.core.activity.record(Unit::L2, now);
                }
                self.core.activity.record(Unit::Dtlb, now);
                Some(MemKind::Load {
                    latency: self.load_latency(f),
                })
            }
            (InstrClass::Load, _, _) => Some(MemKind::Load {
                latency: 1 + self.cfg.lat.l1d_hit,
            }),
            (InstrClass::Store, _, _) => Some(MemKind::Store),
            _ => None,
        };

        let mut di = RefDispatch {
            class: instr.class,
            dep_dists: instr.dep,
            anti_dep_dists: instr.anti_dep,
            mem,
            branch: BranchResolution::None,
            wrong_path,
        };

        let mut mispredict_marker = false;
        let is_branch = instr.branch.is_some();
        if let Some(b) = instr.branch {
            self.core.activity.record(Unit::Bpred, now);
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
                        di.branch = BranchResolution::Mispredict;
                        mispredict_marker = true;
                        self.wrong_path = Some(self.cursor);
                        stop = true;
                    }
                }
            } else if b.taken {
                stop = true;
            }
        }

        self.ifq.push_back(IfqEntry {
            di,
            is_branch,
            mispredict_marker,
        });
        stop
    }
}

/// Simulates a synthetic trace on the frozen pre-optimisation pipeline
/// model. Slow and obvious by design; see the module docs.
///
/// # Panics
///
/// Panics if the machine configuration is invalid or the pipeline
/// stops making forward progress.
pub fn simulate_trace_reference(trace: &SyntheticTrace, cfg: &MachineConfig) -> SimResult {
    cfg.validate();
    RefTraceSim::new(trace, cfg).run()
}
