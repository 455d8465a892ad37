//! The execution-driven simulator (EDS) — the reference machine.

use crate::activity::Unit;
use crate::backend::{BranchResolution, Core, DispatchInstr, DispatchOutcome, MemKind};
use crate::config::MachineConfig;
use crate::result::{BranchStats, OccupancyMeter, SimResult};
use ssim_bpred::{classify, BranchKind, BranchOutcome, HybridPredictor, Prediction};
use ssim_cache::Hierarchy;
use ssim_func::Machine;
use ssim_isa::{pc_to_addr, Instr, Program, RegId};
use std::collections::VecDeque;

/// One instruction waiting in the instruction fetch queue.
#[derive(Debug, Clone, Copy)]
struct IfqEntry {
    di: DispatchInstr,
    update: Option<BpredUpdate>,
    mispredict_marker: bool,
}

/// Deferred predictor training, applied at dispatch (the paper's
/// speculative-update-at-dispatch assumption, §2.1.3).
#[derive(Debug, Clone, Copy)]
struct BpredUpdate {
    pc: usize,
    kind: BranchKind,
    taken: bool,
    target: usize,
    pred: Prediction,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchMode {
    /// Fetching the correct path through the functional oracle.
    Correct,
    /// Fetching the misspeculated path from the static program image;
    /// `None` means the wrong-path PC is unknown (indirect branch with
    /// no BTB target) and fetch is stalled until recovery.
    WrongPath(Option<usize>),
}

#[derive(Debug, Clone, Copy)]
struct PendingRecovery {
    /// Backend sequence number of the mispredicted branch (known once
    /// dispatched).
    seq: Option<u64>,
    /// RAS pointer checkpoint taken right after the branch's own lookup.
    ras: (usize, usize),
}

/// Execution-driven simulation of a program on the configured machine.
///
/// This is the framework's `sim-outorder`: the correct path is executed
/// through [`ssim_func::Machine`]; branches are predicted with the
/// hybrid predictor; on a misprediction, real wrong-path instructions
/// are fetched (polluting caches and occupying pipeline resources, with
/// stale-register load addresses) until the branch resolves at
/// writeback.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct ExecSim<'a, 'p> {
    cfg: &'a MachineConfig,
    program: &'p Program,
    machine: Machine<'p>,
    bpred: HybridPredictor,
    hierarchy: Hierarchy,
    core: Core<'a>,
    ifq: VecDeque<IfqEntry>,
    ifq_meter: OccupancyMeter,
    branch_stats: BranchStats,
    fetch_stall_until: u64,
    mode: FetchMode,
    pending: Option<PendingRecovery>,
    oracle_done: bool,
    mem_mask: u64,
}

impl<'a, 'p> ExecSim<'a, 'p> {
    /// Creates a simulator for `program` on machine `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &'a MachineConfig, program: &'p Program) -> Self {
        cfg.validate();
        ExecSim {
            cfg,
            program,
            machine: Machine::new(program),
            bpred: HybridPredictor::new(&cfg.bpred),
            hierarchy: Hierarchy::new(&cfg.hierarchy),
            core: Core::new(cfg),
            ifq: VecDeque::with_capacity(cfg.ifq_size),
            ifq_meter: OccupancyMeter::new(),
            branch_stats: BranchStats::default(),
            fetch_stall_until: 0,
            mode: FetchMode::Correct,
            pending: None,
            oracle_done: false,
            mem_mask: program.mem_size() as u64 - 1,
        }
    }

    /// Fast-forwards the architectural oracle by `n` instructions
    /// without simulating timing (used to skip initialisation phases).
    pub fn skip(&mut self, n: u64) -> &mut Self {
        for _ in 0..n {
            if self.machine.step().is_none() {
                self.oracle_done = true;
                break;
            }
        }
        self
    }

    /// Fast-forwards `n` instructions while *warming* the caches, TLBs
    /// and branch predictor functionally (in order, immediate update),
    /// without simulating timing.
    ///
    /// Sampling techniques (SimPoint, §4.4) need this: a representative
    /// interval simulated from cold locality structures would be biased
    /// by compulsory misses.
    pub fn warm_skip(&mut self, n: u64) -> &mut Self {
        for _ in 0..n {
            let Some(exec) = self.machine.step() else {
                self.oracle_done = true;
                break;
            };
            if !self.cfg.perfect_caches {
                self.hierarchy.access_instr(pc_to_addr(exec.pc));
                if let Some(addr) = exec.mem_addr {
                    if exec.instr.class() == ssim_isa::InstrClass::Load {
                        self.hierarchy.access_load(addr);
                    } else {
                        self.hierarchy.access_data(addr);
                    }
                }
            }
            if !self.cfg.perfect_bpred {
                if let Some(kind) = BranchKind::from_opcode(exec.instr.op) {
                    let pred = self.bpred.lookup(exec.pc, kind);
                    self.bpred
                        .update(exec.pc, kind, exec.taken, exec.next_pc, &pred);
                }
            }
        }
        self
    }

    /// Runs until `max_instructions` have committed (or the program
    /// ends) and returns the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline stops making forward progress (an
    /// internal invariant violation).
    pub fn run(mut self, max_instructions: u64) -> SimResult {
        let mut last_progress = (0u64, 0u64); // (cycle, committed)
        loop {
            let committed = self.core.committed();
            if committed >= max_instructions
                || (self.oracle_done && self.core.is_empty() && self.ifq.is_empty())
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
                "pipeline deadlock at cycle {now} (committed {committed})"
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
            cache: self.hierarchy.stats(),
            activity,
        }
    }

    // ---- pipeline recovery ------------------------------------------------

    fn recover(&mut self, seq: u64) {
        let pending = self
            .pending
            .take()
            .expect("a resolution implies a pending recovery");
        debug_assert_eq!(
            pending.seq,
            Some(seq),
            "only one mispredict can be outstanding"
        );
        self.core.squash_after(seq);
        self.ifq.clear();
        self.bpred.ras_restore(pending.ras);
        self.mode = FetchMode::Correct;
        self.fetch_stall_until = self.core.now() + self.cfg.redirect_latency;
    }

    // ---- dispatch ----------------------------------------------------------

    fn dispatch(&mut self) {
        while let Some(entry) = self.ifq.front() {
            match self.core.try_dispatch(entry.di) {
                DispatchOutcome::Dispatched(seq) => {
                    let entry = self.ifq.pop_front().expect("front exists");
                    if let Some(u) = entry.update {
                        self.bpred.update(u.pc, u.kind, u.taken, u.target, &u.pred);
                        let now = self.core.now();
                        self.core.activity_mut().record(Unit::Bpred, now);
                    }
                    if entry.mispredict_marker {
                        let p = self.pending.as_mut().expect("mispredict implies pending");
                        p.seq = Some(seq);
                    }
                }
                DispatchOutcome::Stalled => break,
            }
        }
    }

    // ---- fetch ---------------------------------------------------------------

    /// Charges the instruction-fetch memory access; returns the stall in
    /// cycles caused by misses.
    fn fetch_access(&mut self, pc: usize) -> u64 {
        let now = self.core.now();
        self.core.activity_mut().record(Unit::Fetch, now);
        if self.cfg.perfect_caches {
            return 0;
        }
        let out = self.hierarchy.access_instr(pc_to_addr(pc));
        self.core.activity_mut().record(Unit::ICache, now);
        self.core.activity_mut().record(Unit::Itlb, now);
        let mut stall = 0;
        if out.l1_miss {
            self.core.activity_mut().record(Unit::L2, now);
            stall += if out.l2_miss {
                self.cfg.lat.mem
            } else {
                self.cfg.lat.l2_hit
            };
        }
        if out.tlb_miss {
            stall += self.cfg.lat.tlb_miss;
        }
        stall
    }

    /// Resolves a data access: returns (load latency, dependence
    /// address). `is_load` selects load-rate accounting: wrong-path
    /// loads evolve the cache state but are excluded from the
    /// correct-path load miss rate.
    fn data_access(&mut self, addr: u64, is_load: bool) -> (u64, u64) {
        let now = self.core.now();
        if self.cfg.perfect_caches {
            return (1 + self.cfg.lat.l1d_hit, addr >> 3);
        }
        let out = if is_load {
            self.hierarchy.access_load(addr)
        } else {
            self.hierarchy.access_data(addr)
        };
        self.core.activity_mut().record(Unit::Dtlb, now);
        let mut lat = if out.l1_miss {
            self.core.activity_mut().record(Unit::L2, now);
            if out.l2_miss {
                self.cfg.lat.mem
            } else {
                self.cfg.lat.l2_hit
            }
        } else {
            self.cfg.lat.l1d_hit
        };
        if out.tlb_miss {
            lat += self.cfg.lat.tlb_miss;
        }
        // +1 for address generation; stores don't carry a latency.
        (1 + lat, addr >> 3)
    }

    fn build_dispatch(
        &mut self,
        instr: &Instr,
        mem_addr: Option<u64>,
        wrong_path: bool,
    ) -> DispatchInstr {
        let mut srcs = [None, None];
        for (i, s) in instr.sources().enumerate().take(2) {
            srcs[i] = Some(s);
        }
        let (mem, mem_dep_addr) = match (instr.class(), mem_addr) {
            (ssim_isa::InstrClass::Load, Some(addr)) => {
                let (lat, dep) = self.data_access(addr, !wrong_path);
                (Some(MemKind::Load { latency: lat }), Some(dep))
            }
            (ssim_isa::InstrClass::Store, Some(addr)) => {
                // Stores evolve the cache state (write-allocate) exactly
                // like the profiler's in-order pass, but their latency is
                // hidden by the store buffer.
                if !self.cfg.perfect_caches {
                    let now = self.core.now();
                    let out = self.hierarchy.access_data(addr);
                    self.core.activity_mut().record(Unit::Dtlb, now);
                    if out.l1_miss {
                        self.core.activity_mut().record(Unit::L2, now);
                    }
                }
                (Some(MemKind::Store), Some(addr >> 3))
            }
            _ => (None, None),
        };
        DispatchInstr {
            class: Some(instr.class()),
            srcs,
            dest: instr.dest,
            mem,
            mem_dep_addr,
            branch: BranchResolution::None,
            wrong_path,
        }
    }

    fn fetch(&mut self) {
        let now = self.core.now();
        if now < self.fetch_stall_until {
            self.ifq_meter.sample(self.ifq.len() as u64);
            return;
        }
        let mut budget = self.cfg.fetch_width();
        while budget > 0 && self.ifq.len() < self.cfg.ifq_size {
            let stop = match self.mode {
                FetchMode::Correct => self.fetch_correct(),
                FetchMode::WrongPath(pc) => self.fetch_wrong(pc),
            };
            budget -= 1;
            if stop {
                break;
            }
        }
        self.ifq_meter.sample(self.ifq.len() as u64);
    }

    /// Fetches one correct-path instruction; returns `true` if fetch
    /// must stop for this cycle.
    fn fetch_correct(&mut self) -> bool {
        let Some(exec) = self.machine.step() else {
            self.oracle_done = true;
            return true;
        };
        let now = self.core.now();
        let stall = self.fetch_access(exec.pc);
        if stall > 0 {
            self.fetch_stall_until = now + stall;
        }
        let mut di = self.build_dispatch(&exec.instr, exec.mem_addr, false);
        let mut update = None;
        let mut mispredict_marker = false;
        let mut stop = stall > 0;

        if let Some(kind) = BranchKind::from_opcode(exec.instr.op) {
            self.branch_stats.branches += 1;
            if exec.taken {
                self.branch_stats.taken += 1;
            }
            if self.cfg.perfect_bpred {
                self.branch_stats.correct += 1;
                // A taken branch still ends the fetch group.
                stop |= exec.taken;
            } else {
                self.core.activity_mut().record(Unit::Bpred, now);
                let pred = self.bpred.lookup(exec.pc, kind);
                let outcome = classify(kind, &pred, exec.taken, exec.next_pc);
                update = Some(BpredUpdate {
                    pc: exec.pc,
                    kind,
                    taken: exec.taken,
                    target: exec.next_pc,
                    pred,
                });
                match outcome {
                    BranchOutcome::Correct => {
                        self.branch_stats.correct += 1;
                        stop |= pred.taken;
                    }
                    BranchOutcome::FetchRedirect => {
                        self.branch_stats.redirects += 1;
                        self.fetch_stall_until = now + stall + self.cfg.fetch_redirect_penalty;
                        stop = true;
                    }
                    BranchOutcome::Mispredict => {
                        self.branch_stats.mispredicts += 1;
                        di.branch = BranchResolution::Mispredict;
                        mispredict_marker = true;
                        // Where does the wrong path start? The predicted
                        // target if the direction was (wrongly) taken —
                        // falling back to the decoded target for direct
                        // branches — or the fall-through otherwise.
                        let wrong_pc = if pred.taken {
                            pred.target.or(exec.instr.target)
                        } else {
                            Some(exec.pc + 1)
                        };
                        self.pending = Some(PendingRecovery {
                            seq: None,
                            ras: self.bpred.ras_checkpoint(),
                        });
                        self.mode = FetchMode::WrongPath(wrong_pc);
                        stop = true;
                    }
                }
            }
        }
        self.ifq.push_back(IfqEntry {
            di,
            update,
            mispredict_marker,
        });
        stop
    }

    /// Fetches one wrong-path instruction; returns `true` if fetch must
    /// stop for this cycle.
    fn fetch_wrong(&mut self, pc: Option<usize>) -> bool {
        let Some(pc) = pc else {
            return true; // unknown wrong-path target: stall until recovery
        };
        let Some(instr) = self.program.instr(pc).copied() else {
            self.mode = FetchMode::WrongPath(None);
            return true; // ran off the code image
        };
        let now = self.core.now();
        let stall = self.fetch_access(pc);
        if stall > 0 {
            self.fetch_stall_until = now + stall;
        }
        // Stale-register address approximation for wrong-path memory
        // accesses (the oracle's architectural values stand in for the
        // values a real pipeline would have had in flight).
        let mem_addr = match instr.class() {
            ssim_isa::InstrClass::Load | ssim_isa::InstrClass::Store => {
                let base = match instr.srcs[0] {
                    Some(RegId::Int(r)) => self.machine.reg(r),
                    _ => 0,
                };
                Some(base.wrapping_add(instr.imm as u64) & self.mem_mask)
            }
            _ => None,
        };
        let di = self.build_dispatch(&instr, mem_addr, true);
        let mut stop = stall > 0;

        let mut next = pc + 1;
        if let Some(kind) = BranchKind::from_opcode(instr.op) {
            if self.cfg.perfect_bpred {
                // Perfect prediction has no opinion on the wrong path;
                // fall through.
            } else {
                self.core.activity_mut().record(Unit::Bpred, now);
                let pred = self.bpred.lookup(pc, kind);
                if pred.taken {
                    stop = true;
                    match pred.target.or(instr.target) {
                        Some(t) => next = t,
                        None => {
                            self.ifq.push_back(IfqEntry {
                                di,
                                update: None,
                                mispredict_marker: false,
                            });
                            self.mode = FetchMode::WrongPath(None);
                            return true;
                        }
                    }
                }
            }
        }
        self.mode = FetchMode::WrongPath(Some(next));
        self.ifq.push_back(IfqEntry {
            di,
            update: None,
            mispredict_marker: false,
        });
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim_isa::{Assembler, Reg};

    fn loop_program(iters: i64) -> Program {
        let mut a = Assembler::new("loop");
        let (i, n, acc) = (Reg::R1, Reg::R2, Reg::R3);
        a.li(n, iters);
        let top = a.here_label();
        a.addi(i, i, 1);
        a.add(acc, acc, i);
        a.xori(acc, acc, 3);
        a.blt(i, n, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn simple_loop_reaches_decent_ipc() {
        let program = loop_program(20_000);
        let result = ExecSim::new(&MachineConfig::baseline(), &program).run(u64::MAX);
        assert!(result.instructions > 79_000, "got {}", result.instructions);
        let ipc = result.ipc();
        // The loop has a 2-op dependence chain per iteration and a
        // well-predicted back edge: IPC should be comfortably above 1.
        assert!(ipc > 1.0, "IPC {ipc} too low for a trivial loop");
        assert!(ipc <= 8.0, "IPC {ipc} exceeds machine width");
    }

    #[test]
    fn perfect_flags_only_improve_performance() {
        let program = loop_program(10_000);
        let base = ExecSim::new(&MachineConfig::baseline(), &program).run(u64::MAX);
        let mut cfg = MachineConfig::baseline();
        cfg.perfect_caches = true;
        cfg.perfect_bpred = true;
        let perfect = ExecSim::new(&cfg, &program).run(u64::MAX);
        assert!(
            perfect.ipc() >= base.ipc() * 0.99,
            "perfect structures can't hurt"
        );
        assert_eq!(perfect.branch.mispredicts, 0);
    }

    #[test]
    fn branch_stats_track_the_loop_branch() {
        let program = loop_program(5_000);
        let result = ExecSim::new(&MachineConfig::baseline(), &program).run(u64::MAX);
        assert!(result.branch.branches >= 5_000);
        assert!(result.branch.taken >= 4_999);
        // A biased loop branch is nearly always predicted.
        let rate = result.branch.mispredicts as f64 / result.branch.branches as f64;
        assert!(rate < 0.05, "mispredict rate {rate} too high for a loop");
    }

    #[test]
    fn narrow_machine_is_slower() {
        let program = loop_program(10_000);
        let wide = ExecSim::new(&MachineConfig::baseline(), &program).run(u64::MAX);
        let narrow_cfg = MachineConfig::baseline().with_width(2);
        let narrow = ExecSim::new(&narrow_cfg, &program).run(u64::MAX);
        assert!(
            narrow.ipc() <= wide.ipc() + 0.01,
            "narrow {} vs wide {}",
            narrow.ipc(),
            wide.ipc()
        );
    }

    #[test]
    fn skip_fast_forwards_without_cycles() {
        let program = loop_program(10_000);
        let cfg = MachineConfig::baseline();
        let mut sim = ExecSim::new(&cfg, &program);
        sim.skip(1_000);
        let result = sim.run(u64::MAX);
        assert!(
            result.instructions < 40_000 - 900,
            "skipped instructions don't commit"
        );
    }

    #[test]
    fn mispredict_heavy_code_runs_and_recovers() {
        // Data-dependent branch on a PRNG bit: ~50% mispredicts.
        let mut a = Assembler::new("coin");
        let (x, i, n, t, acc) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        a.li(x, 0x12345);
        a.li(n, 4_000);
        let top = a.here_label();
        let skip = a.label();
        a.slli(t, x, 13);
        a.xor(x, x, t);
        a.srli(t, x, 7);
        a.xor(x, x, t);
        a.slli(t, x, 17);
        a.xor(x, x, t);
        a.andi(t, x, 1);
        a.beq(t, Reg::R0, skip);
        a.addi(acc, acc, 1);
        a.bind(skip).unwrap();
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        let program = a.finish().unwrap();
        let result = ExecSim::new(&MachineConfig::baseline(), &program).run(u64::MAX);
        assert!(result.instructions > 30_000);
        let rate = result.branch.mispredicts as f64 / result.branch.branches as f64;
        assert!(
            rate > 0.10,
            "coin-flip branch must mispredict, rate = {rate}"
        );
        // And the machine must slow down accordingly.
        assert!(result.ipc() < 4.0, "IPC {} implausibly high", result.ipc());
    }

    #[test]
    fn icache_pressure_reduces_ipc() {
        let program = loop_program(10_000);
        let base = ExecSim::new(&MachineConfig::baseline(), &program).run(u64::MAX);
        let mut tiny = MachineConfig::baseline();
        // Shrink L1I to 64 bytes, 1-way: every block fights.
        tiny.hierarchy.l1i = ssim_cache::CacheConfig::new(64, 1, 32);
        let pressured = ExecSim::new(&tiny, &program).run(u64::MAX);
        // The loop fits in two blocks; with round-robin conflict this
        // may still hit, so just require it not to be faster.
        assert!(pressured.ipc() <= base.ipc() + 0.01);
    }
}
