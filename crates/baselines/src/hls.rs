//! The HLS statistical workload model (Oskin et al., ISCA 2000).
//!
//! HLS models a workload with **global** distributions only: an
//! instruction mix, a basic-block size distribution (sampled as a
//! normal), overall branch predictability and overall cache miss
//! rates. One hundred synthetic basic blocks are generated up front and
//! wired into a random graph; the synthetic trace walks that graph.
//! Contrast with the SFG of `ssim-core`, which conditions *every*
//! characteristic on the basic block and its execution history.
//!
//! The generated trace is simulated on the same synthetic-trace
//! simulator as the SFG traces, so Figure 7's comparison isolates the
//! workload model.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssim_bpred::{classify, BranchKind, BranchOutcome, HybridPredictor};
use ssim_cache::Hierarchy;
use ssim_core::{BranchFlags, DataFlags, SyntheticInstr, SyntheticOutcome, SyntheticTrace};
use ssim_func::Machine;
use ssim_isa::{pc_to_addr, InstrClass, Program, Reg, RegId};
use ssim_stats::{Histogram, ProbCounter};
use ssim_uarch::MachineConfig;

/// Number of synthetic basic blocks in the HLS graph (the published
/// HLS value).
pub const HLS_BLOCKS: usize = 100;

/// Global workload statistics measured by one profiling pass.
#[derive(Debug, Clone)]
pub struct HlsModel {
    /// Instruction-mix occurrence counts, indexed by
    /// [`InstrClass::index`].
    mix: [u64; 12],
    /// Basic-block size distribution (summarised as mean/std).
    block_mean: f64,
    block_std: f64,
    /// Global dependency-distance distributions per operand position.
    dep: [Histogram; 2],
    /// Global branch statistics.
    taken: ProbCounter,
    correct: u64,
    redirect: u64,
    mispredict: u64,
    /// Global cache statistics.
    l1i: ProbCounter,
    l2i: ProbCounter,
    itlb: ProbCounter,
    l1d: ProbCounter,
    l2d: ProbCounter,
    dtlb: ProbCounter,
    instructions: u64,
}

impl HlsModel {
    /// Profiles `program` with the machine's locality structures,
    /// gathering only HLS's global statistics.
    ///
    /// Branch characteristics use immediate update (HLS predates the
    /// delayed-update insight).
    pub fn profile(program: &Program, machine: &MachineConfig, skip: u64, n: u64) -> Self {
        let mut m = Machine::new(program);
        for _ in 0..skip {
            if m.step().is_none() {
                break;
            }
        }
        let mut bpred = HybridPredictor::new(&machine.bpred);
        let mut hierarchy = Hierarchy::new(&machine.hierarchy);

        let mut model = HlsModel {
            mix: [0; 12],
            block_mean: 0.0,
            block_std: 0.0,
            dep: [Histogram::new(), Histogram::new()],
            taken: ProbCounter::new(),
            correct: 0,
            redirect: 0,
            mispredict: 0,
            l1i: ProbCounter::new(),
            l2i: ProbCounter::new(),
            itlb: ProbCounter::new(),
            l1d: ProbCounter::new(),
            l2d: ProbCounter::new(),
            dtlb: ProbCounter::new(),
            instructions: 0,
        };
        let mut block_sizes = Histogram::new();
        let mut current_block = 0u32;
        let mut last_writer = [0u64; RegId::DENSE_COUNT];
        let mut has_writer = [false; RegId::DENSE_COUNT];
        let mut idx = 0u64;

        for exec in m.take(n as usize) {
            model.instructions += 1;
            idx += 1;
            model.mix[exec.instr.class().index()] += 1;
            current_block += 1;
            for (p, src) in exec.instr.sources().enumerate().take(2) {
                if src == RegId::Int(Reg::ZERO) {
                    continue;
                }
                let i = src.dense_index();
                let dist = if has_writer[i] {
                    idx - last_writer[i]
                } else {
                    0
                };
                model.dep[p].record(if dist <= 512 { dist as u32 } else { 0 });
            }
            if let Some(dest) = exec.instr.dest {
                last_writer[dest.dense_index()] = idx;
                has_writer[dest.dense_index()] = true;
            }
            let iout = hierarchy.access_instr(pc_to_addr(exec.pc));
            model.l1i.record(iout.l1_miss);
            if iout.l1_miss {
                model.l2i.record(iout.l2_miss);
            }
            model.itlb.record(iout.tlb_miss);
            if let Some(addr) = exec.mem_addr {
                let dout = if exec.instr.class() == InstrClass::Load {
                    hierarchy.access_load(addr)
                } else {
                    hierarchy.access_data(addr)
                };
                if exec.instr.class() == InstrClass::Load {
                    model.l1d.record(dout.l1_miss);
                    if dout.l1_miss {
                        model.l2d.record(dout.l2_miss);
                    }
                    model.dtlb.record(dout.tlb_miss);
                }
            }
            if let Some(kind) = BranchKind::from_opcode(exec.instr.op) {
                let pred = bpred.lookup(exec.pc, kind);
                let outcome = classify(kind, &pred, exec.taken, exec.next_pc);
                bpred.update(exec.pc, kind, exec.taken, exec.next_pc, &pred);
                model.taken.record(exec.taken);
                match outcome {
                    BranchOutcome::Correct => model.correct += 1,
                    BranchOutcome::FetchRedirect => model.redirect += 1,
                    BranchOutcome::Mispredict => model.mispredict += 1,
                }
                block_sizes.record(current_block);
                current_block = 0;
            }
        }
        model.block_mean = block_sizes.mean().unwrap_or(4.0);
        let mut var = 0.0;
        for (v, c) in block_sizes.iter() {
            var += c as f64 * (v as f64 - model.block_mean).powi(2);
        }
        model.block_std = (var / block_sizes.total().max(1) as f64).sqrt();
        model
    }

    /// Instructions profiled.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Mean profiled basic-block size.
    pub fn block_mean(&self) -> f64 {
        self.block_mean
    }

    /// Generates an HLS synthetic trace of roughly `target_len`
    /// instructions.
    ///
    /// One hundred basic blocks are built from the global
    /// distributions, wired into a random graph (each block has a
    /// taken-successor and a fall-through successor) and walked.
    ///
    /// # Panics
    ///
    /// Panics if the model was profiled over an empty stream.
    pub fn generate(&self, target_len: usize, seed: u64) -> SyntheticTrace {
        assert!(self.instructions > 0, "profile something first");
        let mut rng = SmallRng::seed_from_u64(seed);

        // Split the mix into branch and non-branch classes.
        let classes = InstrClass::ALL;
        let body_total: u64 = classes
            .iter()
            .filter(|c| !c.is_control())
            .map(|c| self.mix[c.index()])
            .sum();
        let branch_total: u64 = classes
            .iter()
            .filter(|c| c.is_control())
            .map(|c| self.mix[c.index()])
            .sum();
        let draw_class = |rng: &mut SmallRng, control: bool| -> InstrClass {
            let total = if control { branch_total } else { body_total };
            if total == 0 {
                return if control {
                    InstrClass::IntCondBranch
                } else {
                    InstrClass::IntAlu
                };
            }
            let mut point = rng.gen_range(0..total);
            for c in classes {
                if c.is_control() != control {
                    continue;
                }
                let n = self.mix[c.index()];
                if point < n {
                    return c;
                }
                point -= n;
            }
            unreachable!("mix covers the draw")
        };

        // Build the hundred blocks: sizes from a normal approximation
        // (Box–Muller), instructions from the global mix.
        struct HBlock {
            instrs: Vec<InstrClass>,
            taken_succ: usize,
            fall_succ: usize,
        }
        let mut blocks = Vec::with_capacity(HLS_BLOCKS);
        for _ in 0..HLS_BLOCKS {
            let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
            let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let size = (self.block_mean + self.block_std * gauss).round().max(1.0) as usize;
            let mut instrs: Vec<InstrClass> =
                (1..size).map(|_| draw_class(&mut rng, false)).collect();
            instrs.push(draw_class(&mut rng, true));
            blocks.push(HBlock {
                instrs,
                taken_succ: rng.gen_range(0..HLS_BLOCKS),
                fall_succ: rng.gen_range(0..HLS_BLOCKS),
            });
        }

        // Walk the graph emitting flags from the global distributions.
        let branch_totals = self.correct + self.redirect + self.mispredict;
        let mut trace = SyntheticTrace::default();
        let mut at = 0usize;
        while trace.len() < target_len {
            let block = &blocks[at];
            let n = block.instrs.len();
            for (i, &class) in block.instrs.iter().enumerate() {
                let mut si = SyntheticInstr {
                    class,
                    dep: [None, None],
                    l1i_miss: rng.gen::<f64>() < self.l1i.probability(),
                    l2i_miss: false,
                    itlb_miss: rng.gen::<f64>() < self.itlb.probability(),
                    dmem: None,
                    branch: None,
                    anti_dep: [None, None],
                };
                si.l2i_miss = si.l1i_miss && rng.gen::<f64>() < self.l2i.probability();
                // Dependencies from the global distributions, retried to
                // avoid branch/store producers (same rule as the SFG
                // generator).
                for p in 0..2 {
                    if self.dep[p].is_empty() {
                        continue;
                    }
                    for _ in 0..100 {
                        let d = self.dep[p].sample_with(rng.gen()).unwrap_or(0);
                        if d == 0 {
                            break;
                        }
                        if let Some(src) = trace.len().checked_sub(d as usize) {
                            if trace
                                .get(src)
                                .is_some_and(|producer| producer.class.has_dest())
                            {
                                si.dep[p] = Some(d);
                                break;
                            }
                        } else {
                            break;
                        }
                    }
                }
                if class == InstrClass::Load {
                    let l1 = rng.gen::<f64>() < self.l1d.probability();
                    si.dmem = Some(DataFlags {
                        l1_miss: l1,
                        l2_miss: l1 && rng.gen::<f64>() < self.l2d.probability(),
                        tlb_miss: rng.gen::<f64>() < self.dtlb.probability(),
                    });
                }
                let mut taken = false;
                if i + 1 == n {
                    taken = rng.gen::<f64>() < self.taken.probability();
                    let outcome = if branch_totals == 0 {
                        SyntheticOutcome::Correct
                    } else {
                        let point = rng.gen_range(0..branch_totals);
                        if point < self.correct {
                            SyntheticOutcome::Correct
                        } else if point < self.correct + self.redirect {
                            SyntheticOutcome::FetchRedirect
                        } else {
                            SyntheticOutcome::Mispredict
                        }
                    };
                    si.branch = Some(BranchFlags { taken, outcome });
                }
                trace.push(si);
                if i + 1 == n {
                    at = if taken {
                        block.taken_succ
                    } else {
                        block.fall_succ
                    };
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim_core::simulate_trace;

    fn model() -> HlsModel {
        let program = ssim_workloads::by_name("gzip").unwrap().program();
        HlsModel::profile(&program, &MachineConfig::baseline(), 1_000_000, 400_000)
    }

    #[test]
    fn profiles_global_statistics() {
        let m = model();
        assert!(m.instructions() > 300_000);
        assert!(m.block_mean() > 1.0 && m.block_mean() < 64.0);
    }

    #[test]
    fn generates_and_simulates() {
        let m = model();
        let t = m.generate(50_000, 3);
        assert!(t.len() >= 50_000);
        let r = simulate_trace(&t, &MachineConfig::baseline());
        assert!(r.ipc() > 0.05 && r.ipc() < 8.0);
    }

    #[test]
    fn generation_is_seeded() {
        let m = model();
        assert_eq!(m.generate(10_000, 5), m.generate(10_000, 5));
        assert_ne!(m.generate(10_000, 5), m.generate(10_000, 6));
    }
}
