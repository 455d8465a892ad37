//! Instruction definitions and the paper's 12-class taxonomy.

use crate::regs::{FReg, Reg, RegId};
use std::fmt;

/// The 12 semantic instruction classes of the paper (§2.1.1).
///
/// Statistical profiles record, per basic block, the class of every
/// instruction; the synthetic trace simulator maps classes onto
/// functional-unit pools and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrClass {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Integer conditional branch (also direct jumps/calls, whose
    /// direction is trivially known — see crate docs).
    IntCondBranch,
    /// Floating-point conditional branch.
    FpCondBranch,
    /// Indirect branch (register-target jumps and returns).
    IndirectBranch,
    /// Integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Floating-point ALU operation.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Floating-point square root.
    FpSqrt,
}

impl InstrClass {
    /// All 12 classes, in a stable order.
    pub const ALL: [InstrClass; 12] = [
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::IntCondBranch,
        InstrClass::FpCondBranch,
        InstrClass::IndirectBranch,
        InstrClass::IntAlu,
        InstrClass::IntMul,
        InstrClass::IntDiv,
        InstrClass::FpAlu,
        InstrClass::FpMul,
        InstrClass::FpDiv,
        InstrClass::FpSqrt,
    ];

    /// Dense index in `0..12`, matching the order of [`InstrClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            InstrClass::Load => 0,
            InstrClass::Store => 1,
            InstrClass::IntCondBranch => 2,
            InstrClass::FpCondBranch => 3,
            InstrClass::IndirectBranch => 4,
            InstrClass::IntAlu => 5,
            InstrClass::IntMul => 6,
            InstrClass::IntDiv => 7,
            InstrClass::FpAlu => 8,
            InstrClass::FpMul => 9,
            InstrClass::FpDiv => 10,
            InstrClass::FpSqrt => 11,
        }
    }

    /// Whether this class transfers control (terminates a basic block).
    pub fn is_control(self) -> bool {
        matches!(
            self,
            InstrClass::IntCondBranch | InstrClass::FpCondBranch | InstrClass::IndirectBranch
        )
    }

    /// Whether instructions of this class write a destination register.
    ///
    /// Branches and stores produce no register value; the paper's
    /// synthetic generator must avoid making instructions depend on them
    /// (§2.2 step 4).
    pub const fn has_dest(self) -> bool {
        !matches!(
            self,
            InstrClass::Store
                | InstrClass::IntCondBranch
                | InstrClass::FpCondBranch
                | InstrClass::IndirectBranch
        )
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::IntCondBranch => "int-cond-branch",
            InstrClass::FpCondBranch => "fp-cond-branch",
            InstrClass::IndirectBranch => "indirect-branch",
            InstrClass::IntAlu => "int-alu",
            InstrClass::IntMul => "int-mul",
            InstrClass::IntDiv => "int-div",
            InstrClass::FpAlu => "fp-alu",
            InstrClass::FpMul => "fp-mul",
            InstrClass::FpDiv => "fp-div",
            InstrClass::FpSqrt => "fp-sqrt",
        };
        f.write_str(s)
    }
}

/// Operation codes of the mini-RISC ISA.
///
/// Operand roles are carried by [`Instr`]; the opcode determines
/// semantics and the [`InstrClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // opcode mnemonics are self-describing
pub enum Opcode {
    // Integer ALU (register-register unless noted).
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    /// `rd = rs1 + imm` (also used for register moves and `li`).
    AddI,
    AndI,
    OrI,
    XorI,
    SllI,
    SrlI,
    SraI,
    SltI,
    /// No operation (class: integer ALU).
    Nop,
    // Integer multiply / divide.
    Mul,
    Div,
    Rem,
    // Memory.
    /// Load 8 bytes: `rd = mem[rs1 + imm]`.
    Ld,
    /// Load 1 byte zero-extended: `rd = mem[rs1 + imm]`.
    Lb,
    /// Store 8 bytes: `mem[rs1 + imm] = rs2`.
    St,
    /// Store 1 byte: `mem[rs1 + imm] = rs2 & 0xff`.
    Sb,
    /// Floating-point load: `fd = mem[rs1 + imm]`.
    FLd,
    /// Floating-point store: `mem[rs1 + imm] = fs`.
    FSt,
    // Integer conditional branches.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    // Floating-point conditional branches (compare two fp registers).
    FBeq,
    FBlt,
    FBge,
    // Direct control transfers.
    /// Unconditional direct jump.
    Jmp,
    /// Direct call: writes the return PC into `R31` and jumps.
    Call,
    // Indirect control transfers.
    /// Return: jumps to the PC held in `R31`.
    Ret,
    /// Indirect jump through an integer register (jump tables, interpreter
    /// dispatch).
    Jr,
    // Floating point.
    Fadd,
    Fsub,
    Fmin,
    Fmax,
    Fabs,
    Fneg,
    /// Convert integer register to fp register.
    Fcvt,
    /// Convert (truncate) fp register to integer register.
    Fcvti,
    Fmul,
    Fdiv,
    Fsqrt,
    /// Stop execution (class: integer ALU; never profiled).
    Halt,
}

impl Opcode {
    /// The semantic class of this opcode under the paper's taxonomy.
    pub fn class(self) -> InstrClass {
        use Opcode::*;
        match self {
            Ld | Lb | FLd => InstrClass::Load,
            St | Sb | FSt => InstrClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu | Jmp | Call => InstrClass::IntCondBranch,
            FBeq | FBlt | FBge => InstrClass::FpCondBranch,
            Ret | Jr => InstrClass::IndirectBranch,
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | AddI | AndI | OrI
            | XorI | SllI | SrlI | SraI | SltI | Nop | Halt => InstrClass::IntAlu,
            Mul => InstrClass::IntMul,
            Div | Rem => InstrClass::IntDiv,
            Fadd | Fsub | Fmin | Fmax | Fabs | Fneg | Fcvt | Fcvti => InstrClass::FpAlu,
            Fmul => InstrClass::FpMul,
            Fdiv => InstrClass::FpDiv,
            Fsqrt => InstrClass::FpSqrt,
        }
    }

    /// Whether this opcode is an unconditional control transfer.
    pub fn is_unconditional(self) -> bool {
        matches!(self, Opcode::Jmp | Opcode::Call | Opcode::Ret | Opcode::Jr)
    }

    /// Whether this opcode is a conditional branch.
    pub fn is_conditional_branch(self) -> bool {
        self.class().is_control() && !self.is_unconditional()
    }
}

/// One decoded instruction.
///
/// Instructions are structured data (the ISA has no binary encoding):
/// an opcode, an optional destination register, up to two source
/// registers, an immediate and an optional static branch target
/// (a program counter, i.e. an instruction index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Operation code.
    pub op: Opcode,
    /// Destination register, if the instruction produces a value.
    pub dest: Option<RegId>,
    /// Source registers (at most two).
    pub srcs: [Option<RegId>; 2],
    /// Immediate operand (shift amounts, offsets, constants).
    pub imm: i64,
    /// Static target PC for direct branches, jumps and calls.
    pub target: Option<usize>,
}

impl Instr {
    /// Creates an instruction with no operands.
    pub fn new(op: Opcode) -> Self {
        Instr {
            op,
            dest: None,
            srcs: [None, None],
            imm: 0,
            target: None,
        }
    }

    /// Builder-style destination register.
    pub fn with_dest(mut self, dest: impl Into<RegId>) -> Self {
        self.dest = Some(dest.into());
        self
    }

    /// Builder-style single source register.
    pub fn with_src(mut self, src: impl Into<RegId>) -> Self {
        self.srcs[0] = Some(src.into());
        self
    }

    /// Builder-style pair of source registers.
    pub fn with_srcs(mut self, a: impl Into<RegId>, b: impl Into<RegId>) -> Self {
        self.srcs = [Some(a.into()), Some(b.into())];
        self
    }

    /// Builder-style immediate.
    pub fn with_imm(mut self, imm: i64) -> Self {
        self.imm = imm;
        self
    }

    /// The instruction's semantic class.
    pub fn class(&self) -> InstrClass {
        self.op.class()
    }

    /// Whether this instruction transfers control.
    pub fn is_control(&self) -> bool {
        self.class().is_control()
    }

    /// Number of source register operands.
    ///
    /// The paper records this per instruction because instructions of the
    /// same class may read different numbers of registers (§2.1.1).
    pub fn src_count(&self) -> usize {
        self.srcs.iter().flatten().count()
    }

    /// Iterates over the source registers.
    pub fn sources(&self) -> impl Iterator<Item = RegId> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.op)?;
        if let Some(d) = self.dest {
            write!(f, " {d}")?;
        }
        for s in self.sources() {
            write!(f, " {s}")?;
        }
        if self.imm != 0 {
            write!(f, " #{}", self.imm)?;
        }
        if let Some(t) = self.target {
            write!(f, " ->{t}")?;
        }
        Ok(())
    }
}

/// Convenience constructors used by the assembler and by tests.
impl Instr {
    /// `rd = rs1 op rs2` integer ALU instruction.
    pub fn alu(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Instr::new(op).with_dest(rd).with_srcs(rs1, rs2)
    }

    /// `rd = rs1 op imm` integer ALU-immediate instruction.
    pub fn alu_imm(op: Opcode, rd: Reg, rs1: Reg, imm: i64) -> Self {
        Instr::new(op).with_dest(rd).with_src(rs1).with_imm(imm)
    }

    /// `fd = fs1 op fs2` floating-point instruction.
    pub fn fpu(op: Opcode, fd: FReg, fs1: FReg, fs2: FReg) -> Self {
        Instr::new(op).with_dest(fd).with_srcs(fs1, fs2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_taxonomy_has_12_entries_and_stable_indices() {
        for (i, c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn control_classes() {
        assert!(InstrClass::IntCondBranch.is_control());
        assert!(InstrClass::FpCondBranch.is_control());
        assert!(InstrClass::IndirectBranch.is_control());
        assert!(!InstrClass::Load.is_control());
        assert!(!InstrClass::IntAlu.is_control());
    }

    #[test]
    fn dest_production_rules() {
        assert!(InstrClass::Load.has_dest());
        assert!(InstrClass::FpSqrt.has_dest());
        assert!(!InstrClass::Store.has_dest());
        assert!(!InstrClass::IndirectBranch.has_dest());
    }

    #[test]
    fn opcode_classes_match_taxonomy() {
        assert_eq!(Opcode::Ld.class(), InstrClass::Load);
        assert_eq!(Opcode::FSt.class(), InstrClass::Store);
        assert_eq!(Opcode::Jmp.class(), InstrClass::IntCondBranch);
        assert_eq!(Opcode::Jr.class(), InstrClass::IndirectBranch);
        assert_eq!(Opcode::Ret.class(), InstrClass::IndirectBranch);
        assert_eq!(Opcode::FBlt.class(), InstrClass::FpCondBranch);
        assert_eq!(Opcode::Mul.class(), InstrClass::IntMul);
        assert_eq!(Opcode::Rem.class(), InstrClass::IntDiv);
        assert_eq!(Opcode::Fsqrt.class(), InstrClass::FpSqrt);
    }

    #[test]
    fn conditional_vs_unconditional() {
        assert!(Opcode::Beq.is_conditional_branch());
        assert!(Opcode::FBge.is_conditional_branch());
        assert!(!Opcode::Jmp.is_conditional_branch());
        assert!(Opcode::Jmp.is_unconditional());
        assert!(Opcode::Ret.is_unconditional());
        assert!(!Opcode::Add.is_unconditional());
    }

    #[test]
    fn src_count_counts_present_operands() {
        let i = Instr::alu(Opcode::Add, Reg::R1, Reg::R2, Reg::R3);
        assert_eq!(i.src_count(), 2);
        let i = Instr::alu_imm(Opcode::AddI, Reg::R1, Reg::R2, 4);
        assert_eq!(i.src_count(), 1);
        let i = Instr::new(Opcode::Nop);
        assert_eq!(i.src_count(), 0);
    }

    #[test]
    fn display_is_nonempty() {
        let i = Instr::alu(Opcode::Add, Reg::R1, Reg::R2, Reg::R3);
        assert!(i.to_string().contains("Add"));
    }
}
