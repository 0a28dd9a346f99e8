//! Instruction and register definitions.

use std::fmt;

use crate::slice::{SliceId, MAX_SLICE_INPUTS};

/// The register list an `ASSOC-ADDR` captures into the operand buffer as the
/// input operands of its Slice, in Slice input order.
///
/// Fixed-capacity so [`Instr`] stays `Copy`; at most [`MAX_SLICE_INPUTS`]
/// registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InputRegs {
    regs: [Reg; MAX_SLICE_INPUTS],
    len: u8,
}

impl InputRegs {
    /// Builds the capture list from a slice of registers.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SLICE_INPUTS`] registers are given; the
    /// slicer never produces such Slices (they are rejected earlier).
    pub fn new(regs: &[Reg]) -> Self {
        assert!(
            regs.len() <= MAX_SLICE_INPUTS,
            "at most {MAX_SLICE_INPUTS} slice inputs"
        );
        let mut out = InputRegs::default();
        out.regs[..regs.len()].copy_from_slice(regs);
        out.len = regs.len() as u8;
        out
    }

    /// Number of captured registers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if no registers are captured.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The registers, in Slice input order.
    #[inline]
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// Iterates over the captured registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.as_slice().iter().copied()
    }
}

/// An architectural general-purpose register index (`r0`..`r31`).
///
/// `r0` is an ordinary register by convention used as a base/zero scratch by
/// the workload generators; the ISA itself attaches no special meaning to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Returns the register index as a `usize`, for register-file indexing.
    ///
    /// The index is masked to [`crate::NUM_REGS`] (a power of two) so the
    /// simulator's register files can be indexed without bounds checks on
    /// the hottest path. The assembler and [`crate::Program::validate`]
    /// reject out-of-range registers (and `Experiment::new` validates), so
    /// the mask is a no-op on any program that validates.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize & (crate::NUM_REGS - 1)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Arithmetic/logic operations.
///
/// All operations are over 64-bit two's-complement words with wrapping
/// semantics, so recomputation along a Slice is bit-exact regardless of the
/// values captured in the operand buffer. `Div`/`Rem` by zero yield zero
/// (total functions keep the reference interpreter and the Slice executor
/// trivially consistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (0 if divisor is 0).
    Div,
    /// Remainder (0 if divisor is 0).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (modulo 64).
    Shl,
    /// Logical shift right (modulo 64).
    Shr,
    /// Minimum (unsigned).
    Min,
    /// Maximum (unsigned).
    Max,
}

impl AluOp {
    /// Applies the operation to two operand words.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }

    /// All operations, for fuzzing and workload generation.
    pub const ALL: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Min,
        AluOp::Max,
    ];
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Min => "min",
            AluOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Branch conditions comparing a register against another register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if `ra == rb`.
    Eq,
    /// Branch if `ra != rb`.
    Ne,
    /// Branch if `ra < rb` (unsigned).
    Lt,
    /// Branch if `ra >= rb` (unsigned).
    Ge,
}

impl BranchCond {
    /// Evaluates the condition on two operand words.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }
}

/// A machine instruction.
///
/// Effective addresses are computed as `base + disp` (wrapping) and must be
/// word-aligned; the simulator and interpreter treat misaligned accesses as
/// program bugs and report them as execution errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd <- imm`.
    Imm {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `rd <- op(ra, rb)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `rd <- op(ra, imm)`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// `rd <- mem[ra + disp]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement (word aligned).
        disp: u64,
    },
    /// `mem[base + disp] <- rs`.
    Store {
        /// Source register holding the value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement (word aligned).
        disp: u64,
    },
    /// `ASSOC-ADDR`: associates the effective address of the *immediately
    /// preceding* store with Slice `slice`, capturing the Slice's input
    /// operands from the current register file into the operand buffer.
    ///
    /// The paper specifies that `ASSOC-ADDR` executes atomically with the
    /// corresponding store; the simulator enforces the adjacency invariant.
    AssocAddr {
        /// The Slice embedded in the binary that recomputes the stored value.
        slice: SliceId,
        /// Registers whose current values are captured into the operand
        /// buffer as the Slice's input operands. The slicer guarantees these
        /// registers still hold the Slice's input values at this point.
        inputs: InputRegs,
    },
    /// Conditional relative branch within the thread's instruction stream.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First comparand.
        ra: Reg,
        /// Second comparand.
        rb: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Unconditional jump to an absolute instruction index.
    Jump {
        /// Absolute target instruction index.
        target: u32,
    },
    /// Synchronization barrier across all threads of the program.
    Barrier,
    /// Terminates the thread.
    Halt,
}

impl Instr {
    /// The destination register written by this instruction, if any.
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Imm { rd, .. }
            | Instr::Alu { rd, .. }
            | Instr::AluI { rd, .. }
            | Instr::Load { rd, .. } => Some(*rd),
            _ => None,
        }
    }

    /// Source registers read by this instruction (up to 2, plus base).
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Instr::Imm { .. } => vec![],
            Instr::Alu { ra, rb, .. } => vec![*ra, *rb],
            Instr::AluI { ra, .. } => vec![*ra],
            Instr::Load { base, .. } => vec![*base],
            Instr::Store { rs, base, .. } => vec![*rs, *base],
            Instr::Branch { ra, rb, .. } => vec![*ra, *rb],
            Instr::AssocAddr { inputs, .. } => inputs.as_slice().to_vec(),
            Instr::Jump { .. } | Instr::Barrier | Instr::Halt => vec![],
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Imm { rd, imm } => write!(f, "imm   {rd}, {imm:#x}"),
            Instr::Alu { op, rd, ra, rb } => write!(f, "{op}   {rd}, {ra}, {rb}"),
            Instr::AluI { op, rd, ra, imm } => write!(f, "{op}i  {rd}, {ra}, {imm:#x}"),
            Instr::Load { rd, base, disp } => write!(f, "ld    {rd}, [{base}+{disp:#x}]"),
            Instr::Store { rs, base, disp } => write!(f, "st    {rs}, [{base}+{disp:#x}]"),
            Instr::AssocAddr { slice, inputs } => {
                write!(
                    f,
                    "assoc-addr slice#{} inputs={:?}",
                    slice.0,
                    inputs.as_slice()
                )
            }
            Instr::Branch {
                cond,
                ra,
                rb,
                target,
            } => write!(f, "b{cond:?}  {ra}, {rb} -> @{target}"),
            Instr::Jump { target } => write!(f, "jmp   @{target}"),
            Instr::Barrier => write!(f, "barrier"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_are_total() {
        for op in AluOp::ALL {
            // Division and remainder by zero must not panic.
            let _ = op.apply(u64::MAX, 0);
            let _ = op.apply(0, u64::MAX);
        }
        assert_eq!(AluOp::Div.apply(10, 0), 0);
        assert_eq!(AluOp::Rem.apply(10, 0), 0);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Mul.apply(3, 5), 15);
        assert_eq!(AluOp::Shl.apply(1, 65), 2); // shift modulo 64
        assert_eq!(AluOp::Min.apply(3, 5), 3);
        assert_eq!(AluOp::Max.apply(3, 5), 5);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.eval(4, 4));
        assert!(BranchCond::Ne.eval(4, 5));
        assert!(BranchCond::Lt.eval(4, 5));
        assert!(BranchCond::Ge.eval(5, 5));
        assert!(!BranchCond::Lt.eval(5, 4));
    }

    #[test]
    fn instr_classification() {
        let st = Instr::Store {
            rs: Reg(1),
            base: Reg(0),
            disp: 8,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![Reg(1), Reg(0)]);

        let alu = Instr::Alu {
            op: AluOp::Add,
            rd: Reg(3),
            ra: Reg(1),
            rb: Reg(2),
        };
        assert_eq!(alu.def(), Some(Reg(3)));
    }

    #[test]
    fn display_is_nonempty() {
        let instrs = [
            Instr::Imm { rd: Reg(1), imm: 7 },
            Instr::Barrier,
            Instr::Halt,
        ];
        for i in instrs {
            assert!(!format!("{i}").is_empty());
        }
    }
}
