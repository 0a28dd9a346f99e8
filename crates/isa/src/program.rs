//! Programs: per-thread instruction streams plus the embedded Slice table.

use std::fmt;

use crate::instr::{Instr, Reg};
use crate::slice::{Slice, SliceId};
use crate::NUM_REGS;

/// Identifier of a hardware thread (== core in this study: the paper pins
/// one thread per core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// Thread id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The instruction stream of one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadCode {
    instrs: Vec<Instr>,
}

impl ThreadCode {
    /// Creates thread code from raw instructions.
    pub fn new(instrs: Vec<Instr>) -> Self {
        ThreadCode { instrs }
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if the stream is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Fetches the instruction at `pc`, if in bounds.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<&Instr> {
        self.instrs.get(pc as usize)
    }

    /// All instructions, for analysis passes.
    #[inline]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }
}

/// A complete multithreaded program: one instruction stream per thread and
/// the Slice table the compiler pass embedded into the "binary".
///
/// The Slice table is program-global (Slices are identified by [`SliceId`]);
/// Slices are confined to thread-local data per Section III-A, which the
/// slicer guarantees by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    threads: Vec<ThreadCode>,
    slices: Vec<Slice>,
    /// Size of the data memory image in bytes the program expects.
    mem_bytes: u64,
    /// Per-thread label regions: `(start_pc, label)` pairs sorted by start
    /// PC. A region covers every PC from its start up to (not including)
    /// the next region's start. Purely observational metadata — attribution
    /// exporters map PCs back to workload phases through it; execution
    /// never reads it. May be shorter than `threads` (unlabeled tail).
    labels: Vec<Vec<(u32, String)>>,
}

/// Static instruction mix of a program (see
/// [`Program::instruction_mix`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// Arithmetic/logic/immediate instructions.
    pub arith: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Branches and jumps.
    pub branches: u64,
    /// `ASSOC-ADDR` instructions (instrumented binaries only).
    pub assocs: u64,
    /// Barriers.
    pub barriers: u64,
    /// Halts.
    pub halts: u64,
}

impl InstructionMix {
    /// Total static instructions.
    pub fn total(&self) -> u64 {
        self.arith
            + self.loads
            + self.stores
            + self.branches
            + self.assocs
            + self.barriers
            + self.halts
    }

    /// Stores as a fraction of the total (the density ACR's bookkeeping
    /// scales with).
    pub fn store_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.stores as f64 / self.total() as f64
        }
    }
}

/// Errors produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch or jump targets an out-of-range instruction index.
    BadTarget {
        /// Offending thread.
        thread: ThreadId,
        /// Instruction index of the branch/jump.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// An `ASSOC-ADDR` references a Slice id missing from the table.
    UnknownSlice {
        /// Offending thread.
        thread: ThreadId,
        /// Instruction index of the `ASSOC-ADDR`.
        pc: u32,
        /// The unknown id.
        slice: SliceId,
    },
    /// An `ASSOC-ADDR` is not immediately preceded by a store.
    OrphanAssoc {
        /// Offending thread.
        thread: ThreadId,
        /// Instruction index of the `ASSOC-ADDR`.
        pc: u32,
    },
    /// An `ASSOC-ADDR` captures a different number of registers than its
    /// Slice declares inputs.
    InputArity {
        /// Offending thread.
        thread: ThreadId,
        /// Instruction index of the `ASSOC-ADDR`.
        pc: u32,
        /// Inputs the Slice declares.
        expected: u8,
        /// Registers the instruction captures.
        got: u8,
    },
    /// A thread's stream does not end with `Halt` (or is empty).
    MissingHalt {
        /// Offending thread.
        thread: ThreadId,
    },
    /// An instruction names a register outside the register file
    /// (`r0`..`r31`).
    BadRegister {
        /// Offending thread.
        thread: ThreadId,
        /// Instruction index.
        pc: u32,
        /// The out-of-range register.
        reg: Reg,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadTarget { thread, pc, target } => {
                write!(f, "{thread}@{pc}: branch target {target} out of range")
            }
            ProgramError::UnknownSlice { thread, pc, slice } => {
                write!(f, "{thread}@{pc}: {slice} not in slice table")
            }
            ProgramError::OrphanAssoc { thread, pc } => {
                write!(f, "{thread}@{pc}: assoc-addr not preceded by a store")
            }
            ProgramError::InputArity {
                thread,
                pc,
                expected,
                got,
            } => write!(
                f,
                "{thread}@{pc}: assoc-addr captures {got} registers, slice expects {expected}"
            ),
            ProgramError::MissingHalt { thread } => {
                write!(f, "{thread}: instruction stream does not end with halt")
            }
            ProgramError::BadRegister { thread, pc, reg } => write!(
                f,
                "{thread}@{pc}: register {reg} outside r0..r{}",
                NUM_REGS - 1
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Assembles a program from parts.
    pub fn new(threads: Vec<ThreadCode>, slices: Vec<Slice>, mem_bytes: u64) -> Self {
        Program {
            threads,
            slices,
            mem_bytes,
            labels: Vec::new(),
        }
    }

    /// Installs the label regions of thread `t` as `(start_pc, label)`
    /// pairs; they are kept sorted by start PC so [`Program::label_at`]
    /// can binary-search. Replaces any previous regions for the thread.
    pub fn set_thread_labels(&mut self, t: u32, mut regions: Vec<(u32, String)>) {
        regions.sort_by_key(|(start, _)| *start);
        let idx = t as usize;
        if self.labels.len() <= idx {
            self.labels.resize_with(idx + 1, Vec::new);
        }
        self.labels[idx] = regions;
    }

    /// The label regions of thread `t` (empty when unlabeled).
    pub fn thread_labels(&self, t: u32) -> &[(u32, String)] {
        self.labels
            .get(t as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The label covering `pc` on thread `t`: the region with the largest
    /// start PC that is `<= pc`. `None` when the thread has no regions or
    /// `pc` precedes the first one.
    pub fn label_at(&self, t: u32, pc: u32) -> Option<&str> {
        let regions = self.thread_labels(t);
        let idx = regions.partition_point(|(start, _)| *start <= pc);
        idx.checked_sub(1).map(|i| regions[i].1.as_str())
    }

    /// Number of threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The instruction stream of thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[inline]
    pub fn thread(&self, t: u32) -> &ThreadCode {
        &self.threads[t as usize]
    }

    /// All thread streams.
    #[inline]
    pub fn threads(&self) -> &[ThreadCode] {
        &self.threads
    }

    /// The embedded Slice table.
    #[inline]
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Looks up a Slice by id.
    #[inline]
    pub fn slice(&self, id: SliceId) -> Option<&Slice> {
        self.slices.get(id.0 as usize)
    }

    /// Appends a Slice to the table, returning its id. Used by the slicer.
    pub fn push_slice(&mut self, slice: Slice) -> SliceId {
        let id = SliceId(self.slices.len() as u32);
        self.slices.push(slice);
        id
    }

    /// Size of the data memory image the program expects, in bytes.
    #[inline]
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Total static instruction count across threads (the "binary size" the
    /// paper's footnote 4 bounds: embedded slices stay < 2 % for `is`).
    pub fn static_len(&self) -> usize {
        self.threads.iter().map(ThreadCode::len).sum()
    }

    /// Total instructions across all embedded Slices.
    pub fn slice_table_len(&self) -> usize {
        self.slices.iter().map(Slice::len).sum()
    }

    /// Static instruction mix across all threads.
    pub fn instruction_mix(&self) -> InstructionMix {
        let mut mix = InstructionMix::default();
        for code in &self.threads {
            for i in code.instrs() {
                match i {
                    Instr::Imm { .. } | Instr::Alu { .. } | Instr::AluI { .. } => {
                        mix.arith += 1;
                    }
                    Instr::Load { .. } => mix.loads += 1,
                    Instr::Store { .. } => mix.stores += 1,
                    Instr::Branch { .. } | Instr::Jump { .. } => mix.branches += 1,
                    Instr::AssocAddr { .. } => mix.assocs += 1,
                    Instr::Barrier => mix.barriers += 1,
                    Instr::Halt => mix.halts += 1,
                }
            }
        }
        mix
    }

    /// Structural validation: registers inside the register file, branch
    /// targets in range, `ASSOC-ADDR` adjacency and slice-table references,
    /// `Halt` termination, valid slices.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (ti, code) in self.threads.iter().enumerate() {
            let thread = ThreadId(ti as u32);
            let n = code.len() as u32;
            match code.instrs().last() {
                Some(Instr::Halt) => {}
                _ => return Err(ProgramError::MissingHalt { thread }),
            }
            for (pc, instr) in code.instrs().iter().enumerate() {
                let pc = pc as u32;
                if let Some(reg) = out_of_range_register(instr) {
                    return Err(ProgramError::BadRegister { thread, pc, reg });
                }
                match instr {
                    Instr::Branch { target, .. } | Instr::Jump { target } if *target >= n => {
                        return Err(ProgramError::BadTarget {
                            thread,
                            pc,
                            target: *target,
                        });
                    }
                    Instr::AssocAddr { slice, inputs } => {
                        let Some(s) = self.slice(*slice) else {
                            return Err(ProgramError::UnknownSlice {
                                thread,
                                pc,
                                slice: *slice,
                            });
                        };
                        if s.num_inputs as usize != inputs.len() {
                            return Err(ProgramError::InputArity {
                                thread,
                                pc,
                                expected: s.num_inputs,
                                got: inputs.len() as u8,
                            });
                        }
                        let prev = pc.checked_sub(1).and_then(|p| code.fetch(p));
                        if !matches!(prev, Some(Instr::Store { .. })) {
                            return Err(ProgramError::OrphanAssoc { thread, pc });
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// The first register `instr` names outside the register file, if any
/// (`Instr::uses` would allocate, and `validate` runs on every generated
/// workload).
fn out_of_range_register(instr: &Instr) -> Option<Reg> {
    let regs = match *instr {
        Instr::Imm { rd, .. } => [Some(rd), None, None],
        Instr::Alu { rd, ra, rb, .. } => [Some(rd), Some(ra), Some(rb)],
        Instr::AluI { rd, ra, .. } | Instr::Load { rd, base: ra, .. } => [Some(rd), Some(ra), None],
        Instr::Store { rs, base, .. } => [Some(rs), Some(base), None],
        Instr::Branch { ra, rb, .. } => [Some(ra), Some(rb), None],
        Instr::AssocAddr { inputs, .. } => {
            return inputs.iter().find(|r| usize::from(r.0) >= NUM_REGS)
        }
        Instr::Jump { .. } | Instr::Barrier | Instr::Halt => return None,
    };
    regs.into_iter()
        .flatten()
        .find(|r| usize::from(r.0) >= NUM_REGS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, InputRegs};
    use crate::slice::{SliceInstr, SliceOperand};

    fn one_slice() -> Slice {
        Slice::new(
            vec![SliceInstr {
                op: AluOp::Add,
                a: SliceOperand::Input(0),
                b: SliceOperand::Imm(1),
            }],
            1,
        )
        .unwrap()
    }

    #[test]
    fn validate_accepts_well_formed() {
        let code = ThreadCode::new(vec![
            Instr::Imm { rd: Reg(1), imm: 1 },
            Instr::Store {
                rs: Reg(1),
                base: Reg(0),
                disp: 0,
            },
            Instr::AssocAddr {
                slice: SliceId(0),
                inputs: InputRegs::new(&[Reg(1)]),
            },
            Instr::Halt,
        ]);
        let p = Program::new(vec![code], vec![one_slice()], 4096);
        assert!(p.validate().is_ok());
        assert_eq!(p.static_len(), 4);
        assert_eq!(p.slice_table_len(), 1);
    }

    #[test]
    fn label_regions_cover_half_open_ranges() {
        let code = ThreadCode::new(vec![Instr::Barrier, Instr::Barrier, Instr::Halt]);
        let mut p = Program::new(vec![code], vec![], 0);
        assert_eq!(p.label_at(0, 0), None, "unlabeled program");
        // Install out of order; lookup must still see sorted regions.
        p.set_thread_labels(0, vec![(2, "phase0".to_owned()), (0, "init".to_owned())]);
        assert_eq!(p.label_at(0, 0), Some("init"));
        assert_eq!(p.label_at(0, 1), Some("init"));
        assert_eq!(p.label_at(0, 2), Some("phase0"));
        assert_eq!(p.label_at(0, 99), Some("phase0"), "last region is open");
        assert_eq!(p.label_at(1, 0), None, "missing thread is unlabeled");
        assert_eq!(p.thread_labels(0).len(), 2);
    }

    #[test]
    fn instruction_mix_counts() {
        let code = ThreadCode::new(vec![
            Instr::Imm { rd: Reg(1), imm: 1 },
            Instr::Load {
                rd: Reg(2),
                base: Reg(0),
                disp: 0,
            },
            Instr::Store {
                rs: Reg(1),
                base: Reg(0),
                disp: 8,
            },
            Instr::Jump { target: 4 },
            Instr::Barrier,
            Instr::Halt,
        ]);
        let p = Program::new(vec![code], vec![], 64);
        let mix = p.instruction_mix();
        assert_eq!(mix.arith, 1);
        assert_eq!(mix.loads, 1);
        assert_eq!(mix.stores, 1);
        assert_eq!(mix.branches, 1);
        assert_eq!(mix.barriers, 1);
        assert_eq!(mix.halts, 1);
        assert_eq!(mix.total(), 6);
        assert!((mix.store_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_orphan_assoc() {
        let code = ThreadCode::new(vec![
            Instr::AssocAddr {
                slice: SliceId(0),
                inputs: InputRegs::new(&[Reg(1)]),
            },
            Instr::Halt,
        ]);
        let p = Program::new(vec![code], vec![one_slice()], 0);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::OrphanAssoc { .. })
        ));
    }

    #[test]
    fn validate_rejects_unknown_slice() {
        let code = ThreadCode::new(vec![
            Instr::Store {
                rs: Reg(1),
                base: Reg(0),
                disp: 0,
            },
            Instr::AssocAddr {
                slice: SliceId(9),
                inputs: InputRegs::new(&[]),
            },
            Instr::Halt,
        ]);
        let p = Program::new(vec![code], vec![], 0);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::UnknownSlice { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_target_and_missing_halt() {
        let p = Program::new(
            vec![ThreadCode::new(vec![
                Instr::Jump { target: 5 },
                Instr::Halt,
            ])],
            vec![],
            0,
        );
        assert!(matches!(p.validate(), Err(ProgramError::BadTarget { .. })));

        let p = Program::new(vec![ThreadCode::new(vec![Instr::Barrier])], vec![], 0);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::MissingHalt { .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_registers() {
        // The builder accepts any `Reg(u8)`; the simulator would mask r40
        // to r8 while the slicer keys on the raw index, so validation is
        // where such a program must stop.
        let mut b = crate::ProgramBuilder::new(1);
        let t = b.thread(0);
        t.imm(Reg(1), 1);
        t.alu(AluOp::Add, Reg(2), Reg(1), Reg(40));
        t.halt();
        let p = b.build();
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadRegister {
                thread: ThreadId(0),
                pc: 1,
                reg: Reg(40),
            })
        );
        let e = p.validate().unwrap_err().to_string();
        assert!(e.contains("r40") && e.contains("r31"), "{e}");

        // Every operand position is checked, the register file's top included.
        for instr in [
            Instr::Imm {
                rd: Reg(32),
                imm: 0,
            },
            Instr::Store {
                rs: Reg(1),
                base: Reg(255),
                disp: 0,
            },
            Instr::Branch {
                cond: crate::instr::BranchCond::Eq,
                ra: Reg(0),
                rb: Reg(32),
                target: 0,
            },
        ] {
            let p = Program::new(vec![ThreadCode::new(vec![instr, Instr::Halt])], vec![], 0);
            assert!(matches!(
                p.validate(),
                Err(ProgramError::BadRegister { .. })
            ));
        }
        let p = Program::new(
            vec![ThreadCode::new(vec![
                Instr::Imm {
                    rd: Reg(31),
                    imm: 0,
                },
                Instr::Halt,
            ])],
            vec![],
            0,
        );
        assert_eq!(p.validate(), Ok(()));
    }
}
