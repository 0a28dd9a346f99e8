//! Backward slice extraction: one forward use-def pass per basic block.

use std::fmt;

use acr_isa::{
    AluOp, Instr, Reg, Slice, SliceInstr, SliceOperand, ThreadCode, MAX_SLICE_INPUTS, NUM_REGS,
};

use crate::block::{basic_blocks, block_of};

/// Why a store could not be given a Slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// The stored value involves no arithmetic (a pure copy of a load or a
    /// live-in): buffering its inputs would be equivalent to checkpointing
    /// the value itself, so recomputation cannot win.
    NoArith,
    /// The Slice exceeds the configured length threshold (applied by the
    /// pass, recorded here when an explicit cap is used).
    TooLong,
    /// More inputs than the operand buffer can capture.
    TooManyInputs,
    /// An input register is overwritten between its producing point and
    /// the `ASSOC-ADDR`, so its value cannot be captured from the register
    /// file (Section II-B discusses scratchpad alternatives; we model the
    /// simple register-file capture).
    InputClobbered,
    /// The instruction at the given pc is not a store.
    NotAStore,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::NoArith => "no arithmetic in producer chain",
            RejectReason::TooLong => "slice exceeds length threshold",
            RejectReason::TooManyInputs => "too many input operands",
            RejectReason::InputClobbered => "input register clobbered before assoc",
            RejectReason::NotAStore => "not a store instruction",
        };
        f.write_str(s)
    }
}

/// A successfully extracted Slice for one static store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedSlice {
    /// The Slice (validated).
    pub slice: Slice,
    /// Registers to capture as inputs, in Slice input order.
    pub input_regs: Vec<Reg>,
    /// The store's instruction index.
    pub store_pc: u32,
}

/// Hard cap on extracted slice length; Table II sweeps thresholds up to
/// 50, so anything beyond this is never useful.
pub(crate) const HARD_LEN_CAP: usize = 256;

/// The def pc of a register with no def yet in the current block: a
/// block live-in.
const LIVE_IN: u32 = u32::MAX;

// Register sets are `u32` masks.
const _: () = assert!(NUM_REGS <= 32);

/// Extracts the backward slice for the store at `store_pc` of thread
/// `code`.
///
/// # Errors
///
/// Returns the [`RejectReason`] making the store unsliceable.
pub fn extract_store_slice(
    code: &ThreadCode,
    store_pc: u32,
) -> Result<ExtractedSlice, RejectReason> {
    if !matches!(code.fetch(store_pc), Some(Instr::Store { .. })) {
        return Err(RejectReason::NotAStore);
    }
    let (bs, _) = block_of(&basic_blocks(code), store_pc);
    let mut pass = UseDefPass::new(code);
    pass.enter_block(bs, store_pc + 1);
    for pc in bs..store_pc {
        pass.step(pc);
    }
    pass.extract(store_pc)
}

/// Extracts the Slice of every store of `code`, in pc order, with one
/// forward use-def pass per basic block.
pub(crate) fn extract_all(
    code: &ThreadCode,
    mut on_store: impl FnMut(u32, Result<ExtractedSlice, RejectReason>),
) {
    let mut pass = UseDefPass::new(code);
    for (bs, be) in basic_blocks(code) {
        pass.enter_block(bs, be);
        for pc in bs..be {
            if matches!(code.instrs()[pc as usize], Instr::Store { .. }) {
                on_store(pc, pass.extract(pc));
            }
            pass.step(pc);
        }
    }
}

/// What the pass keeps per instruction of the current block.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Latest-def pcs of an `Alu`'s `ra`/`rb` when it executes (an `AluI`
    /// uses slot 0): its use-def links.
    links: [u32; 2],
    /// The store whose walk last reached this def.
    seen: u32,
    /// The operand this def contributes to that store's Slice.
    operand: SliceOperand,
}

impl Node {
    const FRESH: Node = Node {
        links: [LIVE_IN; 2],
        seen: LIVE_IN,
        operand: SliceOperand::Imm(0),
    };
}

/// The forward use-def pass over a thread's basic blocks.
///
/// [`UseDefPass::step`] records, for each `Alu`/`AluI`, the pc of the latest
/// def of each source register in the block, then makes the instruction
/// the latest def of its destination. At a store, [`UseDefPass::extract`]
/// walks those links back from the stored register: the closure is the
/// Slice, a link with no def is a block live-in, and a load ends the walk
/// as an input. The cost is linear in the block plus each store's
/// closure, which [`HARD_LEN_CAP`] bounds.
struct UseDefPass<'c> {
    instrs: &'c [Instr],
    /// First pc of the current block; `nodes[pc - bs]` is pc's node.
    bs: u32,
    nodes: Vec<Node>,
    /// Latest def pc of each register in the current block, or [`LIVE_IN`].
    last_def: [u32; NUM_REGS],
    /// Registers with a def in the current block.
    defined: u32,
    /// Walk worklist.
    stack: Vec<u32>,
    /// Def pcs of the current store's closure.
    closure: Vec<u32>,
}

impl<'c> UseDefPass<'c> {
    fn new(code: &'c ThreadCode) -> Self {
        UseDefPass {
            instrs: code.instrs(),
            bs: 0,
            nodes: Vec::new(),
            last_def: [LIVE_IN; NUM_REGS],
            defined: 0,
            stack: Vec::new(),
            closure: Vec::new(),
        }
    }

    /// Starts the block `[bs, be)`: every register becomes a live-in.
    fn enter_block(&mut self, bs: u32, be: u32) {
        self.bs = bs;
        self.nodes.clear();
        self.nodes.resize((be - bs) as usize, Node::FRESH);
        self.last_def = [LIVE_IN; NUM_REGS];
        self.defined = 0;
    }

    fn node(&mut self, pc: u32) -> &mut Node {
        &mut self.nodes[(pc - self.bs) as usize]
    }

    /// Records the use-def links of the instruction at `pc`, then its def.
    fn step(&mut self, pc: u32) {
        let instr = self.instrs[pc as usize];
        let last_def = self.last_def;
        match instr {
            Instr::Alu { ra, rb, .. } => {
                self.node(pc).links = [last_def[ra.index()], last_def[rb.index()]];
            }
            Instr::AluI { ra, .. } => self.node(pc).links[0] = last_def[ra.index()],
            _ => {}
        }
        if let Some(rd) = instr.def() {
            self.last_def[rd.index()] = pc;
            self.defined |= 1 << rd.index();
        }
    }

    /// Extracts the Slice of the store at `store_pc`, every earlier
    /// instruction of its block having been stepped.
    fn extract(&mut self, store_pc: u32) -> Result<ExtractedSlice, RejectReason> {
        let Instr::Store { rs, .. } = self.instrs[store_pc as usize] else {
            return Err(RejectReason::NotAStore);
        };
        let instrs = self.instrs;

        // The closure of the use-def links from `rs`.
        self.stack.clear();
        self.closure.clear();
        let mut live_in = 0u32;
        let mut included = 0usize;
        self.visit(rs, self.last_def[rs.index()], store_pc, &mut live_in);
        while let Some(q) = self.stack.pop() {
            self.closure.push(q);
            let [a, b] = self.node(q).links;
            match instrs[q as usize] {
                Instr::Alu { ra, rb, .. } => {
                    included += 1;
                    self.visit(ra, a, store_pc, &mut live_in);
                    self.visit(rb, b, store_pc, &mut live_in);
                }
                Instr::AluI { ra, .. } => {
                    included += 1;
                    self.visit(ra, a, store_pc, &mut live_in);
                }
                // An immediate folds into an operand; a load is cut into an
                // input.
                _ => {}
            }
            if included > HARD_LEN_CAP {
                return Err(RejectReason::TooLong);
            }
        }
        self.closure.sort_unstable();
        let bs = self.bs;

        // Inputs: live-ins by register, then loads by pc. A live-in must
        // have no def before the store, a load must be its register's
        // latest def there (the ASSOC-ADDR reads the register file).
        let mut input_regs: Vec<Reg> = (0..NUM_REGS)
            .filter(|&r| live_in & (1 << r) != 0)
            .map(|r| Reg(r as u8))
            .collect();
        let mut clobbered = live_in & self.defined != 0;
        for &q in &self.closure {
            if let Instr::Load { rd, .. } = instrs[q as usize] {
                self.nodes[(q - bs) as usize].operand = SliceOperand::Input(input_regs.len() as u8);
                input_regs.push(rd);
                clobbered |= self.last_def[rd.index()] != q;
            }
        }
        if input_regs.len() > MAX_SLICE_INPUTS {
            return Err(RejectReason::TooManyInputs);
        }
        if clobbered {
            return Err(RejectReason::InputClobbered);
        }

        // Emit the arithmetic in pc (hence dependence) order.
        let mut out: Vec<SliceInstr> = Vec::new();
        for &q in &self.closure {
            let [a, b] = self.nodes[(q - bs) as usize].links;
            let operand = match instrs[q as usize] {
                Instr::Imm { imm, .. } => SliceOperand::Imm(imm),
                Instr::Alu { op, ra, rb, .. } => {
                    let (a, b) = (self.source(ra, a, live_in), self.source(rb, b, live_in));
                    out.push(SliceInstr { op, a, b });
                    SliceOperand::Temp(out.len() as u16 - 1)
                }
                Instr::AluI { op, ra, imm, .. } => {
                    let a = self.source(ra, a, live_in);
                    out.push(SliceInstr {
                        op,
                        a,
                        b: SliceOperand::Imm(imm),
                    });
                    SliceOperand::Temp(out.len() as u16 - 1)
                }
                _ => continue,
            };
            self.nodes[(q - bs) as usize].operand = operand;
        }

        // The stored value. Its def is the latest in the closure, so an
        // arithmetic one is already the last instruction.
        match self.source(rs, self.last_def[rs.index()], live_in) {
            SliceOperand::Temp(t) => debug_assert_eq!(usize::from(t), out.len() - 1),
            // Store of a constant: a one-instruction Slice regenerates it.
            SliceOperand::Imm(v) => out.push(SliceInstr {
                op: AluOp::Add,
                a: SliceOperand::Imm(v),
                b: SliceOperand::Imm(0),
            }),
            // Pure copy of a load/live-in: recomputation cannot beat
            // checkpointing.
            SliceOperand::Input(_) => return Err(RejectReason::NoArith),
        }
        let slice = Slice::new(out, input_regs.len() as u8).map_err(|_| RejectReason::NoArith)?;
        Ok(ExtractedSlice {
            slice,
            input_regs,
            store_pc,
        })
    }

    /// Adds the link `(reg, def)` to the walk of the store at `store_pc`.
    fn visit(&mut self, reg: Reg, def: u32, store_pc: u32, live_in: &mut u32) {
        if def == LIVE_IN {
            *live_in |= 1 << reg.index();
        } else if self.node(def).seen != store_pc {
            self.node(def).seen = store_pc;
            self.stack.push(def);
        }
    }

    /// The Slice operand for source `reg` whose latest def is `def`.
    fn source(&self, reg: Reg, def: u32, live_in: u32) -> SliceOperand {
        if def == LIVE_IN {
            let below = live_in & ((1 << reg.index()) - 1);
            SliceOperand::Input(below.count_ones() as u8)
        } else {
            self.nodes[(def - self.bs) as usize].operand
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_isa::{BranchCond, ProgramBuilder};
    use acr_rng::check::forall;
    use acr_rng::SmallRng;

    use crate::reference;

    fn code_of(build: impl FnOnce(&mut acr_isa::ThreadBuilder)) -> acr_isa::Program {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(4096);
        build(b.thread(0));
        b.build()
    }

    #[test]
    fn expression_tree_extracted() {
        // r3 = (r1 + r2) * r1, store r3. r1, r2 live-in.
        let p = code_of(|t| {
            t.alu(AluOp::Add, Reg(3), Reg(1), Reg(2));
            t.alu(AluOp::Mul, Reg(3), Reg(3), Reg(1));
            t.store(Reg(3), Reg(0), 0);
            t.halt();
        });
        let e = extract_store_slice(p.thread(0), 2).unwrap();
        assert_eq!(e.slice.len(), 2);
        assert_eq!(e.input_regs, vec![Reg(1), Reg(2)]);
        // Verify semantics: inputs r1=5, r2=7 → (5+7)*5 = 60.
        assert_eq!(e.slice.execute(&[5, 7]).unwrap(), 60);
    }

    #[test]
    fn loads_become_inputs() {
        // Fig 3(d): loads feed the slice through the operand buffer.
        let p = code_of(|t| {
            t.load(Reg(1), Reg(0), 8);
            t.load(Reg(2), Reg(0), 16);
            t.alu(AluOp::Add, Reg(3), Reg(1), Reg(2));
            t.store(Reg(3), Reg(0), 24);
            t.halt();
        });
        let e = extract_store_slice(p.thread(0), 3).unwrap();
        assert_eq!(e.slice.len(), 1);
        assert_eq!(e.slice.num_inputs, 2);
        assert_eq!(e.slice.execute(&[3, 4]).unwrap(), 7);
    }

    #[test]
    fn immediates_fold_into_operands() {
        let p = code_of(|t| {
            t.imm(Reg(1), 100);
            t.alui(AluOp::Add, Reg(2), Reg(1), 23);
            t.store(Reg(2), Reg(0), 0);
            t.halt();
        });
        let e = extract_store_slice(p.thread(0), 2).unwrap();
        assert_eq!(e.slice.len(), 1);
        assert_eq!(e.slice.num_inputs, 0);
        assert_eq!(e.slice.execute(&[]).unwrap(), 123);
    }

    #[test]
    fn constant_store_gets_unit_slice() {
        let p = code_of(|t| {
            t.imm(Reg(1), 55);
            t.store(Reg(1), Reg(0), 0);
            t.halt();
        });
        let e = extract_store_slice(p.thread(0), 1).unwrap();
        assert_eq!(e.slice.len(), 1);
        assert_eq!(e.slice.execute(&[]).unwrap(), 55);
    }

    #[test]
    fn pure_copy_rejected() {
        let p = code_of(|t| {
            t.load(Reg(1), Reg(0), 8);
            t.store(Reg(1), Reg(0), 16);
            t.halt();
        });
        assert_eq!(
            extract_store_slice(p.thread(0), 1),
            Err(RejectReason::NoArith)
        );
    }

    #[test]
    fn clobbered_input_rejected() {
        // r1 loaded, used, then r1 reloaded before the store: the first
        // load's value cannot be captured at the assoc.
        let p = code_of(|t| {
            t.load(Reg(1), Reg(0), 8);
            t.alu(AluOp::Add, Reg(3), Reg(1), Reg(1));
            t.load(Reg(1), Reg(0), 16); // clobbers input r1
            t.alu(AluOp::Add, Reg(4), Reg(3), Reg(3));
            t.store(Reg(4), Reg(0), 24);
            t.halt();
        });
        assert_eq!(
            extract_store_slice(p.thread(0), 4),
            Err(RejectReason::InputClobbered)
        );
    }

    #[test]
    fn redefined_register_resolves_to_nearest_def() {
        // r1 = in + in; r2 = r1 * 3; r1 = 7 (imm); r3 = r2 + r1; store r3.
        let p = code_of(|t| {
            t.alu(AluOp::Add, Reg(1), Reg(5), Reg(5));
            t.alui(AluOp::Mul, Reg(2), Reg(1), 3);
            t.imm(Reg(1), 7);
            t.alu(AluOp::Add, Reg(3), Reg(2), Reg(1));
            t.store(Reg(3), Reg(0), 0);
            t.halt();
        });
        let e = extract_store_slice(p.thread(0), 4).unwrap();
        // r5 live-in; (r5+r5)*3 + 7
        assert_eq!(e.input_regs, vec![Reg(5)]);
        assert_eq!(e.slice.execute(&[2]).unwrap(), (2 + 2) * 3 + 7);
    }

    #[test]
    fn slice_confined_to_basic_block() {
        // The producing arithmetic sits before a loop; the store is inside
        // the loop body, in a different block: the value is a live-in.
        let p = code_of(|t| {
            t.alu(AluOp::Add, Reg(6), Reg(1), Reg(2));
            let l = t.begin_loop(Reg(3), Reg(4), 2);
            t.store(Reg(6), Reg(0), 0);
            t.end_loop(l);
            t.halt();
        });
        // store is at pc 4 (0 add, 1-2 loop imms, 3 branch, 4 store).
        assert_eq!(
            extract_store_slice(p.thread(0), 4),
            Err(RejectReason::NoArith)
        );
    }

    #[test]
    fn too_many_inputs_rejected() {
        // Nine distinct loads feed the stored value: one more input than
        // the operand buffer captures.
        let p = code_of(|t| {
            for j in 0..9u8 {
                t.load(Reg(16 + j), Reg(0), u64::from(j) * 8);
            }
            t.alu(AluOp::Add, Reg(28), Reg(16), Reg(17));
            for j in 2..9u8 {
                t.alu(AluOp::Add, Reg(28), Reg(28), Reg(16 + j));
            }
            t.store(Reg(28), Reg(0), 128);
            t.halt();
        });
        assert_eq!(
            extract_store_slice(p.thread(0), 17),
            Err(RejectReason::TooManyInputs)
        );
    }

    #[test]
    fn eight_inputs_accepted() {
        let p = code_of(|t| {
            for j in 0..8u8 {
                t.load(Reg(16 + j), Reg(0), u64::from(j) * 8);
            }
            t.alu(AluOp::Add, Reg(28), Reg(16), Reg(17));
            for j in 2..8u8 {
                t.alu(AluOp::Add, Reg(28), Reg(28), Reg(16 + j));
            }
            t.store(Reg(28), Reg(0), 128);
            t.halt();
        });
        let e = extract_store_slice(p.thread(0), 15).unwrap();
        assert_eq!(e.slice.num_inputs, 8);
        assert_eq!(e.slice.execute(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap(), 36);
    }

    #[test]
    fn not_a_store_rejected() {
        let p = code_of(|t| {
            t.imm(Reg(1), 1);
            t.halt();
        });
        assert_eq!(
            extract_store_slice(p.thread(0), 0),
            Err(RejectReason::NotAStore)
        );
    }

    #[test]
    fn long_dependence_chain_counts_length() {
        let p = code_of(|t| {
            t.alu(AluOp::Add, Reg(1), Reg(2), Reg(3));
            for _ in 0..20 {
                t.alui(AluOp::Add, Reg(1), Reg(1), 1);
            }
            t.store(Reg(1), Reg(0), 0);
            t.halt();
        });
        let e = extract_store_slice(p.thread(0), 21).unwrap();
        assert_eq!(e.slice.len(), 21);
        assert_eq!(e.slice.execute(&[10, 5]).unwrap(), 35);
    }

    const OPS: [AluOp; 6] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Max,
    ];

    /// A random thread: blocks of mixed arithmetic, loads and stores over a
    /// register pool small enough to force reuse (so live-ins, shared
    /// producers and clobbered inputs are common), split by random branches,
    /// with occasional straight-line chains longer than [`HARD_LEN_CAP`] and
    /// fans of more loads than [`MAX_SLICE_INPUTS`].
    fn random_thread(rng: &mut SmallRng) -> ThreadCode {
        let pool = *rng.choose(&[3u8, 6, 12, 32]);
        let base = rng.gen_range(0..=32 - pool);
        let reg = |rng: &mut SmallRng| Reg(base + rng.gen_range(0..pool));
        let mut out: Vec<Instr> = Vec::new();
        let segments = rng.gen_range(1..8u32);
        for _ in 0..segments {
            match rng.gen_range(0..10u32) {
                0 => {
                    // A chain around the length cap.
                    let r = reg(rng);
                    out.push(Instr::Load {
                        rd: r,
                        base: reg(rng),
                        disp: 8,
                    });
                    for _ in 0..rng.gen_range(250..270u32) {
                        out.push(Instr::AluI {
                            op: *rng.choose(&OPS),
                            rd: r,
                            ra: r,
                            imm: rng.gen_range(0..4u64),
                        });
                    }
                    out.push(Instr::Store {
                        rs: r,
                        base: reg(rng),
                        disp: 0,
                    });
                }
                1 => {
                    // A sum over 6..12 loads, around the input cap.
                    let n = rng.gen_range(6..12u8);
                    let first = rng.gen_range(0..=32 - n - 1);
                    for j in 0..n {
                        out.push(Instr::Load {
                            rd: Reg(first + j),
                            base: reg(rng),
                            disp: u64::from(j) * 8,
                        });
                    }
                    let acc = Reg(first + n);
                    out.push(Instr::AluI {
                        op: AluOp::Add,
                        rd: acc,
                        ra: Reg(first),
                        imm: 0,
                    });
                    for j in 1..n {
                        out.push(Instr::Alu {
                            op: *rng.choose(&OPS),
                            rd: acc,
                            ra: acc,
                            rb: Reg(first + j),
                        });
                    }
                    out.push(Instr::Store {
                        rs: acc,
                        base: reg(rng),
                        disp: 0,
                    });
                }
                _ => {
                    for _ in 0..rng.gen_range(1..60u32) {
                        out.push(match rng.gen_range(0..20u32) {
                            0..=6 => Instr::Alu {
                                op: *rng.choose(&OPS),
                                rd: reg(rng),
                                ra: reg(rng),
                                rb: reg(rng),
                            },
                            7..=9 => Instr::AluI {
                                op: *rng.choose(&OPS),
                                rd: reg(rng),
                                ra: reg(rng),
                                imm: rng.gen_range(0..100u64),
                            },
                            10..=11 => Instr::Imm {
                                rd: reg(rng),
                                imm: rng.gen_range(0..100u64),
                            },
                            12..=14 => Instr::Load {
                                rd: reg(rng),
                                base: reg(rng),
                                disp: 8,
                            },
                            15 => Instr::Barrier,
                            // Patched below into a branch to a random pc.
                            16 => Instr::Jump { target: u32::MAX },
                            _ => Instr::Store {
                                rs: reg(rng),
                                base: reg(rng),
                                disp: 0,
                            },
                        });
                    }
                }
            }
        }
        out.push(Instr::Halt);
        let n = out.len() as u32;
        for instr in &mut out {
            if matches!(instr, Instr::Jump { target: u32::MAX }) {
                let target = rng.gen_range(0..n);
                *instr = if rng.gen_bool() {
                    Instr::Jump { target }
                } else {
                    Instr::Branch {
                        cond: BranchCond::Ne,
                        ra: reg(rng),
                        rb: reg(rng),
                        target,
                    }
                };
            }
        }
        ThreadCode::new(out)
    }

    /// The linear-time extractor, through both the per-block pass the
    /// compiler pass uses and the single-store entry point, returns
    /// exactly the reference extractor's `Result` for every store.
    #[test]
    fn matches_reference_extractor() {
        // Outcomes seen, so the generator provably reaches every path.
        let mut seen = [0u32; 5];
        forall("matches_reference_extractor", 300, 0x51ce, |rng| {
            let code = random_thread(rng);
            let blocks = basic_blocks(&code);
            let mut stores = Vec::new();
            extract_all(&code, |pc, got| stores.push((pc, got)));
            let store_pcs: Vec<u32> = (0..code.len() as u32)
                .filter(|&pc| matches!(code.fetch(pc), Some(Instr::Store { .. })))
                .collect();
            assert_eq!(
                stores.iter().map(|(pc, _)| *pc).collect::<Vec<_>>(),
                store_pcs,
                "every store, in pc order"
            );
            for (pc, got) in stores {
                let want = reference::extract_in_blocks(&code, &blocks, pc);
                assert_eq!(got, want, "pass, store at pc {pc}");
                assert_eq!(extract_store_slice(&code, pc), want, "store at pc {pc}");
                seen[match want {
                    Ok(_) => 0,
                    Err(RejectReason::NoArith) => 1,
                    Err(RejectReason::TooLong) => 2,
                    Err(RejectReason::TooManyInputs) => 3,
                    Err(RejectReason::InputClobbered) => 4,
                    Err(RejectReason::NotAStore) => unreachable!("a store"),
                }] += 1;
            }
            let pc = rng.gen_range(0..code.len() as u32);
            assert_eq!(
                extract_store_slice(&code, pc),
                reference::extract_in_blocks(&code, &blocks, pc)
            );
        });
        assert!(seen.iter().all(|&n| n > 0), "outcomes covered: {seen:?}");
    }
}
