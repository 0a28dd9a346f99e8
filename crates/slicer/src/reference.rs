//! The extractor as it was before the linear-time rewrite, kept verbatim
//! as the oracle for the differential property test in `extract.rs`: a
//! backward walk from each store to its block start with a `BTreeSet` of
//! demanded registers, a rescan of the block for clobbers, and a second
//! forward pass to emit the Slice.

use std::collections::{BTreeMap, BTreeSet};

use acr_isa::{Instr, Reg, Slice, SliceInstr, SliceOperand, ThreadCode, MAX_SLICE_INPUTS};

use crate::block::block_of;
use crate::extract::{ExtractedSlice, RejectReason, HARD_LEN_CAP};

/// How the backward walk resolved a demanded register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    /// Constant-folded immediate.
    Imm(u64),
    /// Slice input (load result or block live-in), resolved at `def_pc`
    /// (`None` for live-ins, conceptually resolved at block entry).
    Input { def_pc: Option<u32> },
    /// An included arithmetic instruction at `pc`.
    Arith { pc: u32 },
}

/// The old `extract_store_slice` with precomputed basic blocks (the old
/// pass called this once per store).
pub(crate) fn extract_in_blocks(
    code: &ThreadCode,
    blocks: &[(u32, u32)],
    store_pc: u32,
) -> Result<ExtractedSlice, RejectReason> {
    let Some(Instr::Store { rs, .. }) = code.fetch(store_pc) else {
        return Err(RejectReason::NotAStore);
    };
    let rs = *rs;
    let (bs, _be) = block_of(blocks, store_pc);

    // Backward demand-driven walk.
    let mut demands: BTreeSet<Reg> = BTreeSet::new();
    demands.insert(rs);
    // Resolution per (pc) for included/resolver defs, and per live-in reg.
    let mut resolved_at: BTreeMap<u32, (Reg, Resolution)> = BTreeMap::new();
    let mut included = 0usize;
    for q in (bs..store_pc).rev() {
        let instr = &code.instrs()[q as usize];
        let Some(rd) = instr.def() else { continue };
        if !demands.remove(&rd) {
            continue;
        }
        match instr {
            Instr::Imm { imm, .. } => {
                resolved_at.insert(q, (rd, Resolution::Imm(*imm)));
            }
            Instr::Load { .. } => {
                resolved_at.insert(q, (rd, Resolution::Input { def_pc: Some(q) }));
            }
            Instr::Alu { ra, rb, .. } => {
                included += 1;
                if included > HARD_LEN_CAP {
                    return Err(RejectReason::TooLong);
                }
                resolved_at.insert(q, (rd, Resolution::Arith { pc: q }));
                demands.insert(*ra);
                demands.insert(*rb);
            }
            Instr::AluI { ra, .. } => {
                included += 1;
                if included > HARD_LEN_CAP {
                    return Err(RejectReason::TooLong);
                }
                resolved_at.insert(q, (rd, Resolution::Arith { pc: q }));
                demands.insert(*ra);
            }
            _ => unreachable!("def() only for Imm/Alu/AluI/Load"),
        }
    }
    // Remaining demands are block live-ins → inputs.
    let live_ins: Vec<Reg> = demands.iter().copied().collect();

    // Assign input slots in deterministic order: live-ins first (by reg),
    // then load-resolved inputs by position.
    let mut input_regs: Vec<Reg> = Vec::new();
    let mut input_of: BTreeMap<(Option<u32>, Reg), u8> = BTreeMap::new();
    for r in &live_ins {
        input_of.insert((None, *r), input_regs.len() as u8);
        input_regs.push(*r);
    }
    for (&q, &(rd, res)) in &resolved_at {
        if matches!(res, Resolution::Input { .. }) {
            input_of.insert((Some(q), rd), input_regs.len() as u8);
            input_regs.push(rd);
        }
    }
    if input_regs.len() > MAX_SLICE_INPUTS {
        return Err(RejectReason::TooManyInputs);
    }

    // Capture validity: an input register must not be redefined between
    // its resolver and the store (the ASSOC-ADDR reads the register file).
    for &(def_pc, r) in input_of.keys() {
        let from = def_pc.map_or(bs, |q| q + 1);
        for q in from..store_pc {
            if code.instrs()[q as usize].def() == Some(r) {
                // The resolver itself is at def_pc (excluded by `from`).
                return Err(RejectReason::InputClobbered);
            }
        }
    }

    // Forward pass: build Slice instructions in dependence order.
    let mut cur: BTreeMap<Reg, SliceOperand> = BTreeMap::new();
    for r in &live_ins {
        cur.insert(*r, SliceOperand::Input(input_of[&(None, *r)]));
    }
    let mut instrs: Vec<SliceInstr> = Vec::new();
    for q in bs..store_pc {
        let instr = &code.instrs()[q as usize];
        match resolved_at.get(&q) {
            Some(&(rd, Resolution::Imm(v))) => {
                cur.insert(rd, SliceOperand::Imm(v));
            }
            Some(&(rd, Resolution::Input { def_pc })) => {
                cur.insert(rd, SliceOperand::Input(input_of[&(def_pc, rd)]));
            }
            Some(&(rd, Resolution::Arith { .. })) => {
                let (op, a, b) = match instr {
                    Instr::Alu { op, ra, rb, .. } => (*op, cur[ra], cur[rb]),
                    Instr::AluI { op, ra, imm, .. } => (*op, cur[ra], SliceOperand::Imm(*imm)),
                    _ => unreachable!("arith resolution on non-arith"),
                };
                let idx = instrs.len() as u16;
                instrs.push(SliceInstr { op, a, b });
                cur.insert(rd, SliceOperand::Temp(idx));
            }
            None => {
                // A def not in the slice kills any stale mapping.
                if let Some(rd) = instr.def() {
                    cur.remove(&rd);
                }
            }
        }
    }

    // The stored value.
    let result = cur.get(&rs).copied();
    match result {
        Some(SliceOperand::Temp(t)) if t as usize == instrs.len() - 1 => {}
        Some(SliceOperand::Imm(v)) => {
            // Store of a constant: a one-instruction Slice regenerates it.
            debug_assert!(instrs.is_empty() || result.is_some());
            instrs.push(SliceInstr {
                op: acr_isa::AluOp::Add,
                a: SliceOperand::Imm(v),
                b: SliceOperand::Imm(0),
            });
        }
        Some(SliceOperand::Input(_)) | None => {
            // Pure copy of a load/live-in, or unresolved: recomputation
            // cannot beat checkpointing.
            return Err(RejectReason::NoArith);
        }
        Some(SliceOperand::Temp(t)) => {
            // The final value is an intermediate temp (later slice instrs
            // were for other registers — possible when rd chains diverge).
            // Append a copy so the last instruction produces the value.
            instrs.push(SliceInstr {
                op: acr_isa::AluOp::Add,
                a: SliceOperand::Temp(t),
                b: SliceOperand::Imm(0),
            });
        }
    }

    // Drop inputs that ended up unused (their uses were all resolved to
    // later defs)? They were demanded, so they are used by construction.
    let slice = Slice::new(instrs, input_regs.len() as u8).map_err(|_| RejectReason::NoArith)?;
    Ok(ExtractedSlice {
        slice,
        input_regs,
        store_pc,
    })
}
