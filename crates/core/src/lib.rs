//! # acr — Amnesic Checkpointing and Recovery
//!
//! Reproduction of the primary contribution of *ACR: Amnesic Checkpointing
//! and Recovery* (Akturk & Karpuzcu, HPCA 2020). ACR reduces the overhead
//! of backward error recovery by **omitting recomputable values from
//! checkpoints**: the old values that incremental checkpointing would log
//! are instead regenerated during recovery by executing short, memory-free
//! backward Slices that the compiler embedded into the binary.
//!
//! This crate supplies the on-chip machinery of Fig. 5 of the paper and
//! the experiment API used by the figure/table harnesses:
//!
//! * [`AddrMap`] — the versioned ⟨memory address, Slice address⟩ buffer
//!   (plus the captured input operands, i.e. the operand buffer), keeping
//!   the mappings of the two most recent checkpoints (Section III-A);
//! * [`AcrPolicy`] — the ACR checkpoint handler + recovery handler pair,
//!   implemented as an `acr-ckpt` [`acr_ckpt::OmissionPolicy`]: it decides
//!   at each first update whether the old value may be omitted and
//!   regenerates omitted values during recovery (Fig. 4);
//! * [`Experiment`]/[`RunResult`] — one-call runners for the paper's
//!   configurations (`No_Ckpt`, `Ckpt_{NE,E}`, `ReCkpt_{NE,E}`, and their
//!   `Loc` variants), with time, energy and EDP accounting.
//!
//! ## Quick start
//!
//! ```
//! use acr::{Experiment, ExperimentSpec};
//! use acr_isa::{AluOp, ProgramBuilder, Reg};
//!
//! // A tiny kernel: fill a buffer with i*3+7.
//! let mut b = ProgramBuilder::new(1);
//! b.set_mem_bytes(1 << 16);
//! let t = b.thread(0);
//! t.imm(Reg(10), 4096);
//! let l = t.begin_loop(Reg(1), Reg(2), 100);
//! t.alui(AluOp::Mul, Reg(3), Reg(1), 3);
//! t.alui(AluOp::Add, Reg(3), Reg(3), 7);
//! t.alui(AluOp::Mul, Reg(4), Reg(1), 8);
//! t.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
//! t.store(Reg(3), Reg(5), 0);
//! t.end_loop(l);
//! t.halt();
//! let program = b.build();
//!
//! let spec = ExperimentSpec::default().with_cores(1);
//! let mut exp = Experiment::new(program, spec)?;
//! let no_ckpt = exp.run_no_ckpt()?;
//! let ckpt = exp.run_ckpt(0)?;      // 0 errors: Ckpt_NE
//! let reckpt = exp.run_reckpt(0)?;  // ReCkpt_NE
//! assert!(ckpt.cycles >= no_ckpt.cycles);
//! assert!(reckpt.checkpoint_bytes() <= ckpt.checkpoint_bytes());
//! # Ok::<(), acr::ExperimentError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr_map;
mod experiment;
pub mod placement;
mod policy;
mod stats;
mod sweep;

pub use addr_map::{AddrMap, AddrMapConfig, AddrMapUsage, AssocState};
pub use experiment::{CampaignRunResult, Experiment, ExperimentError, ExperimentSpec, RunResult};
pub use policy::AcrPolicy;
pub use stats::AcrStats;
pub use sweep::{campaign_sweep, sweep};
