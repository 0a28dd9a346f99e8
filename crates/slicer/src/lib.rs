//! # acr-slicer — the ACR compiler pass (Pin-tool substitute)
//!
//! The paper implements ACR's compiler pass as a Pin tool that extracts
//! backward slices for stored values and embeds them into the binary
//! (Sections III-A and IV). This crate is the equivalent pass over our IR:
//!
//! 1. **Backward slicing** ([`extract_store_slice`]): for every static
//!    store, follow the data-dependence chain backwards within the store's
//!    basic block. Arithmetic producers become Slice instructions; loads
//!    and block-live-in registers are *cut* and become Slice inputs
//!    (Fig. 3(d) of the paper — inputs come from the operand buffer, never
//!    memory); immediates are constant-folded into operands. One forward
//!    pass per block records register use-def links, and each store's
//!    Slice is the closure of those links from the stored register, so
//!    the pass is linear in the block plus the Slices it extracts.
//! 2. **Filtering** ([`SlicerConfig`]): Slices longer than the threshold
//!    (Section V-D1; default 10) are dropped, as are Slices with zero
//!    arithmetic instructions (buffering the inputs would be equivalent to
//!    checkpointing the value itself) and Slices needing more inputs than
//!    the operand buffer provides.
//! 3. **Capture validity**: an input register must still hold the input
//!    value when the `ASSOC-ADDR` executes; stores whose inputs are
//!    clobbered before the association point are rejected.
//! 4. **Embedding** ([`instrument`]): an `ASSOC-ADDR` is inserted
//!    immediately after every sliceable store (the paper executes the pair
//!    atomically); duplicate Slices are shared through the program's Slice
//!    table, keeping the binary-size overhead small (the paper reports
//!    < 2 % even for `is`).
//!
//! The reference interpreter's `verify_slices` mode checks, at every
//! executed `ASSOC-ADDR`, that the embedded Slice reproduces the stored
//! value — the end-to-end correctness oracle for this pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod extract;
mod pass;
#[cfg(test)]
mod reference;

pub use block::basic_blocks;
pub use extract::{extract_store_slice, ExtractedSlice, RejectReason};
pub use pass::{instrument, SliceStats, SlicerConfig};
