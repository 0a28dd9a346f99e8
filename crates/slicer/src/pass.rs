//! The instrumentation pass: filter extracted Slices and embed
//! `ASSOC-ADDR` instructions into the binary.

use std::collections::{BTreeMap, HashMap};

use acr_isa::{InputRegs, Instr, Program, Slice, SliceId, ThreadCode};

use crate::extract::{extract_all, RejectReason};

/// Pass configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicerConfig {
    /// Maximum Slice length in instructions (Section V-D1; the paper's
    /// default threshold is 10, reduced to 5 for `is`).
    pub threshold: usize,
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig { threshold: 10 }
    }
}

/// Pass statistics: static coverage and rejection breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// Static stores examined.
    pub static_stores: u64,
    /// Stores instrumented with an `ASSOC-ADDR`.
    pub sliced_stores: u64,
    /// Extracted but dropped: longer than the threshold. Counts every
    /// length-based drop, whether the extractor bailed out early or the
    /// finished slice failed the threshold filter (see
    /// [`SliceStats::rejected_threshold_filter`] for the latter alone).
    pub rejected_too_long: u64,
    /// Subset of [`SliceStats::rejected_too_long`]: slices that extracted
    /// successfully but were dropped by the `cfg.threshold` length filter.
    /// Distinct so the runtime ledger's `logged:slice-too-long` reason can
    /// be cross-checked against the compiler pass.
    pub rejected_threshold_filter: u64,
    /// Post-instrumentation `(thread, pc)` of every store whose slice was
    /// dropped for length — the static anchor for the runtime ledger's
    /// `logged:slice-too-long` classification.
    pub rejected_store_pcs: Vec<(u32, u32)>,
    /// No arithmetic in the producer chain.
    pub rejected_no_arith: u64,
    /// More inputs than the operand buffer captures.
    pub rejected_too_many_inputs: u64,
    /// Input register clobbered before the association point.
    pub rejected_input_clobbered: u64,
    /// Histogram of *accepted* Slice lengths.
    pub length_histogram: BTreeMap<usize, u64>,
    /// Unique Slices in the embedded table (duplicates are shared).
    pub unique_slices: u64,
    /// Total instructions across the embedded Slice table — the paper's
    /// binary-size overhead metric (footnote 4: < 2 % for `is`).
    pub embedded_slice_instrs: u64,
}

impl SliceStats {
    /// Fraction of static stores that received a Slice.
    pub fn static_coverage(&self) -> f64 {
        if self.static_stores == 0 {
            0.0
        } else {
            self.sliced_stores as f64 / self.static_stores as f64
        }
    }

    /// Binary-size overhead of the embedded Slices relative to `static_len`
    /// program instructions.
    pub fn binary_overhead(&self, static_len: usize) -> f64 {
        if static_len == 0 {
            0.0
        } else {
            self.embedded_slice_instrs as f64 / static_len as f64
        }
    }
}

/// Runs the compiler pass: extracts a Slice for every static store of
/// every thread, filters by `cfg.threshold`, and returns the instrumented
/// program (with `ASSOC-ADDR`s and an embedded, deduplicated Slice table)
/// plus coverage statistics.
///
/// ```
/// use acr_isa::{AluOp, ProgramBuilder, Reg};
/// use acr_slicer::{instrument, SlicerConfig};
///
/// let mut b = ProgramBuilder::new(1);
/// b.set_mem_bytes(4096);
/// let t = b.thread(0);
/// t.imm(Reg(1), 5);
/// t.alui(AluOp::Mul, Reg(2), Reg(1), 9);
/// t.store(Reg(2), Reg(0), 64);
/// t.halt();
/// let program = b.build();
///
/// let (instrumented, stats) = instrument(&program, &SlicerConfig::default());
/// assert_eq!(stats.sliced_stores, 1);
/// assert_eq!(instrumented.slices().len(), 1);
/// // The binary gained exactly one ASSOC-ADDR.
/// assert_eq!(instrumented.static_len(), program.static_len() + 1);
/// ```
///
/// `program` should pass [`Program::validate`]: the pass keys its
/// register tables on [`acr_isa::Reg::index`], which, like the simulator,
/// masks an out-of-range register onto the register file.
///
/// # Panics
///
/// Panics if `program` is already instrumented (contains `ASSOC-ADDR`
/// instructions); re-instrumentation must start from the raw program.
pub fn instrument(program: &Program, cfg: &SlicerConfig) -> (Program, SliceStats) {
    for code in program.threads() {
        assert!(
            !code
                .instrs()
                .iter()
                .any(|i| matches!(i, Instr::AssocAddr { .. })),
            "instrument() requires an uninstrumented program"
        );
    }
    let mut stats = SliceStats::default();
    let mut slice_table: Vec<Slice> = Vec::new();
    let mut dedup: HashMap<Slice, SliceId> = HashMap::new();
    let mut new_threads: Vec<ThreadCode> = Vec::with_capacity(program.num_threads());
    let mut thread_labels: Vec<Vec<(u32, String)>> = Vec::with_capacity(program.num_threads());

    for (ti, code) in program.threads().iter().enumerate() {
        // (pc of store, ASSOC-ADDR to insert after it), in pc order.
        let mut insertions: Vec<(u32, Instr)> = Vec::new();
        // Pre-shift pcs of stores whose slice was dropped for length.
        let mut too_long_pcs: Vec<u32> = Vec::new();
        extract_all(code, |pc, extracted| {
            stats.static_stores += 1;
            match extracted {
                Ok(ex) => {
                    if ex.slice.len() > cfg.threshold {
                        stats.rejected_too_long += 1;
                        stats.rejected_threshold_filter += 1;
                        too_long_pcs.push(pc);
                        return;
                    }
                    stats.sliced_stores += 1;
                    *stats.length_histogram.entry(ex.slice.len()).or_insert(0) += 1;
                    let id = *dedup.entry(ex.slice).or_insert_with_key(|slice| {
                        slice_table.push(slice.clone());
                        SliceId(slice_table.len() as u32 - 1)
                    });
                    let inputs = InputRegs::new(&ex.input_regs);
                    insertions.push((pc, Instr::AssocAddr { slice: id, inputs }));
                }
                Err(RejectReason::NoArith) => stats.rejected_no_arith += 1,
                Err(RejectReason::TooLong) => {
                    stats.rejected_too_long += 1;
                    too_long_pcs.push(pc);
                }
                Err(RejectReason::TooManyInputs) => stats.rejected_too_many_inputs += 1,
                Err(RejectReason::InputClobbered) => stats.rejected_input_clobbered += 1,
                Err(RejectReason::NotAStore) => unreachable!("only stores are extracted"),
            }
        });
        // Length-rejected store pcs and label region starts move to
        // *post-instrumentation* coordinates, the same shift the rebuild
        // applies to branch targets.
        for pc in too_long_pcs {
            stats
                .rejected_store_pcs
                .push((ti as u32, pc + shift(&insertions, pc)));
        }
        thread_labels.push(
            program
                .thread_labels(ti as u32)
                .iter()
                .map(|(start, label)| (start + shift(&insertions, *start), label.clone()))
                .collect(),
        );
        new_threads.push(rebuild_with_insertions(code, &insertions));
    }

    stats.unique_slices = slice_table.len() as u64;
    stats.embedded_slice_instrs = slice_table.iter().map(|s| s.len() as u64).sum();
    let mut instrumented = Program::new(new_threads, slice_table, program.mem_bytes());
    for (ti, regions) in thread_labels.into_iter().enumerate() {
        if !regions.is_empty() {
            instrumented.set_thread_labels(ti as u32, regions);
        }
    }
    debug_assert_eq!(instrumented.validate(), Ok(()));
    (instrumented, stats)
}

/// How far the rebuild moves pre-instrumentation pc `t`: the number of
/// insertions strictly below it.
fn shift(insertions: &[(u32, Instr)], t: u32) -> u32 {
    insertions.partition_point(|&(q, _)| q < t) as u32
}

/// Rebuilds a thread's stream with each pc-sorted `(store pc, ASSOC-ADDR)`
/// insertion merged in after its store, remapping branch/jump targets.
fn rebuild_with_insertions(code: &ThreadCode, insertions: &[(u32, Instr)]) -> ThreadCode {
    let mut out = Vec::with_capacity(code.len() + insertions.len());
    let mut pending = insertions.iter().peekable();
    for (pc, instr) in code.instrs().iter().enumerate() {
        out.push(match *instr {
            Instr::Branch {
                cond,
                ra,
                rb,
                target,
            } => Instr::Branch {
                cond,
                ra,
                rb,
                target: target + shift(insertions, target),
            },
            Instr::Jump { target } => Instr::Jump {
                target: target + shift(insertions, target),
            },
            other => other,
        });
        if let Some((_, assoc)) = pending.next_if(|&&(q, _)| q == pc as u32) {
            out.push(*assoc);
        }
    }
    ThreadCode::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_isa::interp::Interp;
    use acr_isa::{AluOp, ProgramBuilder, Reg};

    /// A looped kernel exercising branch-target remapping and dynamic
    /// slice verification.
    fn looped_program() -> Program {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(1 << 16);
        let t = b.thread(0);
        t.imm(Reg(10), 4096); // output base
        let l = t.begin_loop(Reg(1), Reg(2), 50);
        // value = (i * 3) + 7
        t.alui(AluOp::Mul, Reg(3), Reg(1), 3);
        t.alui(AluOp::Add, Reg(3), Reg(3), 7);
        // addr = base + i*8
        t.alui(AluOp::Mul, Reg(4), Reg(1), 8);
        t.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
        t.store(Reg(3), Reg(5), 0);
        t.end_loop(l);
        t.halt();
        b.build()
    }

    #[test]
    fn instrumented_program_behaves_identically_and_slices_verify() {
        let p = looped_program();
        p.validate().unwrap();
        let (ip, stats) = instrument(&p, &SlicerConfig::default());
        ip.validate().unwrap();
        assert_eq!(stats.static_stores, 1);
        assert_eq!(stats.sliced_stores, 1);

        // Reference semantics unchanged.
        let mut a = Interp::new(&p);
        a.run_to_completion(1_000_000).unwrap();
        let mut b = Interp::new(&ip);
        b.verify_slices(true); // every assoc checks slice == stored value
        b.run_to_completion(1_000_000).unwrap();
        assert_eq!(a.mem(), b.mem());
    }

    #[test]
    fn threshold_filters_long_slices() {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(4096);
        let t = b.thread(0);
        t.alu(AluOp::Add, Reg(1), Reg(2), Reg(3));
        for _ in 0..15 {
            t.alui(AluOp::Add, Reg(1), Reg(1), 1);
        }
        t.store(Reg(1), Reg(0), 0);
        t.halt();
        let p = b.build();

        let (_, s10) = instrument(&p, &SlicerConfig { threshold: 10 });
        assert_eq!(s10.sliced_stores, 0);
        assert_eq!(s10.rejected_too_long, 1);
        assert_eq!(
            s10.rejected_threshold_filter, 1,
            "post-extraction threshold drops are counted distinctly"
        );
        // No insertions in this program, so the rejected store pc is the
        // store's own pc (16 instructions precede it).
        assert_eq!(s10.rejected_store_pcs, vec![(0, 16)]);

        let (_, s20) = instrument(&p, &SlicerConfig { threshold: 20 });
        assert_eq!(s20.sliced_stores, 1);
        assert_eq!(s20.rejected_threshold_filter, 0);
        assert!(s20.rejected_store_pcs.is_empty());
        assert_eq!(*s20.length_histogram.get(&16).unwrap(), 1);
    }

    #[test]
    fn labels_shift_with_insertions() {
        let p = looped_program();
        let mut p = p;
        // Label the loop body start: pc 1 (after the imm) and the store
        // region further down.
        p.set_thread_labels(0, vec![(0, "setup".to_owned()), (5, "body".to_owned())]);
        let (ip, stats) = instrument(&p, &SlicerConfig::default());
        assert_eq!(stats.sliced_stores, 1);
        // One ASSOC-ADDR inserted after the store at pc 5; a region start
        // at or below the store pc is unshifted, anything past it moves.
        assert_eq!(ip.thread_labels(0)[0], (0, "setup".to_owned()));
        assert_eq!(ip.thread_labels(0)[1], (5, "body".to_owned()));
        // The label over the store covers the inserted ASSOC-ADDR too.
        assert_eq!(ip.label_at(0, 6), Some("body"));
    }

    #[test]
    fn rejected_store_pcs_are_post_instrumentation_coordinates() {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(4096);
        let t = b.thread(0);
        // First store: short slice, accepted (gets an ASSOC-ADDR).
        t.alui(AluOp::Add, Reg(1), Reg(0), 5);
        t.store(Reg(1), Reg(0), 0); // pc 1
                                    // Second store: long slice, rejected at threshold 10.
        t.alu(AluOp::Add, Reg(2), Reg(0), Reg(1));
        for _ in 0..15 {
            t.alui(AluOp::Add, Reg(2), Reg(2), 1);
        }
        t.store(Reg(2), Reg(0), 8); // pc 18 pre-shift
        t.halt();
        let p = b.build();
        let (ip, stats) = instrument(&p, &SlicerConfig { threshold: 10 });
        assert_eq!(stats.sliced_stores, 1);
        assert_eq!(stats.rejected_threshold_filter, 1);
        // The accepted store's ASSOC-ADDR sits at pc 2, shifting the
        // rejected store from 18 to 19.
        assert_eq!(stats.rejected_store_pcs, vec![(0, 19)]);
        assert!(matches!(
            ip.thread(0).fetch(19),
            Some(acr_isa::Instr::Store { .. })
        ));
    }

    #[test]
    fn duplicate_slices_share_table_entries() {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(4096);
        let t = b.thread(0);
        for k in 0..4 {
            t.alu(AluOp::Add, Reg(1), Reg(2), Reg(3));
            t.store(Reg(1), Reg(0), k * 8);
        }
        t.halt();
        let p = b.build();
        let (ip, stats) = instrument(&p, &SlicerConfig::default());
        assert_eq!(stats.sliced_stores, 4);
        assert_eq!(stats.unique_slices, 1);
        assert_eq!(ip.slices().len(), 1);
    }

    #[test]
    fn multithreaded_instrumentation() {
        let mut b = ProgramBuilder::new(3);
        b.set_mem_bytes(1 << 16);
        for i in 0..3 {
            let t = b.thread(i);
            t.imm(Reg(9), u64::from(i) * 1024);
            t.alui(AluOp::Add, Reg(1), Reg(9), 5);
            t.store(Reg(1), Reg(9), 0);
            t.halt();
        }
        let p = b.build();
        let (ip, stats) = instrument(&p, &SlicerConfig::default());
        assert_eq!(stats.static_stores, 3);
        assert_eq!(stats.sliced_stores, 3);
        ip.validate().unwrap();
        let mut interp = Interp::new(&ip);
        interp.verify_slices(true);
        interp.run_to_completion(10_000).unwrap();
    }

    #[test]
    fn coverage_and_overhead_metrics() {
        let p = looped_program();
        let (ip, stats) = instrument(&p, &SlicerConfig::default());
        assert!((stats.static_coverage() - 1.0).abs() < 1e-12);
        let ov = stats.binary_overhead(ip.static_len());
        assert!(ov > 0.0 && ov < 1.0);
    }

    #[test]
    #[should_panic(expected = "uninstrumented")]
    fn double_instrumentation_panics() {
        let p = looped_program();
        let (ip, _) = instrument(&p, &SlicerConfig::default());
        let _ = instrument(&ip, &SlicerConfig::default());
    }
}
