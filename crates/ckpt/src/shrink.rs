//! Automatic failing-case shrinking: deterministic delta debugging over a
//! case's fault plan.
//!
//! Given one failing campaign case — a fault plan whose engine run ends
//! in a postmortem — the shrinker searches for a *minimal reproducer*
//! that fails the same way, in two deterministic stages:
//!
//! 1. **ddmin over the fault list**: partition the plan into `n` chunks
//!    and try every complement; every candidate of a round is evaluated
//!    (in parallel when jobs allow) and the *lowest-index* failing one is
//!    adopted, so the result is byte-identical for every `--jobs` value.
//!    On a round with no progress the granularity doubles, until chunks
//!    are single faults.
//! 2. **Field narrowing** on the surviving faults, in fault order: the
//!    injection point halves toward 1, bit positions halve toward 0,
//!    burst spans halve toward 2, and memory addresses halve toward the
//!    bottom of the image (word-aligned) — each step kept only while the
//!    case still fails with the same signature.
//!
//! The *failure signature* is the postmortem trigger (`"divergence"`,
//! `"abort"`, `"hang"`, …): a shrunk plan must reproduce the exact
//! trigger of the original failure, not merely *some* failure, so the
//! minimal case is a reproducer of the bug class under triage. The final
//! plan serializes to a small `acr.repro.v1` [`ReproDoc`] JSON document;
//! [`ReproDoc::from_json`] round-trips it for replay.

use std::ops::RangeInclusive;

use acr_isa::NUM_REGS;
use acr_mem::WordAddr;
use acr_sim::{Fault, FaultKind, FaultKindSet, BURST_MAX_SPAN, PC_FAULT_BITS};
use acr_trace::{read_document, render_json, Coder, Field, JsonError, JsonResult, INLINE};

use crate::errors::CkptError;
use crate::inject::{run_fault_case, Campaign, CampaignConfig, FaultCaseRecord};
use crate::parallel::ParallelRunner;
use crate::policy::OmissionPolicy;
use crate::postmortem::{PostmortemBundle, TRIGGERS};
use crate::soak::{BLOCK, TOP};

/// Repro document schema identifier.
pub const REPRO_SCHEMA: &str = "acr.repro.v1";

/// Word alignment of the memory image (mirrors `acr-mem`'s layout; the
/// narrowing stage must keep halved addresses aligned).
const WORD_BYTES: u64 = 8;

// The field ranges a fault may take: what the simulator injects, what a
// repro document may hold (`code_fault`) and what a caller's fault list
// must keep to (`check_faults`).
const REGS: RangeInclusive<u8> = 0..=NUM_REGS as u8 - 1;
const BITS: RangeInclusive<u8> = 0..=63;
const PC_BITS: RangeInclusive<u8> = 0..=PC_FAULT_BITS - 1;
const SPANS: RangeInclusive<u8> = 2..=BURST_MAX_SPAN;

/// Shrinker knobs.
#[derive(Debug, Clone)]
pub struct ShrinkConfig {
    /// Worker threads evaluating ddmin candidates (0 = auto). Purely an
    /// execution knob: the shrunk plan is identical for every value.
    pub jobs: usize,
    /// Hard ceiling on engine-run evaluations, bounding shrink time on
    /// adversarial plans. The shrinker stops (keeping its best plan so
    /// far) when the budget is exhausted.
    pub max_evaluations: u64,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            jobs: 1,
            max_evaluations: 2048,
        }
    }
}

/// How one evaluated plan failed.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Postmortem trigger — the failure signature shrinking preserves.
    pub trigger: &'static str,
    /// The case record of the failing run.
    pub record: FaultCaseRecord,
    /// The failing run's forensic bundle.
    pub bundle: PostmortemBundle,
}

/// The shrinker's result: a minimal plan plus the evidence it still
/// fails identically.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// Faults in the original plan.
    pub original_faults: usize,
    /// The minimal reproducer, in evaluation order.
    pub minimal: Vec<Fault>,
    /// The minimal plan's failure (same trigger as the original, by
    /// construction).
    pub failure: CaseFailure,
    /// ddmin rounds executed.
    pub rounds: u64,
    /// Engine runs spent (original + candidates + narrowing + final).
    pub evaluations: u64,
    /// Narrowing steps that were kept.
    pub narrowed_fields: u64,
}

impl ShrinkOutcome {
    /// Faults removed by ddmin.
    pub fn dropped_faults(&self) -> usize {
        self.original_faults - self.minimal.len()
    }
}

/// One halving step of a narrowing dimension, or `None` once the
/// dimension bottoms out. Dimensions are tried in this order per fault:
/// injection point, bit, span, address.
fn narrowing_steps(f: Fault) -> Vec<Fault> {
    let mut steps = Vec::new();
    if f.at_progress > 1 {
        steps.push(Fault {
            at_progress: (f.at_progress / 2).max(1),
            ..f
        });
    }
    let halved_bit = |bit: u8| bit / 2;
    let halved_addr = |addr: WordAddr| {
        let b = addr.byte() / 2;
        WordAddr::new(b - b % WORD_BYTES)
    };
    match f.kind {
        FaultKind::RegBitFlip { reg, bit } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::RegBitFlip {
                        reg,
                        bit: halved_bit(bit),
                    },
                    ..f
                });
            }
        }
        FaultKind::PcBitFlip { bit } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::PcBitFlip {
                        bit: halved_bit(bit),
                    },
                    ..f
                });
            }
        }
        FaultKind::MemBitFlip { addr, bit } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBitFlip {
                        addr,
                        bit: halved_bit(bit),
                    },
                    ..f
                });
            }
            if addr.byte() > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBitFlip {
                        addr: halved_addr(addr),
                        bit,
                    },
                    ..f
                });
            }
        }
        FaultKind::MemBurst { addr, bit, span } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBurst {
                        addr,
                        bit: halved_bit(bit),
                        span,
                    },
                    ..f
                });
            }
            if span > 2 {
                steps.push(Fault {
                    kind: FaultKind::MemBurst {
                        addr,
                        bit,
                        span: (span / 2).max(2),
                    },
                    ..f
                });
            }
            if addr.byte() > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBurst {
                        addr: halved_addr(addr),
                        bit,
                        span,
                    },
                    ..f
                });
            }
        }
        FaultKind::StuckAt {
            addr,
            bit,
            stuck_one,
        } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::StuckAt {
                        addr,
                        bit: halved_bit(bit),
                        stuck_one,
                    },
                    ..f
                });
            }
            if addr.byte() > 0 {
                steps.push(Fault {
                    kind: FaultKind::StuckAt {
                        addr: halved_addr(addr),
                        bit,
                        stuck_one,
                    },
                    ..f
                });
            }
        }
        FaultKind::Crash => {}
    }
    steps
}

/// Checks a caller's fault list against the ranges a repro document may
/// hold ([`code_fault`]) and the `mem_bytes`-byte memory image, so no
/// fault reaches the simulator out of range.
///
/// # Errors
///
/// [`CkptError::EmptyCampaign`] on an empty list, and
/// [`CkptError::Unsupported`] naming the first fault and field out of
/// range.
fn check_faults(faults: &[Fault], mem_bytes: u64) -> Result<(), CkptError> {
    if faults.is_empty() {
        return Err(CkptError::EmptyCampaign);
    }
    for (i, f) in faults.iter().enumerate() {
        let (fields, addr) = match f.kind {
            FaultKind::RegBitFlip { reg, bit } => {
                (vec![("reg", reg, REGS), ("bit", bit, BITS)], None)
            }
            FaultKind::PcBitFlip { bit } => (vec![("bit", bit, PC_BITS)], None),
            FaultKind::MemBitFlip { addr, bit } | FaultKind::StuckAt { addr, bit, .. } => {
                (vec![("bit", bit, BITS)], Some(addr.byte()))
            }
            FaultKind::MemBurst { addr, bit, span } => (
                vec![("bit", bit, BITS), ("span", span, SPANS)],
                Some(addr.byte()),
            ),
            FaultKind::Crash => (vec![], None),
        };
        let field = fields
            .into_iter()
            .find(|(_, v, range)| !range.contains(v))
            .map(|(name, v, range)| {
                let (lo, hi) = range.into_inner();
                format!("faults[{i}].{name}: {v} outside {lo}..={hi}")
            });
        // `WordAddr` is word-aligned by construction; only the image
        // bound is left to check.
        let addr = addr.filter(|&b| b >= mem_bytes).map(|b| {
            format!("fault address {b:#x} lies outside the {mem_bytes}-byte memory image")
        });
        if let Some(what) = field.or(addr) {
            return Err(CkptError::Unsupported { what });
        }
    }
    Ok(())
}

impl<P, F> Campaign<'_, F>
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    /// Replays one fault plan exactly once and reports whether — and how
    /// — it fails. `Ok(None)` means the plan no longer fails: the repro
    /// is stale (e.g. the engine changed underneath it). `case_index`
    /// seeds per-case machinery (nested recovery faults) exactly as the
    /// campaign did. This is the engine behind `acr_cli shrink --replay`.
    ///
    /// # Errors
    ///
    /// [`CkptError::EmptyCampaign`] or [`CkptError::Unsupported`] on a
    /// fault list that is empty or out of range.
    pub fn replay(
        &self,
        case_index: usize,
        faults: &[Fault],
    ) -> Result<Option<CaseFailure>, CkptError> {
        check_faults(faults, self.program.mem_bytes())?;
        let (record, bundle) = run_fault_case(self, case_index, faults);
        Ok(bundle.map(|bundle| CaseFailure {
            trigger: bundle.trigger,
            record,
            bundle,
        }))
    }

    /// Shrinks one failing case to a minimal reproducer with the same
    /// postmortem trigger. `faults` is the case's full fault plan (e.g.
    /// from [`Campaign::plan`]); `case_index` seeds per-case machinery
    /// exactly as [`Campaign::replay`] does, so the shrunk plan replays
    /// in the identical engine configuration.
    ///
    /// # Errors
    ///
    /// * [`CkptError::EmptyCampaign`] or [`CkptError::Unsupported`] on a
    ///   fault list that is empty or out of range;
    /// * [`CkptError::Unsupported`] if the original plan does *not* fail
    ///   — there is nothing to shrink.
    pub fn shrink(
        &self,
        case_index: usize,
        faults: &[Fault],
        shrink_cfg: &ShrinkConfig,
    ) -> Result<ShrinkOutcome, CkptError> {
        check_faults(faults, self.program.mem_bytes())?;

        // The failure signature the whole search must preserve.
        let (record, bundle) = run_fault_case(self, case_index, faults);
        let mut evaluations = 1u64;
        let Some(bundle) = bundle else {
            return Err(CkptError::Unsupported {
                what: format!(
                    "shrink: case {case_index} does not fail (outcome {}) — nothing to shrink",
                    record.outcome.label()
                ),
            });
        };
        let trigger = bundle.trigger;
        let fails = |plan: &[Fault]| -> bool {
            let (_, b) = run_fault_case(self, case_index, plan);
            b.is_some_and(|b| b.trigger == trigger)
        };

        // Stage 1: ddmin over the fault list. Every candidate of a round is
        // evaluated and the lowest-index failing one adopted — more engine
        // runs than first-hit-wins, but jobs-invariant by construction.
        let runner = ParallelRunner::new(shrink_cfg.jobs);
        let mut plan: Vec<Fault> = faults.to_vec();
        let mut chunks = 2usize;
        let mut rounds = 0u64;
        while plan.len() >= 2 && evaluations < shrink_cfg.max_evaluations {
            rounds += 1;
            let n = chunks.min(plan.len());
            let candidates: Vec<Vec<Fault>> = (0..n)
                .map(|c| {
                    let start = c * plan.len() / n;
                    let end = (c + 1) * plan.len() / n;
                    let mut cand = Vec::with_capacity(plan.len() - (end - start));
                    cand.extend_from_slice(&plan[..start]);
                    cand.extend_from_slice(&plan[end..]);
                    cand
                })
                .filter(|cand| !cand.is_empty())
                .collect();
            evaluations += candidates.len() as u64;
            let verdicts = runner.run_ordered(candidates.len(), |i| fails(&candidates[i]));
            if let Some(winner) = verdicts.iter().position(|&v| v) {
                plan = candidates[winner].clone();
                chunks = 2.max(n - 1);
            } else if n < plan.len() {
                chunks = (n * 2).min(plan.len());
            } else {
                break;
            }
        }

        // Stage 2: greedy per-fault field narrowing, sequential and in fault
        // order (deterministic for every jobs value by construction).
        let mut narrowed_fields = 0u64;
        let mut idx = 0;
        'narrow: while idx < plan.len() {
            loop {
                let steps = narrowing_steps(plan[idx]);
                let mut advanced = false;
                for step in steps {
                    if evaluations >= shrink_cfg.max_evaluations {
                        break 'narrow;
                    }
                    let mut cand = plan.clone();
                    cand[idx] = step;
                    evaluations += 1;
                    if fails(&cand) {
                        plan = cand;
                        narrowed_fields += 1;
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    break;
                }
            }
            idx += 1;
        }

        // Final definitive run of the minimal plan: its record and bundle
        // are what the repro ships.
        let (record, bundle) = run_fault_case(self, case_index, &plan);
        evaluations += 1;
        let bundle = bundle.expect("minimal plan was verified to fail");
        debug_assert_eq!(bundle.trigger, trigger);

        Ok(ShrinkOutcome {
            original_faults: faults.len(),
            minimal: plan,
            failure: CaseFailure {
                trigger,
                record,
                bundle,
            },
            rounds,
            evaluations,
            narrowed_fields,
        })
    }
}

/// A fault's fields, in document order (see [`Coder`]): the kind label,
/// then only that kind's fields, with the core, register, bit and span in
/// the ranges the simulator injects on `cores` cores.
fn code_fault(c: &mut Coder<'_, '_>, f: &mut Fault, cores: u32) -> JsonResult {
    c.uint("at", &mut f.at_progress)?;
    c.within("core", &mut f.core.0, 0..=cores.saturating_sub(1))?;
    let mut label = f.kind.label();
    c.label("kind", &mut label, FaultKindSet::adversarial().labels(true))?;
    if label != f.kind.label() {
        // Decoding: start from the labelled kind, then read its fields.
        let (addr, bit) = (WordAddr::new(0), 0);
        f.kind = match label {
            "reg" => FaultKind::RegBitFlip { reg: 0, bit },
            "pc" => FaultKind::PcBitFlip { bit },
            "mem" => FaultKind::MemBitFlip { addr, bit },
            "burst" => FaultKind::MemBurst { addr, bit, span: 2 },
            _ => FaultKind::StuckAt {
                addr,
                bit,
                stuck_one: false,
            },
        };
    }
    let addr = |c: &mut Coder<'_, '_>, addr: &mut WordAddr| {
        let mut b = addr.byte();
        c.hex("addr", &mut b, 0)?;
        c.check("addr", b.is_multiple_of(WORD_BYTES), || {
            format!("{b:#x} is not word-aligned")
        })?;
        *addr = WordAddr::new(b);
        Ok(())
    };
    match &mut f.kind {
        FaultKind::RegBitFlip { reg, bit } => {
            c.within("reg", reg, REGS)?;
            c.within("bit", bit, BITS)
        }
        FaultKind::PcBitFlip { bit } => c.within("bit", bit, PC_BITS),
        FaultKind::MemBitFlip { addr: a, bit } => {
            addr(c, a)?;
            c.within("bit", bit, BITS)
        }
        FaultKind::MemBurst { addr: a, bit, span } => {
            addr(c, a)?;
            c.within("bit", bit, BITS)?;
            c.within("span", span, SPANS)
        }
        FaultKind::StuckAt {
            addr: a,
            bit,
            stuck_one,
        } => {
            addr(c, a)?;
            c.within("bit", bit, BITS)?;
            c.bool("stuck_one", stuck_one)
        }
        FaultKind::Crash => Ok(()),
    }
}

/// Serializes one fault as a compact JSON object (kind-specific fields
/// only; addresses as hex strings). Inverse of [`fault_from_json`].
pub fn fault_to_json(f: &Fault) -> String {
    render_json(None, INLINE, &mut |c| code_fault(c, &mut { *f }, u32::MAX))
}

/// Decodes a fault rendered by [`fault_to_json`] for a machine of
/// `cores` cores.
///
/// # Errors
///
/// A [`JsonError`] naming the first bad field.
pub fn fault_from_json(f: &Field<'_>, cores: u32) -> Result<Fault, JsonError> {
    let mut fault = Fault::default();
    f.object(|o| code_fault(&mut Coder::Read(o), &mut fault, cores))?;
    Ok(fault)
}

/// An `acr.repro.v1` document: everything `shrink --replay` needs to
/// rebuild the exact engine configuration of a shrunk case, plus its
/// minimal fault plan. Fractions are decimal strings and the seed a hex
/// string, so both round-trip exactly through any JSON parser.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReproDoc {
    /// Workload name.
    pub workload: String,
    /// Case index (seeds the per-case machinery).
    pub case: usize,
    /// Campaign plan seed.
    pub seed: u64,
    /// Threads (= cores), 1 to 64.
    pub threads: u32,
    /// Workload scale factor, positive.
    pub scale: f64,
    /// Checkpoints per nominal run.
    pub checkpoints: u32,
    /// Detection latency as a fraction of the checkpoint period.
    pub latency: f64,
    /// ACR's amnesic policy (`"acr"`) rather than the baseline.
    pub amnesic: bool,
    /// Nested recovery-window faults on.
    pub recovery_faults: bool,
    /// Checkpoint generations retained, at least 1.
    pub generations: u32,
    /// Recovery-watchdog budget in cycles (0 = off).
    pub watchdog_budget: u64,
    /// Postmortem trigger of the shrunk failure.
    pub trigger: &'static str,
    /// Probable cause of the shrunk failure.
    pub probable_cause: String,
    /// Faults in the plan before shrinking.
    pub original_faults: usize,
    /// The minimal fault plan.
    pub faults: Vec<Fault>,
}

impl ReproDoc {
    /// The document's fields, in document order (see [`Coder`]), each
    /// range-checked as the CLI flag that set it; each fault's core must
    /// exist on `threads` cores.
    fn code(&mut self, c: &mut Coder<'_, '_>) -> JsonResult {
        c.string("workload", &mut self.workload)?;
        c.uint("case", &mut self.case)?;
        c.hex("seed", &mut self.seed, 0)?;
        c.within("threads", &mut self.threads, 1..=64)?;
        c.decimal("scale", &mut self.scale, |x| x > 0.0, "positive")?;
        c.uint("checkpoints", &mut self.checkpoints)?;
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        c.decimal("latency", &mut self.latency, unit, "within [0, 1]")?;
        let policies = ["acr", "baseline"];
        let mut policy = policies[usize::from(!self.amnesic)];
        c.label("policy", &mut policy, policies)?;
        self.amnesic = policy == "acr";
        c.bool("recovery_faults", &mut self.recovery_faults)?;
        c.within("generations", &mut self.generations, 1..=u32::MAX)?;
        c.uint("watchdog_budget", &mut self.watchdog_budget)?;
        c.label("trigger", &mut self.trigger, TRIGGERS)?;
        c.string("probable_cause", &mut self.probable_cause)?;
        c.uint("original_faults", &mut self.original_faults)?;
        let cores = self.threads;
        c.list("faults", BLOCK, INLINE, &mut self.faults, &mut |c, f| {
            code_fault(c, f, cores)
        })
    }

    /// Renders the document (fixed key order, one field per line).
    pub fn to_json(&self) -> String {
        let body = &mut |c: &mut Coder<'_, '_>| self.clone().code(c);
        render_json(Some(REPRO_SCHEMA), TOP, body) + "\n"
    }

    /// Decodes a document rendered by [`ReproDoc::to_json`].
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the first bad field.
    pub fn from_json(text: &str) -> Result<ReproDoc, JsonError> {
        let mut doc = ReproDoc::default();
        read_document(text, REPRO_SCHEMA, &mut |c| doc.code(c))?;
        Ok(doc)
    }

    /// The campaign configuration the document's case replays under.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            count: self.faults.len().max(1) as u32,
            num_checkpoints: self.checkpoints,
            detection_latency_frac: self.latency,
            recovery_faults: self.recovery_faults,
            generations: self.generations,
            watchdog_budget_cycles: self.watchdog_budget,
            jobs: 1,
            ..CampaignConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoOmission;
    use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
    use acr_mem::CoreId;
    use acr_sim::{FaultKindSet, MachineConfig};
    use acr_trace::parse_json;

    fn kernel() -> Program {
        let mut b = ProgramBuilder::new(2);
        b.set_mem_bytes(1 << 18);
        for t in 0..2u32 {
            let base = u64::from(t) * 32768;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let l = tb.begin_loop(Reg(1), Reg(2), 60);
            tb.alui(AluOp::Mul, Reg(3), Reg(1), 13);
            tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
            tb.store(Reg(3), Reg(5), 0);
            tb.end_loop(l);
            tb.halt();
        }
        b.build()
    }

    fn mem_only() -> FaultKindSet {
        FaultKindSet {
            reg: false,
            pc: false,
            mem: true,
            burst: false,
            stuck: false,
            crash: false,
        }
    }

    /// The campaign every test shrinks on: the kernel on two cores under
    /// the log-only policy.
    fn campaign<'a>(
        p: &'a Program,
        cfg: &'a CampaignConfig,
    ) -> Campaign<'a, impl Fn() -> NoOmission + Sync> {
        Campaign::new(p, MachineConfig::with_cores(2), cfg, || NoOmission).expect("baseline runs")
    }

    /// A deterministic forced-divergence plan: the first seed whose dense
    /// mem-fault plan fails at all.
    fn failing_setup() -> (Program, CampaignConfig, Vec<Fault>) {
        let p = kernel();
        for seed in 42..62 {
            let cfg = CampaignConfig {
                seed,
                count: 10,
                kinds: mem_only(),
                num_checkpoints: 4,
                jobs: 1,
                ..CampaignConfig::default()
            };
            let c = campaign(&p, &cfg);
            let faults = c.plan().expect("plan generates");
            assert!(faults.len() >= 8, "want a dense plan, got {}", faults.len());
            if c.shrink(0, &faults, &ShrinkConfig::default()).is_ok() {
                return (p, cfg, faults);
            }
        }
        panic!("no failing seed found in 42..62");
    }

    #[test]
    fn shrink_finds_a_smaller_plan_with_the_same_trigger() {
        let (p, cfg, faults) = failing_setup();
        let c = campaign(&p, &cfg);
        let out = c
            .shrink(0, &faults, &ShrinkConfig::default())
            .expect("case fails, so it shrinks");
        assert!(out.minimal.len() <= faults.len());
        assert!(
            out.minimal.len() * 2 <= faults.len(),
            "expected >=50% shrink, got {} of {}",
            out.minimal.len(),
            faults.len()
        );
        assert_eq!(out.original_faults, faults.len());
        assert_eq!(out.failure.bundle.trigger, out.failure.trigger);
        assert!(out.evaluations >= 2);

        // The minimal plan must still fail with the identical signature
        // when replayed from scratch (what `acr_cli shrink --replay` does).
        let replay = c
            .replay(0, &out.minimal)
            .expect("replay runs")
            .expect("minimal plan still fails");
        assert_eq!(replay.trigger, out.failure.trigger);
    }

    #[test]
    fn shrinking_is_jobs_invariant() {
        let (p, cfg, faults) = failing_setup();
        let c = campaign(&p, &cfg);
        let runs: Vec<ShrinkOutcome> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                c.shrink(
                    0,
                    &faults,
                    &ShrinkConfig {
                        jobs,
                        ..ShrinkConfig::default()
                    },
                )
                .expect("shrinks")
            })
            .collect();
        assert_eq!(runs[0].minimal, runs[1].minimal);
        assert_eq!(runs[0].failure.trigger, runs[1].failure.trigger);
        // Byte-for-byte identical forensics, not merely equal structs.
        assert_eq!(
            runs[0].failure.bundle.to_json(),
            runs[1].failure.bundle.to_json()
        );
        assert_eq!(runs[0].evaluations, runs[1].evaluations);
    }

    #[test]
    fn passing_cases_are_rejected() {
        let p = kernel();
        let cfg = CampaignConfig {
            count: 1,
            kinds: FaultKindSet::recoverable(),
            jobs: 1,
            ..CampaignConfig::default()
        };
        let c = campaign(&p, &cfg);
        let faults = c.plan().expect("plan");
        let err = c.shrink(0, &faults, &ShrinkConfig::default()).unwrap_err();
        assert!(err.to_string().contains("does not fail"), "{err}");
    }

    /// Replays and shrinks one caller-supplied fault; both must reject it
    /// with `want` before it reaches the simulator.
    fn assert_rejected(kind: FaultKind, want: &str) {
        let p = kernel();
        let cfg = CampaignConfig::default();
        let c = campaign(&p, &cfg);
        let faults = [Fault {
            at_progress: 10,
            core: CoreId(0),
            kind,
        }];
        let shrink = ShrinkConfig {
            max_evaluations: 4,
            ..ShrinkConfig::default()
        };
        let errors = [
            c.replay(0, &faults).unwrap_err(),
            c.shrink(0, &faults, &shrink).unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err.to_string(), format!("unsupported: {want}"));
        }
    }

    #[test]
    fn fault_address_past_the_image_is_rejected() {
        assert_rejected(
            FaultKind::MemBitFlip {
                addr: WordAddr::new(1 << 40),
                bit: 0,
            },
            "fault address 0x10000000000 lies outside the 262144-byte memory image",
        );
    }

    #[test]
    fn register_bit_past_the_word_is_rejected() {
        assert_rejected(
            FaultKind::RegBitFlip { reg: 3, bit: 70 },
            "faults[0].bit: 70 outside 0..=63",
        );
    }

    #[test]
    fn pc_bit_past_the_window_is_rejected() {
        assert_rejected(
            FaultKind::PcBitFlip { bit: 40 },
            "faults[0].bit: 40 outside 0..=3",
        );
    }

    #[test]
    fn fault_json_round_trips_every_kind() {
        let faults = [
            Fault {
                at_progress: 7,
                core: CoreId(1),
                kind: FaultKind::RegBitFlip { reg: 3, bit: 17 },
            },
            Fault {
                at_progress: 9,
                core: CoreId(0),
                kind: FaultKind::PcBitFlip { bit: 2 },
            },
            Fault {
                at_progress: 11,
                core: CoreId(1),
                kind: FaultKind::MemBitFlip {
                    addr: WordAddr::new(0x1f8),
                    bit: 63,
                },
            },
            Fault {
                at_progress: 13,
                core: CoreId(0),
                kind: FaultKind::MemBurst {
                    addr: WordAddr::new(0x40),
                    bit: 60,
                    span: 7,
                },
            },
            Fault {
                at_progress: 15,
                core: CoreId(1),
                kind: FaultKind::StuckAt {
                    addr: WordAddr::new(0x8),
                    bit: 0,
                    stuck_one: true,
                },
            },
            Fault {
                at_progress: 17,
                core: CoreId(0),
                kind: FaultKind::Crash,
            },
        ];
        let decode = |text: &str| {
            let j = parse_json(text).expect("valid JSON");
            fault_from_json(&Field::root(&j), 2).map_err(|e| e.to_string())
        };
        for f in faults {
            let text = fault_to_json(&f);
            let parsed = decode(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, f, "{text}");
        }
        // Malformed inputs get messages naming the field, not panics.
        let bad = [
            (
                r#"{"at": 1, "core": 0, "kind": "mem", "addr": "0x3", "bit": 0}"#,
                "addr: 0x3 is not word-aligned",
            ),
            (
                r#"{"at": 1, "core": 0, "kind": "nope"}"#,
                r#"kind: "nope" is not one of reg|pc|mem|burst|stuck|crash"#,
            ),
            (
                r#"{"at": 1, "core": 0, "kind": "pc", "bit": 300}"#,
                "bit: 300 out of range for u8",
            ),
            (
                r#"{"at": 1, "core": 0, "kind": "pc", "bit": 4}"#,
                "bit: 4 outside 0..=3",
            ),
            (
                r#"{"at": 1, "core": 2, "kind": "crash"}"#,
                "core: 2 outside 0..=1",
            ),
            (
                r#"{"at": 1, "core": 0, "kind": "reg", "reg": 32, "bit": 0}"#,
                "reg: 32 outside 0..=31",
            ),
            (
                r#"{"at": 1, "core": 0, "kind": "burst", "addr": "0x8", "bit": 0, "span": 9}"#,
                "span: 9 outside 2..=8",
            ),
            (
                r#"{"at": 1, "core": 0, "kind": "stuck", "addr": "0x8", "bit": 0}"#,
                "stuck_one: missing",
            ),
            (
                r#"{"at": 1, "core": 0, "kind": "crash", "bit": 0}"#,
                "bit: unknown field",
            ),
        ];
        for (text, want) in bad {
            assert_eq!(decode(text).unwrap_err(), want, "{text}");
        }
    }

    #[test]
    fn narrowing_steps_shrink_toward_minimal_fields() {
        let f = Fault {
            at_progress: 100,
            core: CoreId(0),
            kind: FaultKind::MemBurst {
                addr: WordAddr::new(0x100),
                bit: 32,
                span: 8,
            },
        };
        let steps = narrowing_steps(f);
        assert_eq!(steps.len(), 4, "progress, bit, span, addr");
        assert_eq!(steps[0].at_progress, 50);
        // Every step keeps addresses word-aligned.
        for s in &steps {
            if let FaultKind::MemBurst { addr, .. } = s.kind {
                assert_eq!(addr.byte() % WORD_BYTES, 0);
            }
        }
        // Bottomed-out faults produce no steps.
        let done = Fault {
            at_progress: 1,
            core: CoreId(0),
            kind: FaultKind::Crash,
        };
        assert!(narrowing_steps(done).is_empty());
    }
}
