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
//! plan serializes to a small `acr.repro.v1` JSON document via
//! [`fault_to_json`]; [`fault_from_json`] round-trips it for replay.

use std::fmt::Write as _;

use acr_isa::Program;
use acr_mem::{CoreId, WordAddr};
use acr_sim::{Fault, FaultKind, MachineConfig};
use acr_trace::{push_json_string, Json, MetricsRegistry};

use crate::errors::CkptError;
use crate::inject::{
    fault_free_baseline, plan_faults, run_fault_case, CampaignConfig, CampaignError, CaseCtx,
    FaultCaseRecord,
};
use crate::parallel::ParallelRunner;
use crate::policy::OmissionPolicy;
use crate::postmortem::PostmortemBundle;

/// Repro document schema identifier.
pub const REPRO_SCHEMA: &str = "acr.repro.v1";

/// Word alignment of the memory image (mirrors `acr-mem`'s layout; the
/// narrowing stage must keep halved addresses aligned).
const WORD_BYTES: u64 = 8;

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
    /// `shrink.*` counters mirroring the fields above.
    pub metrics: MetricsRegistry,
}

impl ShrinkOutcome {
    /// Faults removed by ddmin.
    pub fn dropped_faults(&self) -> usize {
        self.original_faults - self.minimal.len()
    }
}

/// Plans a dense multi-fault case: the seeded [`FaultPlan`] a campaign
/// would spread over `cfg.count` independent cases, taken as *one* case's
/// fault list. This is how the CLI builds a forced-divergence case worth
/// shrinking.
///
/// # Errors
///
/// Fails like a campaign would: broken fault-free runs, or no injectable
/// kind (memory corruption with an empty written working set).
pub fn dense_fault_plan(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
) -> Result<Vec<Fault>, CampaignError> {
    let base = fault_free_baseline(program, machine, cfg.interp_fuel, 0)?;
    Ok(plan_faults(cfg, &base, machine.num_cores)?)
}

/// Replays one fault plan exactly once and reports whether — and how —
/// it fails. `Ok(None)` means the plan no longer fails: the repro is
/// stale (e.g. the engine changed underneath it). This is the engine
/// behind `acr_cli shrink --replay`.
///
/// # Errors
///
/// [`CampaignError`] on an empty plan, an out-of-range detection
/// latency, or a broken fault-free baseline.
pub fn replay_case<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    case_index: usize,
    faults: &[Fault],
    policy: F,
) -> Result<Option<CaseFailure>, CampaignError>
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    if faults.is_empty() {
        return Err(CkptError::EmptyCampaign.into());
    }
    let ctx = CaseCtx::new(program, machine, cfg, &policy)?;
    let (record, bundle) = run_fault_case(&ctx, case_index, faults);
    Ok(bundle.map(|bundle| {
        let trigger = bundle.trigger;
        CaseFailure {
            trigger,
            record,
            bundle,
        }
    }))
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

/// Shrinks one failing case to a minimal reproducer with the same
/// postmortem trigger. `faults` is the case's full fault plan (e.g. from
/// [`dense_fault_plan`]); `case_index` seeds per-case machinery (nested
/// recovery faults) exactly as the campaign did, so the shrunk plan
/// replays in the identical engine configuration.
///
/// # Errors
///
/// * [`CampaignError`] if the fault-free baseline fails;
/// * [`CkptError::Unsupported`] (wrapped) if the original plan does
///   *not* fail — there is nothing to shrink.
pub fn shrink_case<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    case_index: usize,
    faults: &[Fault],
    shrink_cfg: &ShrinkConfig,
    policy: F,
) -> Result<ShrinkOutcome, CampaignError>
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    if faults.is_empty() {
        return Err(CkptError::EmptyCampaign.into());
    }
    let ctx = CaseCtx::new(program, machine, cfg, &policy)?;

    // The failure signature the whole search must preserve.
    let (record, bundle) = run_fault_case(&ctx, case_index, faults);
    let mut evaluations = 1u64;
    let Some(bundle) = bundle else {
        return Err(CkptError::Unsupported {
            what: format!(
                "shrink: case {case_index} does not fail (outcome {}) — nothing to shrink",
                record.outcome.label()
            ),
        }
        .into());
    };
    let trigger = bundle.trigger;
    let fails = |plan: &[Fault]| -> bool {
        let (_, b) = run_fault_case(&ctx, case_index, plan);
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

    // Final definitive run of the minimal plan: its record and bundle are
    // what the repro ships.
    let (record, bundle) = run_fault_case(&ctx, case_index, &plan);
    evaluations += 1;
    let bundle = bundle.expect("minimal plan was verified to fail");
    debug_assert_eq!(bundle.trigger, trigger);

    let mut metrics = MetricsRegistry::new();
    metrics.set("shrink.original_faults", faults.len() as u64);
    metrics.set("shrink.minimal_faults", plan.len() as u64);
    metrics.set("shrink.dropped_faults", (faults.len() - plan.len()) as u64);
    metrics.set("shrink.rounds", rounds);
    metrics.set("shrink.evaluations", evaluations);
    metrics.set("shrink.narrowed_fields", narrowed_fields);

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
        metrics,
    })
}

/// Serializes one fault as a compact JSON object (kind-specific fields
/// only; addresses as hex strings). Inverse of [`fault_from_json`].
pub fn fault_to_json(f: &Fault) -> String {
    let mut o = format!(
        "{{\"at\": {}, \"core\": {}, \"kind\": ",
        f.at_progress, f.core.0
    );
    push_json_string(&mut o, f.kind.label());
    match f.kind {
        FaultKind::RegBitFlip { reg, bit } => {
            let _ = write!(o, ", \"reg\": {reg}, \"bit\": {bit}");
        }
        FaultKind::PcBitFlip { bit } => {
            let _ = write!(o, ", \"bit\": {bit}");
        }
        FaultKind::MemBitFlip { addr, bit } => {
            let _ = write!(o, ", \"addr\": \"{:#x}\", \"bit\": {bit}", addr.byte());
        }
        FaultKind::MemBurst { addr, bit, span } => {
            let _ = write!(
                o,
                ", \"addr\": \"{:#x}\", \"bit\": {bit}, \"span\": {span}",
                addr.byte()
            );
        }
        FaultKind::StuckAt {
            addr,
            bit,
            stuck_one,
        } => {
            let _ = write!(
                o,
                ", \"addr\": \"{:#x}\", \"bit\": {bit}, \"stuck_one\": {stuck_one}",
                addr.byte()
            );
        }
        FaultKind::Crash => {}
    }
    o.push('}');
    o
}

/// Parses a fault serialized by [`fault_to_json`].
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn fault_from_json(j: &Json) -> Result<Fault, String> {
    let num = |key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("fault field `{key}` missing"))
    };
    let bit = || num("bit").map(|b| b as u8);
    let addr = || -> Result<WordAddr, String> {
        let s = j
            .get("addr")
            .and_then(Json::as_str)
            .ok_or("fault field `addr` missing")?;
        let b = u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .map_err(|e| format!("fault field `addr`: {e}"))?;
        if b % WORD_BYTES != 0 {
            return Err(format!("fault field `addr`: {b:#x} is not word-aligned"));
        }
        Ok(WordAddr::new(b))
    };
    let kind = match j.get("kind").and_then(Json::as_str).unwrap_or("") {
        "reg" => FaultKind::RegBitFlip {
            reg: num("reg")? as u8,
            bit: bit()?,
        },
        "pc" => FaultKind::PcBitFlip { bit: bit()? },
        "mem" => FaultKind::MemBitFlip {
            addr: addr()?,
            bit: bit()?,
        },
        "burst" => FaultKind::MemBurst {
            addr: addr()?,
            bit: bit()?,
            span: num("span")? as u8,
        },
        "stuck" => FaultKind::StuckAt {
            addr: addr()?,
            bit: bit()?,
            stuck_one: matches!(j.get("stuck_one"), Some(Json::Bool(true))),
        },
        "crash" => FaultKind::Crash,
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok(Fault {
        at_progress: num("at")?,
        core: CoreId(num("core")? as u32),
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoOmission;
    use acr_isa::{AluOp, ProgramBuilder, Reg};
    use acr_sim::FaultKindSet;
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
            let faults =
                dense_fault_plan(&p, MachineConfig::with_cores(2), &cfg).expect("plan generates");
            assert!(faults.len() >= 8, "want a dense plan, got {}", faults.len());
            let outcome = shrink_case(
                &p,
                MachineConfig::with_cores(2),
                &cfg,
                0,
                &faults,
                &ShrinkConfig::default(),
                || NoOmission,
            );
            if outcome.is_ok() {
                return (p, cfg, faults);
            }
        }
        panic!("no failing seed found in 42..62");
    }

    #[test]
    fn shrink_finds_a_smaller_plan_with_the_same_trigger() {
        let (p, cfg, faults) = failing_setup();
        let out = shrink_case(
            &p,
            MachineConfig::with_cores(2),
            &cfg,
            0,
            &faults,
            &ShrinkConfig::default(),
            || NoOmission,
        )
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
        assert_eq!(
            out.metrics.get("shrink.minimal_faults"),
            Some(out.minimal.len() as u64)
        );

        // The minimal plan must still fail with the identical signature
        // when replayed from scratch (what `acr_cli shrink --replay` does).
        let replay = shrink_case(
            &p,
            MachineConfig::with_cores(2),
            &cfg,
            0,
            &out.minimal,
            &ShrinkConfig {
                max_evaluations: 1,
                ..ShrinkConfig::default()
            },
            || NoOmission,
        )
        .expect("minimal plan still fails");
        assert_eq!(replay.failure.trigger, out.failure.trigger);
    }

    #[test]
    fn shrinking_is_jobs_invariant() {
        let (p, cfg, faults) = failing_setup();
        let runs: Vec<ShrinkOutcome> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                shrink_case(
                    &p,
                    MachineConfig::with_cores(2),
                    &cfg,
                    0,
                    &faults,
                    &ShrinkConfig {
                        jobs,
                        ..ShrinkConfig::default()
                    },
                    || NoOmission,
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
        let faults = dense_fault_plan(&p, MachineConfig::with_cores(2), &cfg).expect("plan");
        let err = shrink_case(
            &p,
            MachineConfig::with_cores(2),
            &cfg,
            0,
            &faults,
            &ShrinkConfig::default(),
            || NoOmission,
        )
        .unwrap_err();
        assert!(err.to_string().contains("does not fail"), "{err}");
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
        for f in faults {
            let text = fault_to_json(&f);
            let parsed = fault_from_json(&parse_json(&text).expect("valid JSON"))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, f, "{text}");
        }
        // Malformed inputs get messages, not panics.
        let j = parse_json(
            "{\"at\": 1, \"core\": 0, \"kind\": \"mem\", \"addr\": \"0x3\", \"bit\": 0}",
        )
        .unwrap();
        assert!(fault_from_json(&j).unwrap_err().contains("aligned"));
        let j = parse_json("{\"at\": 1, \"core\": 0, \"kind\": \"nope\"}").unwrap();
        assert!(fault_from_json(&j)
            .unwrap_err()
            .contains("unknown fault kind"));
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
