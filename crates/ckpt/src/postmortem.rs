//! Postmortem bundles: self-contained forensic snapshots of failed cases.
//!
//! A fault-injection campaign normally compresses each case into one
//! [`FaultCaseRecord`] row. When a case *fails* — its final state diverges
//! from the reference, the engine aborts, the recovery-escalation ladder
//! is exhausted, or an invariant monitor fires — that row is not enough to
//! triage from. The [`PostmortemBundle`] captures everything the engine
//! knew at the end of the case:
//!
//! * a machine-state digest (cycles, retired work, an FNV-1a hash of the
//!   final memory image, divergence counts),
//! * the tail of the flight-recorder rings (last K events per core plus
//!   the engine/memory timeline), with overwrite counts,
//! * the log-controller lifetime totals and the tail of the sealed
//!   intervals (the record/omit ledger the recovery would have replayed),
//! * the full escalation history and the invariant-monitor summary,
//! * a stored `probable_cause` narrative chaining the trigger back
//!   through the escalation rungs.
//!
//! Bundles are plain data (`Eq`, no floats, no wall-clock), so two runs of
//! the same seed produce *byte-identical* JSON — `acr_cli` pins this in
//! CI by double-running a forced-divergence campaign and comparing the
//! bundle files. [`PostmortemBundle::to_json`] emits the `acr.postmortem.v1`
//! schema; [`PostmortemBundle::from_json`] decodes it for `acr_cli explain`.

use acr_sim::FaultKindSet;
use acr_trace::{
    read_document, render_json, Coder, EventKind, FlightRecorder, Fnv1a, JsonError, JsonResult,
    Layout, Ring, TraceEvent, INLINE,
};

use crate::inject::{fault_detail, CaseOutcome, FaultCaseRecord, RECOVERY_FAULT_LABELS};
use crate::monitor::InvariantSummary;
use crate::report::{BerReport, IntervalRecord};
use crate::soak::TOP;

/// Schema tag of [`PostmortemBundle::to_json`] documents.
pub const POSTMORTEM_SCHEMA: &str = "acr.postmortem.v1";

/// Every postmortem trigger label (see [`PostmortemBundle::trigger`]).
pub const TRIGGERS: [&str; 5] = [
    "divergence",
    "abort",
    "hang",
    "escalation-exhaustion",
    "invariant-breach",
];

/// The flight-recorder rings: one ring per line.
const RINGS: Layout = Layout::new("\n    ", ",\n    ", ": ", "\n  ", "");

/// A ring's events: one event per line.
const EVENTS: Layout = Layout::new("\n      ", ",\n      ", ": ", "\n    ", "");

/// Sealed intervals retained in the bundle's ledger tail.
const INTERVAL_TAIL: usize = 8;

/// The machine's end-of-case state a bundle digests.
#[derive(Debug, Clone, Copy)]
pub struct CaseEnd<'a> {
    /// Final memory image.
    pub mem_words: &'a [u64],
    /// Retired instructions of the fault-free run, which a converged case
    /// reaches exactly.
    pub reference_retired: u64,
    /// Whether every core halted.
    pub all_halted: bool,
    /// Log-controller lifetime `(logged, omitted)` totals.
    pub log_totals: (u64, u64),
}

/// One flight-recorder event, owned (no `'static` borrows) so bundles can
/// outlive the recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventRecord {
    /// Event shape: `"span"`, `"instant"` or `"counter"`.
    pub kind: &'static str,
    /// Event name, e.g. `"ckpt"` or `"recovery.replay"`.
    pub name: String,
    /// Category, e.g. `"ckpt"`, `"recovery"`, `"mem"`.
    pub cat: String,
    /// Track the event was emitted on (core index or engine/mem track).
    pub track: u32,
    /// Start cycle.
    pub cycle: u64,
    /// Duration in cycles (spans only).
    pub dur: u64,
    /// Key/value arguments, in slot order.
    pub args: Vec<(String, u64)>,
}

/// The bundle label of an event shape.
fn kind_label(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Span => "span",
        EventKind::Instant => "instant",
        EventKind::Counter => "counter",
    }
}

impl EventRecord {
    fn from_event(ev: &TraceEvent) -> Self {
        EventRecord {
            kind: kind_label(ev.kind),
            name: ev.name.to_string(),
            cat: ev.cat.to_string(),
            track: ev.track,
            cycle: ev.cycle,
            dur: ev.dur,
            args: ev
                .args
                .iter()
                .flatten()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

/// The drained contents of one flight-recorder ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingDigest {
    /// Ring label: `"core<i>"` or `"global"`.
    pub track: String,
    /// Ring capacity (the K in "last K events").
    pub capacity: u64,
    /// Total events ever recorded on this ring.
    pub total: u64,
    /// Events overwritten before capture.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<EventRecord>,
}

impl RingDigest {
    fn from_ring(track: String, ring: &Ring) -> Self {
        RingDigest {
            track,
            capacity: ring.capacity() as u64,
            total: ring.total(),
            dropped: ring.dropped(),
            events: ring
                .events_in_order()
                .iter()
                .map(EventRecord::from_event)
                .collect(),
        }
    }
}

/// One recovery of the failed case, reduced to its escalation-relevant
/// coordinates.
#[derive(Debug, Clone, Default, Copy, PartialEq, Eq)]
pub struct EscalationStep {
    /// Machine cycle at detection.
    pub detected_at_cycles: u64,
    /// Epoch the engine rolled back to.
    pub safe_epoch: u64,
    /// Re-replay attempts beyond the first (rung 1).
    pub replay_retries: u32,
    /// Checkpoint generations skipped on checksum failure (rung 2).
    pub generation_fallbacks: u32,
    /// Whether the recovery escalated into degraded full logging (rung 3).
    pub degraded_entered: bool,
}

/// A self-contained forensic snapshot of one failed campaign case.
///
/// Everything is integral and deterministic, so equal seeds produce equal
/// bundles (`Eq` holds field-for-field) and [`PostmortemBundle::to_json`]
/// is byte-stable. The `workload` and `repro` fields are empty when the
/// bundle leaves the campaign; the CLI stamps them before writing so the
/// JSON carries the exact reproduction command.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostmortemBundle {
    /// What tripped the capture: `"divergence"`, `"abort"`, `"hang"`
    /// (recovery-watchdog budget exhausted), `"escalation-exhaustion"` or
    /// `"invariant-breach"`.
    pub trigger: &'static str,
    /// Workload label (stamped by the CLI; empty from the library).
    pub workload: String,
    /// Exact reproduction command line (stamped by the CLI).
    pub repro: String,
    /// Campaign plan seed.
    pub seed: u64,
    /// Case index within the campaign.
    pub case: u32,
    /// Injected fault kind label (`reg`/`pc`/`mem`/`crash`).
    pub fault_kind: &'static str,
    /// Kind-specific fault coordinates (register/bit, address/bit, …).
    pub fault_detail: String,
    /// Target core of the fault.
    pub fault_core: u32,
    /// Injection point in retired instructions.
    pub fault_at_progress: u64,
    /// Machine cycle at which the fault landed (0 when it never landed).
    pub landing_cycle: u64,
    /// Nested recovery-window fault label, when one was injected.
    pub recovery_fault: Option<&'static str>,
    /// Case verdict label (`recovered`/`diverged`/`aborted`).
    pub outcome: &'static str,
    /// Final execution cycles of the case.
    pub cycles: u64,
    /// Total retired instructions at the end of the case.
    pub final_retired: u64,
    /// The convergence condition a diverged case failed although its
    /// memory and registers match the reference: `retired N vs M` (final
    /// vs fault-free) or `not all halted`.
    pub failed_condition: Option<String>,
    /// FNV-1a hash over the final memory image.
    pub mem_fnv: u64,
    /// Final memory words differing from the reference.
    pub mem_divergence: u64,
    /// Final registers differing from the reference.
    pub reg_divergence: u64,
    /// Shadow-oracle divergent words right after rollback.
    pub shadow_divergence: u64,
    /// Log-controller lifetime old-value records.
    pub lifetime_logged: u64,
    /// Log-controller lifetime omitted first updates.
    pub lifetime_omitted: u64,
    /// Tail of the sealed intervals (up to `INTERVAL_TAIL`), oldest
    /// first — the record/omit ledger the recovery drew from.
    pub intervals_tail: Vec<IntervalRecord>,
    /// Sealed intervals dropped from the tail.
    pub intervals_dropped: u64,
    /// Every recovery of the case, in execution order.
    pub escalation: Vec<EscalationStep>,
    /// Recoveries whose escalation ladder was exhausted.
    pub escalation_exhausted: u64,
    /// Invariant-monitor tallies and first breach.
    pub invariants: InvariantSummary,
    /// Flight-recorder rings (`core0..coreN`, then `global`), empty when
    /// the recorder was disabled.
    pub rings: Vec<RingDigest>,
    /// Probable-cause narrative chaining trigger back through escalation.
    pub probable_cause: String,
}

impl PostmortemBundle {
    /// Captures a bundle at the end of a failed case; `abort_detail` is
    /// the engine error for aborted cases.
    pub fn capture(
        trigger: &'static str,
        seed: u64,
        rec: &FaultCaseRecord,
        report: &BerReport,
        end: &CaseEnd<'_>,
        recorder: Option<&FlightRecorder>,
        abort_detail: Option<&str>,
    ) -> Self {
        let mut h = Fnv1a::new();
        for w in end.mem_words {
            h.write(&w.to_le_bytes());
        }
        let tail_start = report.intervals.len().saturating_sub(INTERVAL_TAIL);
        let mut rings = Vec::new();
        if let Some(fr) = recorder {
            for core in 0..fr.num_cores() {
                rings.push(RingDigest::from_ring(
                    format!("core{core}"),
                    fr.core_ring(core),
                ));
            }
            rings.push(RingDigest::from_ring(
                "global".to_string(),
                fr.global_ring(),
            ));
        }
        let failed_condition = failed_condition(rec, end);
        let probable_cause = probable_cause(
            trigger,
            rec,
            failed_condition.as_deref(),
            report,
            abort_detail,
        );
        PostmortemBundle {
            trigger,
            workload: String::new(),
            repro: String::new(),
            seed,
            case: rec.case,
            fault_kind: rec.fault.kind.label(),
            fault_detail: fault_detail(rec.fault.kind),
            fault_core: rec.fault.core.0,
            fault_at_progress: rec.fault.at_progress,
            landing_cycle: rec.landing_cycle,
            recovery_fault: rec.recovery_fault.map(|k| k.label()),
            outcome: rec.outcome.label(),
            cycles: rec.cycles,
            final_retired: rec.final_retired,
            failed_condition,
            mem_fnv: h.finish(),
            mem_divergence: rec.mem_divergence,
            reg_divergence: rec.reg_divergence,
            shadow_divergence: rec.shadow_divergence,
            lifetime_logged: end.log_totals.0,
            lifetime_omitted: end.log_totals.1,
            intervals_tail: report.intervals[tail_start..].to_vec(),
            intervals_dropped: tail_start as u64,
            escalation: report
                .recoveries
                .iter()
                .map(|r| EscalationStep {
                    detected_at_cycles: r.detected_at_cycles,
                    safe_epoch: r.safe_epoch,
                    replay_retries: r.replay_retries,
                    generation_fallbacks: r.generation_fallbacks,
                    degraded_entered: r.degraded_entered,
                })
                .collect(),
            escalation_exhausted: report.escalation_exhausted,
            invariants: report.invariants.clone(),
            rings,
            probable_cause,
        }
    }

    /// The bundle's fields, in document order (see [`Coder`]). Labels
    /// must come from the sets the engine emits, and `invariants.breaches`
    /// must equal the per-monitor breach sum. Interval fields the bundle
    /// does not carry decode as 0.
    fn code(&mut self, c: &mut Coder<'_, '_>) -> JsonResult {
        c.label("trigger", &mut self.trigger, TRIGGERS)?;
        c.string("workload", &mut self.workload)?;
        c.string("repro", &mut self.repro)?;
        c.uint("seed", &mut self.seed)?;
        c.uint("case", &mut self.case)?;
        c.obj("fault", INLINE, &mut |c| {
            let kinds = FaultKindSet::adversarial().labels(true);
            c.label("kind", &mut self.fault_kind, kinds)?;
            c.string("detail", &mut self.fault_detail)?;
            c.uint("core", &mut self.fault_core)?;
            c.uint("at_progress", &mut self.fault_at_progress)?;
            c.uint("landing_cycle", &mut self.landing_cycle)
        })?;
        c.opt_label(
            "recovery_fault",
            &mut self.recovery_fault,
            RECOVERY_FAULT_LABELS,
        )?;
        let outcomes = CaseOutcome::ALL.map(CaseOutcome::label);
        c.label("outcome", &mut self.outcome, outcomes)?;
        c.obj("machine", INLINE, &mut |c| {
            c.uint("cycles", &mut self.cycles)?;
            c.uint("final_retired", &mut self.final_retired)?;
            c.hex("mem_fnv", &mut self.mem_fnv, 16)?;
            c.uint("mem_divergence", &mut self.mem_divergence)?;
            c.uint("reg_divergence", &mut self.reg_divergence)?;
            c.uint("shadow_divergence", &mut self.shadow_divergence)?;
            c.opt_string("failed_condition", &mut self.failed_condition)
        })?;
        c.obj("log", INLINE, &mut |c| {
            c.uint("lifetime_logged", &mut self.lifetime_logged)?;
            c.uint("lifetime_omitted", &mut self.lifetime_omitted)?;
            c.uint("intervals_dropped", &mut self.intervals_dropped)?;
            let tail = &mut self.intervals_tail;
            c.list("intervals_tail", INLINE, INLINE, tail, &mut |c, iv| {
                c.uint("epoch", &mut iv.epoch)?;
                c.uint("progress", &mut iv.progress)?;
                c.uint("records", &mut iv.records)?;
                c.uint("omitted", &mut iv.omitted)?;
                c.uint("bytes", &mut iv.bytes)?;
                c.uint("stall_cycles", &mut iv.stall_cycles)
            })
        })?;
        c.obj("escalation", INLINE, &mut |c| {
            c.uint("exhausted", &mut self.escalation_exhausted)?;
            let steps = &mut self.escalation;
            c.list("steps", INLINE, INLINE, steps, &mut |c, s| {
                c.uint("detected_at_cycles", &mut s.detected_at_cycles)?;
                c.uint("safe_epoch", &mut s.safe_epoch)?;
                c.uint("replay_retries", &mut s.replay_retries)?;
                c.uint("generation_fallbacks", &mut s.generation_fallbacks)?;
                c.bool("degraded_entered", &mut s.degraded_entered)
            })
        })?;
        let inv = &mut self.invariants;
        c.obj("invariants", INLINE, &mut |c| {
            let mut breaches = inv.total_breaches();
            c.uint("breaches", &mut breaches)?;
            let names = inv.monitors().map(|(name, _)| name);
            c.obj("monitors", INLINE, &mut |c| {
                names.into_iter().try_for_each(|name| {
                    let m = inv.counters_mut(name);
                    c.obj(name, INLINE, &mut |c| {
                        c.uint("checks", &mut m.checks)?;
                        c.uint("breaches", &mut m.breaches)
                    })
                })
            })?;
            let first = &mut inv.first_breach;
            c.opt_obj("first_breach", true, INLINE, first, &mut |c, b| {
                c.label("monitor", &mut b.monitor, names)?;
                c.uint("epoch", &mut b.epoch)?;
                c.uint("cycle", &mut b.cycle)?;
                c.string("detail", &mut b.detail)
            })?;
            let total = inv.total_breaches();
            c.check("breaches", breaches == total, || {
                format!("{breaches} does not match the monitors' {total}")
            })
        })?;
        c.list("rings", RINGS, INLINE, &mut self.rings, &mut |c, r| {
            c.string("track", &mut r.track)?;
            c.uint("capacity", &mut r.capacity)?;
            c.uint("total", &mut r.total)?;
            c.uint("dropped", &mut r.dropped)?;
            c.list("events", EVENTS, INLINE, &mut r.events, &mut |c, ev| {
                let kinds = [EventKind::Span, EventKind::Instant, EventKind::Counter];
                c.label("kind", &mut ev.kind, kinds.map(kind_label))?;
                c.string("name", &mut ev.name)?;
                c.string("cat", &mut ev.cat)?;
                c.uint("track", &mut ev.track)?;
                c.uint("cycle", &mut ev.cycle)?;
                c.uint("dur", &mut ev.dur)?;
                c.map("args", INLINE, &mut ev.args, &mut |c, (k, v)| c.uint(k, v))
            })
        })?;
        c.string("probable_cause", &mut self.probable_cause)
    }

    /// Serialises the bundle as deterministic `acr.postmortem.v1` JSON
    /// (fixed key order, integers only, `mem_fnv` as a hex string so it
    /// survives `f64` parsers, trailing newline).
    pub fn to_json(&self) -> String {
        let body = &mut |c: &mut Coder<'_, '_>| self.clone().code(c);
        render_json(Some(POSTMORTEM_SCHEMA), TOP, body) + "\n"
    }

    /// Decodes a bundle rendered by [`PostmortemBundle::to_json`].
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the first bad field.
    pub fn from_json(text: &str) -> Result<PostmortemBundle, JsonError> {
        let mut b = PostmortemBundle::default();
        read_document(text, POSTMORTEM_SCHEMA, &mut |c| b.code(c))?;
        Ok(b)
    }
}

/// Builds the probable-cause narrative: first breach wins, otherwise the
/// trigger is chained back through the escalation rungs the case climbed.
fn probable_cause(
    trigger: &str,
    rec: &FaultCaseRecord,
    failed_condition: Option<&str>,
    report: &BerReport,
    abort_detail: Option<&str>,
) -> String {
    if let Some(b) = &report.invariants.first_breach {
        return format!(
            "invariant breach ({}) at epoch {} cycle {}: {}",
            b.monitor, b.epoch, b.cycle, b.detail
        );
    }
    let mut cause = if rec.landing_cycle > 0 {
        format!(
            "{} fault ({}) landed at cycle {}",
            rec.fault.kind.label(),
            fault_detail(rec.fault.kind),
            rec.landing_cycle
        )
    } else {
        format!(
            "{} fault ({}) planned at progress {}",
            rec.fault.kind.label(),
            fault_detail(rec.fault.kind),
            rec.fault.at_progress
        )
    };
    if let Some(rf) = rec.recovery_fault {
        cause.push_str(&format!(" -> {} during recovery", rf.label()));
    }
    if rec.replay_retries > 0 {
        cause.push_str(&format!(" -> {} re-replay attempts", rec.replay_retries));
    }
    if rec.generation_fallbacks > 0 {
        cause.push_str(&format!(
            " -> generation fallback x{}",
            rec.generation_fallbacks
        ));
    }
    if rec.degraded_entries > 0 {
        cause.push_str(" -> degraded full-logging entry");
    }
    match trigger {
        "abort" => {
            cause.push_str(" -> engine abort");
            if let Some(d) = abort_detail {
                cause.push_str(&format!(" ({d})"));
            }
        }
        "hang" => {
            cause.push_str(" -> recovery watchdog abort");
            if let Some(d) = abort_detail {
                cause.push_str(&format!(" ({d})"));
            }
        }
        "escalation-exhaustion" => {
            cause.push_str(&format!(
                " -> escalation ladder exhausted ({} recovery)",
                plural(report.escalation_exhausted, "time", "times")
            ));
            cause.push_str(" -> best-effort image");
        }
        _ => {
            if rec.fault.kind.label() == "mem" {
                cause.push_str(
                    " -> flip outside the incremental log window -> old value unrecoverable \
                     -> divergence from reference",
                );
            } else if let Some(cond) = failed_condition {
                cause.push_str(&format!(
                    " -> final state matches the reference but {cond} -> divergence"
                ));
            } else {
                cause.push_str(&format!(
                    " -> final state differs from reference ({} mem, {} reg words) -> divergence",
                    rec.mem_divergence, rec.reg_divergence
                ));
            }
        }
    }
    cause
}

/// See [`PostmortemBundle::failed_condition`].
fn failed_condition(rec: &FaultCaseRecord, end: &CaseEnd<'_>) -> Option<String> {
    if rec.outcome != CaseOutcome::Diverged || rec.mem_divergence != 0 || rec.reg_divergence != 0 {
        None
    } else if rec.final_retired != end.reference_retired {
        Some(format!(
            "retired {} vs {}",
            rec.final_retired, end.reference_retired
        ))
    } else if !end.all_halted {
        Some("not all halted".to_owned())
    } else {
        None
    }
}

fn plural(n: u64, one: &str, many: &str) -> String {
    if n == 1 {
        format!("{n} {one}")
    } else {
        format!("{n} {many}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_sim::{Fault, FaultKind};
    use acr_trace::parse_json;

    fn record(outcome: CaseOutcome) -> FaultCaseRecord {
        FaultCaseRecord {
            case: 3,
            fault: Fault {
                at_progress: 500,
                core: acr_mem::CoreId(1),
                kind: FaultKind::MemBitFlip {
                    addr: acr_mem::WordAddr::new(64),
                    bit: 5,
                },
            },
            recoveries: 1,
            exception_detections: 0,
            shadow_divergence: 0,
            mem_divergence: 2,
            reg_divergence: 0,
            final_retired: 1000,
            restored_records: 10,
            recomputed_values: 0,
            recompute_alu_ops: 0,
            recovery_stall_cycles: 40,
            waste_cycles: 80,
            cycles: 4000,
            landing_cycle: 2000,
            recovery_fault: None,
            replay_retries: 0,
            generation_fallbacks: 0,
            degraded_entries: 0,
            hung: false,
            outcome,
        }
    }

    /// A halted end state that reached the record's retired count.
    fn end(mem_words: &[u64], log_totals: (u64, u64)) -> CaseEnd<'_> {
        CaseEnd {
            mem_words,
            reference_retired: 1000,
            all_halted: true,
            log_totals,
        }
    }

    #[test]
    fn bundle_json_is_deterministic_and_parses() {
        let rec = record(CaseOutcome::Diverged);
        let report = BerReport::default();
        let words = [1u64, 2, 3];
        let end = end(&words, (7, 3));
        let a = PostmortemBundle::capture("divergence", 42, &rec, &report, &end, None, None);
        let b = PostmortemBundle::capture("divergence", 42, &rec, &report, &end, None, None);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let doc = parse_json(&a.to_json()).expect("bundle JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(POSTMORTEM_SCHEMA)
        );
        assert_eq!(
            doc.get("trigger").and_then(|v| v.as_str()),
            Some("divergence")
        );
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(42));
        let cause = doc.get("probable_cause").and_then(|v| v.as_str()).unwrap();
        assert!(cause.contains("mem fault"), "{cause}");
        assert!(cause.contains("divergence"), "{cause}");
    }

    /// A case whose memory and registers match the reference but which
    /// did not converge names the failed condition, not "0 mem, 0 reg".
    #[test]
    fn matching_state_names_the_failed_condition() {
        let mut rec = record(CaseOutcome::Diverged);
        rec.fault.kind = FaultKind::Crash;
        rec.mem_divergence = 0;
        let report = BerReport::default();
        let retired = CaseEnd {
            reference_retired: 800,
            ..end(&[0u64], (0, 0))
        };
        let b = PostmortemBundle::capture("divergence", 42, &rec, &report, &retired, None, None);
        assert!(
            b.probable_cause.ends_with(
                "-> final state matches the reference but retired 1000 vs 800 -> divergence"
            ),
            "{}",
            b.probable_cause
        );
        let doc = parse_json(&b.to_json()).unwrap();
        let machine = doc.get("machine").unwrap();
        assert_eq!(
            machine.get("failed_condition").and_then(|v| v.as_str()),
            Some("retired 1000 vs 800")
        );
        let running = CaseEnd {
            all_halted: false,
            ..end(&[0u64], (0, 0))
        };
        let b = PostmortemBundle::capture("divergence", 42, &rec, &report, &running, None, None);
        assert!(
            b.probable_cause.contains("but not all halted"),
            "{}",
            b.probable_cause
        );
    }

    #[test]
    fn invariant_breach_dominates_the_narrative() {
        let rec = record(CaseOutcome::Recovered);
        let mut report = BerReport::default();
        report.invariants.observe(
            "checksum_spot",
            4,
            900,
            Some("record 2 failed verify".into()),
        );
        let b = PostmortemBundle::capture(
            "invariant-breach",
            42,
            &rec,
            &report,
            &end(&[0u64], (0, 0)),
            None,
            None,
        );
        assert!(b
            .probable_cause
            .starts_with("invariant breach (checksum_spot)"));
        assert!(b.probable_cause.contains("epoch 4"));
        let doc = parse_json(&b.to_json()).unwrap();
        let inv = doc.get("invariants").unwrap();
        assert_eq!(inv.get("breaches").and_then(|v| v.as_u64()), Some(1));
        assert!(inv.get("first_breach").unwrap().get("monitor").is_some());
    }

    #[test]
    fn rings_serialize_with_drop_counts() {
        let rec = record(CaseOutcome::Diverged);
        let report = BerReport::default();
        let mut fr = FlightRecorder::new(1, 2, 2);
        use acr_trace::{TraceEvent, TraceSink, TRACK_ENGINE};
        for c in 0..5 {
            fr.record(&TraceEvent::instant("ckpt", "ckpt", TRACK_ENGINE, c).with_arg("epoch", c));
        }
        fr.record(&TraceEvent::span("flush", "mem", 0, 10, 4));
        let b = PostmortemBundle::capture(
            "divergence",
            1,
            &rec,
            &report,
            &end(&[0u64], (0, 0)),
            Some(&fr),
            None,
        );
        assert_eq!(b.rings.len(), 2);
        assert_eq!(b.rings[1].track, "global");
        assert_eq!(b.rings[1].dropped, 3);
        assert_eq!(b.rings[1].events.len(), 2);
        let doc = parse_json(&b.to_json()).unwrap();
        let rings = doc.get("rings").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rings.len(), 2);
        assert_eq!(
            rings[1].get("dropped").and_then(|v| v.as_u64()),
            Some(3),
            "{}",
            b.to_json()
        );
    }
}
