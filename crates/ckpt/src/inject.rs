//! Deterministic fault-injection campaigns with a differential oracle.
//!
//! A campaign schedules errors that carry real state corruption and then
//! proves (or disproves) that recovery works:
//!
//! 1. a seeded [`FaultPlan`] picks injection points, target cores and
//!    corruption kinds — no wall clock, no OS randomness, so the same
//!    seed always produces the same campaign;
//! 2. every planned fault becomes one *independent* run: a fresh
//!    [`Machine`] plus a fresh omission policy executes under the
//!    checkpointing engine, the fault is applied in flight, and the
//!    engine detects it (by its scheduled latency, or immediately when
//!    the corruption traps the simulator) and rolls back;
//! 3. a **differential oracle** compares the recovered execution against
//!    the `acr-isa` reference interpreter word for word: final memory
//!    image, total progress, and — for single-threaded programs — the
//!    architectural register file.
//!
//! Register/pc flips and crashes corrupt only state a checkpoint fully
//! re-creates, so those cases must always converge ([`CaseOutcome::Recovered`]).
//! Memory flips can land on words the incremental log no longer covers
//! and are classified [`CaseOutcome::Diverged`] when they defeat the log
//! — a campaign never reports a silently wrong recovery.

use std::fmt;

use acr_isa::interp::{ExecError, Interp};
use acr_isa::{Program, Reg, ThreadId, NUM_REGS};
use acr_mem::WordAddr;
use acr_sim::{
    Fault, FaultKind, FaultKindSet, FaultPlan, FaultPlanConfig, FaultStorm, Machine, MachineConfig,
    RecoveryFault, RecoveryFaultKind, SimError, StoreCensus,
};

use acr_trace::{FlightRecorder, Fnv1a, MetricsRegistry, TimeSeries, WorkerLoad};

use crate::engine::{check_recovery_fault_scheme, BerConfig, BerEngine, ResilienceConfig, Scheme};
use crate::errors::CkptError;
use crate::parallel::ParallelRunner;
use crate::policy::OmissionPolicy;
use crate::postmortem::{CaseEnd, PostmortemBundle};
use crate::schedule::{detection_latency, uniform_points, ErrorSchedule};

/// Recovery-fault kind labels, in rendering order (escalation histogram).
pub(crate) const RECOVERY_FAULT_LABELS: [&str; 5] = [
    "replay-input",
    "restored-word",
    "torn-record",
    "crash-mid-restore",
    "torn-commit",
];

/// Campaign parameters. Everything that affects the outcome is in here —
/// two campaigns with equal configs over the same program are
/// byte-identical.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Plan seed.
    pub seed: u64,
    /// Number of faults (= independent runs).
    pub count: u32,
    /// Corruption kinds to draw from.
    pub kinds: FaultKindSet,
    /// Checkpoints per nominal execution.
    pub num_checkpoints: u32,
    /// Detection latency as a fraction of the checkpoint period.
    pub detection_latency_frac: f64,
    /// Coordination scheme.
    pub scheme: Scheme,
    /// Instruction budget for the reference-interpreter run.
    pub interp_fuel: u64,
    /// Metrics sampling interval in cycles for the fault-free baseline
    /// run (0 = sampling off). The sampled series is purely observational:
    /// it never changes case outcomes or the campaign content hash.
    pub sample_interval: u64,
    /// Nested-fault mode: additionally strike each case's first recovery
    /// with a deterministic recovery-window fault
    /// ([`RecoveryFault::planned`]) and record the engine's escalation
    /// response. Extends the content hash with the per-case escalation
    /// data; plain campaigns hash exactly as before.
    pub recovery_faults: bool,
    /// Checkpoint generations the engine retains as fallbacks (≥ 1).
    /// Raised to at least 2 automatically in nested-fault mode so a
    /// torn-commit case has a generation to fall back to.
    pub generations: u32,
    /// Worker threads sharding the per-case loop (0 = auto:
    /// [`crate::parallel::available_jobs`]). Purely an execution knob:
    /// the report — cases, CSVs, metrics, content hash — is byte-identical
    /// for every value, because results merge in case-index order.
    /// Defaults to 1 so library callers stay sequential unless they opt
    /// in.
    pub jobs: usize,
    /// Collect a one-line-per-case progress log into
    /// [`CampaignReport::case_log`]. Lines are buffered per shard and
    /// flushed in case order at merge, so the log is jobs-invariant; it
    /// never enters the content hash.
    pub progress: bool,
    /// Attach an always-on [`FlightRecorder`] to every case's machine
    /// (default). The recorder is a fixed-capacity ring sink — purely
    /// observational, so recorder-on campaigns are cycle- and
    /// hash-identical to recorder-off ones — and its event tails feed the
    /// [`PostmortemBundle`]s of failed cases. Disable only to measure the
    /// recorder's host-time cost (`acr_cli bench` does).
    pub recorder: bool,
    /// Temporal fault-storm clustering of the plan's injection points
    /// (see [`FaultStorm`]). `None` (the default) draws points uniformly,
    /// exactly as historical plans did — pinned campaign hashes depend on
    /// it.
    pub storm: Option<FaultStorm>,
    /// Recovery-watchdog escalation budget in stall cycles, passed to
    /// every case's [`ResilienceConfig`]. `0` (the default) disables the
    /// watchdog; when set, a case whose recovery escalation burns through
    /// the budget while still failing is aborted as a hang
    /// ([`FaultCaseRecord::hung`], outcome class `hang`).
    pub watchdog_budget_cycles: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            count: 100,
            kinds: FaultKindSet::default(),
            num_checkpoints: 12,
            detection_latency_frac: 0.5,
            scheme: Scheme::GlobalCoordinated,
            interp_fuel: 1 << 32,
            sample_interval: 0,
            recovery_faults: false,
            generations: 1,
            jobs: 1,
            progress: false,
            recorder: true,
            storm: None,
            watchdog_budget_cycles: 0,
        }
    }
}

impl CampaignConfig {
    /// Checkpoint generations every engine and policy of this campaign
    /// retains: [`CampaignConfig::generations`], but at least 2 in
    /// nested-fault mode (a torn-commit case needs a generation to fall
    /// back to) and at least 1 otherwise.
    pub fn retained_generations(&self) -> u32 {
        self.generations
            .max(if self.recovery_faults { 2 } else { 1 })
    }

    /// Splits this campaign over `workloads` workloads, as `acr_cli
    /// inject` does: the [`CampaignConfig::count`] faults divided evenly,
    /// the remainder going to the first workloads, workload `i` seeded
    /// `seed + i`, every other field shared. Returns `(i, campaign)` for
    /// each workload that receives at least one fault, in workload order.
    pub fn split(&self, workloads: usize) -> Vec<(usize, CampaignConfig)> {
        // Past `u32::MAX` workloads every share is zero anyway.
        let n = u32::try_from(workloads).unwrap_or(u32::MAX);
        (0..n)
            .map(|i| (i, self.count / n + u32::from(i < self.count % n)))
            .filter(|&(_, count)| count > 0)
            .map(|(i, count)| {
                let seed = self.seed.wrapping_add(u64::from(i));
                (
                    i as usize,
                    CampaignConfig {
                        seed,
                        count,
                        ..self.clone()
                    },
                )
            })
            .collect()
    }
}

/// Why a campaign could not even start (per-case failures never abort the
/// campaign — they are recorded as [`CaseOutcome::Aborted`]).
/// `Eq` is withheld because [`CkptError::InvalidLatency`] carries the
/// rejected `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The fault-free timing run failed: the workload itself is broken.
    Sim(SimError),
    /// The fault-free reference interpretation failed.
    Reference(ExecError),
    /// Timing simulator and reference interpreter disagree on the
    /// *fault-free* execution — the differential baseline is invalid.
    ReferenceMismatch {
        /// Number of differing memory words.
        words: u64,
    },
    /// The campaign configuration is malformed (user-reachable: CLI flags
    /// map straight onto [`CampaignConfig`]).
    Config(CkptError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sim(e) => write!(f, "fault-free run failed: {e}"),
            CampaignError::Reference(e) => write!(f, "reference run failed: {e}"),
            CampaignError::ReferenceMismatch { words } => write!(
                f,
                "fault-free run disagrees with the reference interpreter on {words} words"
            ),
            CampaignError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CkptError> for CampaignError {
    fn from(e: CkptError) -> Self {
        CampaignError::Config(e)
    }
}

/// How one injected fault ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Recovery converged: final architectural state is word-for-word
    /// identical to the fault-free reference.
    Recovered,
    /// The run completed but its final state differs from the reference
    /// (possible only for memory flips, which the log may not cover).
    Diverged,
    /// The engine could not finish the run at all.
    Aborted,
}

impl CaseOutcome {
    /// Every outcome, in label order.
    pub const ALL: [CaseOutcome; 3] = [
        CaseOutcome::Recovered,
        CaseOutcome::Diverged,
        CaseOutcome::Aborted,
    ];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CaseOutcome::Recovered => "recovered",
            CaseOutcome::Diverged => "diverged",
            CaseOutcome::Aborted => "aborted",
        }
    }
}

/// One fault, one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCaseRecord {
    /// Case index within the campaign.
    pub case: u32,
    /// The injected fault.
    pub fault: Fault,
    /// Recoveries the engine performed.
    pub recoveries: u64,
    /// Recoveries triggered by a simulator trap instead of the scheduled
    /// detection latency.
    pub exception_detections: u64,
    /// Words differing from the safe checkpoint's shadow right after
    /// rollback (the engine-internal oracle).
    pub shadow_divergence: u64,
    /// Final memory words differing from the reference interpreter.
    pub mem_divergence: u64,
    /// Final registers differing from the reference interpreter
    /// (single-threaded programs only; 0 otherwise).
    pub reg_divergence: u64,
    /// Total retired instructions of the recovered run (must equal the
    /// fault-free total when recovery converges).
    pub final_retired: u64,
    /// Log records restored across all recoveries.
    pub restored_records: u64,
    /// Values regenerated by Slice re-execution across all recoveries.
    pub recomputed_values: u64,
    /// Slice instructions executed while recomputing.
    pub recompute_alu_ops: u64,
    /// Cycles stalled in recovery.
    pub recovery_stall_cycles: u64,
    /// Useful cycles thrown away and re-executed.
    pub waste_cycles: u64,
    /// Total execution cycles of the faulted run.
    pub cycles: u64,
    /// Machine cycle at which the fault landed on the machine state (0 if
    /// the case aborted before injection). Deliberately excluded from
    /// [`CampaignReport::csv`] so the pinned campaign content hash stays
    /// stable across releases; the CLI prints it per diverged case.
    pub landing_cycle: u64,
    /// The recovery-window fault injected into this case's first recovery
    /// (nested-fault mode only). Hashes through the escalation section,
    /// never [`CampaignReport::csv`], so plain campaign hashes are
    /// untouched.
    pub recovery_fault: Option<RecoveryFaultKind>,
    /// Recovery re-replay attempts across the case's recoveries.
    pub replay_retries: u64,
    /// Checkpoint-generation fallbacks across the case's recoveries.
    pub generation_fallbacks: u64,
    /// Times the case's engine entered degraded full-logging mode.
    pub degraded_entries: u64,
    /// The recovery watchdog aborted this case's escalation as hung
    /// (implies [`CaseOutcome::Aborted`]; refines the outcome class to
    /// `hang`). Never set unless a watchdog budget was configured.
    pub hung: bool,
    /// Verdict.
    pub outcome: CaseOutcome,
}

impl FaultCaseRecord {
    /// Soak-matrix outcome class, the taxonomy the soak driver and the
    /// CSV class column share:
    ///
    /// * `recovered` — converged to the reference state;
    /// * `due` — a *detected* unrecoverable error (the engine saw the
    ///   fault — it recovered, trapped, or aborted — but the final state
    ///   is wrong or the run could not finish);
    /// * `sdc` — silent data corruption: the final state diverged and the
    ///   engine never noticed anything (no recovery, no exception);
    /// * `hang` — the recovery watchdog aborted a hung escalation.
    pub fn outcome_class(&self) -> &'static str {
        if self.hung {
            return "hang";
        }
        match self.outcome {
            CaseOutcome::Recovered => "recovered",
            CaseOutcome::Aborted => "due",
            CaseOutcome::Diverged => {
                if self.recoveries > 0 || self.exception_detections > 0 {
                    "due"
                } else {
                    "sdc"
                }
            }
        }
    }
}

pub(crate) fn fault_detail(kind: FaultKind) -> String {
    match kind {
        FaultKind::RegBitFlip { reg, bit } => format!("r{reg}b{bit}"),
        FaultKind::PcBitFlip { bit } => format!("b{bit}"),
        FaultKind::MemBitFlip { addr, bit } => {
            format!("0x{:x}b{bit}", addr.byte())
        }
        FaultKind::MemBurst { addr, bit, span } => {
            format!("0x{:x}b{bit}s{span}", addr.byte())
        }
        FaultKind::StuckAt {
            addr,
            bit,
            stuck_one,
        } => format!("0x{:x}b{bit}={}", addr.byte(), u8::from(stuck_one)),
        FaultKind::Crash => "-".to_string(),
    }
}

/// Per-case sums over one campaign ([`CampaignReport::totals`]); `+=`
/// folds the totals of several campaigns into one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTotals {
    /// Faults injected (every planned case injects exactly one).
    pub injected: u64,
    /// Cases in which the engine detected the fault and recovered at
    /// least once.
    pub detected: u64,
    /// Cases that converged to the reference state.
    pub recovered: u64,
    /// Cases whose final state diverged from the reference.
    pub diverged: u64,
    /// Cases the engine could not finish.
    pub aborted: u64,
    /// Cases per soak-matrix outcome class
    /// ([`FaultCaseRecord::outcome_class`]): recovered, due, sdc, hang.
    pub classes: [u64; 4],
    /// Recoveries triggered by simulator traps.
    pub exception_detections: u64,
    /// Final memory and register words differing from the reference.
    pub divergent_words: u64,
    /// Cycles stalled in recovery.
    pub recovery_stall_cycles: u64,
    /// Wasted (re-executed) cycles.
    pub waste_cycles: u64,
    /// Log records restored (energy accounting input).
    pub restored_records: u64,
    /// Values recomputed by Slices (energy accounting input).
    pub recomputed_values: u64,
    /// Slice instructions executed while recomputing.
    pub recompute_alu_ops: u64,
    /// Recovery re-replay attempts (escalation rung 1).
    pub replay_retries: u64,
    /// Checkpoint-generation fallbacks (escalation rung 2).
    pub generation_fallbacks: u64,
    /// Degraded full-logging entries (escalation rung 3).
    pub degraded_entries: u64,
}

impl std::ops::AddAssign for CampaignTotals {
    fn add_assign(&mut self, o: CampaignTotals) {
        self.injected += o.injected;
        self.detected += o.detected;
        self.recovered += o.recovered;
        self.diverged += o.diverged;
        self.aborted += o.aborted;
        for (a, b) in self.classes.iter_mut().zip(o.classes) {
            *a += b;
        }
        self.exception_detections += o.exception_detections;
        self.divergent_words += o.divergent_words;
        self.recovery_stall_cycles += o.recovery_stall_cycles;
        self.waste_cycles += o.waste_cycles;
        self.restored_records += o.restored_records;
        self.recomputed_values += o.recomputed_values;
        self.recompute_alu_ops += o.recompute_alu_ops;
        self.replay_retries += o.replay_retries;
        self.generation_fallbacks += o.generation_fallbacks;
        self.degraded_entries += o.degraded_entries;
    }
}

/// Aggregate result of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Plan seed.
    pub seed: u64,
    /// Total retired instructions of the fault-free run (the progress
    /// axis faults were drawn from).
    pub total_progress: u64,
    /// Cores of the simulated machine.
    pub num_cores: u32,
    /// Every case, in plan order.
    pub cases: Vec<FaultCaseRecord>,
    /// Interval-sampled metrics of the fault-free baseline run (empty
    /// unless [`CampaignConfig::sample_interval`] > 0). Observational
    /// only: excluded from [`CampaignReport::content_hash`].
    pub baseline_series: TimeSeries,
    /// Campaign-wide counters and histograms (case outcomes, recovery
    /// costs, escalation rungs), accumulated per worker shard and folded
    /// with the loss-free [`MetricsRegistry::merge`] — identical for
    /// every [`CampaignConfig::jobs`] value. Observational only: excluded
    /// from [`CampaignReport::content_hash`].
    pub metrics: MetricsRegistry,
    /// One line per case in case order when [`CampaignConfig::progress`]
    /// is set (empty otherwise). Buffered per shard, flushed at merge, so
    /// the text never interleaves across workers. Excluded from
    /// [`CampaignReport::content_hash`].
    pub case_log: String,
    /// Forensic bundles of every *failed* case (diverged, aborted,
    /// escalation-exhausted or invariant-breached), in case order —
    /// jobs-invariant like everything else in the report. Observational
    /// only: excluded from [`CampaignReport::content_hash`],
    /// [`CampaignReport::csv`] and [`CampaignReport::summary`], so pinned
    /// campaign hashes are untouched.
    pub postmortems: Vec<PostmortemBundle>,
}

impl CampaignReport {
    /// Every per-case sum of the campaign, in one pass over the cases.
    pub fn totals(&self) -> CampaignTotals {
        let mut t = CampaignTotals::default();
        for c in &self.cases {
            t.injected += 1;
            t.detected += u64::from(c.recoveries > 0);
            match c.outcome {
                CaseOutcome::Recovered => t.recovered += 1,
                CaseOutcome::Diverged => t.diverged += 1,
                CaseOutcome::Aborted => t.aborted += 1,
            }
            let class = match c.outcome_class() {
                "recovered" => 0,
                "due" => 1,
                "sdc" => 2,
                _ => 3,
            };
            t.classes[class] += 1;
            t.exception_detections += c.exception_detections;
            t.divergent_words += c.mem_divergence + c.reg_divergence;
            t.recovery_stall_cycles += c.recovery_stall_cycles;
            t.waste_cycles += c.waste_cycles;
            t.restored_records += c.restored_records;
            t.recomputed_values += c.recomputed_values;
            t.recompute_alu_ops += c.recompute_alu_ops;
            t.replay_retries += c.replay_retries;
            t.generation_fallbacks += c.generation_fallbacks;
            t.degraded_entries += c.degraded_entries;
        }
        t
    }

    /// Faults injected (every planned case injects exactly one).
    pub fn injected(&self) -> u64 {
        self.cases.len() as u64
    }

    /// Cases that converged to the reference state.
    pub fn recovered(&self) -> u64 {
        self.totals().recovered
    }

    /// Wasted (re-executed) cycles, summed.
    pub fn waste_cycles(&self) -> u64 {
        self.totals().waste_cycles
    }

    /// Log records restored, summed (energy accounting input).
    pub fn restored_records(&self) -> u64 {
        self.totals().restored_records
    }

    /// Values recomputed by Slices, summed (energy accounting input).
    pub fn recomputed_values(&self) -> u64 {
        self.totals().recomputed_values
    }

    /// Slice instructions executed while recomputing, summed.
    pub fn recompute_alu_ops(&self) -> u64 {
        self.totals().recompute_alu_ops
    }

    /// Recovery re-replay attempts, summed (escalation rung 1).
    pub fn replay_retries(&self) -> u64 {
        self.totals().replay_retries
    }

    /// Checkpoint-generation fallbacks, summed (escalation rung 2).
    pub fn generation_fallbacks(&self) -> u64 {
        self.totals().generation_fallbacks
    }

    /// Degraded full-logging entries, summed (escalation rung 3).
    pub fn degraded_entries(&self) -> u64 {
        self.totals().degraded_entries
    }

    /// Whether any case carried a recovery-window fault (nested-fault
    /// mode).
    pub fn has_recovery_faults(&self) -> bool {
        self.cases.iter().any(|c| c.recovery_fault.is_some())
    }

    /// Per-case escalation CSV (nested-fault mode; header included).
    /// Appended to the content hash only when recovery faults were
    /// injected, so plain campaign hashes are bit-identical to releases
    /// without this section.
    pub fn escalation_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("case,recovery_fault,replay_retries,generation_fallbacks,degraded\n");
        for c in &self.cases {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                c.case,
                c.recovery_fault.map_or("-", |k| k.label()),
                c.replay_retries,
                c.generation_fallbacks,
                c.degraded_entries,
            );
        }
        out
    }

    /// Per-case CSV (header included). Ends with the `class` column — the
    /// soak-matrix outcome class ([`FaultCaseRecord::outcome_class`]); the
    /// historical 18-column prefix is byte-identical to [`csv_v1`] and is
    /// what [`CampaignReport::content_hash`] covers.
    ///
    /// [`csv_v1`]: CampaignReport::content_hash
    pub fn csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "case,at_progress,core,kind,detail,recoveries,exception_detections,\
             shadow_divergence,mem_divergence,reg_divergence,final_retired,\
             restored_records,recomputed_values,recompute_alu_ops,\
             recovery_stall_cycles,waste_cycles,cycles,outcome,class\n",
        );
        for c in &self.cases {
            let _ = writeln!(out, "{},{}", Self::csv_row(c), c.outcome_class());
        }
        out
    }

    /// Historical 18-column per-case CSV, byte-for-byte what every release
    /// before the `class` column emitted. Exists solely so
    /// [`CampaignReport::content_hash`] — and the golden hashes pinned on
    /// it — never move when presentation columns are appended to
    /// [`CampaignReport::csv`].
    fn csv_v1(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "case,at_progress,core,kind,detail,recoveries,exception_detections,\
             shadow_divergence,mem_divergence,reg_divergence,final_retired,\
             restored_records,recomputed_values,recompute_alu_ops,\
             recovery_stall_cycles,waste_cycles,cycles,outcome\n",
        );
        for c in &self.cases {
            let _ = writeln!(out, "{}", Self::csv_row(c));
        }
        out
    }

    /// The shared 18 leading CSV fields of one case.
    fn csv_row(c: &FaultCaseRecord) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            c.case,
            c.fault.at_progress,
            c.fault.core.0,
            c.fault.kind.label(),
            fault_detail(c.fault.kind),
            c.recoveries,
            c.exception_detections,
            c.shadow_divergence,
            c.mem_divergence,
            c.reg_divergence,
            c.final_retired,
            c.restored_records,
            c.recomputed_values,
            c.recompute_alu_ops,
            c.recovery_stall_cycles,
            c.waste_cycles,
            c.cycles,
            c.outcome.label(),
        )
    }

    /// FNV-1a hash of every campaign datum — two campaigns are equal iff
    /// their hashes are (the determinism check `tests/determinism.rs`
    /// pins). Covers the historical 18-column CSV, so appending
    /// presentation columns to [`CampaignReport::csv`] cannot move pinned
    /// hashes.
    pub fn content_hash(&self) -> u64 {
        let head = format!("{},{},{}\n", self.seed, self.total_progress, self.num_cores);
        let esc = if self.has_recovery_faults() {
            self.escalation_csv()
        } else {
            String::new()
        };
        let mut h = Fnv1a::new();
        h.write(head.as_bytes());
        h.write(self.csv_v1().as_bytes());
        h.write(esc.as_bytes());
        h.finish()
    }

    /// Cases and convergences for one fault-kind label.
    pub fn kind_counts(&self, label: &str) -> (u64, u64) {
        let total = self
            .cases
            .iter()
            .filter(|c| c.fault.kind.label() == label)
            .count() as u64;
        let ok = self
            .cases
            .iter()
            .filter(|c| c.fault.kind.label() == label && c.outcome == CaseOutcome::Recovered)
            .count() as u64;
        (total, ok)
    }

    /// Human-readable campaign summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault campaign: seed={} cases={} cores={} total_work={}",
            self.seed,
            self.cases.len(),
            self.num_cores,
            self.total_progress
        );
        let t = self.totals();
        let _ = writeln!(
            out,
            "  injected {}  detected {}  (via exception: {})",
            t.injected, t.detected, t.exception_detections
        );
        let _ = writeln!(
            out,
            "  recovered {}  diverged {}  aborted {}  divergent_words {}",
            t.recovered, t.diverged, t.aborted, t.divergent_words
        );
        let [cls_rec, cls_due, cls_sdc, cls_hang] = t.classes;
        let _ = writeln!(
            out,
            "  classes: recovered {cls_rec}  due {cls_due}  sdc {cls_sdc}  hang {cls_hang}",
        );
        let mix: Vec<String> = ["reg", "pc", "mem", "burst", "stuck", "crash"]
            .iter()
            .filter_map(|label| {
                let (total, _) = self.kind_counts(label);
                (total > 0).then(|| format!("{label} {total}"))
            })
            .collect();
        let _ = writeln!(out, "  kind mix: {}", mix.join("  "));
        let _ = writeln!(
            out,
            "  recovery cost: stall_cycles {}  waste_cycles {}  restored {}  recomputed {}",
            t.recovery_stall_cycles, t.waste_cycles, t.restored_records, t.recomputed_values
        );
        for label in ["reg", "pc", "mem", "burst", "stuck", "crash"] {
            let (total, ok) = self.kind_counts(label);
            if total > 0 {
                let _ = writeln!(out, "  {label}: {ok}/{total} recovered");
            }
        }
        if self.has_recovery_faults() {
            let _ = writeln!(
                out,
                "  escalation: replay_retries {}  generation_fallbacks {}  degraded_entries {}",
                t.replay_retries, t.generation_fallbacks, t.degraded_entries
            );
            for label in RECOVERY_FAULT_LABELS {
                let total = self
                    .cases
                    .iter()
                    .filter(|c| c.recovery_fault.map(|k| k.label()) == Some(label))
                    .count() as u64;
                let ok = self
                    .cases
                    .iter()
                    .filter(|c| {
                        c.recovery_fault.map(|k| k.label()) == Some(label)
                            && c.outcome == CaseOutcome::Recovered
                    })
                    .count() as u64;
                if total > 0 {
                    let _ = writeln!(out, "  recovery-fault {label}: {ok}/{total} recovered");
                }
            }
        }
        let _ = writeln!(out, "  content_hash {:#018x}", self.content_hash());
        out
    }
}

/// Everything one fault case needs, shared read-only across workers.
/// Only plain data and the `Sync` policy factory cross the thread
/// boundary; each worker builds its own `Machine`/`BerEngine` (which are
/// `!Send` by design — their trace sink is `Rc`-based).
pub(crate) struct CaseCtx<'a, F> {
    pub(crate) program: &'a Program,
    pub(crate) machine: MachineConfig,
    pub(crate) cfg: &'a CampaignConfig,
    /// The fault-free reference every case is compared against.
    pub(crate) base: CampaignBaseline,
    pub(crate) detection_latency: u64,
    pub(crate) policy: &'a F,
}

impl<'a, F> CaseCtx<'a, F> {
    /// Sets up fault cases over `program`: rejects a core-less program, a
    /// bad detection latency and recovery faults outside the global scheme
    /// before any work runs, then runs the fault-free baseline and derives
    /// the detection latency from its length.
    ///
    /// # Errors
    ///
    /// [`CkptError::NoCores`], [`CkptError::InvalidLatency`] or
    /// [`CkptError::Unsupported`] (wrapped), or a broken baseline.
    pub(crate) fn new(
        program: &'a Program,
        machine: MachineConfig,
        cfg: &'a CampaignConfig,
        policy: &'a F,
    ) -> Result<Self, CampaignError> {
        if program.num_threads() == 0 {
            return Err(CkptError::NoCores.into());
        }
        // Only the range check; the latency itself needs the baseline.
        detection_latency(0, cfg.num_checkpoints, cfg.detection_latency_frac)?;
        check_recovery_fault_scheme(cfg.scheme, cfg.recovery_faults)?;
        let base = fault_free_baseline(program, machine, cfg.interp_fuel, cfg.sample_interval)?;
        Ok(CaseCtx {
            program,
            machine,
            cfg,
            detection_latency: detection_latency(
                base.total,
                cfg.num_checkpoints,
                cfg.detection_latency_frac,
            )?,
            base,
            policy,
        })
    }
}

/// Runs one case — one *or more* planned faults in a single engine run —
/// to its verdict: fresh machine, fresh policy, engine run, differential
/// compare. Pure in `(ctx, i, faults)`, which is what makes the campaign
/// jobs-invariant. Campaigns always pass a single fault; the shrinker
/// passes the (shrinking) multi-fault plan of one failing case. Failed
/// cases additionally yield a [`PostmortemBundle`] drained from the
/// case's flight recorder. The record's `fault` field carries the first
/// planned fault.
pub(crate) fn run_fault_case<P, F>(
    ctx: &CaseCtx<'_, F>,
    i: usize,
    faults: &[Fault],
) -> (FaultCaseRecord, Option<PostmortemBundle>)
where
    P: OmissionPolicy,
    F: Fn() -> P,
{
    let cfg = ctx.cfg;
    let total = ctx.base.total;
    let fault = faults[0];
    let resilience = ResilienceConfig {
        generations: cfg.retained_generations(),
        recovery_faults: if cfg.recovery_faults {
            RecoveryFault::planned(cfg.seed, i as u32)
        } else {
            Vec::new()
        },
        watchdog_budget_cycles: cfg.watchdog_budget_cycles,
    };
    let recovery_fault = resilience.recovery_faults.first().map(|f| f.kind);
    let ber = BerConfig {
        scheme: cfg.scheme,
        triggers: uniform_points(total, cfg.num_checkpoints),
        errors: ErrorSchedule {
            errors: faults.iter().map(|&f| f.into()).collect(),
            detection_latency: ctx.detection_latency,
        },
        oracle: true,
        secondary: None,
        resilience,
    };
    let mut m = Machine::new(ctx.machine, ctx.program);
    // The always-on flight recorder: a fixed-capacity ring sink, so a
    // recorder-backed case stays cycle- and hash-identical (tracing is
    // observational) while failed cases keep their event tails.
    let recorder = if cfg.recorder {
        let (sink, rec) = FlightRecorder::shared(ctx.machine.num_cores as usize);
        m.set_trace_sink(sink);
        Some(rec)
    } else {
        None
    };
    let mut engine =
        BerEngine::new(m, (ctx.policy)(), ber).expect("CaseCtx::new validated the configuration");
    match engine.run_to_completion() {
        Ok(report) => {
            let m = engine.machine();
            let mem_divergence = m
                .mem()
                .image()
                .words()
                .iter()
                .zip(&ctx.base.reference_mem)
                .filter(|(a, b)| a != b)
                .count() as u64;
            let reg_divergence = ctx.base.reference_regs.as_ref().map_or(0, |refs| {
                (0..NUM_REGS)
                    .filter(|&r| m.cores()[0].reg(Reg(r as u8)) != refs[r])
                    .count() as u64
            });
            let final_retired = m.total_retired();
            let converged = mem_divergence == 0
                && reg_divergence == 0
                && final_retired == total
                && m.all_halted();
            let record = FaultCaseRecord {
                case: i as u32,
                fault,
                recoveries: report.recoveries.len() as u64,
                exception_detections: report.exception_detections,
                shadow_divergence: report.divergent_words,
                mem_divergence,
                reg_divergence,
                final_retired,
                restored_records: report.recoveries.iter().map(|r| r.restored_records).sum(),
                recomputed_values: report.recoveries.iter().map(|r| r.recomputed_values).sum(),
                recompute_alu_ops: report.recoveries.iter().map(|r| r.recompute_alu_ops).sum(),
                recovery_stall_cycles: report.recovery_stall_cycles,
                waste_cycles: report.recoveries.iter().map(|r| r.waste_cycles).sum(),
                cycles: report.cycles,
                landing_cycle: report.fault_landing_cycles.first().copied().unwrap_or(0),
                recovery_fault,
                replay_retries: report.replay_retries,
                generation_fallbacks: report.generation_fallbacks,
                degraded_entries: report.degraded_entries,
                hung: false,
                outcome: if converged {
                    CaseOutcome::Recovered
                } else {
                    CaseOutcome::Diverged
                },
            };
            let trigger = if record.outcome == CaseOutcome::Diverged {
                Some("divergence")
            } else if report.invariants.total_breaches() > 0 {
                Some("invariant-breach")
            } else if report.escalation_exhausted > 0 {
                Some("escalation-exhaustion")
            } else {
                None
            };
            let bundle = trigger.map(|t| {
                PostmortemBundle::capture(
                    t,
                    cfg.seed,
                    &record,
                    &report,
                    &CaseEnd {
                        mem_words: m.mem().image().words(),
                        reference_retired: total,
                        all_halted: m.all_halted(),
                        log_totals: engine.log_totals(),
                    },
                    recorder.as_ref().map(|r| r.borrow()).as_deref(),
                    None,
                )
            });
            (record, bundle)
        }
        Err(err) => {
            let hung = matches!(err, SimError::RecoveryHang { .. });
            let record = FaultCaseRecord {
                case: i as u32,
                fault,
                recoveries: 0,
                exception_detections: 0,
                shadow_divergence: 0,
                mem_divergence: 0,
                reg_divergence: 0,
                final_retired: 0,
                restored_records: 0,
                recomputed_values: 0,
                recompute_alu_ops: 0,
                recovery_stall_cycles: 0,
                waste_cycles: 0,
                cycles: 0,
                landing_cycle: 0,
                recovery_fault,
                replay_retries: 0,
                generation_fallbacks: 0,
                degraded_entries: 0,
                hung,
                outcome: CaseOutcome::Aborted,
            };
            let bundle = PostmortemBundle::capture(
                if hung { "hang" } else { "abort" },
                cfg.seed,
                &record,
                engine.partial_report(),
                &CaseEnd {
                    mem_words: engine.machine().mem().image().words(),
                    reference_retired: total,
                    all_halted: engine.machine().all_halted(),
                    log_totals: engine.log_totals(),
                },
                recorder.as_ref().map(|r| r.borrow()).as_deref(),
                Some(&err.to_string()),
            );
            (record, Some(bundle))
        }
    }
}

/// One progress-log line for a finished case (deterministic: record data
/// only, no timestamps, no worker identity).
fn case_log_line(c: &FaultCaseRecord) -> String {
    format!(
        "case {:04} {}:{} core{} at {} -> {} (recoveries {}, cycles {})",
        c.case,
        c.fault.kind.label(),
        fault_detail(c.fault.kind),
        c.fault.core.0,
        c.fault.at_progress,
        c.outcome.label(),
        c.recoveries,
        c.cycles,
    )
}

/// Folds one finished case into a shard's metrics registry. Add-only
/// counters and histograms, so shard merge order cannot change the
/// result.
fn record_case_metrics(reg: &mut MetricsRegistry, c: &FaultCaseRecord) {
    reg.add("campaign.cases", 1);
    let outcome_key = match c.outcome {
        CaseOutcome::Recovered => "campaign.recovered",
        CaseOutcome::Diverged => "campaign.diverged",
        CaseOutcome::Aborted => "campaign.aborted",
    };
    reg.add(outcome_key, 1);
    reg.add(&format!("campaign.class.{}", c.outcome_class()), 1);
    reg.add("campaign.recoveries", c.recoveries);
    reg.add("campaign.exception_detections", c.exception_detections);
    reg.add(
        "campaign.divergent_words",
        c.mem_divergence + c.reg_divergence,
    );
    reg.add("campaign.restored_records", c.restored_records);
    reg.add("campaign.recomputed_values", c.recomputed_values);
    reg.add("campaign.recompute_alu_ops", c.recompute_alu_ops);
    reg.add("campaign.replay_retries", c.replay_retries);
    reg.add("campaign.generation_fallbacks", c.generation_fallbacks);
    reg.add("campaign.degraded_entries", c.degraded_entries);
    if let Some(k) = c.recovery_fault {
        reg.add(&format!("campaign.recovery_fault.{}", k.label()), 1);
    }
    reg.record_hist("campaign.case.cycles", c.cycles);
    reg.record_hist(
        "campaign.case.recovery_stall_cycles",
        c.recovery_stall_cycles,
    );
    reg.record_hist("campaign.case.waste_cycles", c.waste_cycles);
}

/// Fault-free reference state shared by campaigns, the soak driver and
/// the shrinker: interpreter run, timing run, differential cross-check,
/// and the written working set memory corruption targets.
pub(crate) struct CampaignBaseline {
    /// Total retired instructions (the progress axis).
    pub(crate) total: u64,
    /// Reference final memory image (words).
    pub(crate) reference_mem: Vec<u64>,
    /// Reference register file (single-threaded programs only).
    pub(crate) reference_regs: Option<Vec<u64>>,
    /// Written working set (memory-fault targets).
    pub(crate) mem_targets: Vec<WordAddr>,
    /// Interval-sampled metrics of the fault-free timing run (empty
    /// unless sampling was requested).
    pub(crate) baseline_series: TimeSeries,
}

/// Runs the two fault-free reference executions (ISA interpreter and
/// timing simulator), cross-checks them word for word, and returns the
/// shared baseline every fault case is compared against.
///
/// # Errors
///
/// Fails if either reference run fails, if the two disagree
/// ([`CampaignError::ReferenceMismatch`]), or if the program is too short
/// to draw injection points from.
pub(crate) fn fault_free_baseline(
    program: &Program,
    machine: MachineConfig,
    interp_fuel: u64,
    sample_interval: u64,
) -> Result<CampaignBaseline, CampaignError> {
    // Fault-free reference: the ISA interpreter, an implementation
    // independent of the timing simulator.
    let mut interp = Interp::new(program);
    interp
        .run_to_completion(interp_fuel)
        .map_err(CampaignError::Reference)?;

    // Fault-free timing run: yields the progress axis and the written
    // working set memory corruption targets.
    let mut census = StoreCensus::new();
    let mut base = Machine::new(machine, program);
    if sample_interval > 0 {
        base.enable_sampling(sample_interval);
    }
    base.run(&mut census, u64::MAX)
        .map_err(CampaignError::Sim)?;
    let baseline_series = if sample_interval > 0 {
        base.force_sample();
        base.take_series()
    } else {
        TimeSeries::default()
    };
    let baseline_mismatch = base
        .mem()
        .image()
        .words()
        .iter()
        .zip(interp.mem())
        .filter(|(a, b)| a != b)
        .count() as u64;
    if baseline_mismatch > 0 {
        return Err(CampaignError::ReferenceMismatch {
            words: baseline_mismatch,
        });
    }
    let total = base.total_retired();
    if total < 2 {
        return Err(CkptError::ProgramTooShort { total }.into());
    }
    // Precompute the reference register file so workers share a plain
    // slice instead of the interpreter itself.
    let reference_regs: Option<Vec<u64>> = (program.num_threads() == 1).then(|| {
        (0..NUM_REGS)
            .map(|r| interp.reg(ThreadId(0), Reg(r as u8)))
            .collect()
    });
    Ok(CampaignBaseline {
        total,
        reference_mem: interp.mem().to_vec(),
        reference_regs,
        mem_targets: census.into_targets(),
        baseline_series,
    })
}

/// Draws `cfg`'s seeded fault plan for `cores` cores over the fault-free
/// run `base`.
///
/// # Errors
///
/// [`CkptError::NoInjectableKind`] when no requested kind can land:
/// memory corruption needs a non-empty written working set.
pub(crate) fn plan_faults(
    cfg: &CampaignConfig,
    base: &CampaignBaseline,
    cores: u32,
) -> Result<Vec<Fault>, CkptError> {
    if cfg.kinds.labels(!base.mem_targets.is_empty()).is_empty() {
        return Err(CkptError::NoInjectableKind {
            requested: cfg.kinds.labels(true).join(","),
        });
    }
    Ok(FaultPlan::generate(&FaultPlanConfig {
        seed: cfg.seed,
        count: cfg.count,
        kinds: cfg.kinds,
        total_progress: base.total,
        cores,
        mem_targets: base.mem_targets.clone(),
        storm: cfg.storm,
    })
    .faults)
}

/// Runs a fault campaign over `program`: one fresh machine + policy per
/// planned fault, differentially verified against the reference
/// interpreter. `policy` is a factory — campaigns over ACR use it to
/// build a fresh `AcrPolicy` per case. With [`CampaignConfig::jobs`] > 1
/// the cases shard across worker threads; the report is byte-identical
/// for every jobs value (see [`crate::parallel`]).
///
/// # Errors
///
/// Fails only if the *fault-free* runs fail or disagree with each other
/// (see [`CampaignError`]); faulted cases that cannot finish are recorded
/// as [`CaseOutcome::Aborted`], never dropped.
pub fn run_campaign<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    policy: F,
) -> Result<CampaignReport, CampaignError>
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    run_campaign_loads(program, machine, cfg, policy).map(|(report, _loads)| report)
}

/// Like [`run_campaign`], but additionally returns each worker's
/// host-side load (busy wall time and cases executed, from
/// [`ParallelRunner::run_sharded_loads`]).
///
/// The loads are returned *next to* the report, never inside it: a
/// [`CampaignReport`] compares byte-identically across jobs values while
/// worker loads, by nature, do not. Callers feed them to the `host.jobs.*`
/// section of run manifests.
///
/// # Errors
///
/// Identical to [`run_campaign`].
pub fn run_campaign_loads<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    policy: F,
) -> Result<(CampaignReport, Vec<WorkerLoad>), CampaignError>
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    // Malformed configurations get typed errors before any work runs.
    if cfg.count == 0 {
        return Err(CkptError::EmptyCampaign.into());
    }
    let ctx = CaseCtx::new(program, machine, cfg, &policy)?;
    let faults = plan_faults(cfg, &ctx.base, machine.num_cores)?;

    // Dynamic work handout, static (case-index-ordered) result placement:
    // the merged report is identical for every jobs value.
    let runner = ParallelRunner::new(cfg.jobs);
    let (results, shards, loads) = runner.run_sharded_loads(
        faults.len(),
        MetricsRegistry::new,
        |i, shard: &mut MetricsRegistry| {
            let (rec, bundle) = run_fault_case(&ctx, i, std::slice::from_ref(&faults[i]));
            record_case_metrics(shard, &rec);
            let line = cfg.progress.then(|| case_log_line(&rec));
            (rec, line, bundle)
        },
    );

    let mut metrics = MetricsRegistry::new();
    for shard in &shards {
        metrics.merge(shard);
    }
    metrics.publish_hist_digests();

    let mut cases = Vec::with_capacity(results.len());
    let mut case_log = String::new();
    let mut postmortems = Vec::new();
    for (rec, line, bundle) in results {
        if let Some(line) = line {
            case_log.push_str(&line);
            case_log.push('\n');
        }
        if let Some(b) = bundle {
            postmortems.push(b);
        }
        cases.push(rec);
    }

    Ok((
        CampaignReport {
            seed: cfg.seed,
            total_progress: ctx.base.total,
            num_cores: machine.num_cores,
            cases,
            baseline_series: ctx.base.baseline_series,
            metrics,
            case_log,
            postmortems,
        },
        loads,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoOmission;
    use acr_isa::{AluOp, ProgramBuilder, Reg};

    fn kernel(threads: usize, iters: u64) -> Program {
        let mut b = ProgramBuilder::new(threads);
        b.set_mem_bytes(1 << 18);
        for t in 0..threads as u32 {
            let base = u64::from(t) * 32768;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let outer = tb.begin_loop(Reg(8), Reg(9), 4);
            let l = tb.begin_loop(Reg(1), Reg(2), iters);
            tb.alui(AluOp::Mul, Reg(3), Reg(1), 13);
            tb.alu(AluOp::Xor, Reg(3), Reg(3), Reg(8));
            tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
            tb.store(Reg(3), Reg(5), 0);
            tb.end_loop(l);
            tb.end_loop(outer);
            tb.halt();
        }
        b.build()
    }

    fn campaign(count: u32, kinds: FaultKindSet, seed: u64) -> CampaignReport {
        let p = kernel(2, 60);
        let cfg = CampaignConfig {
            seed,
            count,
            kinds,
            num_checkpoints: 5,
            ..CampaignConfig::default()
        };
        run_campaign(&p, MachineConfig::with_cores(2), &cfg, || NoOmission).expect("campaign runs")
    }

    /// The split gives the remainder to the first workloads, seeds
    /// workload `i` with `seed + i` and drops workloads left without a
    /// fault.
    #[test]
    fn split_divides_faults_and_offsets_seeds() {
        let template = CampaignConfig {
            seed: u64::MAX,
            count: 7,
            num_checkpoints: 3,
            ..CampaignConfig::default()
        };
        let shares = |n| -> Vec<(usize, u64, u32)> {
            template
                .split(n)
                .into_iter()
                .map(|(i, c)| (i, c.seed, c.count))
                .collect()
        };
        assert_eq!(shares(3), [(0, u64::MAX, 3), (1, 0, 2), (2, 1, 2)]);
        assert_eq!(shares(9).len(), 7, "two workloads get no fault");
        assert!(shares(0).is_empty());
        assert!(template
            .split(2)
            .iter()
            .all(|(_, c)| c.num_checkpoints == 3));
    }

    #[test]
    fn recoverable_kinds_always_converge() {
        let r = campaign(25, FaultKindSet::recoverable(), 7);
        assert_eq!(r.injected(), 25);
        assert_eq!(r.totals().detected, 25, "{}", r.summary());
        assert_eq!(r.recovered(), 25, "{}", r.summary());
        assert_eq!(r.totals().divergent_words, 0);
        assert_eq!(r.totals().aborted, 0);
    }

    #[test]
    fn mem_faults_are_classified_never_silent() {
        let r = campaign(25, FaultKindSet::all(), 11);
        assert_eq!(r.injected(), 25);
        assert_eq!(r.totals().aborted, 0, "{}", r.summary());
        // Every diverged case must carry visible evidence.
        for c in &r.cases {
            if c.outcome == CaseOutcome::Diverged {
                assert_eq!(c.fault.kind.label(), "mem", "{c:?}");
                assert!(
                    c.mem_divergence + c.shadow_divergence > 0
                        || c.final_retired != r.total_progress,
                    "diverged without evidence: {c:?}"
                );
            }
            if c.fault.kind.guaranteed_recoverable() {
                assert_eq!(c.outcome, CaseOutcome::Recovered, "{c:?}");
            }
        }
    }

    #[test]
    fn same_seed_same_campaign() {
        let a = campaign(15, FaultKindSet::all(), 42);
        let b = campaign(15, FaultKindSet::all(), 42);
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.csv(), b.csv());
        let c = campaign(15, FaultKindSet::all(), 43);
        assert_ne!(a.content_hash(), c.content_hash());
    }

    /// The tentpole guarantee at unit scale: the full report — cases,
    /// CSV, content hash, merged metrics, ordered case log — is
    /// byte-identical for every jobs value.
    #[test]
    fn campaign_is_jobs_invariant() {
        let p = kernel(2, 60);
        let m = MachineConfig::with_cores(2);
        let base = CampaignConfig {
            seed: 42,
            count: 20,
            kinds: FaultKindSet::all(),
            num_checkpoints: 5,
            progress: true,
            ..CampaignConfig::default()
        };
        let seq = run_campaign(&p, m, &base, || NoOmission).expect("campaign runs");
        for jobs in [2usize, 4, 8] {
            let cfg = CampaignConfig {
                jobs,
                ..base.clone()
            };
            let par = run_campaign(&p, m, &cfg, || NoOmission).expect("campaign runs");
            assert_eq!(seq, par, "jobs={jobs}");
            assert_eq!(seq.content_hash(), par.content_hash(), "jobs={jobs}");
            assert_eq!(seq.csv(), par.csv(), "jobs={jobs}");
            assert_eq!(seq.case_log, par.case_log, "jobs={jobs}");
            assert_eq!(seq.metrics, par.metrics, "jobs={jobs}");
        }
    }

    /// The shard-merged registry agrees with the report's own aggregates
    /// and carries published histogram digests.
    #[test]
    fn campaign_metrics_match_report_aggregates() {
        let r = campaign(25, FaultKindSet::recoverable(), 7);
        assert_eq!(r.metrics.get("campaign.cases"), Some(25));
        assert_eq!(r.metrics.get("campaign.recovered"), Some(r.recovered()));
        assert_eq!(
            r.metrics.get("campaign.recoveries"),
            Some(r.cases.iter().map(|c| c.recoveries).sum())
        );
        assert_eq!(
            r.metrics.get("campaign.restored_records"),
            Some(r.restored_records())
        );
        let h = r.metrics.hist("campaign.case.cycles").expect("cycles hist");
        assert_eq!(h.count(), 25);
        assert!(r.metrics.get("campaign.case.cycles.p50").is_some());
    }

    /// Progress logging emits exactly one line per case, in case order,
    /// and stays out of the content hash.
    #[test]
    fn case_log_is_ordered_and_hash_neutral() {
        let p = kernel(2, 60);
        let m = MachineConfig::with_cores(2);
        let cfg = CampaignConfig {
            seed: 11,
            count: 10,
            kinds: FaultKindSet::recoverable(),
            num_checkpoints: 5,
            progress: true,
            jobs: 4,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&p, m, &cfg, || NoOmission).expect("campaign runs");
        let lines: Vec<&str> = r.case_log.lines().collect();
        assert_eq!(lines.len(), 10);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("case {i:04} ")),
                "line {i}: {line}"
            );
        }
        let quiet = CampaignConfig {
            progress: false,
            jobs: 1,
            ..cfg
        };
        let q = run_campaign(&p, m, &quiet, || NoOmission).expect("campaign runs");
        assert!(q.case_log.is_empty());
        assert_eq!(q.content_hash(), r.content_hash());
    }

    #[test]
    fn malformed_configs_get_typed_errors() {
        let p = kernel(1, 60);
        let m = MachineConfig::with_cores(1);

        let cfg = CampaignConfig {
            count: 0,
            ..CampaignConfig::default()
        };
        let err = run_campaign(&p, m, &cfg, || NoOmission).unwrap_err();
        assert!(matches!(
            err,
            CampaignError::Config(CkptError::EmptyCampaign)
        ));

        let cfg = CampaignConfig {
            detection_latency_frac: 1.5,
            ..CampaignConfig::default()
        };
        let err = run_campaign(&p, m, &cfg, || NoOmission).unwrap_err();
        assert!(matches!(
            err,
            CampaignError::Config(CkptError::InvalidLatency { .. })
        ));

        let cfg = CampaignConfig {
            recovery_faults: true,
            scheme: Scheme::LocalCoordinated,
            ..CampaignConfig::default()
        };
        let err = run_campaign(&p, m, &cfg, || NoOmission).unwrap_err();
        assert!(matches!(
            err,
            CampaignError::Config(CkptError::Unsupported { .. })
        ));
        // Typed errors render as messages, never panic backtraces.
        assert!(err.to_string().contains("global coordinated"));
    }

    #[test]
    fn zero_thread_program_gets_typed_error() {
        // A zero-thread program validates vacuously but yields a machine
        // with no cores; error placement takes indices modulo the core
        // count, so this used to die on remainder-by-zero inside engine
        // construction instead of reporting a config error.
        let mut b = ProgramBuilder::new(0);
        b.set_mem_bytes(1 << 12);
        let p = b.build();
        p.validate().expect("vacuously valid");
        let err = run_campaign(
            &p,
            MachineConfig::with_cores(1),
            &CampaignConfig::default(),
            || NoOmission,
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::Config(CkptError::NoCores)));
        assert!(err.to_string().contains("no threads"));
    }

    #[test]
    fn storeless_program_cannot_take_mem_faults() {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(1 << 12);
        let tb = b.thread(0);
        let l = tb.begin_loop(Reg(1), Reg(2), 50);
        tb.alui(AluOp::Add, Reg(3), Reg(1), 1);
        tb.end_loop(l);
        tb.halt();
        let p = b.build();
        let cfg = CampaignConfig {
            count: 5,
            kinds: FaultKindSet {
                reg: false,
                pc: false,
                mem: true,
                burst: false,
                stuck: false,
                crash: false,
            },
            ..CampaignConfig::default()
        };
        let m = MachineConfig::with_cores(1);
        // Campaigns and the shrinker's dense plan name the requested kinds.
        for err in [
            run_campaign(&p, m, &cfg, || NoOmission).unwrap_err(),
            crate::shrink::dense_fault_plan(&p, m, &cfg).unwrap_err(),
        ] {
            match err {
                CampaignError::Config(CkptError::NoInjectableKind { requested }) => {
                    assert_eq!(requested, "mem");
                }
                other => panic!("expected NoInjectableKind, got {other:?}"),
            }
        }
    }

    #[test]
    fn recovery_fault_campaign_recovers_and_hashes_deterministically() {
        let p = kernel(2, 60);
        let m = MachineConfig::with_cores(2);
        let cfg = CampaignConfig {
            seed: 42,
            count: 12,
            kinds: FaultKindSet::recoverable(),
            num_checkpoints: 5,
            recovery_faults: true,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&p, m, &cfg, || NoOmission).expect("campaign runs");
        assert!(a.has_recovery_faults());
        assert_eq!(a.recovered(), 12, "{}", a.summary());
        assert_eq!(a.totals().divergent_words, 0);
        assert_eq!(a.totals().aborted, 0);
        // The nested faults actually bit: escalation is visible, not silent.
        assert!(
            a.replay_retries() + a.generation_fallbacks() > 0,
            "{}",
            a.summary()
        );
        let b = run_campaign(&p, m, &cfg, || NoOmission).expect("campaign runs");
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.escalation_csv(), b.escalation_csv());
        // The escalation section extends the hash relative to a plain
        // campaign over the same seed.
        let plain_cfg = CampaignConfig {
            recovery_faults: false,
            ..cfg.clone()
        };
        let plain = run_campaign(&p, m, &plain_cfg, || NoOmission).expect("campaign runs");
        assert!(!plain.has_recovery_faults());
        assert_ne!(a.content_hash(), plain.content_hash());
    }

    /// Every failed case yields exactly one postmortem bundle, in case
    /// order, with recorder rings and a non-empty probable cause — and
    /// the bundles are byte-identical across runs and jobs values.
    #[test]
    fn failed_cases_carry_deterministic_postmortems() {
        let p = kernel(2, 60);
        let m = MachineConfig::with_cores(2);
        let mem_only = FaultKindSet {
            reg: false,
            pc: false,
            mem: true,
            burst: false,
            stuck: false,
            crash: false,
        };
        let cfg = CampaignConfig {
            seed: 42,
            count: 25,
            kinds: mem_only,
            num_checkpoints: 5,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&p, m, &cfg, || NoOmission).expect("campaign runs");
        assert!(a.totals().diverged > 0, "{}", a.summary());
        let t = a.totals();
        assert_eq!(a.postmortems.len() as u64, t.diverged + t.aborted);
        let failed: Vec<u32> = a
            .cases
            .iter()
            .filter(|c| c.outcome != CaseOutcome::Recovered)
            .map(|c| c.case)
            .collect();
        assert_eq!(
            a.postmortems.iter().map(|b| b.case).collect::<Vec<_>>(),
            failed,
            "bundles in case order"
        );
        for b in &a.postmortems {
            assert_eq!(b.trigger, "divergence");
            assert_eq!(b.seed, 42);
            assert!(!b.probable_cause.is_empty());
            assert_eq!(b.rings.len(), 3, "2 core rings + global");
            assert!(b.rings.iter().any(|r| !r.events.is_empty()));
        }
        let b = run_campaign(&p, m, &cfg, || NoOmission).expect("campaign runs");
        assert_eq!(a.postmortems, b.postmortems);
        for jobs in [2usize, 4] {
            let par_cfg = CampaignConfig {
                jobs,
                ..cfg.clone()
            };
            let par = run_campaign(&p, m, &par_cfg, || NoOmission).expect("campaign runs");
            assert_eq!(a.postmortems, par.postmortems, "jobs={jobs}");
            for (x, y) in a.postmortems.iter().zip(&par.postmortems) {
                assert_eq!(x.to_json(), y.to_json(), "jobs={jobs}");
            }
        }
    }

    /// The recorder knob changes nothing observable except ring capture:
    /// same cases, same hash, just no event tails in the bundles.
    #[test]
    fn recorder_off_is_hash_identical_and_ringless() {
        let p = kernel(2, 60);
        let m = MachineConfig::with_cores(2);
        let mem_only = FaultKindSet {
            reg: false,
            pc: false,
            mem: true,
            burst: false,
            stuck: false,
            crash: false,
        };
        let on = CampaignConfig {
            seed: 11,
            count: 15,
            kinds: mem_only,
            num_checkpoints: 5,
            ..CampaignConfig::default()
        };
        let off = CampaignConfig {
            recorder: false,
            ..on.clone()
        };
        let a = run_campaign(&p, m, &on, || NoOmission).expect("campaign runs");
        let b = run_campaign(&p, m, &off, || NoOmission).expect("campaign runs");
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.content_hash(), b.content_hash());
        assert!(a.postmortems.iter().all(|bu| !bu.rings.is_empty()));
        assert!(b.postmortems.iter().all(|bu| bu.rings.is_empty()));
        assert_eq!(a.postmortems.len(), b.postmortems.len());
    }

    /// Clean recoverable campaigns sample the invariant monitors at every
    /// commit without a single breach — and produce no bundles.
    #[test]
    fn clean_campaign_has_checks_but_no_postmortems() {
        let r = campaign(10, FaultKindSet::recoverable(), 7);
        assert_eq!(r.recovered(), 10, "{}", r.summary());
        assert!(r.postmortems.is_empty());
    }

    #[test]
    fn single_thread_campaign_checks_registers() {
        let p = kernel(1, 60);
        let cfg = CampaignConfig {
            seed: 3,
            count: 10,
            kinds: FaultKindSet::recoverable(),
            num_checkpoints: 5,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&p, MachineConfig::with_cores(1), &cfg, || NoOmission)
            .expect("campaign runs");
        assert_eq!(r.recovered(), 10, "{}", r.summary());
    }

    /// Adversarial campaigns (bursts + stuck-at cells in the mix) never
    /// produce silent corruption: the scheduled detection sees every
    /// case, so divergence is always a DUE, and the new kinds show up in
    /// the CSV class column and the kind-mix summary line.
    #[test]
    fn adversarial_campaigns_classify_without_sdc() {
        let r = campaign(30, FaultKindSet::adversarial(), 23);
        assert_eq!(r.injected(), 30);
        assert_eq!(r.totals().aborted, 0, "{}", r.summary());
        let (burst_total, _) = r.kind_counts("burst");
        let (stuck_total, _) = r.kind_counts("stuck");
        assert!(burst_total > 0 && stuck_total > 0, "{}", r.summary());
        for c in &r.cases {
            assert_ne!(c.outcome_class(), "sdc", "{c:?}");
            assert_ne!(c.outcome_class(), "hang", "{c:?}");
        }
        let [cls_rec, cls_due, cls_sdc, cls_hang] = r.totals().classes;
        assert_eq!(cls_rec + cls_due + cls_sdc + cls_hang, 30);
        assert_eq!(cls_sdc + cls_hang, 0);
        let csv = r.csv();
        assert!(csv.lines().next().unwrap().ends_with(",class"));
        assert!(csv
            .lines()
            .skip(1)
            .all(|l| { l.ends_with(",recovered") || l.ends_with(",due") || l.ends_with(",sdc") }));
        assert!(r.summary().contains("kind mix:"), "{}", r.summary());
        assert!(r.summary().contains("classes:"), "{}", r.summary());
    }

    /// The `class` column is presentation-only: a campaign's content hash
    /// is pinned on the historical 18-column CSV, so two reports with the
    /// same cases hash identically no matter how they are rendered.
    #[test]
    fn class_column_is_hash_neutral() {
        let a = campaign(15, FaultKindSet::all(), 11);
        let b = campaign(15, FaultKindSet::all(), 11);
        assert_eq!(a.content_hash(), b.content_hash());
        // The public CSV has exactly one extra trailing column per line.
        for (full, v1) in a.csv().lines().zip(a.csv_v1().lines()) {
            assert!(full.starts_with(v1), "{full} vs {v1}");
            assert_eq!(full.split(',').count(), v1.split(',').count() + 1);
        }
    }

    /// Storm-clustered campaigns are seed-deterministic and draw a
    /// different (clustered) injection schedule than the uniform default.
    #[test]
    fn storm_campaigns_are_deterministic_and_distinct() {
        let p = kernel(2, 60);
        let mk = |storm| {
            let cfg = CampaignConfig {
                seed: 5,
                count: 20,
                kinds: FaultKindSet::all(),
                num_checkpoints: 5,
                storm,
                ..CampaignConfig::default()
            };
            run_campaign(&p, MachineConfig::with_cores(2), &cfg, || NoOmission)
                .expect("campaign runs")
        };
        let a = mk(Some(FaultStorm::default()));
        let b = mk(Some(FaultStorm::default()));
        assert_eq!(a.content_hash(), b.content_hash());
        let plain = mk(None);
        assert_ne!(a.content_hash(), plain.content_hash());
    }

    /// A 1-cycle watchdog budget turns every still-failing escalation
    /// into a hang: aborted case, `hang` class, `hang`-triggered bundle.
    #[test]
    fn tight_watchdog_turns_failing_escalations_into_hangs() {
        let p = kernel(2, 60);
        let cfg = CampaignConfig {
            seed: 9,
            count: 12,
            kinds: FaultKindSet::recoverable(),
            num_checkpoints: 5,
            recovery_faults: true,
            generations: 2,
            watchdog_budget_cycles: 1,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&p, MachineConfig::with_cores(2), &cfg, || NoOmission)
            .expect("campaign runs");
        let hangs: Vec<_> = r.cases.iter().filter(|c| c.hung).collect();
        assert!(!hangs.is_empty(), "{}", r.summary());
        for c in &hangs {
            assert_eq!(c.outcome, CaseOutcome::Aborted);
            assert_eq!(c.outcome_class(), "hang");
            let bundle = r
                .postmortems
                .iter()
                .find(|b| b.case == c.case)
                .expect("hung case carries a bundle");
            assert_eq!(bundle.trigger, "hang");
            assert!(bundle.probable_cause.contains("watchdog"), "{bundle:?}");
        }
        assert_eq!(r.totals().classes[3], hangs.len() as u64);
        assert!(r.metrics.get("campaign.class.hang").unwrap_or(0) == hangs.len() as u64);
    }
}
