//! The BER engine: configuration, the store hooks, the run loop that
//! drives the machine between checkpoints and errors, the checkpoint
//! handler and the invariant monitors. The recovery handler is in
//! `recovery.rs`.

use std::collections::VecDeque;

use acr_mem::{CoreId, LogController, LOG_RECORD_BYTES};
use acr_sim::{
    AssocEvent, ExecHooks, FaultKind, Machine, RecoveryFault, RunOutcome, SimError, StoreEvent,
    TICKS_PER_CYCLE,
};
use acr_trace::{TraceEvent, TRACK_ENGINE};

use crate::checkpoint::CheckpointRecord;
use crate::errors::CkptError;
use crate::ledger::DecisionLedger;
use crate::policy::OmissionPolicy;
use crate::report::{BerReport, IntervalRecord};
use crate::schedule::ErrorSchedule;

/// Coordination scheme (Sections II-A and V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// All cores checkpoint (and roll back) together.
    #[default]
    GlobalCoordinated,
    /// Only cores that communicated within the interval coordinate; each
    /// connected component of the communication graph checkpoints (and
    /// rolls back) independently.
    LocalCoordinated,
}

/// Second-level checkpoint destination for hierarchical checkpointing.
///
/// Section II-A notes that in-memory checkpointing "may … represent the
/// first level in a hierarchical checkpointing framework". This models
/// the second level: every `every`-th established checkpoint is also
/// streamed to slower storage (e.g. NVM/SSD), whose cost scales with the
/// checkpoint's size — so ACR's size reductions cut level-2 traffic too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondaryStorage {
    /// Stream every `every`-th checkpoint to the second level (≥ 1).
    pub every: u32,
    /// Sustained secondary bandwidth in bytes per core cycle (e.g. a
    /// 1 GB/s device at 1.09 GHz ≈ 0.92 B/cycle).
    pub bytes_per_cycle: f64,
    /// Fixed per-checkpoint latency (device + software stack), cycles.
    pub latency_cycles: u64,
}

impl Default for SecondaryStorage {
    fn default() -> Self {
        SecondaryStorage {
            every: 5,
            bytes_per_cycle: 0.92,
            latency_cycles: 20_000,
        }
    }
}

/// Torn-recovery resilience configuration: checkpoint generations
/// retained as fallbacks, the recovery-window fault plan and the
/// recovery watchdog.
///
/// The escalation ladder on an integrity failure during recovery is:
///
/// 1. **re-replay** — restore and recomputation are repeatable, so a
///    transient corruption (a flipped restored word, a corrupted Slice
///    input) is retried up to [`MAX_REPLAY_RETRIES`] times; a torn log
///    record is repaired from the redundant mirror copy first;
/// 2. **generation fallback** — a checkpoint generation whose integrity
///    checksum fails verification (torn commit) is never restored; the
///    engine falls back to the previous retained generation;
/// 3. **degraded full logging** — after a replay-integrity failure, a
///    generation fallback, or retry exhaustion, the engine stops
///    omitting values ([`crate::OmitReason::LoggedDegraded`]) until the
///    next clean checkpoint commits.
///
/// The default (`generations = 1`, empty fault plan) is byte-identical
/// to the engine without this machinery.
///
/// [`MAX_REPLAY_RETRIES`]: crate::MAX_REPLAY_RETRIES
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Checkpoint generations restorable beyond the paper's two-deep
    /// retention (≥ 1). Generation `g` needs the log epochs back to its
    /// begin, so the log controller retains `1 + generations` completed
    /// epochs and the engine `2 + generations` checkpoint records.
    pub generations: u32,
    /// Faults injected *inside* recovery windows, matched by recovery
    /// ordinal. Requires [`Scheme::GlobalCoordinated`].
    pub recovery_faults: Vec<RecoveryFault>,
    /// Recovery watchdog: abort an escalation that is still failing after
    /// spending this many stall cycles, surfacing
    /// [`acr_sim::SimError::RecoveryHang`] instead of looping or silently
    /// proceeding best-effort. `0` (the default) disables the watchdog —
    /// byte-identical to the engine without it.
    pub watchdog_budget_cycles: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            generations: 1,
            recovery_faults: Vec::new(),
            watchdog_budget_cycles: 0,
        }
    }
}

/// Recovery-window faults require the global coordinated scheme: rejects
/// `recovery_faults` under any other (engine and campaign setup share
/// this rule).
pub(crate) fn check_recovery_fault_scheme(
    scheme: Scheme,
    recovery_faults: bool,
) -> Result<(), CkptError> {
    if recovery_faults && scheme != Scheme::GlobalCoordinated {
        return Err(CkptError::Unsupported {
            what: "recovery faults require the global coordinated scheme \
                   (per-group rollback has no single safe generation to tear)"
                .to_string(),
        });
    }
    Ok(())
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct BerConfig {
    /// Coordination scheme.
    pub scheme: Scheme,
    /// Checkpoint trigger points, ascending, in progress units (total
    /// retired instructions); see [`crate::uniform_points`].
    pub triggers: Vec<u64>,
    /// The errors to occur, each optionally corrupting state. Crashes are
    /// detected immediately, every other error after the schedule's
    /// detection latency. Once any error carries a corruption, the
    /// recovery oracle records shadow divergence in the report instead of
    /// asserting, because memory corruptions can legitimately defeat the
    /// log.
    pub errors: ErrorSchedule,
    /// Shadow-memory verification of every recovery (tests; off in
    /// benchmark sweeps to save host memory).
    pub oracle: bool,
    /// Optional second-level checkpoint destination.
    pub secondary: Option<SecondaryStorage>,
    /// Torn-recovery resilience: retained generations, recovery-window
    /// fault plan, recovery watchdog.
    pub resilience: ResilienceConfig,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ErrState {
    pub(crate) occur: u64,
    pub(crate) core: u32,
    /// Corruption applied at occurrence (`None` corrupts nothing).
    pub(crate) kind: Option<FaultKind>,
    /// Per-error detection latency (crashes are never silent: 0).
    latency: u64,
    occurred: bool,
    pub(crate) handled: bool,
}

impl ErrState {
    /// Occurred but not yet handled.
    pub(crate) fn is_pending(&self) -> bool {
        self.occurred && !self.handled
    }

    fn detected_at(&self) -> u64 {
        self.occur + self.latency
    }
}

/// The store/assoc instrumentation the engine attaches to the machine.
pub(crate) struct CkptHooks<P> {
    pub(crate) logctl: LogController,
    pub(crate) policy: P,
    /// `AddrMap` lookups performed by the omission check (energy).
    omission_lookups: u64,
    /// Optional omission-decision ledger (observational; `None` keeps the
    /// hot path to one branch).
    pub(crate) ledger: Option<Box<DecisionLedger>>,
    /// Degraded full-logging mode: set by a recovery escalation, cleared
    /// by the next clean checkpoint commit. While set, omission is
    /// suspended and every first update is logged.
    pub(crate) degraded: bool,
}

impl<P: OmissionPolicy> ExecHooks for CkptHooks<P> {
    fn on_store(&mut self, ev: StoreEvent) -> u64 {
        let epoch = self.logctl.current().index;
        self.policy.on_store(ev.core.0, ev.addr, epoch);
        if !self.logctl.is_logged(ev.addr) {
            if self.degraded {
                // Degraded mode skips the omission lookup entirely (no
                // `AddrMap` energy) and logs unconditionally; the policy
                // still saw the store above so its state stays coherent
                // for the epochs after omission resumes.
                self.logctl.log_value(ev.addr, ev.old, ev.core.0);
                if let Some(led) = &mut self.ledger {
                    led.record(ev.addr, crate::ledger::OmitReason::LoggedDegraded, None);
                }
                return 0;
            }
            self.omission_lookups += 1;
            let omitted = if let Some(owner) = self.policy.try_omit(ev.core.0, ev.addr, epoch) {
                self.logctl.omit_value(ev.addr, ev.old, owner);
                true
            } else {
                self.logctl.log_value(ev.addr, ev.old, ev.core.0);
                false
            };
            if let Some(led) = &mut self.ledger {
                let (reason, slice) = self
                    .policy
                    .classify(ev.core.0, ev.pc, ev.addr, epoch, omitted);
                led.record(ev.addr, reason, slice);
            }
        }
        0
    }

    fn on_assoc(&mut self, ev: AssocEvent) -> u64 {
        let epoch = self.logctl.current().index;
        self.policy.on_assoc(&ev, epoch)
    }
}

/// Backward-error-recovery engine over a simulated machine.
///
/// See the [crate documentation](crate) for the execution model. The type
/// parameter `P` selects the baseline ([`crate::NoOmission`]) or ACR
/// (`acr::AcrPolicy`).
///
/// ```
/// use acr_ckpt::{BerConfig, BerEngine, ErrorSchedule, NoOmission, ResilienceConfig, Scheme};
/// use acr_isa::{AluOp, ProgramBuilder, Reg};
/// use acr_sim::{Machine, MachineConfig};
///
/// // A loop storing i*3 to 64 words, checkpointed 4 times with 1 error.
/// let mut b = ProgramBuilder::new(1);
/// b.set_mem_bytes(4096);
/// let t = b.thread(0);
/// t.imm(Reg(10), 1024);
/// let l = t.begin_loop(Reg(1), Reg(2), 64);
/// t.alui(AluOp::Mul, Reg(3), Reg(1), 3);
/// t.alui(AluOp::Mul, Reg(4), Reg(1), 8);
/// t.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
/// t.store(Reg(3), Reg(5), 0);
/// t.end_loop(l);
/// t.halt();
/// let program = b.build();
///
/// let total = 64 * 6 + 10; // roughly the retired-instruction count
/// let cfg = BerConfig {
///     scheme: Scheme::GlobalCoordinated,
///     triggers: acr_ckpt::uniform_points(total, 4),
///     // One error that corrupts nothing; a `Fault` converts into a
///     // `ScheduledError` that does.
///     errors: ErrorSchedule::uniform(total, 1, 4, 0.5),
///     oracle: true, // verify the recovery against a shadow snapshot
///     secondary: None,
///     resilience: ResilienceConfig::default(),
/// };
/// let machine = Machine::new(MachineConfig::with_cores(1), &program);
/// let mut engine = BerEngine::new(machine, NoOmission, cfg)?;
/// let report = engine.run_to_completion()?;
/// assert!(report.checkpoints_taken >= 4);
/// assert_eq!(report.errors_handled, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BerEngine<'p, P: OmissionPolicy> {
    pub(crate) machine: Machine<'p>,
    pub(crate) cfg: BerConfig,
    pub(crate) hooks: CkptHooks<P>,
    pub(crate) checkpoints: VecDeque<CheckpointRecord>,
    pub(crate) errors: Vec<ErrState>,
    /// Some scheduled error corrupts state, or recovery faults are
    /// planned: the oracle counts divergence instead of asserting.
    pub(crate) fault_mode: bool,
    pub(crate) report: BerReport,
}

impl<'p, P: OmissionPolicy> BerEngine<'p, P> {
    /// Creates an engine over `machine` with omission policy `policy`.
    ///
    /// # Errors
    ///
    /// [`CkptError::NoCores`] if the machine has no cores (error
    /// placement takes indices modulo the core count), and
    /// [`CkptError::Unsupported`] if `cfg.resilience` retains zero
    /// generations or plans recovery faults under the local scheme.
    pub fn new(mut machine: Machine<'p>, policy: P, cfg: BerConfig) -> Result<Self, CkptError> {
        if machine.cores().is_empty() {
            return Err(CkptError::NoCores);
        }
        if cfg.resilience.generations == 0 {
            return Err(CkptError::Unsupported {
                what: "at least one checkpoint generation must be retained".to_string(),
            });
        }
        check_recovery_fault_scheme(cfg.scheme, !cfg.resilience.recovery_faults.is_empty())?;
        if cfg.scheme == Scheme::LocalCoordinated {
            machine.mem_mut().enable_sharing();
        }
        let logctl = LogController::with_retention(
            machine.mem().image().num_words(),
            1 + cfg.resilience.generations as usize,
        );
        let num_cores = machine.cores().len() as u32;
        let errors: Vec<ErrState> = cfg
            .errors
            .errors
            .iter()
            .map(|e| ErrState {
                occur: e.at_progress,
                core: e.core.0 % num_cores,
                kind: e.corruption,
                latency: match e.corruption {
                    Some(FaultKind::Crash) => 0,
                    _ => cfg.errors.detection_latency,
                },
                occurred: false,
                handled: false,
            })
            .collect();
        let fault_mode =
            errors.iter().any(|e| e.kind.is_some()) || !cfg.resilience.recovery_faults.is_empty();
        let mut initial = CheckpointRecord {
            begins_epoch: 0,
            progress: 0,
            cycles: 0,
            check: 0,
            arch: machine.snapshot_arch(),
            groups: vec![machine.all_mask()],
            shadow_mem: cfg.oracle.then(|| machine.mem().image().snapshot()),
        };
        initial.seal();
        let checkpoints = VecDeque::from([initial]);
        Ok(BerEngine {
            machine,
            cfg,
            hooks: CkptHooks {
                logctl,
                policy,
                omission_lookups: 0,
                ledger: None,
                degraded: false,
            },
            errors,
            fault_mode,
            checkpoints,
            report: BerReport::default(),
        })
    }

    /// The machine, for inspection after the run.
    pub fn machine(&self) -> &Machine<'p> {
        &self.machine
    }

    /// Mutable machine access (extracting observational state — the
    /// attribution profile, sampled series — after the run).
    pub fn machine_mut(&mut self) -> &mut Machine<'p> {
        &mut self.machine
    }

    /// The omission policy, for ACR statistics extraction.
    pub fn policy(&self) -> &P {
        &self.hooks.policy
    }

    /// `AddrMap` lookups issued by the first-update omission check.
    pub fn omission_lookups(&self) -> u64 {
        self.hooks.omission_lookups
    }

    /// Attaches an omission-decision ledger: from now on every
    /// first-update decision is classified (via
    /// [`OmissionPolicy::classify`]) and aggregated. Observational only —
    /// simulated time and results are unchanged.
    pub fn enable_ledger(&mut self) {
        self.hooks.ledger = Some(Box::default());
    }

    /// The attached ledger (None unless [`Self::enable_ledger`] was
    /// called).
    pub fn ledger(&self) -> Option<&DecisionLedger> {
        self.hooks.ledger.as_deref()
    }

    /// Takes the ledger, leaving decision tracking disabled.
    pub fn take_ledger(&mut self) -> Option<DecisionLedger> {
        self.hooks.ledger.take().map(|b| *b)
    }

    /// Lifetime `(logged, omitted)` first-update totals from the log
    /// controller — the independent tally the ledger's conservation
    /// invariant is checked against.
    pub fn log_totals(&self) -> (u64, u64) {
        (
            self.hooks.logctl.lifetime_logged(),
            self.hooks.logctl.lifetime_omitted(),
        )
    }

    /// The in-progress report. Complete only after
    /// [`Self::run_to_completion`] returns `Ok` (which *takes* it); the
    /// abort path reads escalation history, counters and invariant-monitor
    /// tallies through this.
    pub fn partial_report(&self) -> &BerReport {
        &self.report
    }

    /// The first trigger past the newest retained checkpoint. Triggers
    /// ascend, so no later trigger can fall due before this one.
    fn next_trigger(&self) -> Option<u64> {
        let last_ckpt = self.checkpoints.back().map_or(0, |c| c.progress);
        self.cfg.triggers.iter().copied().find(|&t| t > last_ckpt)
    }

    fn next_stop(&self) -> u64 {
        let occur = self.errors.iter().filter(|e| !e.occurred).map(|e| e.occur);
        let detect = self.errors.iter().filter(|e| e.is_pending());
        occur
            .chain(detect.map(ErrState::detected_at))
            .chain(self.next_trigger())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Runs to completion, handling every checkpoint and error.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulator.
    pub fn run_to_completion(&mut self) -> Result<BerReport, SimError> {
        loop {
            let stop = self.next_stop();
            let out = match self.machine.run(&mut self.hooks, stop) {
                Ok(out) => out,
                Err(trap) => {
                    // A corrupted register or pc drove a core into an
                    // illegal access. If an injected error is pending, the
                    // exception *is* the detection (ahead of its scheduled
                    // latency); recover and resume. Otherwise it is a
                    // genuine program bug — propagate.
                    self.mark_occurrences();
                    if let Some(ei) = self.errors.iter().position(ErrState::is_pending) {
                        self.report.exception_detections += 1;
                        self.recover(ei)?;
                        continue;
                    }
                    return Err(trap);
                }
            };
            self.mark_occurrences();
            // Process due events in ascending threshold order; recovery
            // rewinds progress, so re-evaluate after each.
            loop {
                let progress = self.machine.total_retired();
                let trig = self.next_trigger().filter(|&t| t <= progress);
                let detect = self
                    .errors
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.is_pending() && e.detected_at() <= progress)
                    .min_by_key(|(_, e)| e.occur)
                    .map(|(i, e)| (i, e.detected_at()));
                match (trig, detect) {
                    (Some(t), Some((_, d))) if t <= d => self.checkpoint(),
                    (_, Some((ei, _))) => self.recover(ei)?,
                    (Some(_), None) => self.checkpoint(),
                    (None, None) => break,
                }
                self.mark_occurrences();
            }
            if out == RunOutcome::AllHalted && self.machine.all_halted() {
                // Force-detect any straggling errors at end of execution.
                if let Some(ei) = self.errors.iter().position(ErrState::is_pending) {
                    self.recover(ei)?;
                    continue;
                }
                break;
            }
        }
        // Final sample so short runs with a coarse interval still carry at
        // least one counter snapshot.
        self.publish_ckpt_metrics();
        self.machine.force_sample();
        let mut report = std::mem::take(&mut self.report);
        report.cycles = self.machine.cycles();
        report.sim = *self.machine.stats();
        report.mem = *self.machine.mem().stats();
        report.series = self.machine.take_series();
        Ok(report)
    }

    /// Refreshes the engine-owned `ckpt.*` keys in the machine's unified
    /// metrics registry (all values cumulative over the run):
    ///
    /// * `ckpt.taken` — checkpoints established (count);
    /// * `ckpt.records` — old-value log records written (records);
    /// * `ckpt.omitted` — first updates omitted by the policy (records);
    /// * `ckpt.bytes` — checkpoint bytes written (bytes);
    /// * `ckpt.stall_cycles` — checkpoint stalls (cycles);
    /// * `ckpt.recoveries` — recoveries performed (count);
    /// * `ckpt.recovery_stall_cycles` — recovery stalls (cycles);
    /// * `ckpt.faults_injected` — state corruptions applied (count);
    /// * `ckpt.replay_retries` — recovery re-replay attempts (count);
    /// * `ckpt.generation_fallbacks` — torn generations skipped (count);
    /// * `ckpt.degraded.entries` — degraded-mode entries (count);
    /// * `ckpt.degraded.active` — 1 while degraded full logging is on;
    /// * `ckpt.invariant.*` — invariant-monitor check/breach tallies (see
    ///   [`crate::monitor::InvariantSummary::publish`]).
    pub(crate) fn publish_ckpt_metrics(&mut self) {
        let r = &self.report;
        let (records, omitted) = r.interval_first_updates();
        let reg = self.machine.metrics_mut();
        for (key, value) in [
            ("ckpt.taken", r.checkpoints_taken),
            ("ckpt.records", records),
            ("ckpt.omitted", omitted),
            ("ckpt.bytes", r.total_checkpoint_bytes()),
            ("ckpt.stall_cycles", r.checkpoint_stall_cycles),
            ("ckpt.recoveries", r.recoveries.len() as u64),
            ("ckpt.recovery_stall_cycles", r.recovery_stall_cycles),
            ("ckpt.faults_injected", r.faults_injected),
            ("ckpt.replay_retries", r.replay_retries),
            ("ckpt.generation_fallbacks", r.generation_fallbacks),
            ("ckpt.degraded.entries", r.degraded_entries),
            ("ckpt.degraded.active", u64::from(self.hooks.degraded)),
        ] {
            reg.set(key, value);
        }
        if r.recovery_hangs > 0 {
            // Gated on >0 so sampled key sets stay byte-identical for
            // every run predating the watchdog.
            reg.set("ckpt.recovery_hangs", r.recovery_hangs);
        }
        // Ledger gauges (cumulative decisions per reason code; words).
        if let Some(led) = &self.hooks.ledger {
            for reason in crate::ledger::OmitReason::ALL {
                let key = format!("ckpt.ledger.{}", reason.code().replace([':', '-'], "_"));
                reg.set(&key, led.total(reason));
            }
        }
        self.report.invariants.publish(reg);
        self.hooks.policy.publish_metrics(reg);
    }

    /// Samples the runtime invariant monitors at an epoch-commit boundary
    /// (see [`crate::monitor`]). Purely observational: reads engine state,
    /// charges no simulated cycles.
    fn run_invariant_monitors(&mut self, sealed_index: u64) {
        let cycle = self.machine.cycles();

        // Log-bit / ledger conservation vs the controller's lifetime
        // tallies. Sealed-interval sums can lag the lifetime totals
        // (epochs undone before sealing, the just-opened epoch) but can
        // never exceed them; with a ledger attached the decision count
        // must match the controller's first-update total exactly.
        let (logged, omitted) = self.log_totals();
        let (int_records, int_omitted) = self.report.interval_first_updates();
        let mut log_breach = None;
        if int_records > logged || int_omitted > omitted {
            log_breach = Some(format!(
                "sealed interval sums ({int_records} logged, {int_omitted} omitted) \
                 exceed lifetime totals ({logged}, {omitted})"
            ));
        } else if let Some(led) = &self.hooks.ledger {
            let decisions = led.total_decisions();
            if decisions != logged + omitted {
                log_breach = Some(format!(
                    "ledger decisions {decisions} != lifetime logged {logged} + omitted {omitted}"
                ));
            }
        }
        let mut checks = vec![("log_conservation", log_breach)];

        // Retained-checkpoint monotonicity: strictly increasing epochs,
        // non-decreasing progress and commit cycles.
        let mono_breach = self
            .checkpoints
            .iter()
            .zip(self.checkpoints.iter().skip(1))
            .find(|(a, b)| {
                b.begins_epoch <= a.begins_epoch || b.progress < a.progress || b.cycles < a.cycles
            })
            .map(|(a, b)| {
                format!(
                    "checkpoint order violated: epoch {} (progress {}, cycle {}) \
                     followed by epoch {} (progress {}, cycle {})",
                    a.begins_epoch, a.progress, a.cycles, b.begins_epoch, b.progress, b.cycles
                )
            });
        checks.push(("epoch_monotonic", mono_breach));

        // Policy association-storage occupancy bound (skipped entirely for
        // policies without bounded storage, e.g. the baseline).
        if let Some((live, cap)) = self.hooks.policy.occupancy() {
            let breach = (live > cap).then(|| {
                format!("association storage holds {live} live entries over its bound {cap}")
            });
            checks.push(("addrmap_occupancy", breach));
        }

        // Checksum spot-check: the oldest and newest retained records must
        // still verify (torn generations are truncated by recovery before
        // the next commit, so the deque is clean here).
        let check_breach = [self.checkpoints.front(), self.checkpoints.back()]
            .into_iter()
            .flatten()
            .find(|rec| !rec.verify())
            .map(|rec| {
                format!(
                    "retained checkpoint for epoch {} fails checksum verification",
                    rec.begins_epoch
                )
            });
        checks.push(("checksum_spot", check_breach));

        // Machine architectural-state audit.
        let violations = self.machine.audit();
        let audit_breach =
            (violations > 0).then(|| format!("machine audit found {violations} violations"));
        checks.push(("machine_audit", audit_breach));
        for (check, breach) in checks {
            self.report
                .invariants
                .observe(check, sealed_index, cycle, breach);
        }
    }

    fn mark_occurrences(&mut self) {
        let progress = self.machine.total_retired();
        // Checkpoint-first tie-break: a corrupting error whose occurrence
        // point coincides exactly with a still-pending checkpoint trigger
        // is deferred until that checkpoint commits, so the corruption is
        // attributed to the epoch the checkpoint opens and never
        // snapshots into the generation it lands beside. (Errors without
        // a corruption have nothing to attribute; their timing is left
        // untouched so schedules derived by integer division keep their
        // pinned results.)
        let pending_trigger = self.next_trigger().filter(|&t| t <= progress);
        for e in &mut self.errors {
            let deferred = e.kind.is_some() && pending_trigger == Some(e.occur);
            if e.occurred || e.occur > progress || deferred {
                continue;
            }
            e.occurred = true;
            let Some(kind) = e.kind else { continue };
            let _ = self.machine.apply_fault(CoreId(e.core), kind);
            self.report.faults_injected += 1;
            let landing = self.machine.cycles();
            self.report.fault_landing_cycles.push(landing);
            if self.machine.trace().enabled() {
                self.machine.trace().emit(
                    TraceEvent::instant("fault.inject", "fault", TRACK_ENGINE, landing)
                        .with_arg("core", u64::from(e.core))
                        .with_arg("at_progress", e.occur),
                );
            }
        }
        // Armed stuck-at cells re-corrupt whatever the program wrote over
        // them since the last stop. Gated so fault-free runs (and every
        // pinned golden hash) never touch the pin machinery.
        if self.machine.has_stuck_cells() {
            self.machine.reassert_stuck_cells();
        }
    }

    /// Establishes a coordinated checkpoint (global or per-group local).
    fn checkpoint(&mut self) {
        let all = self.machine.all_mask();
        let groups: Vec<u64> = match self.cfg.scheme {
            Scheme::GlobalCoordinated => vec![all],
            Scheme::LocalCoordinated => self
                .machine
                .mem()
                .sharing()
                .expect("sharing enabled for local scheme")
                .groups(),
        };
        let num_cores = self.machine.cores().len();
        let sealed = self.hooks.logctl.seal_epoch();
        let (sealed_index, records) = (sealed.index, sealed.records.len() as u64);
        let omitted = sealed.omitted.len() as u64;
        let mut per_core_records = vec![0u64; num_cores];
        for r in &sealed.records {
            per_core_records[r.core as usize] += 1;
        }
        let prev_ckpt_cycles = self.checkpoints.back().map(|c| c.cycles).unwrap_or(0);
        let mut max_stall = 0u64;
        let mut lines_total = 0u64;
        for &g in &groups {
            let participants = (g & all).count_ones();
            let arrival = self.machine.mask_ticks(g);
            let flush = self.machine.mem_mut().flush_dirty(g);
            let group_records: u64 = (0..num_cores)
                .filter(|i| g >> i & 1 == 1)
                .map(|i| per_core_records[i])
                .sum();
            // Each log record costs an old-value read (8 B) before the
            // flush overwrites it, plus the 16 B record write.
            let bytes =
                group_records * (LOG_RECORD_BYTES + 8) + CheckpointRecord::arch_bytes(g, num_cores);
            let log_stall = self.machine.mem().log_write_stall(bytes);
            let coord = self
                .machine
                .config()
                .checkpoint_coordination_cycles(participants);
            let stall = coord + flush.stall_cycles + log_stall;
            self.machine
                .stall_cores(g, arrival + stall * TICKS_PER_CYCLE);
            max_stall = max_stall.max(stall);
            lines_total += flush.lines_flushed;
            if self.machine.trace().enabled() {
                // A lone (global) group renders on the engine track; local
                // groups land on their lowest core's track so concurrent
                // group checkpoints never partially overlap one track.
                let track = if groups.len() == 1 {
                    TRACK_ENGINE
                } else {
                    g.trailing_zeros()
                };
                self.machine.trace().emit(
                    TraceEvent::span("ckpt", "ckpt", track, arrival / TICKS_PER_CYCLE, stall)
                        .with_arg("epoch", sealed_index + 1)
                        .with_arg("records", group_records)
                        .with_arg("lines_flushed", flush.lines_flushed)
                        .with_arg("group", g),
                );
            }
        }
        if self.machine.trace().enabled() {
            // The interval this checkpoint seals, as a span from the
            // previous checkpoint's commit point to this one's arrival.
            let now = self.machine.cycles();
            self.machine.trace().emit(
                TraceEvent::span(
                    "ckpt.interval",
                    "ckpt",
                    TRACK_ENGINE,
                    prev_ckpt_cycles,
                    now.saturating_sub(prev_ckpt_cycles),
                )
                .with_arg("epoch", sealed_index)
                .with_arg("records", records)
                .with_arg("omitted", omitted),
            );
        }
        let arch_bytes = CheckpointRecord::arch_bytes(all, num_cores);
        let mem = self.machine.mem_mut().stats_mut();
        mem.log_record_writes += records + arch_bytes / LOG_RECORD_BYTES;

        let progress = self.machine.total_retired();
        let mut record = CheckpointRecord {
            begins_epoch: sealed_index + 1,
            progress,
            cycles: self.machine.cycles(),
            check: 0,
            arch: self.machine.snapshot_arch(),
            groups: groups.clone(),
            shadow_mem: self
                .cfg
                .oracle
                .then(|| self.machine.mem().image().snapshot()),
        };
        record.seal();
        self.checkpoints.push_back(record);
        // Retained: the start, the most recent and the fallback generations
        // (3 with the default single generation).
        while self.checkpoints.len() > 2 + self.cfg.resilience.generations as usize {
            self.checkpoints.pop_front();
        }
        self.hooks.policy.on_checkpoint(sealed_index);
        self.machine.mem_mut().sharing_new_interval();
        // A clean commit closes any degraded window: the new generation's
        // integrity is sealed, so omission may resume.
        self.hooks.degraded = false;

        self.report.intervals.push(IntervalRecord {
            epoch: sealed_index,
            progress,
            records,
            omitted,
            bytes: records * LOG_RECORD_BYTES + arch_bytes,
            baseline_bytes: (records + omitted) * LOG_RECORD_BYTES + arch_bytes,
            stall_cycles: max_stall,
            lines_flushed: lines_total,
        });
        self.report.checkpoints_taken += 1;
        self.report.checkpoint_stall_cycles += max_stall;
        self.run_invariant_monitors(sealed_index);

        // Hierarchical level 2: stream every k-th checkpoint out.
        let taken = self.report.checkpoints_taken;
        if let Some(sec) = self
            .cfg
            .secondary
            .filter(|sec| taken.is_multiple_of(u64::from(sec.every.max(1))))
        {
            let bytes = records * LOG_RECORD_BYTES + arch_bytes;
            let stall = sec.latency_cycles + (bytes as f64 / sec.bytes_per_cycle).ceil() as u64;
            let arrival = self.machine.mask_ticks(all);
            self.machine
                .stall_cores(all, arrival + stall * TICKS_PER_CYCLE);
            self.report.secondary_checkpoints += 1;
            self.report.secondary_bytes += bytes;
            self.report.secondary_stall_cycles += stall;
        }
        self.publish_ckpt_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoOmission;
    use crate::schedule::{uniform_points, ErrorSchedule};
    use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
    use acr_sim::{MachineConfig, NoHooks};

    /// A two-phase kernel per thread: fill a private region, then reduce.
    fn kernel(threads: usize, iters: u64) -> Program {
        let mut b = ProgramBuilder::new(threads);
        b.set_mem_bytes(1 << 20);
        for t in 0..threads as u32 {
            let base = u64::from(t) * 131072;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let l = tb.begin_loop(Reg(1), Reg(2), iters);
            tb.alui(AluOp::Mul, Reg(3), Reg(1), 17);
            tb.alui(AluOp::Add, Reg(3), Reg(3), 5);
            tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
            tb.store(Reg(3), Reg(5), 0);
            tb.end_loop(l);
            // Reduction pass re-writes word 0 of the region repeatedly.
            tb.imm(Reg(6), 0);
            let l = tb.begin_loop(Reg(1), Reg(2), iters);
            tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
            tb.load(Reg(7), Reg(5), 0);
            tb.alu(AluOp::Add, Reg(6), Reg(6), Reg(7));
            tb.store(Reg(6), Reg(10), 0);
            tb.end_loop(l);
            tb.halt();
        }
        let p = b.build();
        p.validate().unwrap();
        p
    }

    fn reference_mem(p: &Program, cores: u32) -> Vec<u64> {
        let mut m = Machine::new(MachineConfig::with_cores(cores), p);
        m.run(&mut NoHooks, u64::MAX).unwrap();
        m.mem().image().words().to_vec()
    }

    #[test]
    fn checkpointing_only_overhead_and_identical_result() {
        let p = kernel(2, 150);
        let reference = reference_mem(&p, 2);

        let m = Machine::new(MachineConfig::with_cores(2), &p);
        let total = reference_total(&p, 2);
        let cfg = BerConfig {
            scheme: Scheme::GlobalCoordinated,
            triggers: uniform_points(total, 5),
            errors: ErrorSchedule::none(),
            oracle: true,
            secondary: None,
            resilience: ResilienceConfig::default(),
        };
        let mut engine = BerEngine::new(m, NoOmission, cfg).unwrap();
        let report = engine.run_to_completion().unwrap();
        assert_eq!(report.checkpoints_taken, 5);
        assert_eq!(report.errors_handled, 0);
        assert!(report.checkpoint_stall_cycles > 0);
        assert_eq!(engine.machine().mem().image().words(), reference);

        // Checkpointing must cost time vs No_Ckpt.
        let mut plain = Machine::new(MachineConfig::with_cores(2), &p);
        plain.run(&mut NoHooks, u64::MAX).unwrap();
        assert!(report.cycles > plain.cycles());
    }

    fn reference_total(p: &Program, cores: u32) -> u64 {
        let mut m = Machine::new(MachineConfig::with_cores(cores), p);
        m.run(&mut NoHooks, u64::MAX).unwrap();
        m.total_retired()
    }

    #[test]
    fn recovery_restores_and_reexecutes_to_same_result() {
        let p = kernel(2, 150);
        let reference = reference_mem(&p, 2);
        let total = reference_total(&p, 2);

        let m = Machine::new(MachineConfig::with_cores(2), &p);
        let cfg = BerConfig {
            scheme: Scheme::GlobalCoordinated,
            triggers: uniform_points(total, 5),
            errors: ErrorSchedule::uniform(total, 1, 5, 0.5),
            oracle: true,
            secondary: None,
            resilience: ResilienceConfig::default(),
        };
        let mut engine = BerEngine::new(m, NoOmission, cfg).unwrap();
        let report = engine.run_to_completion().unwrap();
        assert_eq!(report.errors_handled, 1);
        assert_eq!(report.recoveries.len(), 1);
        let rec = &report.recoveries[0];
        assert!(rec.restored_records > 0);
        assert_eq!(rec.recomputed_values, 0); // NoOmission
        assert!(rec.waste_cycles > 0);
        assert_eq!(engine.machine().mem().image().words(), reference);
        // Extra checkpoints were re-established after rollback.
        assert!(report.checkpoints_taken >= 5);
    }

    #[test]
    fn multiple_errors_all_handled() {
        let p = kernel(2, 120);
        let reference = reference_mem(&p, 2);
        let total = reference_total(&p, 2);
        for n_err in [2u32, 4] {
            let m = Machine::new(MachineConfig::with_cores(2), &p);
            let cfg = BerConfig {
                scheme: Scheme::GlobalCoordinated,
                triggers: uniform_points(total, 8),
                errors: ErrorSchedule::uniform(total, n_err, 8, 0.4),
                oracle: true,
                secondary: None,
                resilience: ResilienceConfig::default(),
            };
            let mut engine = BerEngine::new(m, NoOmission, cfg).unwrap();
            let report = engine.run_to_completion().unwrap();
            assert!(report.errors_handled >= u64::from(n_err).min(1));
            assert_eq!(engine.machine().mem().image().words(), reference);
        }
    }

    #[test]
    fn error_overhead_exceeds_error_free() {
        let p = kernel(2, 150);
        let total = reference_total(&p, 2);
        let run = |errors: ErrorSchedule| {
            let m = Machine::new(MachineConfig::with_cores(2), &p);
            let cfg = BerConfig {
                scheme: Scheme::GlobalCoordinated,
                triggers: uniform_points(total, 5),
                errors,
                oracle: false,
                secondary: None,
                resilience: ResilienceConfig::default(),
            };
            BerEngine::new(m, NoOmission, cfg)
                .unwrap()
                .run_to_completion()
                .unwrap()
        };
        let ne = run(ErrorSchedule::none());
        let e = run(ErrorSchedule::uniform(total, 1, 5, 0.5));
        assert!(e.cycles > ne.cycles, "recovery must add time");
    }

    #[test]
    fn local_scheme_runs_and_matches_reference_without_errors() {
        let p = kernel(4, 100);
        let reference = reference_mem(&p, 4);
        let total = reference_total(&p, 4);
        let m = Machine::new(MachineConfig::with_cores(4), &p);
        let cfg = BerConfig {
            scheme: Scheme::LocalCoordinated,
            triggers: uniform_points(total, 5),
            errors: ErrorSchedule::none(),
            oracle: true,
            secondary: None,
            resilience: ResilienceConfig::default(),
        };
        let mut engine = BerEngine::new(m, NoOmission, cfg).unwrap();
        let report = engine.run_to_completion().unwrap();
        assert_eq!(report.checkpoints_taken, 5);
        assert_eq!(engine.machine().mem().image().words(), reference);
    }

    #[test]
    fn local_scheme_recovers_single_error() {
        let p = kernel(4, 100);
        let reference = reference_mem(&p, 4);
        let total = reference_total(&p, 4);
        let m = Machine::new(MachineConfig::with_cores(4), &p);
        let cfg = BerConfig {
            scheme: Scheme::LocalCoordinated,
            triggers: uniform_points(total, 5),
            errors: ErrorSchedule::uniform(total, 1, 5, 0.3),
            oracle: true,
            secondary: None,
            resilience: ResilienceConfig::default(),
        };
        let mut engine = BerEngine::new(m, NoOmission, cfg).unwrap();
        let report = engine.run_to_completion().unwrap();
        assert_eq!(report.errors_handled, 1);
        // Threads are independent here, so the victim set stays small and
        // the final state still matches.
        assert!(report.recoveries[0].victim_mask.count_ones() <= 4);
        assert_eq!(engine.machine().mem().image().words(), reference);
    }

    #[test]
    fn interval_records_track_first_updates() {
        let p = kernel(1, 200);
        let total = reference_total(&p, 1);
        let m = Machine::new(MachineConfig::with_cores(1), &p);
        let cfg = BerConfig {
            scheme: Scheme::GlobalCoordinated,
            triggers: uniform_points(total, 4),
            errors: ErrorSchedule::none(),
            oracle: false,
            secondary: None,
            resilience: ResilienceConfig::default(),
        };
        let mut engine = BerEngine::new(m, NoOmission, cfg).unwrap();
        let report = engine.run_to_completion().unwrap();
        assert_eq!(report.intervals.len(), 4);
        assert!(report.intervals.iter().any(|i| i.records > 0));
        assert!(report.total_checkpoint_bytes() >= report.intervals.len() as u64);
        // Without omission, baseline == actual.
        assert_eq!(
            report.total_checkpoint_bytes(),
            report.total_baseline_bytes()
        );
    }
}

#[cfg(test)]
mod secondary_tests {
    use super::*;
    use crate::policy::NoOmission;
    use crate::schedule::{uniform_points, ErrorSchedule};
    use acr_isa::{AluOp, ProgramBuilder, Reg};
    use acr_sim::MachineConfig;

    fn program() -> acr_isa::Program {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(1 << 18);
        let t = b.thread(0);
        t.imm(Reg(10), 4096);
        let outer = t.begin_loop(Reg(8), Reg(9), 6);
        let l = t.begin_loop(Reg(1), Reg(2), 256);
        t.alui(AluOp::Mul, Reg(3), Reg(1), 11);
        t.alu(AluOp::Xor, Reg(3), Reg(3), Reg(8));
        t.alui(AluOp::Mul, Reg(4), Reg(1), 8);
        t.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
        t.store(Reg(3), Reg(5), 0);
        t.end_loop(l);
        t.end_loop(outer);
        t.halt();
        b.build()
    }

    fn run(secondary: Option<SecondaryStorage>) -> BerReport {
        let p = program();
        let total = {
            let mut m = Machine::new(MachineConfig::with_cores(1), &p);
            m.run(&mut acr_sim::NoHooks, u64::MAX).unwrap();
            m.total_retired()
        };
        let m = Machine::new(MachineConfig::with_cores(1), &p);
        let cfg = BerConfig {
            scheme: Scheme::GlobalCoordinated,
            triggers: uniform_points(total, 10),
            errors: ErrorSchedule::none(),
            oracle: false,
            secondary,
            resilience: ResilienceConfig::default(),
        };
        BerEngine::new(m, NoOmission, cfg)
            .unwrap()
            .run_to_completion()
            .unwrap()
    }

    #[test]
    fn secondary_streams_every_kth_checkpoint() {
        let rep = run(Some(SecondaryStorage {
            every: 3,
            ..Default::default()
        }));
        assert_eq!(rep.checkpoints_taken, 10);
        assert_eq!(rep.secondary_checkpoints, 3); // checkpoints 3, 6, 9
        assert!(rep.secondary_bytes > 0);
        assert!(rep.secondary_stall_cycles > 0);
    }

    #[test]
    fn secondary_costs_time() {
        let without = run(None);
        let with = run(Some(SecondaryStorage::default()));
        assert_eq!(without.secondary_checkpoints, 0);
        assert!(with.cycles > without.cycles);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::policy::NoOmission;
    use crate::schedule::{uniform_points, ErrorSchedule};
    use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
    use acr_sim::{MachineConfig, NoHooks};

    fn program() -> Program {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(1 << 16);
        let t = b.thread(0);
        t.imm(Reg(10), 4096);
        let l = t.begin_loop(Reg(1), Reg(2), 400);
        t.alui(AluOp::Mul, Reg(3), Reg(1), 7);
        t.alui(AluOp::And, Reg(4), Reg(1), 63);
        t.alui(AluOp::Mul, Reg(4), Reg(4), 8);
        t.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
        t.store(Reg(3), Reg(5), 0);
        t.end_loop(l);
        t.halt();
        b.build()
    }

    fn reference(p: &Program) -> (u64, Vec<u64>) {
        let mut m = Machine::new(MachineConfig::with_cores(1), p);
        m.run(&mut NoHooks, u64::MAX).unwrap();
        (m.total_retired(), m.mem().image().words().to_vec())
    }

    fn engine_with(
        p: &Program,
        triggers: Vec<u64>,
        errors: ErrorSchedule,
    ) -> BerEngine<'_, NoOmission> {
        let m = Machine::new(MachineConfig::with_cores(1), p);
        BerEngine::new(
            m,
            NoOmission,
            BerConfig {
                scheme: Scheme::GlobalCoordinated,
                triggers,
                errors,
                oracle: true,
                secondary: None,
                resilience: ResilienceConfig::default(),
            },
        )
        .unwrap()
    }

    #[test]
    fn error_before_first_checkpoint_rolls_to_start() {
        let p = program();
        let (total, want) = reference(&p);
        // Error very early, detected before the first trigger.
        let errors = ErrorSchedule::at(&[total / 50], total / 50);
        let mut e = engine_with(&p, uniform_points(total, 4), errors);
        let rep = e.run_to_completion().unwrap();
        assert_eq!(rep.errors_handled, 1);
        assert_eq!(rep.recoveries[0].safe_epoch, 0, "must restore the start");
        assert_eq!(e.machine().mem().image().words(), want);
    }

    #[test]
    fn error_detected_only_at_halt_is_forced() {
        let p = program();
        let (total, want) = reference(&p);
        // Occurs just before the end; detection point lies beyond the end
        // of execution, so the engine must force-handle it at halt.
        let errors = ErrorSchedule::at(&[total - total / 100], total / 4);
        let mut e = engine_with(&p, uniform_points(total, 4), errors);
        let rep = e.run_to_completion().unwrap();
        assert_eq!(rep.errors_handled, 1);
        assert_eq!(e.machine().mem().image().words(), want);
    }

    #[test]
    fn second_error_erased_by_first_rollback_is_not_recovered_twice() {
        let p = program();
        let (total, want) = reference(&p);
        // Two errors in quick succession: the rollback for the first also
        // undoes the second's corruption (occur >= safe progress), so only
        // one recovery happens but both count as handled.
        let errors = ErrorSchedule::at(&[total / 2, total / 2 + total / 100], total / 10);
        let mut e = engine_with(&p, uniform_points(total, 8), errors);
        let rep = e.run_to_completion().unwrap();
        assert_eq!(rep.errors_handled, 2);
        assert_eq!(rep.recoveries.len(), 1, "one rollback covers both");
        assert_eq!(e.machine().mem().image().words(), want);
    }

    #[test]
    fn corrupted_checkpoint_is_skipped() {
        let p = program();
        let (total, want) = reference(&p);
        // Fig 2: the error occurs just before a checkpoint and is detected
        // after it — the engine must roll back PAST that checkpoint.
        let trigger = total / 2;
        let errors = ErrorSchedule::at(&[trigger - total / 200], total / 50);
        let mut e = engine_with(&p, vec![total / 4, trigger, 3 * total / 4], errors);
        let rep = e.run_to_completion().unwrap();
        assert_eq!(rep.errors_handled, 1);
        // Safe epoch is the one opened by the total/4 checkpoint (epoch 1),
        // not the corrupted total/2 one (epoch 2).
        assert_eq!(rep.recoveries[0].safe_epoch, 1);
        assert_eq!(e.machine().mem().image().words(), want);
    }

    #[test]
    fn zero_triggers_still_recovers_to_start() {
        let p = program();
        let (total, want) = reference(&p);
        let errors = ErrorSchedule::at(&[total / 3], total / 10);
        let mut e = engine_with(&p, Vec::new(), errors);
        let rep = e.run_to_completion().unwrap();
        assert_eq!(rep.checkpoints_taken, 0);
        assert_eq!(rep.errors_handled, 1);
        assert_eq!(rep.recoveries[0].safe_epoch, 0);
        assert_eq!(e.machine().mem().image().words(), want);
    }
}
