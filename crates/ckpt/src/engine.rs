//! The BER engine: drives the machine between checkpoints and errors.

use std::collections::VecDeque;

use acr_mem::{CoreId, LogController, LogEpoch, WordAddr, LOG_RECORD_BYTES};
use acr_sim::{
    AssocEvent, ExecHooks, FaultKind, Machine, RecoveryFault, RecoveryFaultKind, RunOutcome,
    SimError, StoreEvent, TICKS_PER_CYCLE,
};
use acr_trace::{TraceEvent, TRACK_ENGINE};

use crate::checkpoint::CheckpointRecord;
use crate::ledger::DecisionLedger;
use crate::monitor::InvariantSummary;
use crate::policy::OmissionPolicy;
use crate::report::{BerReport, IntervalRecord, RecoveryRecord};
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
/// retained as fallbacks, the replay-retry bound, and the
/// recovery-window fault plan.
///
/// The escalation ladder on an integrity failure during recovery is:
///
/// 1. **re-replay** — restore and recomputation are repeatable, so a
///    transient corruption (a flipped restored word, a corrupted Slice
///    input) is retried up to [`max_replay_retries`] times; a torn log
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
/// [`max_replay_retries`]: ResilienceConfig::max_replay_retries
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Checkpoint generations restorable beyond the paper's two-deep
    /// retention (≥ 1). Generation `g` needs the log epochs back to its
    /// begin, so the log controller retains `1 + generations` completed
    /// epochs and the engine `2 + generations` checkpoint records.
    pub generations: u32,
    /// Re-replay attempts after a failed restore before the engine gives
    /// up and proceeds best-effort (divergence is still counted by the
    /// oracle, never silent).
    pub max_replay_retries: u32,
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
            max_replay_retries: 2,
            recovery_faults: Vec::new(),
            watchdog_budget_cycles: 0,
        }
    }
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
    /// Torn-recovery resilience: retained generations, replay-retry
    /// bound, recovery-window fault plan.
    pub resilience: ResilienceConfig,
}

#[derive(Debug, Clone, Copy)]
struct ErrState {
    occur: u64,
    core: u32,
    /// Corruption applied at occurrence (`None` corrupts nothing).
    kind: Option<FaultKind>,
    /// Per-error detection latency (crashes are never silent: 0).
    latency: u64,
    occurred: bool,
    handled: bool,
}

/// The store/assoc instrumentation the engine attaches to the machine.
struct CkptHooks<P> {
    logctl: LogController,
    policy: P,
    /// `AddrMap` lookups performed by the omission check (energy).
    omission_lookups: u64,
    /// Optional omission-decision ledger (observational; `None` keeps the
    /// hot path to one branch).
    ledger: Option<Box<DecisionLedger>>,
    /// Degraded full-logging mode: set by a recovery escalation, cleared
    /// by the next clean checkpoint commit. While set, omission is
    /// suspended and every first update is logged.
    degraded: bool,
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
/// let mut engine = BerEngine::new(machine, NoOmission, cfg);
/// let report = engine.run_to_completion()?;
/// assert!(report.checkpoints_taken >= 4);
/// assert_eq!(report.errors_handled, 1);
/// # Ok::<(), acr_sim::SimError>(())
/// ```
pub struct BerEngine<'p, P: OmissionPolicy> {
    machine: Machine<'p>,
    cfg: BerConfig,
    hooks: CkptHooks<P>,
    checkpoints: VecDeque<CheckpointRecord>,
    /// Checkpoint records retained: start + most recent + fallback
    /// generations (`2 + generations`; 3 with the default single
    /// generation — start + the two most recent).
    retained_checkpoints: usize,
    /// Recovery-window faults not yet consumed.
    pending_recovery_faults: Vec<RecoveryFault>,
    errors: Vec<ErrState>,
    /// Some scheduled error corrupts state, or recovery faults are
    /// planned: the oracle counts divergence instead of asserting.
    fault_mode: bool,
    report: BerReport,
}

impl<'p, P: OmissionPolicy> BerEngine<'p, P> {
    /// Creates an engine over `machine` with omission policy `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no cores, if `cfg.resilience` plans
    /// recovery faults under the local scheme (unsupported: per-group
    /// rollback has no single safe generation to tear), or retains zero
    /// generations. User-reachable paths reject these combinations with
    /// [`crate::CkptError`] before constructing an engine
    /// ([`crate::CkptError::NoCores`] for the first).
    pub fn new(mut machine: Machine<'p>, policy: P, cfg: BerConfig) -> Self {
        assert!(
            !machine.cores().is_empty(),
            "engine needs at least one core (error placement takes \
             indices modulo the core count)"
        );
        assert!(
            cfg.resilience.generations >= 1,
            "must retain at least one checkpoint generation"
        );
        assert!(
            cfg.resilience.recovery_faults.is_empty() || cfg.scheme == Scheme::GlobalCoordinated,
            "recovery faults require the global coordinated scheme"
        );
        if cfg.scheme == Scheme::LocalCoordinated {
            machine.mem_mut().enable_sharing();
        }
        let retained_checkpoints = 2 + cfg.resilience.generations as usize;
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
        let mut checkpoints = VecDeque::with_capacity(retained_checkpoints + 1);
        checkpoints.push_back(initial);
        let pending_recovery_faults = cfg.resilience.recovery_faults.clone();
        BerEngine {
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
            retained_checkpoints,
            pending_recovery_faults,
            report: BerReport::default(),
        }
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

    /// Invariant-monitor tallies accumulated so far. The completed run's
    /// copy travels in [`BerReport::invariants`]; this accessor serves the
    /// abort path, where no report is ever produced.
    pub fn invariants(&self) -> &InvariantSummary {
        &self.report.invariants
    }

    /// The in-progress report. Complete only after
    /// [`Self::run_to_completion`] returns `Ok` (which *takes* it); the
    /// abort path reads escalation history and counters through this.
    pub fn partial_report(&self) -> &BerReport {
        &self.report
    }

    fn next_stop(&self) -> u64 {
        let last_ckpt = self.checkpoints.back().map(|c| c.progress).unwrap_or(0);
        let trig = self
            .cfg
            .triggers
            .iter()
            .copied()
            .find(|&t| t > last_ckpt)
            .unwrap_or(u64::MAX);
        let occur = self
            .errors
            .iter()
            .filter(|e| !e.occurred)
            .map(|e| e.occur)
            .min()
            .unwrap_or(u64::MAX);
        let detect = self
            .errors
            .iter()
            .filter(|e| e.occurred && !e.handled)
            .map(|e| e.occur + e.latency)
            .min()
            .unwrap_or(u64::MAX);
        trig.min(occur).min(detect)
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
                Err(SimError::FuelExhausted) => return Err(SimError::FuelExhausted),
                Err(trap) => {
                    // A corrupted register or pc drove a core into an
                    // illegal access. If an injected error is pending, the
                    // exception *is* the detection (ahead of its scheduled
                    // latency); recover and resume. Otherwise it is a
                    // genuine program bug — propagate.
                    self.mark_occurrences();
                    if let Some(ei) = self.errors.iter().position(|e| e.occurred && !e.handled) {
                        self.report.exception_detections += 1;
                        self.do_recovery(ei)?;
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
                let last_ckpt = self.checkpoints.back().map(|c| c.progress).unwrap_or(0);
                let trig = self
                    .cfg
                    .triggers
                    .iter()
                    .copied()
                    .find(|&t| t > last_ckpt && t <= progress);
                let detect = self
                    .errors
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.occurred && !e.handled && e.occur + e.latency <= progress)
                    .min_by_key(|(_, e)| e.occur)
                    .map(|(i, e)| (i, e.occur + e.latency));
                match (trig, detect) {
                    (Some(t), Some((ei, d))) => {
                        if t <= d {
                            self.do_checkpoint();
                        } else {
                            self.do_recovery(ei)?;
                        }
                    }
                    (Some(_), None) => self.do_checkpoint(),
                    (None, Some((ei, _))) => self.do_recovery(ei)?,
                    (None, None) => break,
                }
                self.mark_occurrences();
            }
            if out == RunOutcome::AllHalted && self.machine.all_halted() {
                // Force-detect any straggling errors at end of execution.
                if let Some(ei) = self.errors.iter().position(|e| e.occurred && !e.handled) {
                    self.do_recovery(ei)?;
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
    fn publish_ckpt_metrics(&mut self) {
        let r = &self.report;
        let taken = r.checkpoints_taken;
        let records: u64 = r.intervals.iter().map(|i| i.records).sum();
        let omitted: u64 = r.intervals.iter().map(|i| i.omitted).sum();
        let bytes = r.total_checkpoint_bytes();
        let stall = r.checkpoint_stall_cycles;
        let recoveries = r.recoveries.len() as u64;
        let rec_stall = r.recovery_stall_cycles;
        let faults = r.faults_injected;
        let retries = r.replay_retries;
        let fallbacks = r.generation_fallbacks;
        let degraded_entries = r.degraded_entries;
        let degraded_active = u64::from(self.hooks.degraded);
        let reg = self.machine.metrics_mut();
        reg.set("ckpt.taken", taken);
        reg.set("ckpt.records", records);
        reg.set("ckpt.omitted", omitted);
        reg.set("ckpt.bytes", bytes);
        reg.set("ckpt.stall_cycles", stall);
        reg.set("ckpt.recoveries", recoveries);
        reg.set("ckpt.recovery_stall_cycles", rec_stall);
        reg.set("ckpt.faults_injected", faults);
        reg.set("ckpt.replay_retries", retries);
        reg.set("ckpt.generation_fallbacks", fallbacks);
        reg.set("ckpt.degraded.entries", degraded_entries);
        reg.set("ckpt.degraded.active", degraded_active);
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
        let logged = self.hooks.logctl.lifetime_logged();
        let omitted = self.hooks.logctl.lifetime_omitted();
        let int_records: u64 = self.report.intervals.iter().map(|i| i.records).sum();
        let int_omitted: u64 = self.report.intervals.iter().map(|i| i.omitted).sum();
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
        self.report
            .invariants
            .observe("log_conservation", sealed_index, cycle, log_breach);

        // Retained-checkpoint monotonicity: strictly increasing epochs,
        // non-decreasing progress and commit cycles.
        let mut mono_breach = None;
        for pair in self.checkpoints.iter().zip(self.checkpoints.iter().skip(1)) {
            let (a, b) = pair;
            if b.begins_epoch <= a.begins_epoch || b.progress < a.progress || b.cycles < a.cycles {
                mono_breach = Some(format!(
                    "checkpoint order violated: epoch {} (progress {}, cycle {}) \
                     followed by epoch {} (progress {}, cycle {})",
                    a.begins_epoch, a.progress, a.cycles, b.begins_epoch, b.progress, b.cycles
                ));
                break;
            }
        }
        self.report
            .invariants
            .observe("epoch_monotonic", sealed_index, cycle, mono_breach);

        // Policy association-storage occupancy bound (skipped entirely for
        // policies without bounded storage, e.g. the baseline).
        if let Some((live, cap)) = self.hooks.policy.occupancy() {
            let breach = (live > cap).then(|| {
                format!("association storage holds {live} live entries over its bound {cap}")
            });
            self.report
                .invariants
                .observe("addrmap_occupancy", sealed_index, cycle, breach);
        }

        // Checksum spot-check: the oldest and newest retained records must
        // still verify (torn generations are truncated by recovery before
        // the next commit, so the deque is clean here).
        let mut check_breach = None;
        for rec in [self.checkpoints.front(), self.checkpoints.back()]
            .into_iter()
            .flatten()
        {
            if !rec.verify() {
                check_breach = Some(format!(
                    "retained checkpoint for epoch {} fails checksum verification",
                    rec.begins_epoch
                ));
                break;
            }
        }
        self.report
            .invariants
            .observe("checksum_spot", sealed_index, cycle, check_breach);

        // Machine architectural-state audit.
        let violations = self.machine.audit();
        let audit_breach =
            (violations > 0).then(|| format!("machine audit found {violations} violations"));
        self.report
            .invariants
            .observe("machine_audit", sealed_index, cycle, audit_breach);
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
        let last_ckpt = self.checkpoints.back().map(|c| c.progress).unwrap_or(0);
        let pending_trigger = self
            .cfg
            .triggers
            .iter()
            .copied()
            .find(|&t| t > last_ckpt && t <= progress);
        for i in 0..self.errors.len() {
            let e = self.errors[i];
            if !e.occurred && e.occur <= progress {
                if e.kind.is_some() && pending_trigger == Some(e.occur) {
                    continue;
                }
                self.errors[i].occurred = true;
                if let Some(kind) = e.kind {
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
    fn do_checkpoint(&mut self) {
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
        let sealed_index;
        let (records, omitted, per_core_records) = {
            let sealed = self.hooks.logctl.seal_epoch();
            sealed_index = sealed.index;
            let mut per_core = vec![0u64; self.machine.cores().len()];
            for r in &sealed.records {
                per_core[r.core as usize] += 1;
            }
            (
                sealed.records.len() as u64,
                sealed.omitted.len() as u64,
                per_core,
            )
        };
        let num_cores = self.machine.cores().len();
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
        while self.checkpoints.len() > self.retained_checkpoints {
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
        if let Some(sec) = self.cfg.secondary {
            if self
                .report
                .checkpoints_taken
                .is_multiple_of(u64::from(sec.every.max(1)))
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
        }
        self.publish_ckpt_metrics();
    }

    /// Handles the detection of error `ei`: roll back to the most recent
    /// checkpoint established before the error occurred, recompute omitted
    /// values, restore logged values and architectural state, and resume.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RecoveryHang`] when a non-zero
    /// [`ResilienceConfig::watchdog_budget_cycles`] budget is exceeded by
    /// a still-failing escalation (the watchdog aborting a hung recovery).
    fn do_recovery(&mut self, ei: usize) -> Result<(), SimError> {
        let err = self.errors[ei];
        let all = self.machine.all_mask();
        let num_cores = self.machine.cores().len();
        let detected_at_progress = self.machine.total_retired();
        let detected_at_cycles = self.machine.cycles();

        // Recovery-window faults due in *this* recovery (matched by
        // recovery ordinal, consumed exactly once).
        let ordinal = self.report.recoveries.len() as u32;
        let mut due: Vec<RecoveryFaultKind> = Vec::new();
        self.pending_recovery_faults.retain(|f| {
            if f.at_recovery == ordinal {
                due.push(f.kind);
                false
            } else {
                true
            }
        });

        // Safe checkpoint: the most recent one provably taken before the
        // error occurred (with detection latency ≤ the checkpoint period
        // this is the most recent or second most recent — Fig. 2).
        let mut safe_idx = self
            .checkpoints
            .iter()
            .rposition(|c| c.progress <= err.occur)
            .expect("a safe checkpoint is always retained");
        // A due torn-commit fault models a crash inside the safe
        // generation's commit window: its integrity checksum no longer
        // verifies. The start checkpoint (progress 0) has no commit
        // window and is never torn.
        if due.contains(&RecoveryFaultKind::TornCommit) && safe_idx > 0 {
            self.checkpoints[safe_idx].check ^= 1;
        }
        // Integrity gate: a generation that fails verification is never
        // restored — fall back to the previous retained generation. The
        // undo log holds every epoch back to the oldest retained
        // checkpoint, so older generations stay restorable.
        let mut generation_fallbacks = 0u32;
        while !self.checkpoints[safe_idx].verify() && safe_idx > 0 {
            safe_idx -= 1;
            generation_fallbacks += 1;
        }
        let safe = self.checkpoints[safe_idx].clone();

        // Victim set. A crash power-cycles the whole machine (every core
        // restarts cold), so every core rolls back under either scheme.
        let victim_mask = match self.cfg.scheme {
            Scheme::GlobalCoordinated => all,
            Scheme::LocalCoordinated if matches!(err.kind, Some(FaultKind::Crash)) => all,
            Scheme::LocalCoordinated => {
                let mut victims = 1u64 << err.core;
                // Union communicating groups over the undone intervals and
                // the current one, to a fixpoint.
                let mut group_sets: Vec<u64> = self
                    .checkpoints
                    .iter()
                    .filter(|c| c.begins_epoch > safe.begins_epoch)
                    .flat_map(|c| c.groups.iter().copied())
                    .collect();
                if let Some(t) = self.machine.mem().sharing() {
                    group_sets.extend(t.groups());
                }
                loop {
                    let before = victims;
                    for &g in &group_sets {
                        if g & victims != 0 {
                            victims |= g;
                        }
                    }
                    if victims == before {
                        break;
                    }
                }
                victims & all
            }
        };

        // Roll the log back and collect the epochs to undo (newest first).
        let undone: Vec<LogEpoch> = match self.cfg.scheme {
            Scheme::GlobalCoordinated => self.hooks.logctl.rollback_to(safe.begins_epoch),
            Scheme::LocalCoordinated => self
                .hooks
                .logctl
                .rollback_victims(safe.begins_epoch, victim_mask),
        };

        // The pristine `undone` epochs double as the redundant mirror
        // copy; `working` is the primary copy recovery reads, which
        // recovery-window faults may corrupt. A due torn-record fault is
        // *persistent*: the corrupted record keeps failing its checksum
        // until the primary is repaired from the mirror.
        let mut working = undone.clone();
        if let Some(bit) = due.iter().find_map(|k| match k {
            RecoveryFaultKind::TornRecord { bit } => Some(*bit),
            _ => None,
        }) {
            if let Some(rec) = working.iter_mut().flat_map(|e| e.records.iter_mut()).next() {
                rec.old_value ^= 1 << (bit % 64);
            }
        }
        let replay_corrupt_bit = due.iter().find_map(|k| match k {
            RecoveryFaultKind::ReplayInput { bit } => Some(*bit),
            _ => None,
        });
        let restored_flip_bit = due.iter().find_map(|k| match k {
            RecoveryFaultKind::RestoredWordFlip { bit } => Some(*bit),
            _ => None,
        });
        let crash_mid_restore = due.contains(&RecoveryFaultKind::CrashMidRestore);
        let total_entries: u64 = working
            .iter()
            .map(|e| (e.records.len() + e.omitted.len()) as u64)
            .sum();

        // Restore memory: newest epoch first, oldest last (the oldest —
        // the safe epoch — holds the values at the safe checkpoint).
        // Restore and recomputation are repeatable, so a detected
        // integrity failure (torn record, read-back mismatch, recomputed
        // value failing the omitted record's checksum, crash mid-restore)
        // escalates to a bounded re-replay; costs accumulate across
        // attempts so each escalation rung's time and energy are charged.
        let arch_bytes = CheckpointRecord::arch_bytes(victim_mask, num_cores);
        let max_attempts = 1 + self.cfg.resilience.max_replay_retries;
        let mut attempt = 0u32;
        let mut attempt_ok;
        let mut replay_integrity_failed = false;
        let mut restored_records = 0u64;
        let mut recomputed_values = 0u64;
        let mut recompute_alu = 0u64;
        let mut restore_recompute_total = 0u64;
        let mut bytes_moved = 0u64;
        let mut first_transfer = 0u64;
        let mut first_rc_stall = 0u64;
        let mut restored_words: Vec<WordAddr> = Vec::new();
        loop {
            attempt += 1;
            let first = attempt == 1;
            attempt_ok = true;
            let mut torn_detected = false;
            let mut att_restored = 0u64;
            let mut att_recomputed = 0u64;
            let mut recompute_cycles_per_core = vec![0u64; num_cores];
            let mut applied = 0u64;
            let mut flip_pending = if first { restored_flip_bit } else { None };
            let mut replay_pending = if first { replay_corrupt_bit } else { None };
            restored_words.clear();
            'apply: for epoch in &working {
                for rec in &epoch.records {
                    if first && crash_mid_restore && applied * 2 >= total_entries {
                        attempt_ok = false;
                        break 'apply;
                    }
                    if !rec.verify() {
                        // Torn log record: abort the pass and repair the
                        // primary from the mirror before retrying.
                        torn_detected = true;
                        attempt_ok = false;
                        break 'apply;
                    }
                    let mut value = rec.old_value;
                    if let Some(bit) = flip_pending.take() {
                        value ^= 1 << (bit % 64);
                    }
                    self.machine.mem_mut().image_mut().write(rec.addr, value);
                    if self.machine.has_stuck_cells() {
                        // A pinned cell fires once more on the restore
                        // write — the read-back below catches it — and the
                        // line is then remapped, scrubbing the defect.
                        self.machine.stuck_scrub(rec.addr);
                    }
                    att_restored += 1;
                    applied += 1;
                    // Read-back verification against the checksummed
                    // record catches a flip between write and read.
                    if self.machine.mem().image().read(rec.addr) != rec.old_value {
                        attempt_ok = false;
                    }
                    if self.cfg.oracle {
                        restored_words.push(rec.addr);
                    }
                }
                for om in &epoch.omitted {
                    if first && crash_mid_restore && applied * 2 >= total_entries {
                        attempt_ok = false;
                        break 'apply;
                    }
                    let rc = self
                        .hooks
                        .policy
                        .recompute(om.addr, epoch.index)
                        .expect("every omitted value must be recomputable");
                    let mut value = rc.value;
                    if let Some(bit) = replay_pending.take() {
                        value ^= 1 << (bit % 64);
                    }
                    // The omitted record's checksum verifies the
                    // recomputed word without ever having stored it.
                    if !om.verify_recomputed(value) {
                        attempt_ok = false;
                        replay_integrity_failed = true;
                    }
                    self.machine.mem_mut().image_mut().write(om.addr, value);
                    if self.machine.has_stuck_cells() && self.machine.stuck_scrub(om.addr) {
                        // No stored value to read back against, so the
                        // corrupted recomputed word forces a retry itself.
                        attempt_ok = false;
                    }
                    att_recomputed += 1;
                    applied += 1;
                    recompute_alu += rc.alu_ops;
                    recompute_cycles_per_core[om.core as usize] += rc.cycles;
                    if let Some(led) = &mut self.hooks.ledger {
                        led.record_replay(rc.slice, rc.cycles, rc.alu_ops, rc.opbuf_reads);
                    }
                    if self.cfg.oracle {
                        restored_words.push(om.addr);
                    }
                }
            }
            restored_records += att_restored;
            recomputed_values += att_recomputed;
            let exiting = attempt_ok || attempt >= max_attempts;
            // Per-attempt data movement; the register-file restore is
            // charged once, on the attempt that completes recovery.
            let att_bytes = att_restored * LOG_RECORD_BYTES
                + (att_restored + att_recomputed) * 8
                + if exiting { arch_bytes } else { 0 };
            bytes_moved += att_bytes;
            let att_transfer = self.machine.mem().log_write_stall(att_bytes);
            let att_rc_stall = recompute_cycles_per_core.iter().copied().max().unwrap_or(0);
            let att_rr = if self.hooks.policy.overlaps_restore() {
                att_transfer.max(att_rc_stall)
            } else {
                att_transfer + att_rc_stall
            };
            restore_recompute_total += att_rr;
            if first {
                first_transfer = att_transfer;
                first_rc_stall = att_rc_stall;
            } else if self.machine.trace().enabled() {
                self.machine.trace().emit(
                    TraceEvent::span(
                        "recovery.retry",
                        "recovery",
                        TRACK_ENGINE,
                        detected_at_cycles,
                        att_rr,
                    )
                    .with_arg("attempt", u64::from(attempt))
                    .with_arg("restored", att_restored)
                    .with_arg("recomputed", att_recomputed),
                );
            }
            // Watchdog: a still-failing escalation that has burned through
            // its cycle budget is a hung recovery — abort it instead of
            // looping or silently proceeding best-effort. A *successful*
            // final attempt is never aborted, however late.
            let budget = self.cfg.resilience.watchdog_budget_cycles;
            if budget > 0 && !attempt_ok && restore_recompute_total > budget {
                self.report.recovery_hangs += 1;
                return Err(SimError::RecoveryHang {
                    budget_cycles: budget,
                    spent_cycles: restore_recompute_total,
                });
            }
            if exiting {
                break;
            }
            if torn_detected {
                // Repair the primary from the mirror: one full re-read of
                // the retained log, charged like the restore traffic.
                working = undone.clone();
                let repair_bytes: u64 = undone
                    .iter()
                    .map(|e| e.records.len() as u64 * LOG_RECORD_BYTES)
                    .sum();
                bytes_moved += repair_bytes;
                restore_recompute_total += self.machine.mem().log_write_stall(repair_bytes);
            }
        }
        let replay_retries = attempt - 1;
        let exhausted = !attempt_ok;
        if exhausted {
            self.report.escalation_exhausted += 1;
        }

        // Oracle: restored state must match the safe checkpoint's shadow.
        // While no error corrupts anything, a mismatch is an engine bug
        // and panics. A corruption can legitimately defeat the log (a
        // memory flip in a word the undone epochs never covered), and an
        // exhausted recovery-fault escalation leaves the image best-effort,
        // so in fault mode divergence is counted and reported.
        let mut shadow_divergence = 0u64;
        if let Some(shadow) = &safe.shadow_mem {
            match self.cfg.scheme {
                Scheme::GlobalCoordinated => {
                    if self.fault_mode {
                        shadow_divergence = self
                            .machine
                            .mem()
                            .image()
                            .words()
                            .iter()
                            .zip(shadow.iter())
                            .filter(|(got, want)| got != want)
                            .count() as u64;
                    } else {
                        assert_eq!(
                            self.machine.mem().image().words(),
                            shadow.as_slice(),
                            "recovered memory image differs from the safe checkpoint"
                        );
                    }
                }
                Scheme::LocalCoordinated => {
                    for w in &restored_words {
                        let got = self.machine.mem().image().read(*w);
                        let want = shadow[w.word_index()];
                        if got != want {
                            assert!(
                                self.fault_mode,
                                "restored word {w} differs from the safe checkpoint"
                            );
                            shadow_divergence += 1;
                        }
                    }
                }
            }
        }

        // Costs. Restore traffic and recomputation were charged per
        // attempt (scratchpad-based recomputation overlaps the restore
        // traffic within an attempt, Section II-B; attempts serialize).
        let dram = self.machine.config().mem.dram.latency_cycles;
        let coord = self
            .machine
            .config()
            .checkpoint_coordination_cycles(victim_mask.count_ones());
        let stall = dram + restore_recompute_total + coord;
        {
            let mem = self.machine.mem_mut().stats_mut();
            mem.log_record_reads += restored_records;
            mem.recovery_word_writes += restored_records + recomputed_values + arch_bytes / 8;
        }
        if self.machine.trace().enabled() {
            let trace = self.machine.trace();
            trace.emit(
                TraceEvent::span(
                    "recovery",
                    "recovery",
                    TRACK_ENGINE,
                    detected_at_cycles,
                    stall,
                )
                .with_arg("safe_epoch", safe.begins_epoch)
                .with_arg("restored", restored_records)
                .with_arg("recomputed", recomputed_values)
                .with_arg("victims", victim_mask),
            );
            // Sub-spans: log restore traffic, then Slice re-execution —
            // concurrent with the restore under a scratchpad policy,
            // serialized after it otherwise. Both nest inside "recovery"
            // and cover the first attempt; retries appear as their own
            // "recovery.retry" spans.
            let restore_start = detected_at_cycles + dram;
            trace.emit(
                TraceEvent::span(
                    "recovery.restore",
                    "recovery",
                    TRACK_ENGINE,
                    restore_start,
                    first_transfer,
                )
                .with_arg("records", restored_records)
                .with_arg("bytes", bytes_moved),
            );
            let replay_start = if self.hooks.policy.overlaps_restore() {
                restore_start
            } else {
                restore_start + first_transfer
            };
            trace.emit(
                TraceEvent::span(
                    "recovery.replay",
                    "recovery",
                    TRACK_ENGINE,
                    replay_start,
                    first_rc_stall,
                )
                .with_arg("slices", recomputed_values)
                .with_arg("alu_ops", recompute_alu),
            );
        }

        // Restore architectural state and resume the victims.
        let t_d = self.machine.mask_ticks(victim_mask);
        self.machine
            .restore_arch(&safe.arch, victim_mask, t_d + stall * TICKS_PER_CYCLE);
        match self.cfg.scheme {
            Scheme::GlobalCoordinated => self.machine.mem_mut().invalidate_all(),
            Scheme::LocalCoordinated => self.machine.mem_mut().invalidate_cores(victim_mask),
        }
        self.hooks
            .policy
            .on_rollback(safe.begins_epoch, victim_mask);

        // Checkpoints newer than the safe one are gone (global): their
        // epochs were undone and will be re-established.
        if self.cfg.scheme == Scheme::GlobalCoordinated {
            self.checkpoints.truncate(safe_idx + 1);
        }

        // The handled error, plus any other occurred-but-undetected error
        // whose corruption the rollback just erased, are done.
        let mut newly_handled = 0u64;
        for e in &mut self.errors {
            if e.occurred
                && !e.handled
                && e.occur >= safe.progress
                && victim_mask >> e.core & 1 == 1
            {
                e.handled = true;
                newly_handled += 1;
            }
        }
        if !self.errors[ei].handled {
            self.errors[ei].handled = true;
            newly_handled += 1;
        }

        // Degraded full-logging entry: a replay-integrity failure means a
        // recomputed value cannot be trusted, a generation fallback means
        // a commit tore, and retry exhaustion means the log itself is
        // suspect — in all three cases omission is suspended until the
        // next clean checkpoint commits.
        let degraded_entered = replay_integrity_failed || generation_fallbacks > 0 || exhausted;
        if degraded_entered {
            if !self.hooks.degraded {
                self.report.degraded_entries += 1;
            }
            self.hooks.degraded = true;
        }

        self.report.recoveries.push(RecoveryRecord {
            detected_at_progress,
            detected_at_cycles,
            safe_epoch: safe.begins_epoch,
            restored_records,
            recomputed_values,
            recompute_alu_ops: recompute_alu,
            stall_cycles: stall,
            waste_cycles: detected_at_cycles.saturating_sub(safe.cycles),
            victim_mask,
            shadow_divergence,
            replay_retries,
            generation_fallbacks,
            degraded_entered,
        });
        self.report.divergent_words += shadow_divergence;
        self.report.errors_handled += newly_handled;
        self.report.recovery_stall_cycles += stall;
        self.report.replay_retries += u64::from(replay_retries);
        self.report.generation_fallbacks += u64::from(generation_fallbacks);
        self.publish_ckpt_metrics();
        Ok(())
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
        let mut engine = BerEngine::new(m, NoOmission, cfg);
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
        let mut engine = BerEngine::new(m, NoOmission, cfg);
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
            let mut engine = BerEngine::new(m, NoOmission, cfg);
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
        let mut engine = BerEngine::new(m, NoOmission, cfg);
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
        let mut engine = BerEngine::new(m, NoOmission, cfg);
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
        let mut engine = BerEngine::new(m, NoOmission, cfg);
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

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::policy::NoOmission;
    use crate::schedule::{uniform_points, ErrorSchedule};
    use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
    use acr_mem::CoreId;
    use acr_sim::{Fault, MachineConfig, NoHooks};

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

    fn run_with(
        p: &Program,
        total: u64,
        resilience: ResilienceConfig,
    ) -> (BerReport, Vec<u64>, bool) {
        let errors = ErrorSchedule::at(&[total / 2 + total / 20], total / 20);
        let m = Machine::new(MachineConfig::with_cores(1), p);
        let mut e = BerEngine::new(
            m,
            NoOmission,
            BerConfig {
                scheme: Scheme::GlobalCoordinated,
                triggers: uniform_points(total, 6),
                errors,
                oracle: true,
                secondary: None,
                resilience,
            },
        );
        e.enable_ledger();
        let rep = e.run_to_completion().unwrap();
        let degraded_decisions = e
            .ledger()
            .map(|l| l.total(crate::ledger::OmitReason::LoggedDegraded) > 0)
            .unwrap_or(false);
        let mem = e.machine().mem().image().words().to_vec();
        (rep, mem, degraded_decisions)
    }

    fn fault_plan(kind: RecoveryFaultKind) -> Vec<RecoveryFault> {
        vec![RecoveryFault {
            at_recovery: 0,
            kind,
        }]
    }

    #[test]
    fn restored_word_flip_detected_and_repaired_by_retry() {
        let p = program();
        let (total, want) = reference(&p);
        let (rep, mem, _) = run_with(
            &p,
            total,
            ResilienceConfig {
                recovery_faults: fault_plan(RecoveryFaultKind::RestoredWordFlip { bit: 5 }),
                ..Default::default()
            },
        );
        assert_eq!(rep.recoveries.len(), 1);
        assert_eq!(rep.recoveries[0].replay_retries, 1);
        assert_eq!(rep.recoveries[0].generation_fallbacks, 0);
        assert!(!rep.recoveries[0].degraded_entered);
        assert_eq!(rep.divergent_words, 0);
        assert_eq!(mem, want);
    }

    #[test]
    fn torn_record_repaired_from_mirror() {
        let p = program();
        let (total, want) = reference(&p);
        let (rep, mem, _) = run_with(
            &p,
            total,
            ResilienceConfig {
                recovery_faults: fault_plan(RecoveryFaultKind::TornRecord { bit: 3 }),
                ..Default::default()
            },
        );
        assert_eq!(rep.recoveries[0].replay_retries, 1);
        assert_eq!(rep.divergent_words, 0);
        assert_eq!(mem, want);
        // The tear hits the very first record, so the aborted pass restores
        // nothing before detection — the total equals the clean run's —
        // but the mirror repair and the retried pass cost extra stall.
        let (clean, _, _) = run_with(&p, total, ResilienceConfig::default());
        assert_eq!(
            rep.recoveries[0].restored_records,
            clean.recoveries[0].restored_records
        );
        assert!(rep.recoveries[0].stall_cycles > clean.recoveries[0].stall_cycles);
    }

    #[test]
    fn crash_mid_restore_is_idempotent_under_retry() {
        let p = program();
        let (total, want) = reference(&p);
        let (rep, mem, _) = run_with(
            &p,
            total,
            ResilienceConfig {
                recovery_faults: fault_plan(RecoveryFaultKind::CrashMidRestore),
                ..Default::default()
            },
        );
        assert_eq!(rep.recoveries[0].replay_retries, 1);
        assert!(!rep.recoveries[0].degraded_entered);
        assert_eq!(rep.divergent_words, 0);
        assert_eq!(mem, want);
    }

    #[test]
    fn torn_commit_falls_back_a_generation_and_degrades() {
        let p = program();
        let (total, want) = reference(&p);
        let (rep, mem, degraded_decisions) = run_with(
            &p,
            total,
            ResilienceConfig {
                generations: 2,
                recovery_faults: fault_plan(RecoveryFaultKind::TornCommit),
                ..Default::default()
            },
        );
        assert_eq!(rep.recoveries[0].generation_fallbacks, 1);
        assert!(rep.recoveries[0].degraded_entered);
        assert_eq!(rep.degraded_entries, 1);
        assert_eq!(rep.divergent_words, 0);
        assert_eq!(mem, want);
        // The degraded window logged unconditionally until the next clean
        // commit, and the ledger attributed those decisions.
        assert!(degraded_decisions);
        // Fallback restores one generation further back than the clean run.
        let (clean, _, _) = run_with(
            &p,
            total,
            ResilienceConfig {
                generations: 2,
                ..Default::default()
            },
        );
        assert_eq!(
            rep.recoveries[0].safe_epoch + 1,
            clean.recoveries[0].safe_epoch
        );
    }

    #[test]
    fn watchdog_aborts_a_still_failing_escalation_over_budget() {
        let p = program();
        let (total, _) = reference(&p);
        let m = Machine::new(MachineConfig::with_cores(1), &p);
        let mut e = BerEngine::new(
            m,
            NoOmission,
            BerConfig {
                scheme: Scheme::GlobalCoordinated,
                triggers: uniform_points(total, 6),
                errors: ErrorSchedule::at(&[total / 2 + total / 20], total / 20),
                oracle: true,
                secondary: None,
                resilience: ResilienceConfig {
                    // The flip corrupts the first restore pass; a 1-cycle
                    // budget is exhausted before the retry can repair it.
                    recovery_faults: fault_plan(RecoveryFaultKind::RestoredWordFlip { bit: 5 }),
                    watchdog_budget_cycles: 1,
                    ..Default::default()
                },
            },
        );
        let err = e.run_to_completion().unwrap_err();
        assert!(
            matches!(err, SimError::RecoveryHang { budget_cycles: 1, spent_cycles } if spent_cycles > 1),
            "{err}"
        );
        assert_eq!(e.partial_report().recovery_hangs, 1);
    }

    #[test]
    fn generous_watchdog_budget_is_inert() {
        let p = program();
        let (total, want) = reference(&p);
        // A failing first attempt *under* budget must escalate normally:
        // the watchdog only aborts, it never changes a surviving run.
        let (rep, mem, _) = run_with(
            &p,
            total,
            ResilienceConfig {
                recovery_faults: fault_plan(RecoveryFaultKind::RestoredWordFlip { bit: 5 }),
                watchdog_budget_cycles: u64::MAX,
                ..Default::default()
            },
        );
        let (base, mem2, _) = run_with(
            &p,
            total,
            ResilienceConfig {
                recovery_faults: fault_plan(RecoveryFaultKind::RestoredWordFlip { bit: 5 }),
                ..Default::default()
            },
        );
        assert_eq!(rep.cycles, base.cycles);
        assert_eq!(rep.recovery_hangs, 0);
        assert_eq!(mem, mem2);
        assert_eq!(mem, want);
    }

    #[test]
    fn default_resilience_is_inert() {
        let p = program();
        let (total, _) = reference(&p);
        let (rep, mem, degraded) = run_with(&p, total, ResilienceConfig::default());
        let (rep2, mem2, degraded2) = run_with(&p, total, ResilienceConfig::default());
        assert_eq!(rep.cycles, rep2.cycles);
        assert_eq!(mem, mem2);
        assert_eq!(rep.recoveries[0].replay_retries, 0);
        assert_eq!(rep.recoveries[0].generation_fallbacks, 0);
        assert_eq!(rep.replay_retries, 0);
        assert_eq!(rep.degraded_entries, 0);
        assert!(!degraded && !degraded2);
    }

    /// A real fault landing on the exact cycle a checkpoint commits:
    /// the commit wins the tie. The corruption is deferred until the
    /// checkpoint has sealed its epoch and snapshotted clean state, so it
    /// is attributed to the epoch the checkpoint *opens* — the snapshot
    /// never captures it, and recovery restores a clean image.
    #[test]
    fn fault_on_commit_cycle_is_attributed_to_the_opened_epoch() {
        let p = program();
        let (total, want) = reference(&p);
        let trigger = total / 2;
        let m = Machine::new(MachineConfig::with_cores(1), &p);
        let mut e = BerEngine::new(
            m,
            NoOmission,
            BerConfig {
                scheme: Scheme::GlobalCoordinated,
                triggers: vec![trigger],
                errors: ErrorSchedule {
                    errors: vec![Fault {
                        at_progress: trigger,
                        core: CoreId(0),
                        kind: FaultKind::Crash,
                    }
                    .into()],
                    detection_latency: total / 20,
                },
                oracle: true,
                secondary: None,
                resilience: ResilienceConfig::default(),
            },
        );
        let rep = e.run_to_completion().unwrap();
        assert_eq!(rep.errors_handled, 1);
        assert_eq!(rep.faults_injected, 1);
        assert_eq!(rep.divergent_words, 0);
        assert_eq!(e.machine().mem().image().words(), want);
        // Deterministic epoch attribution: when the machine stops exactly
        // on the trigger, the commit point equals the fault's occurrence
        // and recovery rolls back only to the just-committed checkpoint
        // (epoch 1) — never past it, and never to a snapshot containing
        // the corruption. If the stop overshot the trigger, the occurrence
        // predates the commit and the start checkpoint is the safe one.
        let commit_progress = rep.intervals[0].progress;
        let expected_safe = u64::from(commit_progress == trigger);
        assert_eq!(rep.recoveries[0].safe_epoch, expected_safe);
    }
}
