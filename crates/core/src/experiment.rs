//! One-call runners for the paper's configurations.

use std::fmt;
use std::sync::Arc;

use acr_ckpt::{
    dense_fault_plan, detection_latency, replay_case, run_campaign_loads, shrink_case, BerConfig,
    BerEngine, BerReport, CampaignConfig, CampaignError, CampaignReport, CaseFailure, CkptError,
    DecisionLedger, ErrorSchedule, NoOmission, ResilienceConfig, Scheme, SecondaryStorage,
    ShrinkConfig, ShrinkOutcome,
};
use acr_energy::{edp, EnergyBreakdown, EnergyInputs, EnergyModel};
use acr_isa::{Program, ProgramError, Slice};
use acr_mem::MemStats;
use acr_sim::{Fault, Machine, MachineConfig, NoHooks, PcProfile, SimError, SimStats};
use acr_slicer::{instrument, SliceStats, SlicerConfig};
use acr_trace::{SharedSink, WorkerLoad};

use crate::addr_map::AddrMapConfig;
use crate::policy::AcrPolicy;
use crate::stats::AcrStats;

/// Errors from the experiment API. `Eq` is withheld because campaign
/// configuration errors carry the rejected `f64` latency fraction.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The workload program is malformed.
    Program(ProgramError),
    /// The simulator faulted (generator/pass bug).
    Sim(SimError),
    /// A fault-injection campaign could not establish its fault-free
    /// baseline.
    Campaign(CampaignError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Program(e) => write!(f, "invalid program: {e}"),
            ExperimentError::Sim(e) => write!(f, "simulation error: {e}"),
            ExperimentError::Campaign(e) => write!(f, "fault campaign error: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ProgramError> for ExperimentError {
    fn from(e: ProgramError) -> Self {
        ExperimentError::Program(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<CampaignError> for ExperimentError {
    fn from(e: CampaignError) -> Self {
        ExperimentError::Campaign(e)
    }
}

impl From<CkptError> for ExperimentError {
    fn from(e: CkptError) -> Self {
        ExperimentError::Campaign(e.into())
    }
}

/// Everything that parameterises a run: Table I machine, BER scheme,
/// checkpoint/error schedule shape, slicer threshold, `AddrMap` sizing,
/// energy model.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Machine configuration (Table I defaults).
    pub machine: MachineConfig,
    /// Coordination scheme (global unless reproducing Fig. 13).
    pub scheme: Scheme,
    /// Checkpoints per nominal execution (the paper's default sweeps use
    /// 25; Fig. 12 sweeps 25–100).
    pub num_checkpoints: u32,
    /// Error detection latency as a fraction of the checkpoint period
    /// (must be ≤ 1; Section II-A).
    pub detection_latency_frac: f64,
    /// Compiler-pass configuration (Slice-length threshold).
    pub slicer: SlicerConfig,
    /// `AddrMap` sizing.
    pub addrmap: AddrMapConfig,
    /// Shadow-memory verification of recoveries (tests).
    pub oracle: bool,
    /// Energy model.
    pub energy: EnergyModel,
    /// Explicit checkpoint trigger points (progress units). When set,
    /// they replace the uniform schedule — the hook for
    /// recomputation-aware placement (`acr::placement`, the paper's
    /// future-work idea in Sections V-D1/V-D3).
    pub custom_triggers: Option<Vec<u64>>,
    /// Optional second level of a hierarchical checkpointing framework
    /// (Section II-A): every k-th checkpoint also streams to slower
    /// storage, whose traffic ACR's size reductions cut proportionally.
    pub secondary: Option<SecondaryStorage>,
    /// Scratchpad-based recomputation (Section II-B): overlap recovery
    /// recomputation with restore traffic instead of serializing it.
    pub scratchpad: bool,
    /// Trace sink attached to checkpointed runs (the disabled default
    /// keeps the hot path identical to an untraced build).
    pub trace: SharedSink,
    /// Metrics sampling interval in cycles for checkpointed runs
    /// (0 = off). Samples land in the run's [`BerReport::series`].
    pub sample_interval: u64,
    /// Attribution profiling: per-PC retire accounting on the machine
    /// plus the omission-decision ledger on checkpointed runs. Purely
    /// observational — enabling it never changes cycle counts or
    /// checkpoint contents (the default keeps the hot path free of it).
    pub profile: bool,
    /// Torn-recovery resilience: checkpoint generations retained as
    /// fallbacks, the recovery watchdog, and (for tests/injection)
    /// scheduled recovery-window faults. The default (`generations: 1`,
    /// no faults) is behaviourally identical to a build without the
    /// escalation machinery.
    pub resilience: ResilienceConfig,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            machine: MachineConfig::default(),
            scheme: Scheme::GlobalCoordinated,
            num_checkpoints: 25,
            detection_latency_frac: 0.5,
            slicer: SlicerConfig::default(),
            addrmap: AddrMapConfig::default(),
            oracle: false,
            energy: EnergyModel::default(),
            custom_triggers: None,
            secondary: None,
            scratchpad: false,
            trace: SharedSink::disabled(),
            sample_interval: 0,
            profile: false,
            resilience: ResilienceConfig::default(),
        }
    }
}

impl ExperimentSpec {
    /// Sets the core count (chainable).
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.machine.num_cores = cores;
        self
    }

    /// Sets the number of checkpoints (chainable).
    pub fn with_checkpoints(mut self, n: u32) -> Self {
        self.num_checkpoints = n;
        self
    }

    /// Sets the Slice-length threshold (chainable).
    pub fn with_threshold(mut self, t: usize) -> Self {
        self.slicer.threshold = t;
        self
    }

    /// Sets the coordination scheme (chainable).
    pub fn with_scheme(mut self, s: Scheme) -> Self {
        self.scheme = s;
        self
    }

    /// Enables the recovery correctness oracle (chainable).
    pub fn with_oracle(mut self, on: bool) -> Self {
        self.oracle = on;
        self
    }

    /// Attaches a trace sink to checkpointed runs (chainable).
    pub fn with_trace(mut self, sink: SharedSink) -> Self {
        self.trace = sink;
        self
    }

    /// Enables interval metrics sampling on checkpointed runs
    /// (chainable).
    pub fn with_sample_interval(mut self, cycles: u64) -> Self {
        self.sample_interval = cycles;
        self
    }

    /// Enables attribution profiling — per-PC retire accounting and, on
    /// checkpointed runs, the omission-decision ledger (chainable).
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Sets the torn-recovery resilience configuration (chainable).
    pub fn with_resilience(mut self, r: ResilienceConfig) -> Self {
        self.resilience = r;
        self
    }
}

/// The outcome of one configuration run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration label (`No_Ckpt`, `Ckpt_NE`, `ReCkpt_E`, …).
    pub label: String,
    /// Execution time in cycles.
    pub cycles: u64,
    /// Execution time in seconds at the configured frequency.
    pub seconds: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Energy-delay product (J·s).
    pub edp: f64,
    /// Instruction-mix statistics.
    pub sim: SimStats,
    /// Memory statistics.
    pub mem: MemStats,
    /// BER engine report (absent for `No_Ckpt`).
    pub report: Option<BerReport>,
    /// ACR hardware statistics (absent for non-amnesic runs).
    pub acr: Option<AcrStats>,
    /// Compiler-pass statistics (absent for non-amnesic runs).
    pub slices: Option<SliceStats>,
    /// Per-PC attribution profile (present when the spec enabled
    /// profiling).
    pub profile: Option<PcProfile>,
    /// Omission-decision ledger (present when profiling a checkpointed
    /// run).
    pub ledger: Option<DecisionLedger>,
    /// Lifetime `(logged, omitted)` word totals from the log controller
    /// (present when profiling a checkpointed run) — the right-hand side
    /// of the ledger's conservation invariant.
    pub log_totals: Option<(u64, u64)>,
}

impl RunResult {
    /// Total checkpointed bytes (0 for `No_Ckpt`).
    pub fn checkpoint_bytes(&self) -> u64 {
        self.report
            .as_ref()
            .map(BerReport::total_checkpoint_bytes)
            .unwrap_or(0)
    }

    /// Percentage execution-time overhead relative to `base`.
    pub fn time_overhead_pct(&self, base: &RunResult) -> f64 {
        100.0 * (self.cycles as f64 - base.cycles as f64) / base.cycles as f64
    }

    /// Percentage energy overhead relative to `base`.
    pub fn energy_overhead_pct(&self, base: &RunResult) -> f64 {
        let a = self.energy.total_joules();
        let b = base.energy.total_joules();
        100.0 * (a - b) / b
    }

    /// Percentage EDP reduction this run achieves versus `other`
    /// (positive when this run is better).
    pub fn edp_reduction_pct(&self, other: &RunResult) -> f64 {
        100.0 * (other.edp - self.edp) / other.edp
    }
}

/// Outcome of one fault-injection campaign (see
/// [`Experiment::run_fault_campaign`]).
#[derive(Debug, Clone)]
pub struct CampaignRunResult {
    /// Configuration label (`Inject_Ckpt` / `Inject_ReCkpt`).
    pub label: String,
    /// Per-case records and aggregate counts.
    pub report: CampaignReport,
    /// Energy attributable to recovery across all cases (J).
    pub recovery_energy_joules: f64,
    /// Wall time of the recovery stalls at the configured frequency (s).
    pub recovery_seconds: f64,
    /// Host-side per-worker loads from the campaign's parallel runner
    /// (busy wall time, cases executed). Observability only — deliberately
    /// *outside* [`CampaignRunResult::report`], which stays byte-identical
    /// across jobs values. Feeds `host.jobs.*` in run manifests.
    pub host_loads: Vec<WorkerLoad>,
}

/// Runs the paper's configurations over one workload program, caching the
/// `No_Ckpt` baseline and the instrumented binary.
pub struct Experiment {
    raw: Program,
    spec: ExperimentSpec,
    /// Instrumented binary and pass statistics, cached per threshold
    /// behind shared handles: campaign planners/shrinkers/replayers and
    /// per-case policy factories all borrow the same immutable program
    /// instead of cloning it per case.
    instrumented: Option<(usize, Arc<Program>, Arc<SliceStats>)>,
    no_ckpt: Option<RunResult>,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("threads", &self.raw.num_threads())
            .field("spec", &self.spec.num_checkpoints)
            .finish()
    }
}

impl Experiment {
    /// Creates an experiment over a *raw* (uninstrumented) program.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Program`] if the program fails
    /// validation, or [`ExperimentError::Campaign`] with
    /// [`acr_ckpt::CkptError::NoCores`] for a zero-thread program (which
    /// validates vacuously but would build a machine with no cores to
    /// run or fault), or with [`acr_ckpt::CkptError::Unsupported`] for
    /// more than 64 threads or cores (victim, sharer and all-core masks
    /// are `u64`).
    pub fn new(raw: Program, spec: ExperimentSpec) -> Result<Self, ExperimentError> {
        raw.validate()?;
        if raw.num_threads() == 0 {
            return Err(CkptError::NoCores.into());
        }
        if raw.num_threads() > 64 || spec.machine.num_cores > 64 {
            let what = format!(
                "{} threads on {} cores: core masks are 64-bit, so at most 64",
                raw.num_threads(),
                spec.machine.num_cores
            );
            return Err(CkptError::Unsupported { what }.into());
        }
        Ok(Experiment {
            raw,
            spec,
            instrumented: None,
            no_ckpt: None,
        })
    }

    /// The specification ([`Experiment::set_spec`] replaces it).
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Replaces the spec, dropping each cache the new spec invalidates:
    /// the instrumented binary when the Slice threshold changes, the
    /// `No_Ckpt` baseline when the machine, the energy model or the
    /// profile flag (everything that run reads) changes.
    pub fn set_spec(&mut self, spec: ExperimentSpec) {
        if let Some((t, _, _)) = &self.instrumented {
            if *t != spec.slicer.threshold {
                self.instrumented = None;
            }
        }
        let old = &self.spec;
        if old.machine != spec.machine || old.energy != spec.energy || old.profile != spec.profile {
            self.no_ckpt = None;
        }
        self.spec = spec;
    }

    /// The raw program.
    pub fn program(&self) -> &Program {
        &self.raw
    }

    /// The instrumented program and pass statistics (cached per
    /// threshold).
    pub fn instrumented(&mut self) -> (&Program, &SliceStats) {
        self.instrumented_shared();
        let (_, p, s) = self.instrumented.as_ref().expect("just filled");
        (p, s)
    }

    /// Shared handles to the instrumented program and pass statistics —
    /// what campaign loops hand to per-case closures so no full `Program`
    /// clone ever happens per fault case.
    fn instrumented_shared(&mut self) -> (Arc<Program>, Arc<SliceStats>) {
        let threshold = self.spec.slicer.threshold;
        if self
            .instrumented
            .as_ref()
            .map(|(t, _, _)| *t != threshold)
            .unwrap_or(true)
        {
            let (p, s) = instrument(&self.raw, &self.spec.slicer);
            self.instrumented = Some((threshold, Arc::new(p), Arc::new(s)));
        }
        let (_, p, s) = self.instrumented.as_ref().expect("just filled");
        (Arc::clone(p), Arc::clone(s))
    }

    /// Total work (retired instructions) of the nominal execution — the
    /// unit checkpoint and error schedules are expressed in.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the baseline run.
    pub fn total_work(&mut self) -> Result<u64, ExperimentError> {
        Ok(self.run_no_ckpt()?.sim.retired)
    }

    /// `No_Ckpt`: error-free execution, no checkpointing (cached).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_no_ckpt(&mut self) -> Result<RunResult, ExperimentError> {
        if let Some(r) = &self.no_ckpt {
            return Ok(r.clone());
        }
        let mut machine = Machine::new(self.spec.machine, &self.raw);
        if self.spec.profile {
            machine.enable_profiling();
        }
        machine.run(&mut NoHooks, u64::MAX)?;
        let cycles = machine.cycles();
        let sim = *machine.stats();
        let mem = *machine.mem().stats();
        let mut result = self.finish("No_Ckpt".to_owned(), cycles, sim, mem, None, None, None);
        result.profile = machine.take_profile();
        self.no_ckpt = Some(result.clone());
        Ok(result)
    }

    fn ber_config(&mut self, errors: u32) -> Result<BerConfig, ExperimentError> {
        let total = self.total_work()?;
        let schedule = if errors == 0 {
            ErrorSchedule::none()
        } else {
            ErrorSchedule::try_uniform(
                total,
                errors,
                self.spec.num_checkpoints,
                self.spec.detection_latency_frac,
            )?
        };
        let triggers = match &self.spec.custom_triggers {
            Some(t) => t.clone(),
            None => acr_ckpt::uniform_points(total, self.spec.num_checkpoints),
        };
        Ok(BerConfig {
            scheme: self.spec.scheme,
            triggers,
            errors: schedule,
            oracle: self.spec.oracle,
            secondary: self.spec.secondary,
            resilience: self.spec.resilience.clone(),
        })
    }

    /// `Ckpt_NE` / `Ckpt_E[,Loc]`: the non-amnesic baseline with `errors`
    /// injected errors.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, and rejects a `spec.resilience` the
    /// engine cannot run (see [`BerEngine::new`]).
    pub fn run_ckpt(&mut self, errors: u32) -> Result<RunResult, ExperimentError> {
        let cfg = self.ber_config(errors)?;
        let mut machine = Machine::new(self.spec.machine, &self.raw);
        self.attach_observability(&mut machine);
        let mut engine = BerEngine::new(machine, NoOmission, cfg)?;
        if self.spec.profile {
            engine.enable_ledger();
        }
        let report = engine.run_to_completion()?;
        let label = label_for("Ckpt", errors, self.spec.scheme);
        let mut result = self.finish(
            label,
            report.cycles,
            report.sim,
            report.mem,
            Some(report),
            None,
            None,
        );
        result.profile = engine.machine_mut().take_profile();
        result.log_totals = self.spec.profile.then(|| engine.log_totals());
        result.ledger = engine.take_ledger();
        Ok(result)
    }

    /// `ReCkpt_NE` / `ReCkpt_E[,Loc]`: ACR with `errors` injected errors.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, and rejects a `spec.resilience` the
    /// engine cannot run (see [`BerEngine::new`]).
    pub fn run_reckpt(&mut self, errors: u32) -> Result<RunResult, ExperimentError> {
        let cfg = self.ber_config(errors)?;
        let label = label_for("ReCkpt", errors, self.spec.scheme);
        self.run_acr_engine(cfg, label)
    }

    /// ACR under errors that each corrupt state (one per fault): the
    /// trace/metrics runner behind `acr_cli trace`. Detection follows the
    /// spec's latency fraction, the shadow-memory oracle is forced on, and
    /// every fault becomes a recovery with Slice-replay sub-spans in the
    /// trace.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; rejects a detection latency outside
    /// `[0, 1]` of the checkpoint period.
    pub fn run_reckpt_faulted(&mut self, faults: Vec<Fault>) -> Result<RunResult, ExperimentError> {
        let total = self.total_work()?;
        let mut cfg = self.ber_config(0)?;
        cfg.errors = ErrorSchedule {
            errors: faults.into_iter().map(Into::into).collect(),
            detection_latency: detection_latency(
                total,
                self.spec.num_checkpoints,
                self.spec.detection_latency_frac,
            )?,
        };
        cfg.oracle = true;
        self.run_acr_engine(cfg, "ReCkpt_F".to_owned())
    }

    fn run_acr_engine(
        &mut self,
        cfg: BerConfig,
        label: String,
    ) -> Result<RunResult, ExperimentError> {
        let spec_machine = self.spec.machine;
        let addrmap = self.spec.addrmap;
        let (program, slice_stats) = self.instrumented_shared();
        let mut machine = Machine::new(spec_machine, &program);
        self.attach_observability(&mut machine);
        let policy = AcrPolicy::new(program.slices(), addrmap, program.num_threads())
            .with_scratchpad(self.spec.scratchpad)
            .with_rejected_pcs(&slice_stats.rejected_store_pcs)
            .with_generations(cfg.resilience.generations);
        let mut engine = BerEngine::new(machine, policy, cfg)?;
        if self.spec.profile {
            engine.enable_ledger();
        }
        let report = engine.run_to_completion()?;
        let acr = engine.policy().stats();
        let mut result = self.finish(
            label,
            report.cycles,
            report.sim,
            report.mem,
            Some(report),
            Some(acr),
            Some((*slice_stats).clone()),
        );
        result.profile = engine.machine_mut().take_profile();
        result.log_totals = self.spec.profile.then(|| engine.log_totals());
        result.ledger = engine.take_ledger();
        Ok(result)
    }

    /// Attaches the spec's trace sink and sampling interval to a machine
    /// about to run under the BER engine. No-ops on the default spec.
    fn attach_observability(&self, machine: &mut Machine) {
        if self.spec.trace.enabled() {
            machine.set_trace_sink(self.spec.trace.clone());
        }
        if self.spec.sample_interval > 0 {
            machine.enable_sampling(self.spec.sample_interval);
        }
        if self.spec.profile {
            machine.enable_profiling();
        }
    }

    /// Runs a deterministic fault-injection campaign over this workload:
    /// one fresh machine (and, when `amnesic`, a fresh [`AcrPolicy`]) per
    /// planned fault, each recovery differentially verified against the
    /// reference interpreter. The campaign's coordination scheme follows
    /// `cfg.scheme`, not the experiment spec.
    ///
    /// # Errors
    ///
    /// Fails only when the fault-free baseline runs fail or disagree;
    /// per-fault failures are recorded in the report, never dropped.
    pub fn run_fault_campaign(
        &mut self,
        cfg: &CampaignConfig,
        amnesic: bool,
    ) -> Result<CampaignRunResult, ExperimentError> {
        let machine = self.spec.machine;
        let (label, (report, host_loads)) = if amnesic {
            let (program, policy) = self.campaign_policy(cfg);
            let report = run_campaign_loads(&program, machine, cfg, policy)?;
            ("Inject_ReCkpt", report)
        } else {
            (
                "Inject_Ckpt",
                run_campaign_loads(&self.raw, machine, cfg, || NoOmission)?,
            )
        };
        // Energy attributable to recovery alone: log reads, restore
        // writes, Slice recomputation, plus static energy over the stall
        // cycles.
        let t = report.totals();
        let inputs = EnergyInputs {
            log_record_reads: t.restored_records,
            recovery_word_writes: t.restored_records + t.recomputed_values,
            slice_alu_ops: t.recompute_alu_ops,
            cycles: t.recovery_stall_cycles,
            cores: machine.num_cores,
            ..EnergyInputs::default()
        };
        let recovery_energy_joules = self.spec.energy.energy(&inputs).total_joules();
        Ok(CampaignRunResult {
            label: label.to_owned(),
            recovery_energy_joules,
            recovery_seconds: machine.cycles_to_seconds(t.recovery_stall_cycles),
            report,
            host_loads,
        })
    }

    /// The instrumented program plus a factory building one fresh
    /// [`AcrPolicy`] per fault case, retaining as many generations as the
    /// case engines do. All policies share one Slice table: each bumps a
    /// refcount instead of cloning it.
    fn campaign_policy(
        &mut self,
        cfg: &CampaignConfig,
    ) -> (Arc<Program>, impl Fn() -> AcrPolicy + Sync) {
        let addrmap = self.spec.addrmap;
        let scratchpad = self.spec.scratchpad;
        let generations = cfg.retained_generations();
        let (program, _) = self.instrumented_shared();
        let slices: Arc<[Slice]> = program.slices().into();
        let num_threads = program.num_threads();
        let policy = move || {
            AcrPolicy::new(Arc::clone(&slices), addrmap, num_threads)
                .with_scratchpad(scratchpad)
                .with_generations(generations)
        };
        (program, policy)
    }

    /// Plans one *dense* multi-fault case over this workload: the seeded
    /// plan a campaign would spread over `cfg.count` cases, taken as a
    /// single case's fault list. The program the plan targets matches
    /// the policy selection of [`Experiment::run_fault_campaign`] —
    /// the instrumented program when `amnesic`, the raw one otherwise —
    /// so the plan is directly consumable by
    /// [`Experiment::shrink_fault_case`].
    ///
    /// # Errors
    ///
    /// Fails like a campaign would: broken fault-free baseline, or no
    /// injectable fault kind for the requested set.
    pub fn plan_dense_faults(
        &mut self,
        cfg: &CampaignConfig,
        amnesic: bool,
    ) -> Result<Vec<Fault>, ExperimentError> {
        let machine = self.spec.machine;
        if amnesic {
            let (program, _) = self.instrumented_shared();
            Ok(dense_fault_plan(&program, machine, cfg)?)
        } else {
            Ok(dense_fault_plan(&self.raw, machine, cfg)?)
        }
    }

    /// Shrinks one failing fault case of this workload to a minimal
    /// reproducer with the same postmortem trigger (delta debugging; see
    /// `acr_ckpt::shrink_case`). Policy selection mirrors
    /// [`Experiment::run_fault_campaign`]: a fresh [`AcrPolicy`] per
    /// evaluation when `amnesic`, [`NoOmission`] otherwise.
    ///
    /// # Errors
    ///
    /// Fails when the baseline breaks or when the original plan does not
    /// fail at all (nothing to shrink).
    pub fn shrink_fault_case(
        &mut self,
        cfg: &CampaignConfig,
        amnesic: bool,
        case_index: usize,
        faults: &[Fault],
        shrink_cfg: &ShrinkConfig,
    ) -> Result<ShrinkOutcome, ExperimentError> {
        let machine = self.spec.machine;
        if amnesic {
            let (program, policy) = self.campaign_policy(cfg);
            Ok(shrink_case(
                &program, machine, cfg, case_index, faults, shrink_cfg, policy,
            )?)
        } else {
            Ok(shrink_case(
                &self.raw,
                machine,
                cfg,
                case_index,
                faults,
                shrink_cfg,
                || NoOmission,
            )?)
        }
    }

    /// Replays one fault plan exactly once under the campaign policy
    /// selection and reports whether — and how — it fails. `Ok(None)`
    /// means the plan no longer fails (the repro is stale). This backs
    /// `acr_cli shrink --replay`.
    ///
    /// # Errors
    ///
    /// Fails on an empty plan, an out-of-range latency, or a broken
    /// fault-free baseline.
    pub fn replay_fault_case(
        &mut self,
        cfg: &CampaignConfig,
        amnesic: bool,
        case_index: usize,
        faults: &[Fault],
    ) -> Result<Option<CaseFailure>, ExperimentError> {
        let machine = self.spec.machine;
        if amnesic {
            let (program, policy) = self.campaign_policy(cfg);
            Ok(replay_case(
                &program, machine, cfg, case_index, faults, policy,
            )?)
        } else {
            Ok(replay_case(
                &self.raw,
                machine,
                cfg,
                case_index,
                faults,
                || NoOmission,
            )?)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        label: String,
        cycles: u64,
        sim: SimStats,
        mem: MemStats,
        report: Option<BerReport>,
        acr: Option<AcrStats>,
        slices: Option<SliceStats>,
    ) -> RunResult {
        let seconds = self.spec.machine.cycles_to_seconds(cycles);
        let a = acr.unwrap_or_default();
        let inputs = EnergyInputs {
            alu_ops: sim.alu_ops,
            mul_ops: sim.mul_ops,
            div_ops: sim.div_ops,
            instructions: sim.retired + sim.assocs,
            l1d_accesses: mem.l1d_accesses(),
            l2_accesses: mem.l2_hits + mem.l2_misses,
            dram_line_reads: mem.dram_line_reads,
            dram_line_writes: mem.dram_line_writes,
            coherence_messages: mem.coherence_messages,
            c2c_transfers: mem.c2c_transfers,
            log_record_writes: mem.log_record_writes,
            log_record_reads: mem.log_record_reads,
            recovery_word_writes: mem.recovery_word_writes,
            addrmap_writes: a.addrmap_writes,
            addrmap_reads: a.addrmap_reads,
            opbuf_writes: a.opbuf_writes,
            opbuf_reads: a.opbuf_reads,
            slice_alu_ops: a.slice_alu_ops,
            cycles,
            cores: self.raw.num_threads() as u32,
        };
        let energy = self.spec.energy.energy(&inputs);
        RunResult {
            label,
            cycles,
            seconds,
            edp: edp(energy.total_joules(), seconds),
            energy,
            sim,
            mem,
            report,
            acr,
            slices,
            profile: None,
            ledger: None,
            log_totals: None,
        }
    }
}

fn label_for(base: &str, errors: u32, scheme: Scheme) -> String {
    let err = if errors == 0 { "NE" } else { "E" };
    match scheme {
        Scheme::GlobalCoordinated => format!("{base}_{err}"),
        Scheme::LocalCoordinated => format!("{base}_{err},Loc"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_isa::{AluOp, ProgramBuilder, Reg};

    /// A kernel whose stores are all recomputable (short arithmetic
    /// producers) and which re-writes the same addresses every sweep, so
    /// first updates across checkpoint intervals have recomputable old
    /// values for ACR to omit.
    fn recomputable_kernel(threads: usize, iters: u64) -> Program {
        let mut b = ProgramBuilder::new(threads);
        b.set_mem_bytes(1 << 20);
        for t in 0..threads as u32 {
            let base = u64::from(t) * 131072;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let outer = tb.begin_loop(Reg(8), Reg(9), 12);
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

    fn spec() -> ExperimentSpec {
        ExperimentSpec::default()
            .with_cores(2)
            .with_checkpoints(5)
            .with_oracle(true)
    }

    #[test]
    fn reckpt_reduces_checkpoint_size_with_identical_result() {
        let p = recomputable_kernel(2, 300);
        let mut exp = Experiment::new(p, spec()).unwrap();
        let ckpt = exp.run_ckpt(0).unwrap();
        let reckpt = exp.run_reckpt(0).unwrap();
        assert_eq!(ckpt.label, "Ckpt_NE");
        assert_eq!(reckpt.label, "ReCkpt_NE");
        assert!(
            reckpt.checkpoint_bytes() < ckpt.checkpoint_bytes(),
            "ACR must shrink checkpoints: {} vs {}",
            reckpt.checkpoint_bytes(),
            ckpt.checkpoint_bytes()
        );
        let r = reckpt.report.as_ref().unwrap();
        assert!(r.overall_reduction_pct() > 10.0);
        // Functionally identical to the baseline (paper's premise).
        assert_eq!(
            ckpt.sim.stores, reckpt.sim.stores,
            "instrumentation must not change store counts"
        );
    }

    #[test]
    fn reckpt_with_error_recovers_via_recomputation() {
        let p = recomputable_kernel(2, 300);
        let mut exp = Experiment::new(p, spec()).unwrap();
        let reckpt_e = exp.run_reckpt(1).unwrap();
        assert_eq!(reckpt_e.label, "ReCkpt_E");
        let report = reckpt_e.report.as_ref().unwrap();
        assert_eq!(report.errors_handled, 1);
        let rec = &report.recoveries[0];
        assert!(
            rec.recomputed_values > 0,
            "recovery must exercise recomputation"
        );
        let acr = reckpt_e.acr.as_ref().unwrap();
        assert!(acr.slice_alu_ops > 0);
        assert_eq!(acr.recomputed_values, rec.recomputed_values);
    }

    #[test]
    fn fault_campaign_recovers_and_recomputes() {
        let p = recomputable_kernel(2, 200);
        let mut exp = Experiment::new(p, spec()).unwrap();
        let cfg = CampaignConfig {
            seed: 5,
            count: 12,
            num_checkpoints: 5,
            ..CampaignConfig::default()
        };
        let acr = exp.run_fault_campaign(&cfg, true).unwrap();
        assert_eq!(acr.label, "Inject_ReCkpt");
        assert_eq!(acr.report.recovered(), 12, "{}", acr.report.summary());
        assert!(
            acr.report.recomputed_values() > 0,
            "amnesic recovery must exercise Slice re-execution"
        );
        assert!(acr.recovery_energy_joules > 0.0);
        // The non-amnesic baseline converges on the same plan.
        let base = exp.run_fault_campaign(&cfg, false).unwrap();
        assert_eq!(base.label, "Inject_Ckpt");
        assert_eq!(base.report.recovered(), 12, "{}", base.report.summary());
        assert_eq!(base.report.recomputed_values(), 0);
    }

    #[test]
    fn reckpt_survives_corrupt_replay_by_retrying_and_degrading() {
        use acr_sim::{RecoveryFault, RecoveryFaultKind};
        let p = recomputable_kernel(2, 300);
        let s = spec().with_resilience(ResilienceConfig {
            generations: 2,
            recovery_faults: vec![RecoveryFault {
                at_recovery: 0,
                kind: RecoveryFaultKind::ReplayInput { bit: 5 },
            }],
            ..ResilienceConfig::default()
        });
        let mut exp = Experiment::new(p.clone(), s).unwrap();
        let r = exp.run_reckpt(1).unwrap();
        let report = r.report.as_ref().unwrap();
        assert_eq!(report.errors_handled, 1);
        assert!(
            report.replay_retries >= 1,
            "a corrupt Slice replay must be caught by the omitted-record \
             checksum and retried"
        );
        assert_eq!(
            report.degraded_entries, 1,
            "untrustworthy replay must open a degraded full-logging window"
        );
        assert_eq!(report.divergent_words, 0);
        // The degraded window closes at the next clean commit and the run
        // converges to the same final state as an unfaulted recovery.
        let clean = Experiment::new(p, spec()).unwrap().run_reckpt(1).unwrap();
        assert_eq!(r.sim.retired, clean.sim.retired);
    }

    #[test]
    fn acr_campaign_survives_nested_recovery_faults() {
        let p = recomputable_kernel(2, 200);
        let mut exp = Experiment::new(p, spec()).unwrap();
        let cfg = CampaignConfig {
            seed: 9,
            count: 10,
            num_checkpoints: 5,
            recovery_faults: true,
            ..CampaignConfig::default()
        };
        let run = exp.run_fault_campaign(&cfg, true).unwrap();
        let r = &run.report;
        assert!(r.has_recovery_faults());
        assert_eq!(r.recovered(), 10, "{}", r.summary());
        assert_eq!(r.totals().divergent_words, 0);
        assert!(
            r.replay_retries() + r.generation_fallbacks() > 0,
            "{}",
            r.summary()
        );
        // Escalation work is charged, so recovery costs energy beyond the
        // clean-campaign floor.
        assert!(run.recovery_energy_joules > 0.0);
    }

    #[test]
    fn overhead_ordering_matches_paper() {
        // No_Ckpt <= ReCkpt_NE <= Ckpt_NE in time, and the E variants cost
        // more than their NE counterparts.
        let p = recomputable_kernel(2, 300);
        let mut exp = Experiment::new(p, spec()).unwrap();
        let no = exp.run_no_ckpt().unwrap();
        let ckpt_ne = exp.run_ckpt(0).unwrap();
        let reckpt_ne = exp.run_reckpt(0).unwrap();
        let ckpt_e = exp.run_ckpt(1).unwrap();
        assert!(no.cycles < reckpt_ne.cycles);
        assert!(reckpt_ne.cycles <= ckpt_ne.cycles);
        assert!(ckpt_ne.cycles < ckpt_e.cycles);
        assert!(ckpt_ne.time_overhead_pct(&no) > 0.0);
        assert!(reckpt_ne.edp_reduction_pct(&ckpt_ne) >= 0.0);
    }

    #[test]
    fn local_scheme_labels_and_runs() {
        let p = recomputable_kernel(4, 150);
        let s = spec().with_cores(4).with_scheme(Scheme::LocalCoordinated);
        let mut exp = Experiment::new(p, s).unwrap();
        let r = exp.run_ckpt(0).unwrap();
        assert_eq!(r.label, "Ckpt_NE,Loc");
        let r = exp.run_reckpt(1).unwrap();
        assert_eq!(r.label, "ReCkpt_E,Loc");
        assert_eq!(r.report.as_ref().unwrap().errors_handled, 1);
    }

    /// A `No_Ckpt` baseline cached under one machine or energy model is
    /// never served under another: after each `set_spec` the result
    /// equals a fresh experiment's.
    #[test]
    fn set_spec_never_serves_a_stale_baseline() {
        let fresh = |spec: &ExperimentSpec| {
            let mut exp = Experiment::new(recomputable_kernel(2, 60), spec.clone()).expect("valid");
            exp.run_no_ckpt().expect("runs")
        };
        let same = |a: &RunResult, b: &RunResult| {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
            assert_eq!(
                a.energy.total_joules().to_bits(),
                b.energy.total_joules().to_bits()
            );
        };
        let mut exp = Experiment::new(recomputable_kernel(2, 60), spec()).expect("valid");
        let first = exp.run_no_ckpt().expect("runs");
        // Idle cores leave a two-thread kernel's run alone, so the new
        // machine also multiplies more slowly.
        let mut other_machine = spec().with_cores(8);
        other_machine.machine.mul_latency *= 3;
        exp.set_spec(other_machine.clone());
        let moved = exp.run_no_ckpt().expect("runs");
        same(&moved, &fresh(&other_machine));
        assert_ne!(
            moved.cycles, first.cycles,
            "the machine must reach the baseline"
        );
        let mut costly = other_machine;
        costly.energy.alu_pj *= 2.0;
        exp.set_spec(costly.clone());
        same(&exp.run_no_ckpt().expect("runs"), &fresh(&costly));
    }

    #[test]
    fn threshold_change_reinstruments() {
        let p = recomputable_kernel(1, 100);
        let mut exp = Experiment::new(p, spec().with_cores(1)).unwrap();
        let (_, s10) = exp.instrumented();
        let sliced_10 = s10.sliced_stores;
        let mut new_spec = exp.spec().clone();
        new_spec.slicer.threshold = 1;
        exp.set_spec(new_spec);
        let (_, s1) = exp.instrumented();
        assert!(s1.sliced_stores <= sliced_10);
    }

    #[test]
    fn profiled_run_is_cycle_identical_and_ledger_conserves_decisions() {
        use acr_ckpt::OmitReason;
        let p = recomputable_kernel(2, 300);
        let base = Experiment::new(p.clone(), spec())
            .unwrap()
            .run_reckpt(1)
            .unwrap();
        let mut exp = Experiment::new(p, spec().with_profile(true)).unwrap();
        let r = exp.run_reckpt(1).unwrap();
        // Observation must not perturb the run.
        assert_eq!(r.cycles, base.cycles, "profiling must not change timing");
        assert_eq!(r.checkpoint_bytes(), base.checkpoint_bytes());
        assert_eq!(r.sim.retired, base.sim.retired);
        // Conservation: every first-update decision appears in the ledger
        // under exactly one reason, and the per-reason split matches the
        // log controller's lifetime word totals.
        let ledger = r.ledger.as_ref().expect("profiled run carries ledger");
        let (logged, omitted) = r.log_totals.expect("profiled run carries totals");
        assert_eq!(ledger.total_omitted(), omitted);
        assert_eq!(ledger.total_logged(), logged);
        assert_eq!(ledger.total_decisions(), logged + omitted);
        let by_reason: u64 = OmitReason::ALL.iter().map(|r| ledger.total(*r)).sum();
        assert_eq!(by_reason, ledger.total_decisions());
        assert!(ledger.total(OmitReason::OmittedSlice) > 0);
        // Replay costs were attributed to Slices during the recovery.
        assert!(ledger.replays().next().is_some(), "error run must replay");
        // The per-PC profile is populated and internally consistent.
        let prof = r.profile.as_ref().expect("profiled run carries profile");
        assert!(prof.total_retires() > 0);
        assert_eq!(prof.tick_histogram().count(), prof.total_retires());
        assert!(prof.total_ticks() >= prof.total_retires());
    }

    #[test]
    fn energy_and_edp_populated() {
        let p = recomputable_kernel(1, 100);
        let mut exp = Experiment::new(p, spec().with_cores(1)).unwrap();
        let r = exp.run_ckpt(0).unwrap();
        assert!(r.energy.total_joules() > 0.0);
        assert!(r.edp > 0.0);
        assert!(r.seconds > 0.0);
    }

    /// Core masks are `u64`: more than 64 threads or cores is a typed
    /// error, not a wrapped shift or a tracker assertion.
    #[test]
    fn more_than_64_cores_is_rejected() {
        use acr_ckpt::{CampaignError, CkptError};
        for (threads, cores) in [(2, 65), (65, 65)] {
            let err = Experiment::new(recomputable_kernel(threads, 10), spec().with_cores(cores))
                .expect_err("more than 64 cores");
            assert!(matches!(
                err,
                ExperimentError::Campaign(CampaignError::Config(CkptError::Unsupported { .. }))
            ));
        }
        assert!(Experiment::new(recomputable_kernel(2, 10), spec().with_cores(64)).is_ok());
    }

    /// Runs `run_ckpt` and `run_reckpt` under `spec` and expects both to
    /// reject the engine configuration with a typed error naming `reason`.
    fn assert_engine_config_rejected(spec: ExperimentSpec, reason: &str) {
        use acr_ckpt::{CampaignError, CkptError};
        let mut exp = Experiment::new(recomputable_kernel(2, 50), spec).unwrap();
        for err in [exp.run_ckpt(1).unwrap_err(), exp.run_reckpt(1).unwrap_err()] {
            assert!(matches!(
                err,
                ExperimentError::Campaign(CampaignError::Config(CkptError::Unsupported { .. }))
            ));
            assert!(err.to_string().contains(reason), "{err}");
        }
    }

    #[test]
    fn recovery_faults_under_the_local_scheme_are_a_typed_error() {
        let spec = spec()
            .with_cores(2)
            .with_scheme(Scheme::LocalCoordinated)
            .with_resilience(ResilienceConfig {
                recovery_faults: vec![acr_sim::RecoveryFault {
                    at_recovery: 0,
                    kind: acr_sim::RecoveryFaultKind::CrashMidRestore,
                }],
                ..ResilienceConfig::default()
            });
        assert_engine_config_rejected(spec, "global coordinated");
    }

    #[test]
    fn zero_generations_is_a_typed_error() {
        let spec = spec().with_cores(2).with_resilience(ResilienceConfig {
            generations: 0,
            ..ResilienceConfig::default()
        });
        assert_engine_config_rejected(spec, "generation");
    }
}
