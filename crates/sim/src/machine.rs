//! The multicore machine: deterministic scheduling of N cores over a
//! shared memory system.

use std::fmt;

use acr_isa::{Instr, Program};
use acr_mem::{CoreId, MemSystem};
use acr_trace::{MetricsRegistry, Sampler, SharedSink, TimeSeries, TraceEvent, TRACK_ENGINE};

use crate::config::MachineConfig;
use crate::core_model::{CoreModel, CoreSnapshot, StepKind};
use crate::hooks::ExecHooks;
use crate::profile::{PcProfile, RetireClass};
use crate::stats::SimStats;
use crate::TICKS_PER_CYCLE;

/// Maximum local-time skew (in ticks) a core may run ahead of the slowest
/// runnable core before the scheduler switches. Bounds the coherence
/// interleaving error while keeping scheduling cheap.
const SKEW_QUANTUM_TICKS: u64 = 400;

/// Maximum instructions per scheduling batch, so stop conditions are
/// checked often enough.
const BATCH_INSTRS: u64 = 1024;

/// Simulator execution errors (program/generator bugs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Memory access outside the data image.
    OutOfBounds {
        /// Faulting core.
        core: CoreId,
        /// Faulting byte address.
        addr: u64,
    },
    /// Misaligned access.
    Misaligned {
        /// Faulting core.
        core: CoreId,
        /// Faulting byte address.
        addr: u64,
    },
    /// `ASSOC-ADDR` with no pending store.
    AssocWithoutStore {
        /// Faulting core.
        core: CoreId,
        /// Program counter of the `ASSOC-ADDR`.
        pc: u32,
    },
    /// A recovery escalation exceeded its watchdog cycle budget and was
    /// aborted as hung. Raised by the checkpoint engine (`acr-ckpt`), not
    /// the machine itself; it lives here so `run_to_completion` keeps a
    /// single error type.
    RecoveryHang {
        /// The configured escalation cycle budget.
        budget_cycles: u64,
        /// Stall cycles the escalation had consumed when aborted.
        spent_cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { core, addr } => {
                write!(f, "core {}: access at {addr:#x} out of bounds", core.0)
            }
            SimError::Misaligned { core, addr } => {
                write!(f, "core {}: misaligned access at {addr:#x}", core.0)
            }
            SimError::AssocWithoutStore { core, pc } => {
                write!(
                    f,
                    "core {}@{pc}: assoc-addr without preceding store",
                    core.0
                )
            }
            SimError::RecoveryHang {
                budget_cycles,
                spent_cycles,
            } => write!(
                f,
                "recovery watchdog: escalation exceeded its {budget_cycles}-cycle \
                 budget ({spent_cycles} cycles spent)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The retired-instruction target was reached (checkpoint/error point).
    ProgressReached,
    /// Every core halted.
    AllHalted,
}

/// The simulated machine.
///
/// ```
/// use acr_isa::{AluOp, ProgramBuilder, Reg};
/// use acr_sim::{Machine, MachineConfig, NoHooks};
///
/// let mut b = ProgramBuilder::new(1);
/// b.set_mem_bytes(4096);
/// let t = b.thread(0);
/// t.imm(Reg(1), 21);
/// t.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
/// t.store(Reg(2), Reg(0), 64);
/// t.halt();
/// let program = b.build();
///
/// let mut machine = Machine::new(MachineConfig::with_cores(1), &program);
/// machine.run(&mut NoHooks, u64::MAX)?;
/// assert_eq!(machine.mem().image().read(acr_mem::WordAddr::new(64)), 42);
/// assert!(machine.cycles() > 0);
/// # Ok::<(), acr_sim::SimError>(())
/// ```
pub struct Machine<'p> {
    cfg: MachineConfig,
    program: &'p Program,
    cores: Vec<CoreModel>,
    mem: MemSystem,
    stats: SimStats,
    trace: SharedSink,
    registry: MetricsRegistry,
    sampler: Option<Sampler>,
    profiler: Option<Box<PcProfile>>,
    stuck: Vec<crate::StuckCell>,
}

impl fmt::Debug for Machine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("retired", &self.total_retired())
            .field("cycles", &self.cycles())
            .finish()
    }
}

impl<'p> Machine<'p> {
    /// Builds a machine for `program` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the program has more threads than the machine has cores
    /// (the paper pins one thread per core).
    pub fn new(cfg: MachineConfig, program: &'p Program) -> Self {
        assert!(
            program.num_threads() <= cfg.num_cores as usize,
            "program has {} threads but machine has {} cores",
            program.num_threads(),
            cfg.num_cores
        );
        let mem = MemSystem::new(cfg.mem, cfg.num_cores, program.mem_bytes());
        let mut cores: Vec<CoreModel> = (0..program.num_threads() as u32)
            .map(|i| CoreModel::new(CoreId(i)))
            .collect();
        // Cores with no thread are parked (halted) from the start.
        for c in &mut cores {
            let _ = c;
        }
        Machine {
            cfg,
            program,
            cores,
            mem,
            stats: SimStats::default(),
            trace: SharedSink::disabled(),
            registry: MetricsRegistry::new(),
            sampler: None,
            profiler: None,
            stuck: Vec::new(),
        }
    }

    /// Installs a trace sink; events from the machine, its memory system
    /// and any attached engine flow into one shared stream. The default
    /// (disabled) sink keeps the hot path to a single cached-bool branch.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.mem.set_trace(sink.clone());
        self.trace = sink;
    }

    /// The installed trace sink handle (cheap to clone; engines attach
    /// through this so all layers share the stream).
    pub fn trace(&self) -> &SharedSink {
        &self.trace
    }

    /// Enables interval sampling: the unified metrics registry is
    /// snapshotted into a time series at the first observation point
    /// at-or-after every `every_cycles` boundary.
    pub fn enable_sampling(&mut self, every_cycles: u64) {
        self.sampler = Some(Sampler::new(every_cycles));
    }

    /// Enables per-PC retire attribution (see [`PcProfile`]). Like the
    /// sampler and trace sink this is purely observational: it reads each
    /// core's local clock around every step and charges no simulated
    /// cycles, so a profiled run stays cycle- and hash-identical to an
    /// unprofiled one.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Box::default());
    }

    /// The attribution profile accumulated so far (None unless
    /// [`Self::enable_profiling`] was called).
    pub fn profile(&self) -> Option<&PcProfile> {
        self.profiler.as_deref()
    }

    /// Takes the attribution profile, leaving profiling disabled.
    pub fn take_profile(&mut self) -> Option<PcProfile> {
        self.profiler.take().map(|b| *b)
    }

    /// The unified metrics registry. Engine layers publish their own
    /// gauges here (`ckpt.*`, …) so interval samples carry them alongside
    /// the `sim.*`/`mem.*`/`core.*` keys the machine refreshes itself.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Refreshes the machine-owned registry keys and snapshots a sample
    /// at the current cycle, regardless of the sampling interval (end of
    /// run, checkpoint boundaries). No-op without [`Self::enable_sampling`].
    pub fn force_sample(&mut self) {
        if self.sampler.is_some() {
            self.refresh_metrics();
            let cycle = self.cycles();
            let reg = &self.registry;
            if let Some(s) = &mut self.sampler {
                s.record(cycle, reg);
            }
        }
    }

    /// Takes the sampled time series accumulated so far (empty if sampling
    /// was never enabled).
    pub fn take_series(&mut self) -> TimeSeries {
        self.sampler
            .as_mut()
            .map(Sampler::take_series)
            .unwrap_or_default()
    }

    /// Refreshes the machine-owned registry keys: `sim.*` / `mem.*` (see
    /// [`SimStats::metrics`] and [`acr_mem::MemStats::metrics`]) plus
    /// `core.N.retired` (instructions) and `core.N.cycles` (cycles) per
    /// core.
    fn refresh_metrics(&mut self) {
        self.stats.metrics(&mut self.registry);
        self.mem.stats().metrics(&mut self.registry);
        for (i, c) in self.cores.iter().enumerate() {
            self.registry.set(&format!("core.{i}.retired"), c.retired());
            self.registry.set(&format!("core.{i}.cycles"), c.cycles());
        }
        if let Some(p) = &self.profiler {
            // Set-semantics (idempotent): `profile.sites` is distinct
            // (core, pc) pairs, `profile.retired` instructions,
            // `profile.ticks` ticks; `profile.retire.ticks` is the
            // per-retire issue-to-issue latency distribution in ticks.
            self.registry.set("profile.sites", p.len() as u64);
            self.registry.set("profile.retired", p.total_retires());
            self.registry.set("profile.ticks", p.total_ticks());
            *self.registry.hist_mut("profile.retire.ticks") = p.tick_histogram().clone();
            self.registry.publish_hist_digests();
        }
    }

    /// Polls the sampler at a scheduling boundary.
    fn poll_sample(&mut self) {
        let cycle = self.cycles();
        if matches!(&self.sampler, Some(s) if s.due(cycle)) {
            self.refresh_metrics();
            let reg = &self.registry;
            if let Some(s) = &mut self.sampler {
                s.record(cycle, reg);
            }
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The program under execution.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The memory system.
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable memory system (checkpoint flushes, recovery restores).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Simulator statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The cores.
    pub fn cores(&self) -> &[CoreModel] {
        &self.cores
    }

    /// Total retired instructions (the progress metric checkpoint and
    /// error schedules are expressed in).
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(CoreModel::retired).sum()
    }

    /// Machine time in ticks: the maximum local time across cores.
    pub fn ticks(&self) -> u64 {
        self.cores.iter().map(CoreModel::ticks).max().unwrap_or(0)
    }

    /// Machine time in cycles.
    pub fn cycles(&self) -> u64 {
        self.ticks() / TICKS_PER_CYCLE
    }

    /// True when every core halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted())
    }

    /// Read-only architectural sanity audit: the number of cores whose
    /// visible state violates a structural invariant — a program counter
    /// outside the core's thread code on a still-running core (the next
    /// fetch could never retire), or the halted and at-barrier flags set
    /// simultaneously. Zero on every machine the scheduler can legally
    /// produce; the checkpoint engine samples this at epoch-commit
    /// boundaries as one of its invariant monitors.
    pub fn audit(&self) -> u64 {
        let mut violations = 0u64;
        for (i, c) in self.cores.iter().enumerate() {
            let code_len = self.program.thread(i as u32).len();
            if !c.halted() && c.pc() as usize >= code_len {
                violations += 1;
            }
            if c.halted() && c.at_barrier() {
                violations += 1;
            }
        }
        violations
    }

    /// Stalls the cores in `mask` until at least `resume_ticks`
    /// (checkpoint stalls).
    pub fn stall_cores(&mut self, mask: u64, resume_ticks: u64) {
        for (i, c) in self.cores.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                c.advance_to(resume_ticks);
            }
        }
    }

    /// Maximum local time (ticks) among the cores in `mask`.
    pub fn mask_ticks(&self, mask: u64) -> u64 {
        self.cores
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, c)| c.ticks())
            .max()
            .unwrap_or(0)
    }

    /// Snapshots every core's architectural state (the register/PC part of
    /// a checkpoint).
    pub fn snapshot_arch(&self) -> Vec<CoreSnapshot> {
        self.cores.iter().map(CoreModel::snapshot).collect()
    }

    /// Restores the cores in `mask` from `snaps` (indexed by core),
    /// resuming them at `resume_ticks` (recovery).
    pub fn restore_arch(&mut self, snaps: &[CoreSnapshot], mask: u64, resume_ticks: u64) {
        for (i, c) in self.cores.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                c.restore(&snaps[i], resume_ticks);
            }
        }
    }

    /// All-cores mask for this machine.
    pub fn all_mask(&self) -> u64 {
        if self.cores.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.cores.len()) - 1
        }
    }

    /// Applies one fault to the current machine state and reports what
    /// changed. The functional memory image is updated eagerly by stores
    /// (caches model timing only), so flipping the image word *is* the
    /// globally visible corruption.
    pub fn apply_fault(&mut self, target: CoreId, kind: crate::FaultKind) -> crate::FaultEffect {
        use crate::{FaultEffect, FaultKind};
        match kind {
            FaultKind::RegBitFlip { reg, bit } => {
                let core = &mut self.cores[target.0 as usize];
                let after = core.flip_reg_bit(acr_isa::Reg(reg), u32::from(bit));
                FaultEffect::Reg {
                    core: target,
                    reg,
                    after,
                }
            }
            FaultKind::PcBitFlip { bit } => {
                let core = &mut self.cores[target.0 as usize];
                let (from, to) = core.flip_pc_bit(u32::from(bit));
                FaultEffect::Pc {
                    core: target,
                    from,
                    to,
                }
            }
            FaultKind::MemBitFlip { addr, bit } => {
                let before = self.mem.image().read(addr);
                let after = before ^ (1u64 << bit);
                self.mem.image_mut().write(addr, after);
                FaultEffect::Mem {
                    addr,
                    before,
                    after,
                }
            }
            FaultKind::MemBurst { addr, bit, span } => {
                let words_len = self.mem.image().words().len();
                let base = addr.word_index();
                let mut bits = 0u64;
                for i in 0..u32::from(span) {
                    let wi = base + ((u32::from(bit) + i) / 64) as usize;
                    if wi >= words_len {
                        break; // the burst truncates at the image end
                    }
                    let a = acr_mem::WordAddr::new(wi as u64 * 8);
                    let b = (u32::from(bit) + i) % 64;
                    let v = self.mem.image().read(a) ^ (1u64 << b);
                    self.mem.image_mut().write(a, v);
                    bits += 1;
                }
                FaultEffect::MemBurst { addr, bits }
            }
            FaultKind::StuckAt {
                addr,
                bit,
                stuck_one,
            } => {
                let cell = crate::StuckCell {
                    addr,
                    bit,
                    stuck_one,
                };
                let before = self.mem.image().read(addr);
                self.mem.image_mut().write(addr, cell.pin(before));
                self.stuck.push(cell);
                FaultEffect::Stuck {
                    addr,
                    bit,
                    stuck_one,
                }
            }
            FaultKind::Crash => {
                for core in &mut self.cores {
                    core.crash();
                }
                // Caches don't survive a power cycle either.
                self.mem.invalidate_all();
                FaultEffect::Crash
            }
        }
    }

    /// Whether any stuck-at cell is currently armed (cheap hot-path gate:
    /// machines without stuck faults never pay for the pin machinery).
    pub fn has_stuck_cells(&self) -> bool {
        !self.stuck.is_empty()
    }

    /// Re-asserts every armed stuck-at cell onto the functional memory
    /// image, returning how many words the pins actually changed. Called
    /// by the engine between run segments so a pinned cell re-corrupts
    /// whatever the program wrote over it.
    pub fn reassert_stuck_cells(&mut self) -> u64 {
        let mut changed = 0;
        for i in 0..self.stuck.len() {
            let cell = self.stuck[i];
            let before = self.mem.image().read(cell.addr);
            let after = cell.pin(before);
            if after != before {
                self.mem.image_mut().write(cell.addr, after);
                changed += 1;
            }
        }
        changed
    }

    /// Recovery wrote `addr`: any pinned cell there fires one last time —
    /// re-corrupting the freshly restored word so the engine's read-back
    /// verification catches it — and is then scrubbed (the read-back
    /// failure makes recovery remap the line, which clears the defect).
    /// Returns whether a cell fired.
    pub fn stuck_scrub(&mut self, addr: acr_mem::WordAddr) -> bool {
        let mut fired = false;
        for i in 0..self.stuck.len() {
            let cell = self.stuck[i];
            if cell.addr == addr {
                let v = self.mem.image().read(addr);
                self.mem.image_mut().write(addr, cell.pin(v));
                fired = true;
            }
        }
        if fired {
            self.stuck.retain(|c| c.addr != addr);
        }
        fired
    }

    fn release_barrier_if_ready(&mut self) -> bool {
        let participants: Vec<usize> = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.at_barrier())
            .map(|(i, _)| i)
            .collect();
        if participants.is_empty() {
            return false;
        }
        let all_arrived = self.cores.iter().all(|c| c.halted() || c.at_barrier());
        if !all_arrived {
            return false;
        }
        let arrival = participants
            .iter()
            .map(|&i| self.cores[i].ticks())
            .max()
            .expect("non-empty");
        let cost = self.cfg.barrier_cycles(participants.len() as u32) * TICKS_PER_CYCLE;
        for &i in &participants {
            self.cores[i].release_barrier(arrival + cost);
            self.stats.barrier_waits += 1;
        }
        if self.trace.enabled() {
            self.trace.emit(
                TraceEvent::instant(
                    "barrier.release",
                    "sim",
                    TRACK_ENGINE,
                    (arrival + cost) / TICKS_PER_CYCLE,
                )
                .with_arg("cores", participants.len() as u64),
            );
        }
        true
    }

    /// Runs until total retired instructions reach `until_retired` or all
    /// cores halt, whichever comes first.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the cores.
    pub fn run(
        &mut self,
        hooks: &mut dyn ExecHooks,
        until_retired: u64,
    ) -> Result<RunOutcome, SimError> {
        // Observation dispatch is decided once per run: the sampler is
        // only installed before `run` (never mid-run), so the scheduler
        // loop branches on a local instead of re-reading the field.
        let sampling = self.sampler.is_some();
        loop {
            if self.total_retired() >= until_retired {
                return Ok(RunOutcome::ProgressReached);
            }
            if self.all_halted() {
                return Ok(RunOutcome::AllHalted);
            }
            // Pick the runnable core with minimum local time.
            let mut min_i = None;
            let mut min_t = u64::MAX;
            let mut second_t = u64::MAX;
            for (i, c) in self.cores.iter().enumerate() {
                if !c.runnable() {
                    continue;
                }
                let t = c.ticks();
                if t < min_t {
                    second_t = min_t;
                    min_t = t;
                    min_i = Some(i);
                } else if t < second_t {
                    second_t = t;
                }
            }
            let Some(i) = min_i else {
                // No runnable core: all non-halted cores are at a barrier.
                if !self.release_barrier_if_ready() {
                    // All halted (checked above) or inconsistent state.
                    return Ok(RunOutcome::AllHalted);
                }
                continue;
            };
            let limit = second_t.saturating_add(SKEW_QUANTUM_TICKS);
            self.run_core_batch(i, limit, hooks, until_retired)?;
            if sampling {
                self.poll_sample();
            }
        }
    }

    /// Runs core `i` until its local time exceeds `limit_ticks`, it blocks,
    /// or the global stop condition is met.
    ///
    /// The attribution profiler is hoisted out of `self` for the batch so
    /// the per-instruction retire path dispatches on a register-resident
    /// local rather than re-loading the field every step; it must be back
    /// in place before the scheduler's sampling poll, which publishes
    /// `profile.*` gauges from it.
    fn run_core_batch(
        &mut self,
        i: usize,
        limit_ticks: u64,
        hooks: &mut dyn ExecHooks,
        until_retired: u64,
    ) -> Result<(), SimError> {
        let mut profiler = self.profiler.take();
        let result = self.core_batch_inner(i, limit_ticks, hooks, until_retired, &mut profiler);
        self.profiler = profiler;
        result
    }

    fn core_batch_inner(
        &mut self,
        i: usize,
        limit_ticks: u64,
        hooks: &mut dyn ExecHooks,
        until_retired: u64,
        profiler: &mut Option<Box<PcProfile>>,
    ) -> Result<(), SimError> {
        let mut retired_total = self.total_retired();
        // Split the machine into disjoint field borrows once so the batch
        // loop indexes `cores[i]` a single time.
        let Machine {
            cfg,
            program,
            cores,
            mem,
            stats,
            ..
        } = self;
        let code = program.thread(i as u32);
        let core = &mut cores[i];
        let mut batch = 0u64;
        loop {
            if !core.runnable()
                || core.ticks() > limit_ticks
                || batch >= BATCH_INSTRS
                || retired_total >= until_retired
            {
                break Ok(());
            }
            let pc = core.pc();
            let instr = *code.fetch(pc).unwrap_or(&Instr::Halt);
            let ticks_before = core.ticks();
            let kind = match core.step(&instr, cfg, mem, stats, hooks) {
                Ok(k) => k,
                Err(e) => break Err(e),
            };
            let delta = core.ticks() - ticks_before;
            if let Some(prof) = profiler.as_deref_mut() {
                prof.record(i as u32, pc, retire_class(&instr), delta);
            }
            batch += 1;
            retired_total += 1;
            match kind {
                StepKind::Store => {
                    // Retire an adjacent ASSOC-ADDR atomically with its
                    // store so a checkpoint can never split the pair.
                    let next_pc = core.pc();
                    if let Some(next @ Instr::AssocAddr { .. }) = code.fetch(next_pc) {
                        let next = *next;
                        let t0 = core.ticks();
                        if let Err(e) = core.step(&next, cfg, mem, stats, hooks) {
                            break Err(e);
                        }
                        if let Some(prof) = profiler.as_deref_mut() {
                            let d = core.ticks() - t0;
                            prof.record(i as u32, next_pc, RetireClass::Memory, d);
                        }
                        batch += 1;
                        retired_total += 1;
                    }
                }
                StepKind::Barrier | StepKind::Halt => break Ok(()),
                StepKind::Normal => {}
            }
        }
    }
}

/// Which attribution bucket an instruction's excess ticks belong in:
/// memory waits for loads, stores and `ASSOC-ADDR`s, scoreboard/control
/// stalls for everything else.
fn retire_class(instr: &Instr) -> RetireClass {
    match instr {
        Instr::Load { .. } | Instr::Store { .. } | Instr::AssocAddr { .. } => RetireClass::Memory,
        _ => RetireClass::Compute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use acr_isa::interp::Interp;
    use acr_isa::{AluOp, ProgramBuilder, Reg};

    fn demo_program(threads: usize) -> acr_isa::Program {
        let mut b = ProgramBuilder::new(threads);
        b.set_mem_bytes(1 << 20);
        for t in 0..threads as u32 {
            let base = u64::from(t) * 65536;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            tb.imm(Reg(5), 0);
            let l = tb.begin_loop(Reg(1), Reg(2), 200);
            tb.alu(AluOp::Add, Reg(5), Reg(5), Reg(1));
            tb.alui(AluOp::Mul, Reg(6), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(7), Reg(10), Reg(6));
            tb.store(Reg(5), Reg(7), 0);
            tb.end_loop(l);
            tb.barrier();
            tb.load(Reg(8), Reg(10), 8);
            tb.store(Reg(8), Reg(10), 4096);
            tb.halt();
        }
        b.build()
    }

    #[test]
    fn matches_reference_interpreter() {
        let p = demo_program(4);
        p.validate().unwrap();
        let mut interp = Interp::new(&p);
        interp.run_to_completion(10_000_000).unwrap();

        let cfg = MachineConfig::with_cores(4);
        let mut m = Machine::new(cfg, &p);
        let out = m.run(&mut NoHooks, u64::MAX).unwrap();
        assert_eq!(out, RunOutcome::AllHalted);
        assert_eq!(m.mem().image().words(), interp.mem());
        assert_eq!(m.total_retired(), interp.retired().iter().sum::<u64>());
    }

    #[test]
    fn cycles_advance_and_are_deterministic() {
        let p = demo_program(2);
        let cfg = MachineConfig::with_cores(2);
        let mut m1 = Machine::new(cfg, &p);
        m1.run(&mut NoHooks, u64::MAX).unwrap();
        let mut m2 = Machine::new(cfg, &p);
        m2.run(&mut NoHooks, u64::MAX).unwrap();
        assert!(m1.cycles() > 0);
        assert_eq!(m1.cycles(), m2.cycles());
        assert_eq!(m1.stats(), m2.stats());
    }

    #[test]
    fn progress_target_pauses_run() {
        let p = demo_program(2);
        let cfg = MachineConfig::with_cores(2);
        let mut m = Machine::new(cfg, &p);
        let out = m.run(&mut NoHooks, 100).unwrap();
        assert_eq!(out, RunOutcome::ProgressReached);
        let r = m.total_retired();
        assert!((100..4000).contains(&r), "retired {r}");
        // Resume to completion.
        let out = m.run(&mut NoHooks, u64::MAX).unwrap();
        assert_eq!(out, RunOutcome::AllHalted);
    }

    #[test]
    fn snapshot_restore_roundtrip_reexecutes_identically() {
        let p = demo_program(2);
        let cfg = MachineConfig::with_cores(2);

        // Reference: run to completion.
        let mut reference = Machine::new(cfg, &p);
        reference.run(&mut NoHooks, u64::MAX).unwrap();

        // Snapshot mid-run, capture memory, run further, then roll back.
        let mut m = Machine::new(cfg, &p);
        m.run(&mut NoHooks, 500).unwrap();
        let snaps = m.snapshot_arch();
        let mem_snapshot = m.mem().image().snapshot();
        m.run(&mut NoHooks, 1500).unwrap();

        // "Recovery": restore memory image and architectural state.
        let mask = m.all_mask();
        let words: Vec<(usize, u64)> = mem_snapshot.iter().copied().enumerate().collect();
        for (i, w) in words {
            let addr = acr_mem::WordAddr::new(i as u64 * 8);
            m.mem_mut().image_mut().write(addr, w);
        }
        let resume = m.ticks();
        m.restore_arch(&snaps, mask, resume);
        m.mem_mut().invalidate_all();
        m.run(&mut NoHooks, u64::MAX).unwrap();

        assert_eq!(m.mem().image().words(), reference.mem().image().words());
    }

    #[test]
    fn stall_cores_advances_time() {
        let p = demo_program(2);
        let cfg = MachineConfig::with_cores(2);
        let mut m = Machine::new(cfg, &p);
        m.run(&mut NoHooks, 100).unwrap();
        let before = m.ticks();
        m.stall_cores(m.all_mask(), before + 4000);
        assert_eq!(m.ticks(), before + 4000);
    }

    #[test]
    fn profiling_conserves_retires_and_never_perturbs_timing() {
        let p = demo_program(2);
        let cfg = MachineConfig::with_cores(2);

        let mut plain = Machine::new(cfg, &p);
        plain.run(&mut NoHooks, u64::MAX).unwrap();

        let mut profiled = Machine::new(cfg, &p);
        profiled.enable_profiling();
        profiled.run(&mut NoHooks, u64::MAX).unwrap();

        // Observational only: identical timing and final state.
        assert_eq!(profiled.cycles(), plain.cycles());
        assert_eq!(profiled.stats(), plain.stats());
        assert_eq!(profiled.mem().image().words(), plain.mem().image().words());

        // Every retired instruction was attributed, and total attributed
        // ticks equal the sum of per-core local clocks.
        let prof = profiled.take_profile().unwrap();
        assert_eq!(prof.total_retires(), profiled.total_retired());
        let core_ticks: u64 = profiled.cores().iter().map(CoreModel::ticks).sum();
        assert!(
            prof.total_ticks() <= core_ticks,
            "attributed {} > clock sum {core_ticks}",
            prof.total_ticks()
        );
        assert_eq!(prof.tick_histogram().count(), prof.total_retires());
        // Memory waits exist in this store-heavy program.
        assert!(prof.iter().any(|(_, c)| c.mem_ticks > 0));
    }
}
