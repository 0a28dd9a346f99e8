//! The recovery handler: roll the victims back to the safe checkpoint,
//! restore logged old values and regenerate omitted ones by replaying
//! their Slices. A recovery is one `plan`, then `attempt`s, each calling
//! `restore` and `replay` on every undone epoch, until `escalate` stops
//! them, then `finish` (DESIGN.md §10, "Engine layout").

use acr_mem::{LogEpoch, LogRecord, OmittedRecord, LOG_RECORD_BYTES};
use acr_sim::{FaultKind, RecoveryFault, RecoveryFaultKind, SimError, TICKS_PER_CYCLE};
use acr_trace::{TraceEvent, TRACK_ENGINE};

use crate::checkpoint::CheckpointRecord;
use crate::engine::{BerEngine, Scheme};
use crate::policy::OmissionPolicy;
use crate::report::RecoveryRecord;

/// Re-replay attempts after a failed restore before the engine gives up
/// and proceeds best-effort (divergence is still counted by the oracle,
/// never silent).
pub const MAX_REPLAY_RETRIES: u32 = 2;

/// The recovery-window faults due in one recovery. A class due twice
/// strikes with its first bit.
#[derive(Default)]
struct DueFaults {
    torn_commit: bool,
    torn_record: Option<u8>,
    replay_input: Option<u8>,
    restored_flip: Option<u8>,
    crash_mid_restore: bool,
}

impl DueFaults {
    fn decode(faults: &[RecoveryFault], ordinal: u32) -> Self {
        use RecoveryFaultKind as K;
        let mut due = DueFaults::default();
        for f in faults.iter().filter(|f| f.at_recovery == ordinal) {
            match f.kind {
                K::TornCommit => due.torn_commit = true,
                K::TornRecord { bit } => due.torn_record = due.torn_record.or(Some(bit)),
                K::ReplayInput { bit } => due.replay_input = due.replay_input.or(Some(bit)),
                K::RestoredWordFlip { bit } => due.restored_flip = due.restored_flip.or(Some(bit)),
                K::CrashMidRestore => due.crash_mid_restore = true,
            }
        }
        due
    }
}

/// One recovery in progress: fixed by `plan`, then summed over attempts.
#[derive(Default)]
struct Recovery {
    /// The record being built. Its counts and stall sum over attempts.
    rec: RecoveryRecord,
    /// Index of the safe checkpoint among the retained ones.
    safe: usize,
    /// The undone epochs, newest first. They double as the redundant
    /// mirror copy of the log.
    mirror: Vec<LogEpoch>,
    /// The primary log copy, held apart from the mirror only while a
    /// torn-record fault corrupts it. The tear persists until the primary
    /// is repaired from the mirror.
    torn: Option<Vec<LogEpoch>>,
    faults: DueFaults,
    arch_bytes: u64,
    /// Bytes moved over all attempts.
    bytes: u64,
    /// The first attempt's restore transfer and replay stall: the extents
    /// of the `recovery.restore` and `recovery.replay` spans.
    first_transfer: u64,
    first_replay: u64,
    /// Some recomputed value failed its omitted record's checksum.
    replay_failed: bool,
}

/// One restore/replay pass over the undone epochs.
#[derive(Default)]
struct Attempt {
    /// Every entry applied and verified.
    ok: bool,
    /// A log record failed its checksum.
    torn: bool,
    replay_failed: bool,
    restored: u64,
    recomputed: u64,
    alu_ops: u64,
    /// Slice-replay cycles per core.
    replay_cycles: Vec<u64>,
    /// Bits to flip in the next restored and the next recomputed word.
    restored_flip: Option<u8>,
    replay_flip: Option<u8>,
}

impl<P: OmissionPolicy> BerEngine<'_, P> {
    /// Handles the detection of error `ei`: roll back to the most recent
    /// checkpoint established before the error occurred, restore logged
    /// and recompute omitted values, restore architectural state, and
    /// resume.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RecoveryHang`] when a non-zero
    /// [`crate::ResilienceConfig::watchdog_budget_cycles`] budget is
    /// exceeded by a still-failing escalation.
    pub(crate) fn recover(&mut self, ei: usize) -> Result<(), SimError> {
        let mut r = self.plan(ei);
        let written = loop {
            let att = self.attempt(&r);
            if !self.escalate(&mut r, &att)? {
                break att.restored + att.recomputed;
            }
        };
        self.finish(ei, r, written);
        Ok(())
    }

    fn plan(&mut self, ei: usize) -> Recovery {
        let err = self.errors[ei];
        let all = self.machine.all_mask();
        // Recovery ordinals only grow, so each planned fault strikes once.
        let ordinal = self.report.recoveries.len() as u32;
        let faults = DueFaults::decode(&self.cfg.resilience.recovery_faults, ordinal);

        // Safe checkpoint: the most recent one provably taken before the
        // error occurred (with detection latency ≤ the checkpoint period
        // this is the most recent or second most recent — Fig. 2).
        let mut safe = self
            .checkpoints
            .iter()
            .rposition(|c| c.progress <= err.occur)
            .expect("a safe checkpoint is always retained");
        // A due torn-commit fault models a crash inside the safe
        // generation's commit window: its integrity checksum no longer
        // verifies. The start checkpoint (progress 0) has no commit
        // window and is never torn.
        if faults.torn_commit && safe > 0 {
            self.checkpoints[safe].check ^= 1;
        }
        // Integrity gate: a generation that fails verification is never
        // restored — fall back to the previous retained generation. The
        // undo log holds every epoch back to the oldest retained
        // checkpoint, so older generations stay restorable.
        let mut generation_fallbacks = 0;
        while !self.checkpoints[safe].verify() && safe > 0 {
            safe -= 1;
            generation_fallbacks += 1;
        }
        let safe_epoch = self.checkpoints[safe].begins_epoch;

        // Victim set. A crash power-cycles the whole machine (every core
        // restarts cold), so every core rolls back under either scheme.
        let victims = match self.cfg.scheme {
            Scheme::GlobalCoordinated => all,
            Scheme::LocalCoordinated if matches!(err.kind, Some(FaultKind::Crash)) => all,
            Scheme::LocalCoordinated => {
                // Union the communicating groups of the undone intervals
                // and the current one into the faulted core's, to a
                // fixpoint.
                let mut groups: Vec<u64> = self
                    .checkpoints
                    .iter()
                    .filter(|c| c.begins_epoch > safe_epoch)
                    .flat_map(|c| c.groups.iter().copied())
                    .collect();
                groups.extend(
                    self.machine
                        .mem()
                        .sharing()
                        .map_or(Vec::new(), |t| t.groups()),
                );
                let mut victims = 1u64 << err.core;
                while let Some(g) = groups
                    .iter()
                    .find(|&&g| g & victims != 0 && g & !victims != 0)
                {
                    victims |= g;
                }
                victims & all
            }
        };

        let mirror = match self.cfg.scheme {
            Scheme::GlobalCoordinated => self.hooks.logctl.rollback_to(safe_epoch),
            Scheme::LocalCoordinated => self.hooks.logctl.rollback_victims(safe_epoch, victims),
        };
        let torn = faults.torn_record.map(|bit| {
            let mut primary = mirror.clone();
            if let Some(rec) = primary.iter_mut().flat_map(|e| &mut e.records).next() {
                rec.old_value ^= 1 << (bit % 64);
            }
            primary
        });
        let detected_at_cycles = self.machine.cycles();
        Recovery {
            rec: RecoveryRecord {
                detected_at_progress: self.machine.total_retired(),
                detected_at_cycles,
                safe_epoch,
                waste_cycles: detected_at_cycles.saturating_sub(self.checkpoints[safe].cycles),
                victim_mask: victims,
                generation_fallbacks,
                ..RecoveryRecord::default()
            },
            safe,
            mirror,
            torn,
            faults,
            arch_bytes: CheckpointRecord::arch_bytes(victims, self.machine.cores().len()),
            ..Recovery::default()
        }
    }

    /// One pass over the undone epochs, newest first, so the oldest — the
    /// safe epoch, holding the values at the safe checkpoint — is applied
    /// last. Recovery-window faults strike the first pass only.
    fn attempt(&mut self, r: &Recovery) -> Attempt {
        let log = r.torn.as_deref().unwrap_or(&r.mirror);
        let mut att = Attempt {
            ok: true,
            replay_cycles: vec![0; self.machine.cores().len()],
            ..Attempt::default()
        };
        // A crash mid-restore stops the pass halfway through the entries.
        let mut crash_at = u64::MAX;
        if r.rec.replay_retries == 0 {
            att.restored_flip = r.faults.restored_flip;
            att.replay_flip = r.faults.replay_input;
            if r.faults.crash_mid_restore {
                let entries: usize = log.iter().map(|e| e.records.len() + e.omitted.len()).sum();
                crash_at = (entries as u64).div_ceil(2);
            }
        }
        'pass: for epoch in log {
            for rec in &epoch.records {
                if att.restored + att.recomputed >= crash_at || !self.restore(rec, &mut att) {
                    att.ok = false;
                    break 'pass;
                }
            }
            for om in &epoch.omitted {
                if att.restored + att.recomputed >= crash_at {
                    att.ok = false;
                    break 'pass;
                }
                self.replay(om, epoch.index, &mut att);
            }
        }
        att
    }

    /// Writes a logged old value back, checking the record's checksum
    /// before and the word by read-back after. Returns `false` for a torn
    /// record, which stops the pass.
    fn restore(&mut self, rec: &LogRecord, att: &mut Attempt) -> bool {
        if !rec.verify() {
            att.torn = true;
            return false;
        }
        let mut value = rec.old_value;
        if let Some(bit) = att.restored_flip.take() {
            value ^= 1 << (bit % 64);
        }
        self.machine.mem_mut().image_mut().write(rec.addr, value);
        if self.machine.has_stuck_cells() {
            // A pinned cell fires once more on the restore write — the
            // read-back below catches it — and the line is then remapped,
            // scrubbing the defect.
            self.machine.stuck_scrub(rec.addr);
        }
        att.restored += 1;
        if self.machine.mem().image().read(rec.addr) != rec.old_value {
            att.ok = false;
        }
        true
    }

    /// Regenerates an omitted value of epoch `epoch` by replaying its
    /// Slice. The omitted record's checksum verifies the recomputed word
    /// without it ever having been stored.
    fn replay(&mut self, om: &OmittedRecord, epoch: u64, att: &mut Attempt) {
        let rc = self
            .hooks
            .policy
            .recompute(om.addr, epoch)
            .expect("every omitted value must be recomputable");
        let mut value = rc.value;
        if let Some(bit) = att.replay_flip.take() {
            value ^= 1 << (bit % 64);
        }
        if !om.verify_recomputed(value) {
            att.ok = false;
            att.replay_failed = true;
        }
        self.machine.mem_mut().image_mut().write(om.addr, value);
        if self.machine.has_stuck_cells() && self.machine.stuck_scrub(om.addr) {
            // No stored value to read back against, so the corrupted
            // recomputed word forces a retry itself.
            att.ok = false;
        }
        att.recomputed += 1;
        att.alu_ops += rc.alu_ops;
        att.replay_cycles[om.core as usize] += rc.cycles;
        if let Some(led) = &mut self.hooks.ledger {
            led.record_replay(rc.slice, rc.cycles, rc.alu_ops, rc.opbuf_reads);
        }
    }

    /// Charges attempt `att` (restore traffic and recomputation overlap
    /// within an attempt under a scratchpad policy, Section II-B; attempts
    /// serialize) and decides what follows. Returns `true` for a retry,
    /// after repairing a torn primary log copy, and `false` once the
    /// attempt verified or the retries are spent.
    ///
    /// # Errors
    ///
    /// [`SimError::RecoveryHang`] when a still-failing escalation has
    /// spent more than the watchdog budget.
    fn escalate(&mut self, r: &mut Recovery, att: &Attempt) -> Result<bool, SimError> {
        let last = att.ok || r.rec.replay_retries == MAX_REPLAY_RETRIES;
        // The register-file restore is charged once, on the attempt that
        // completes recovery.
        let bytes = att.restored * LOG_RECORD_BYTES
            + (att.restored + att.recomputed) * 8
            + if last { r.arch_bytes } else { 0 };
        let transfer = self.machine.mem().log_write_stall(bytes);
        let replay = att.replay_cycles.iter().copied().max().unwrap_or(0);
        let stall = if self.hooks.policy.overlaps_restore() {
            transfer.max(replay)
        } else {
            transfer + replay
        };
        r.rec.restored_records += att.restored;
        r.rec.recomputed_values += att.recomputed;
        r.rec.recompute_alu_ops += att.alu_ops;
        r.rec.stall_cycles += stall;
        r.bytes += bytes;
        r.replay_failed |= att.replay_failed;
        if r.rec.replay_retries == 0 {
            r.first_transfer = transfer;
            r.first_replay = replay;
        } else if self.machine.trace().enabled() {
            let start = r.rec.detected_at_cycles;
            self.machine.trace().emit(
                TraceEvent::span("recovery.retry", "recovery", TRACK_ENGINE, start, stall)
                    .with_arg("attempt", u64::from(r.rec.replay_retries + 1))
                    .with_arg("restored", att.restored)
                    .with_arg("recomputed", att.recomputed),
            );
        }
        // Watchdog: a still-failing escalation that has burned through its
        // cycle budget is a hung recovery. A *successful* final attempt is
        // never aborted, however late.
        let budget = self.cfg.resilience.watchdog_budget_cycles;
        if budget > 0 && !att.ok && r.rec.stall_cycles > budget {
            self.report.recovery_hangs += 1;
            return Err(SimError::RecoveryHang {
                budget_cycles: budget,
                spent_cycles: r.rec.stall_cycles,
            });
        }
        if last {
            self.report.escalation_exhausted += u64::from(!att.ok);
            // Degraded full-logging entry: a replay-integrity failure means
            // a recomputed value cannot be trusted, a generation fallback
            // means a commit tore, and exhaustion means the log itself is
            // suspect — in all three cases omission is suspended until the
            // next clean checkpoint commits.
            r.rec.degraded_entered = r.replay_failed || r.rec.generation_fallbacks > 0 || !att.ok;
            if r.rec.degraded_entered {
                self.report.degraded_entries += u64::from(!self.hooks.degraded);
                self.hooks.degraded = true;
            }
            return Ok(false);
        }
        if att.torn {
            // Repair the primary from the mirror: one full re-read of the
            // retained log, charged like the restore traffic.
            r.torn = None;
            let records: usize = r.mirror.iter().map(|e| e.records.len()).sum();
            let repair_bytes = records as u64 * LOG_RECORD_BYTES;
            r.bytes += repair_bytes;
            r.rec.stall_cycles += self.machine.mem().log_write_stall(repair_bytes);
        }
        r.rec.replay_retries += 1;
        Ok(true)
    }

    /// Checks the restored image, charges the recovery, restores the
    /// victims' architectural state and records the recovery. The final
    /// attempt wrote the first `written` entries of the undone epochs.
    fn finish(&mut self, ei: usize, mut r: Recovery, written: u64) {
        let victims = r.rec.victim_mask;
        let safe = &self.checkpoints[r.safe];
        // Oracle: restored state must match the safe checkpoint's shadow,
        // over the whole image (global) or the written words, duplicates
        // included (local). While no error corrupts anything, a mismatch is
        // an engine bug and panics. A corruption can legitimately defeat
        // the log (a memory flip in a word the undone epochs never
        // covered), and an exhausted escalation leaves the image
        // best-effort, so in fault mode divergence is counted and reported.
        if let Some(shadow) = &safe.shadow_mem {
            let image = self.machine.mem().image();
            let diverged = match self.cfg.scheme {
                Scheme::GlobalCoordinated => image
                    .words()
                    .iter()
                    .zip(shadow)
                    .filter(|(got, want)| got != want)
                    .count(),
                Scheme::LocalCoordinated => r
                    .mirror
                    .iter()
                    .flat_map(|e| {
                        e.records
                            .iter()
                            .map(|l| l.addr)
                            .chain(e.omitted.iter().map(|o| o.addr))
                    })
                    .take(written as usize)
                    .filter(|w| image.read(*w) != shadow[w.word_index()])
                    .count(),
            };
            r.rec.shadow_divergence = diverged as u64;
        }
        assert!(
            self.fault_mode || r.rec.shadow_divergence == 0,
            "{} recovered words differ from the safe checkpoint",
            r.rec.shadow_divergence
        );

        let dram = self.machine.config().mem.dram.latency_cycles;
        let coord = self
            .machine
            .config()
            .checkpoint_coordination_cycles(victims.count_ones());
        r.rec.stall_cycles += dram + coord;
        let mem = self.machine.mem_mut().stats_mut();
        mem.log_record_reads += r.rec.restored_records;
        mem.recovery_word_writes +=
            r.rec.restored_records + r.rec.recomputed_values + r.arch_bytes / 8;
        if self.machine.trace().enabled() {
            self.trace_recovery(&r, dram);
        }

        // Restore architectural state and resume the victims.
        let resume = self.machine.mask_ticks(victims) + r.rec.stall_cycles * TICKS_PER_CYCLE;
        let safe = &self.checkpoints[r.safe];
        let safe_progress = safe.progress;
        self.machine.restore_arch(&safe.arch, victims, resume);
        match self.cfg.scheme {
            Scheme::GlobalCoordinated => self.machine.mem_mut().invalidate_all(),
            Scheme::LocalCoordinated => self.machine.mem_mut().invalidate_cores(victims),
        }
        self.hooks.policy.on_rollback(r.rec.safe_epoch, victims);
        // Checkpoints newer than the safe one are gone (global): their
        // epochs were undone and will be re-established.
        if self.cfg.scheme == Scheme::GlobalCoordinated {
            self.checkpoints.truncate(r.safe + 1);
        }

        // The handled error, plus any other occurred-but-undetected error
        // whose corruption the rollback just erased, are done.
        for (i, e) in self.errors.iter_mut().enumerate() {
            let erased = e.occur >= safe_progress && victims >> e.core & 1 == 1;
            if e.is_pending() && (i == ei || erased) {
                e.handled = true;
                self.report.errors_handled += 1;
            }
        }
        let rec = r.rec;
        self.report.divergent_words += rec.shadow_divergence;
        self.report.recovery_stall_cycles += rec.stall_cycles;
        self.report.replay_retries += u64::from(rec.replay_retries);
        self.report.generation_fallbacks += u64::from(rec.generation_fallbacks);
        self.report.recoveries.push(rec);
        self.publish_ckpt_metrics();
    }

    /// Emits the `recovery` span and its `recovery.restore` and
    /// `recovery.replay` sub-spans. The sub-spans cover the first attempt
    /// (retries have their own `recovery.retry` spans): log restore
    /// traffic, then Slice re-execution — concurrent with the restore
    /// under a scratchpad policy, serialized after it otherwise.
    fn trace_recovery(&self, r: &Recovery, dram: u64) {
        let span = |name, start, dur| TraceEvent::span(name, "recovery", TRACK_ENGINE, start, dur);
        let (trace, rec) = (self.machine.trace(), &r.rec);
        let start = rec.detected_at_cycles;
        trace.emit(
            span("recovery", start, rec.stall_cycles)
                .with_arg("safe_epoch", rec.safe_epoch)
                .with_arg("restored", rec.restored_records)
                .with_arg("recomputed", rec.recomputed_values)
                .with_arg("victims", rec.victim_mask),
        );
        let restore = start + dram;
        trace.emit(
            span("recovery.restore", restore, r.first_transfer)
                .with_arg("records", rec.restored_records)
                .with_arg("bytes", r.bytes),
        );
        let replay = if self.hooks.policy.overlaps_restore() {
            restore
        } else {
            restore + r.first_transfer
        };
        trace.emit(
            span("recovery.replay", replay, r.first_replay)
                .with_arg("slices", rec.recomputed_values)
                .with_arg("alu_ops", rec.recompute_alu_ops),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BerConfig, ResilienceConfig};
    use crate::policy::NoOmission;
    use crate::report::BerReport;
    use crate::schedule::{uniform_points, ErrorSchedule};
    use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
    use acr_mem::CoreId;
    use acr_sim::{Fault, Machine, MachineConfig, NoHooks};

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
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
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
