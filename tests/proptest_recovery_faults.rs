//! Property: recovery-window escalation never loses committed data.
//!
//! Over random kernels, seeds, retention depths and nested-fault
//! schedules, a guaranteed-recoverable injected fault must still converge
//! to the reference state (zero divergent words) no matter which
//! recovery-window fault class — corrupt replay input, flipped restored
//! word, torn log record, crash mid-restore, torn checkpoint commit —
//! strikes the recovery; and whatever the engine cannot repair must be
//! reported as divergence, never silently returned as success.

use acr::{Experiment, ExperimentSpec};
use acr_ckpt::{CampaignConfig, CaseOutcome, ResilienceConfig};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_rng::check::forall;
use acr_rng::SmallRng;
use acr_sim::{FaultKindSet, RecoveryFault, RecoveryFaultKind};

/// A recomputable-store kernel: every stored value is a short arithmetic
/// chain over loop counters, so ACR's slicer covers the stores and the
/// amnesic configurations exercise omitted-record replay during recovery.
fn kernel(threads: u32, iters: u64) -> Program {
    let mut b = ProgramBuilder::new(threads as usize);
    b.set_mem_bytes(1 << 20);
    for t in 0..threads {
        let base = 4096 + u64::from(t) * 65536;
        let tb = b.thread(t);
        tb.imm(Reg(10), base);
        let outer = tb.begin_loop(Reg(8), Reg(9), 6);
        let l = tb.begin_loop(Reg(1), Reg(2), iters);
        tb.alui(AluOp::Mul, Reg(3), Reg(1), 13);
        tb.alu(AluOp::Xor, Reg(3), Reg(3), Reg(8));
        tb.alui(AluOp::And, Reg(4), Reg(1), 127);
        tb.alui(AluOp::Mul, Reg(4), Reg(4), 8);
        tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
        tb.store(Reg(3), Reg(5), 0);
        tb.end_loop(l);
        tb.end_loop(outer);
        tb.halt();
    }
    b.build()
}

fn random_kind(rng: &mut SmallRng) -> RecoveryFaultKind {
    let bit = rng.gen_range(0..64u64) as u8;
    match rng.gen_range(0..5u32) {
        0 => RecoveryFaultKind::ReplayInput { bit },
        1 => RecoveryFaultKind::RestoredWordFlip { bit },
        2 => RecoveryFaultKind::TornRecord { bit },
        3 => RecoveryFaultKind::CrashMidRestore,
        _ => RecoveryFaultKind::TornCommit,
    }
}

/// Nested-fault campaigns over guaranteed-recoverable injected faults:
/// every case converges, with visible (not silent) escalation work.
#[test]
fn escalation_never_loses_committed_data() {
    forall(
        "escalation_never_loses_committed_data",
        10,
        0x2EC0_0005,
        |rng| {
            let threads = rng.gen_range(1..3u32);
            let iters = rng.gen_range(50..110u64);
            let amnesic = rng.gen_bool();
            let program = kernel(threads, iters);
            let spec = ExperimentSpec::default()
                .with_cores(threads)
                .with_checkpoints(5)
                .with_oracle(true);
            let mut exp = Experiment::new(program, spec).expect("valid program");
            let cfg = CampaignConfig {
                seed: rng.gen_range(0..1_000_000u64),
                count: 5,
                kinds: FaultKindSet::recoverable(),
                num_checkpoints: rng.gen_range(3..7u32),
                recovery_faults: true,
                generations: rng.gen_range(1..4u32),
                ..CampaignConfig::default()
            };
            let run = exp.run_fault_campaign(&cfg, amnesic).expect("campaign");
            let r = &run.report;
            assert!(r.has_recovery_faults());
            assert_eq!(r.totals().aborted, 0, "{}", r.summary());
            for c in &r.cases {
                assert_eq!(
                    c.outcome,
                    CaseOutcome::Recovered,
                    "committed data lost under {:?}:\n{}",
                    c.recovery_fault,
                    r.summary()
                );
                assert_eq!(c.mem_divergence + c.reg_divergence, 0, "{c:?}");
                assert_eq!(c.final_retired, r.total_progress, "{c:?}");
            }
        },
    );
}

/// A scheduled recovery-window fault on a phantom-error run converges to
/// the same progress as the clean run, pays for the escalation in cycles
/// (never less), and reports zero divergent words.
#[test]
fn scheduled_recovery_faults_preserve_the_final_image() {
    forall(
        "scheduled_recovery_faults_preserve_the_final_image",
        12,
        0x2EC0_0006,
        |rng| {
            let threads = rng.gen_range(1..3u32);
            let iters = rng.gen_range(50..110u64);
            let errors = rng.gen_range(1..3u32);
            let amnesic = rng.gen_bool();
            let program = kernel(threads, iters);
            let resilience = ResilienceConfig {
                generations: rng.gen_range(2..4u32),
                recovery_faults: vec![RecoveryFault {
                    at_recovery: rng.gen_range(0..errors),
                    kind: random_kind(rng),
                }],
                ..ResilienceConfig::default()
            };
            let base_spec = ExperimentSpec::default()
                .with_cores(threads)
                .with_checkpoints(5)
                .with_oracle(true);
            let run = |spec: ExperimentSpec| {
                let mut exp = Experiment::new(program.clone(), spec).expect("valid program");
                if amnesic {
                    exp.run_reckpt(errors).expect("reckpt run")
                } else {
                    exp.run_ckpt(errors).expect("ckpt run")
                }
            };
            let clean = run(base_spec.clone());
            let faulted = run(base_spec.with_resilience(resilience));
            let rep = faulted.report.as_ref().expect("report");
            assert_eq!(rep.divergent_words, 0, "silent divergence");
            // Retired counts include re-executed (wasted) work, so deeper
            // rollbacks only ever add instructions, never drop them.
            assert!(faulted.sim.retired >= clean.sim.retired);
            assert!(
                faulted.cycles >= clean.cycles,
                "escalation can never make recovery cheaper: {} < {}",
                faulted.cycles,
                clean.cycles
            );
        },
    );
}
