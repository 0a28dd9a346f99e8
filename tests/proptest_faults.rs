//! Property test for the fault-injection harness itself: for arbitrary
//! (program, fault cycle, fault kind) triples, recovery either restores a
//! state word-for-word equivalent to the fault-free reference, or the
//! case is *reported* as diverged/aborted with visible evidence — a
//! campaign never silently diverges.

use acr_ckpt::{Campaign, CampaignConfig, CaseOutcome, NoOmission};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_rng::check::forall;
use acr_rng::SmallRng;
use acr_sim::{FaultKindSet, MachineConfig};

#[derive(Debug, Clone)]
struct KernelParams {
    threads: u32,
    words: u64,
    sweeps: u64,
    depth: u8,
    op: AluOp,
}

fn gen_params(rng: &mut SmallRng) -> KernelParams {
    KernelParams {
        threads: rng.gen_range(1..4u32),
        words: *rng.choose(&[16u64, 48]),
        sweeps: rng.gen_range(1..5u64),
        depth: rng.gen_range(1..8u8),
        op: *rng.choose(&[AluOp::Add, AluOp::Mul, AluOp::Xor, AluOp::Sub]),
    }
}

fn build(p: &KernelParams) -> Program {
    let mut b = ProgramBuilder::new(p.threads as usize);
    b.set_mem_bytes(1 << 18);
    for t in 0..p.threads {
        let base = 4096 + u64::from(t) * 16384;
        let tb = b.thread(t);
        tb.imm(Reg(10), base);
        let sweeps = tb.begin_loop(Reg(1), Reg(2), p.sweeps);
        let inner = tb.begin_loop(Reg(3), Reg(4), p.words);
        tb.alu(AluOp::Add, Reg(22), Reg(3), Reg(1));
        for k in 0..p.depth {
            tb.alui(p.op, Reg(22), Reg(22), u64::from(k) * 2 + 3);
        }
        tb.alui(AluOp::Mul, Reg(6), Reg(3), 8);
        tb.alu(AluOp::Add, Reg(7), Reg(10), Reg(6));
        tb.store(Reg(22), Reg(7), 0);
        tb.end_loop(inner);
        tb.end_loop(sweeps);
        tb.halt();
    }
    b.build()
}

/// Every campaign case over arbitrary programs, fault cycles (plan seeds
/// draw the injection progress points) and fault kinds — including
/// potentially unrecoverable memory flips — is classified soundly:
///
/// * `Recovered` cases are word-for-word equal to the reference and
///   retired the full fault-free instruction count;
/// * `Diverged` cases carry visible evidence (divergent words, a shadow
///   oracle hit, or truncated progress) — never a silent mismatch;
/// * kinds the paper guarantees recoverable (reg/pc/crash) always
///   converge.
#[test]
fn arbitrary_faults_never_silently_diverge() {
    forall(
        "arbitrary_faults_never_silently_diverge",
        24,
        0xFA17_0001,
        |rng| {
            let params = gen_params(rng);
            let program = build(&params);
            assert!(program.validate().is_ok());

            let cfg = CampaignConfig {
                seed: rng.next_u64(),
                count: 4,
                kinds: FaultKindSet::all(),
                num_checkpoints: rng.gen_range(2..8u32),
                detection_latency_frac: *rng.choose(&[0.1f64, 0.5, 0.9]),
                ..CampaignConfig::default()
            };
            let machine = MachineConfig::with_cores(params.threads);
            let (r, _) = Campaign::new(&program, machine, &cfg, || NoOmission)
                .and_then(Campaign::run)
                .expect("fault-free baseline agrees with the reference");

            assert_eq!(r.injected(), u64::from(cfg.count));
            for c in &r.cases {
                match c.outcome {
                    CaseOutcome::Recovered => {
                        assert_eq!(c.mem_divergence, 0, "{c:?}");
                        assert_eq!(c.reg_divergence, 0, "{c:?}");
                        assert_eq!(c.final_retired, r.total_progress, "{c:?}");
                    }
                    CaseOutcome::Diverged => {
                        assert!(
                            c.mem_divergence + c.reg_divergence + c.shadow_divergence > 0
                                || c.final_retired != r.total_progress,
                            "silent divergence: {c:?}"
                        );
                    }
                    // An abort is a loud verdict, not a silent one.
                    CaseOutcome::Aborted => {}
                }
                if c.fault.kind.guaranteed_recoverable() {
                    assert_eq!(
                        c.outcome,
                        CaseOutcome::Recovered,
                        "guaranteed-recoverable fault did not converge: {c:?}"
                    );
                }
            }
        },
    );
}
