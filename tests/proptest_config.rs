//! Property: no campaign configuration reaches a panic.
//!
//! Random [`CampaignConfig`]s over a tiny kernel — fault counts from zero,
//! checkpoint counts from zero, detection latencies outside `[0, 1]`
//! (NaN and infinity included), zero to three generations, nested
//! recovery faults under both coordination schemes, degenerate watchdog
//! budgets, every fault-kind family (and none) and storm placement with
//! zero gaps and bursts — under both the ACR and the log-only
//! policy must either be rejected with a typed [`ExperimentError`] or
//! run, and a run must repeat to the same content hash.

use acr::{Experiment, ExperimentSpec};
use acr_ckpt::{CampaignConfig, Scheme};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_rng::check::forall;
use acr_rng::SmallRng;
use acr_sim::{FaultKindSet, FaultStorm};

/// Two threads storing short arithmetic chains, so the ACR policy has
/// Slices to omit and replay.
fn kernel() -> Program {
    let mut b = ProgramBuilder::new(2);
    b.set_mem_bytes(1 << 16);
    for t in 0..2u32 {
        let tb = b.thread(t);
        tb.imm(Reg(10), 4096 + u64::from(t) * 8192);
        let outer = tb.begin_loop(Reg(8), Reg(9), 4);
        let l = tb.begin_loop(Reg(1), Reg(2), 24);
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

fn random_config(rng: &mut SmallRng) -> CampaignConfig {
    let latencies = [-0.5, 0.0, 0.5, 1.0, 1.5, f64::NAN, f64::INFINITY];
    let kinds = [
        FaultKindSet::recoverable(),
        FaultKindSet::all(),
        FaultKindSet::adversarial(),
        FaultKindSet {
            reg: false,
            pc: false,
            mem: false,
            burst: false,
            stuck: false,
            crash: false,
        },
    ];
    CampaignConfig {
        seed: rng.next_u64(),
        count: rng.gen_range(0..4u32),
        kinds: *rng.choose(&kinds),
        num_checkpoints: rng.gen_range(0..65u32),
        detection_latency_frac: *rng.choose(&latencies),
        scheme: if rng.gen_bool() {
            Scheme::GlobalCoordinated
        } else {
            Scheme::LocalCoordinated
        },
        recovery_faults: rng.gen_bool(),
        generations: rng.gen_range(0..4u32),
        watchdog_budget_cycles: *rng.choose(&[0, 1, 1_000_000]),
        // Degenerate storms too: the CLI refuses a zero gap or burst, the
        // library takes the struct as given.
        storm: rng.gen_bool().then(|| FaultStorm {
            mean_gap: *rng.choose(&[0, 1, 200]),
            max_burst: *rng.choose(&[0, 1, 6]),
        }),
        ..CampaignConfig::default()
    }
}

#[test]
fn every_campaign_config_errs_or_runs_deterministically() {
    let program = kernel();
    forall(
        "every_campaign_config_errs_or_runs_deterministically",
        1000,
        0xC0F1_6007,
        |rng| {
            let cfg = random_config(rng);
            for amnesic in [true, false] {
                let spec = ExperimentSpec::default().with_cores(2);
                let mut exp = Experiment::new(program.clone(), spec).expect("valid kernel");
                // A typed error is an accepted outcome; a panic fails the
                // property with the case seed.
                if let Ok(first) = exp.run_fault_campaign(&cfg, amnesic) {
                    let again = exp
                        .run_fault_campaign(&cfg, amnesic)
                        .expect("a config that ran once runs again");
                    assert_eq!(
                        first.report.content_hash(),
                        again.report.content_hash(),
                        "{cfg:?} amnesic={amnesic}"
                    );
                }
            }
        },
    );
}
