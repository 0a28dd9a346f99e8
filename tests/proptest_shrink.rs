//! Property tests for the failing-case shrinker.
//!
//! For randomly drawn kernels and dense mem-fault plans that happen to
//! fail, the shrunk plan must (a) never be larger than the original,
//! (b) still fail when replayed from scratch, and (c) carry the
//! *identical* failure signature — trigger and probable cause
//! byte-for-byte — for `--jobs 1` and `--jobs 4` alike. Draws whose
//! dense plan recovers cleanly are legitimate (the shrinker must reject
//! them) and are counted, not skipped silently.

use acr::{Experiment, ExperimentSpec};
use acr_bench::{paper_experiment, workload};
use acr_ckpt::{CampaignConfig, ShrinkConfig};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_rng::check::forall;
use acr_sim::FaultKindSet;
use acr_workloads::Benchmark;

/// The store-heavy kernel family the parallel-campaign properties use;
/// `mult` perturbs the data flow so draws exercise different Slices.
fn kernel(threads: usize, iters: u64, mult: u64) -> Program {
    let mut b = ProgramBuilder::new(threads);
    b.set_mem_bytes(1 << 20);
    for t in 0..threads as u32 {
        let base = u64::from(t) * 131072;
        let tb = b.thread(t);
        tb.imm(Reg(10), base);
        let l = tb.begin_loop(Reg(1), Reg(2), iters);
        tb.alui(AluOp::Mul, Reg(3), Reg(1), mult);
        tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
        tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
        tb.store(Reg(3), Reg(5), 0);
        tb.end_loop(l);
        tb.halt();
    }
    b.build()
}

fn mem_only() -> FaultKindSet {
    FaultKindSet {
        reg: false,
        pc: false,
        mem: true,
        burst: false,
        stuck: false,
        crash: false,
    }
}

#[test]
fn shrunk_plans_are_minimal_reproducers_for_every_jobs_value() {
    let mut failing_draws = 0u32;
    forall(
        "shrunk_plans_are_minimal_reproducers_for_every_jobs_value",
        6,
        0x51C4,
        |rng| {
            let threads = rng.gen_range(1..=2u32);
            let program = kernel(
                threads as usize,
                rng.gen_range(30..=50u64),
                rng.gen_range(3..=13u64) | 1,
            );
            let cfg = CampaignConfig {
                seed: rng.next_u64(),
                count: rng.gen_range(8..=12u32),
                kinds: mem_only(),
                num_checkpoints: rng.gen_range(3..=5u32),
                jobs: 1,
                ..CampaignConfig::default()
            };
            let spec = ExperimentSpec::default()
                .with_cores(threads)
                .with_checkpoints(cfg.num_checkpoints);
            let mut exp = Experiment::new(program, spec).expect("valid kernel");
            let faults = exp.plan_dense_faults(&cfg, true).expect("plan generates");
            let seq = match exp.shrink_fault_case(&cfg, true, 0, &faults, &ShrinkConfig::default())
            {
                Ok(out) => out,
                Err(e) => {
                    // A recovering dense plan must be *rejected*, not
                    // half-shrunk.
                    assert!(e.to_string().contains("does not fail"), "{e}");
                    return;
                }
            };
            failing_draws += 1;

            // (a) Never larger.
            assert!(seq.minimal.len() <= faults.len());
            assert_eq!(seq.original_faults, faults.len());

            // (b) Still fails when replayed from scratch, with the
            // identical signature — trigger and probable cause
            // byte-for-byte.
            let replay = exp
                .replay_fault_case(&cfg, true, 0, &seq.minimal)
                .expect("replay runs")
                .expect("the minimal plan still fails");
            assert_eq!(replay.trigger, seq.failure.trigger);
            assert_eq!(
                replay.bundle.probable_cause,
                seq.failure.bundle.probable_cause
            );
            assert_eq!(replay.bundle.to_json(), seq.failure.bundle.to_json());

            // (c) Jobs-invariant: same minimal plan, signature,
            // forensics and even evaluation count at --jobs 4.
            let par = exp
                .shrink_fault_case(
                    &cfg,
                    true,
                    0,
                    &faults,
                    &ShrinkConfig {
                        jobs: 4,
                        ..ShrinkConfig::default()
                    },
                )
                .expect("fails identically at jobs=4");
            assert_eq!(seq.minimal, par.minimal);
            assert_eq!(seq.failure.trigger, par.failure.trigger);
            assert_eq!(
                seq.failure.bundle.probable_cause,
                par.failure.bundle.probable_cause
            );
            assert_eq!(seq.failure.bundle.to_json(), par.failure.bundle.to_json());
            assert_eq!(seq.evaluations, par.evaluations);
        },
    );
    assert!(
        failing_draws > 0,
        "no drawn dense plan failed — the property never fired"
    );
}

/// The acceptance-pinned forced-divergence case: a dense 10-fault `cg`
/// plan (the `acr_cli shrink` defaults) shrinks by at least half and
/// replays with the same trigger and probable cause.
#[test]
fn dense_cg_case_shrinks_by_half_with_the_same_signature() {
    let wl = workload(2, 0.05);
    let cfg = CampaignConfig {
        seed: 42,
        count: 10,
        kinds: mem_only(),
        num_checkpoints: 4,
        jobs: 1,
        ..CampaignConfig::default()
    };
    let mut exp = paper_experiment(Benchmark::Cg, wl, |spec| spec).expect("cg generates");
    let faults = exp.plan_dense_faults(&cfg, true).expect("plan generates");
    assert!(faults.len() >= 8, "want a dense plan, got {}", faults.len());
    let out = exp
        .shrink_fault_case(&cfg, true, 0, &faults, &ShrinkConfig::default())
        .expect("the pinned case fails");
    assert!(
        out.minimal.len() * 2 <= faults.len(),
        "acceptance: >=50% shrink, got {} of {}",
        out.minimal.len(),
        faults.len()
    );
    let replay = exp
        .replay_fault_case(&cfg, true, 0, &out.minimal)
        .expect("replay runs")
        .expect("still fails");
    assert_eq!(replay.trigger, out.failure.trigger);
    assert_eq!(
        replay.bundle.probable_cause,
        out.failure.bundle.probable_cause
    );
}
