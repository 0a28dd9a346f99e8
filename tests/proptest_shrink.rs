//! Property tests for the failing-case shrinker.
//!
//! For randomly drawn kernels and dense mem-fault plans that happen to
//! fail, the shrunk plan must (a) never be larger than the original,
//! (b) still fail when replayed from scratch, and (c) carry the
//! *identical* failure signature — trigger and probable cause
//! byte-for-byte — for `--jobs 1` and `--jobs 4` alike. Draws whose
//! dense plan recovers cleanly are legitimate (the shrinker must reject
//! them) and are counted, not skipped silently. Fault lists a caller
//! hands to replay and shrink directly, however malformed, must end in
//! a typed error or a deterministic verdict, never a panic.

use acr::{Experiment, ExperimentSpec};
use acr_bench::{paper_experiment, workload};
use acr_ckpt::{Campaign, CampaignConfig, NoOmission, ShrinkConfig};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_mem::{CoreId, WordAddr};
use acr_rng::check::forall;
use acr_rng::SmallRng;
use acr_sim::{Fault, FaultKind, FaultKindSet, MachineConfig};
use acr_workloads::Benchmark;

/// The store-heavy kernel family the parallel-campaign properties use;
/// `mult` perturbs the data flow so draws exercise different Slices.
/// Thread `t` stores from byte `t * mem_bytes / 8` up.
fn kernel(threads: usize, iters: u64, mult: u64, mem_bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(threads);
    b.set_mem_bytes(mem_bytes);
    for t in 0..threads as u32 {
        let base = u64::from(t) * (mem_bytes / 8);
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
                1 << 20,
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
            let seq = match exp.shrink_fault_case(&cfg, true, 0, &ShrinkConfig::default()) {
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
            assert!(seq.minimal.len() <= seq.original_faults);

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
    let out = exp
        .shrink_fault_case(&cfg, true, 0, &ShrinkConfig::default())
        .expect("the pinned case fails");
    assert!(
        out.original_faults >= 8,
        "want a dense plan, got {}",
        out.original_faults
    );
    assert!(
        out.minimal.len() * 2 <= out.original_faults,
        "acceptance: >=50% shrink, got {} of {}",
        out.minimal.len(),
        out.original_faults
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

/// One draw in four is over the type's full range, the rest below
/// `bound`, so most lists reach the simulator and some are out of range.
fn mostly_below(rng: &mut SmallRng, bound: u64) -> u64 {
    if rng.gen_range(0..4u32) == 0 {
        rng.next_u64()
    } else {
        rng.gen_range(0..bound)
    }
}

/// A word address, mostly inside the `mem_bytes`-byte image.
fn any_addr(rng: &mut SmallRng, mem_bytes: u64) -> WordAddr {
    WordAddr::new(mostly_below(rng, mem_bytes) & !7)
}

/// A fault of any kind, every field drawn over its type's full range.
fn any_fault(rng: &mut SmallRng, total: u64, mem_bytes: u64) -> Fault {
    let small = |rng: &mut SmallRng, bound: u64| mostly_below(rng, bound) as u8;
    let kind = match rng.gen_range(0..6u32) {
        0 => FaultKind::RegBitFlip {
            reg: small(rng, 32),
            bit: small(rng, 64),
        },
        1 => FaultKind::PcBitFlip { bit: small(rng, 4) },
        2 => FaultKind::MemBitFlip {
            addr: any_addr(rng, mem_bytes),
            bit: small(rng, 64),
        },
        3 => FaultKind::MemBurst {
            addr: any_addr(rng, mem_bytes),
            bit: small(rng, 64),
            span: small(rng, 9),
        },
        4 => FaultKind::StuckAt {
            addr: any_addr(rng, mem_bytes),
            bit: small(rng, 64),
            stuck_one: rng.gen_bool(),
        },
        _ => FaultKind::Crash,
    };
    Fault {
        at_progress: mostly_below(rng, total * 2),
        core: CoreId(mostly_below(rng, 4) as u32),
        kind,
    }
}

/// Library half of "no panic from any input": random caller fault lists
/// — empty ones, out-of-range registers, bits and spans, addresses past
/// the image, cores past the thread count, injection points past the end
/// of the run — through replay (both policies) and shrink must return
/// `Ok` or a typed error, never panic, and the same result twice.
#[test]
fn caller_fault_lists_err_or_run_deterministically() {
    let program = kernel(2, 12, 5, 1 << 14);
    let mem_bytes = program.mem_bytes();
    let cfg = CampaignConfig {
        num_checkpoints: 3,
        jobs: 1,
        ..CampaignConfig::default()
    };
    let spec = ExperimentSpec::default()
        .with_cores(2)
        .with_checkpoints(cfg.num_checkpoints);
    let mut exp = Experiment::new(program.clone(), spec).expect("valid kernel");
    let campaign = Campaign::new(&program, MachineConfig::with_cores(2), &cfg, || NoOmission)
        .expect("baseline runs");
    let total = exp.total_work().expect("fault-free run");
    let shrink = ShrinkConfig {
        jobs: 1,
        max_evaluations: 3,
    };
    forall(
        "caller_fault_lists_err_or_run_deterministically",
        200,
        0xFA17_5EED,
        |rng| {
            let len = rng.gen_range(0..=4usize);
            let faults: Vec<Fault> = (0..len).map(|_| any_fault(rng, total, mem_bytes)).collect();
            let case = rng.gen_range(0..4usize);
            let amnesic = rng.gen_bool();
            let replay = |exp: &mut Experiment| {
                exp.replay_fault_case(&cfg, amnesic, case, &faults)
                    .map(|f| f.map(|f| f.bundle.to_json()))
            };
            assert_eq!(replay(&mut exp), replay(&mut exp), "{faults:?}");
            let shrunk = || {
                campaign
                    .shrink(case, &faults, &shrink)
                    .map(|out| (out.minimal, out.failure.bundle.to_json()))
            };
            assert_eq!(shrunk(), shrunk(), "{faults:?}");
        },
    );
}
