//! Cross-jobs equivalence properties for the parallel campaign runner.
//!
//! For randomly drawn kernels and campaign parameters — including
//! nested recovery-window faults — the *entire* `CampaignRunResult`
//! (every case record, the content hash, the CSV exports, the merged
//! metrics registry, the progress log, the recovery-energy bits) must be
//! byte-identical for every worker count. A scheduling-dependent merge,
//! a shard-local counter that escapes, or a case handed to the wrong
//! worker state all fail here.

use acr::{CampaignRunResult, Experiment, ExperimentSpec};
use acr_ckpt::CampaignConfig;
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_rng::check::forall;
use acr_sim::{FaultKind, FaultKindSet, FaultStorm};

/// A small store-heavy kernel with per-thread disjoint buffers; `mult`
/// perturbs the data flow so different draws exercise different Slices.
fn kernel(threads: usize, iters: u64, mult: u64) -> Program {
    let mut b = ProgramBuilder::new(threads);
    b.set_mem_bytes(1 << 20);
    for t in 0..threads as u32 {
        let base = u64::from(t) * 131072;
        let tb = b.thread(t);
        tb.imm(Reg(10), base);
        let outer = tb.begin_loop(Reg(8), Reg(9), 10);
        let inner = tb.begin_loop(Reg(1), Reg(2), iters);
        tb.alui(AluOp::Mul, Reg(3), Reg(1), mult);
        tb.alu(AluOp::Xor, Reg(3), Reg(3), Reg(8));
        tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
        tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
        tb.store(Reg(3), Reg(5), 0);
        tb.end_loop(inner);
        tb.end_loop(outer);
        tb.halt();
    }
    b.build()
}

fn run(program: &Program, threads: u32, cfg: &CampaignConfig) -> CampaignRunResult {
    let spec = ExperimentSpec::default()
        .with_cores(threads)
        .with_checkpoints(cfg.num_checkpoints);
    let mut exp = Experiment::new(program.clone(), spec).expect("valid kernel");
    exp.run_fault_campaign(cfg, true).expect("campaign runs")
}

/// Asserts every observable of two runs matches, not just the hash.
fn assert_equivalent(seq: &CampaignRunResult, par: &CampaignRunResult, jobs: usize) {
    assert_eq!(seq.report, par.report, "jobs={jobs}");
    assert_eq!(
        seq.report.content_hash(),
        par.report.content_hash(),
        "jobs={jobs}"
    );
    assert_eq!(seq.report.csv(), par.report.csv(), "jobs={jobs}");
    assert_eq!(
        seq.report.escalation_csv(),
        par.report.escalation_csv(),
        "jobs={jobs}"
    );
    assert_eq!(seq.report.case_log, par.report.case_log, "jobs={jobs}");
    assert_eq!(seq.label, par.label, "jobs={jobs}");
    assert_eq!(
        seq.recovery_energy_joules.to_bits(),
        par.recovery_energy_joules.to_bits(),
        "jobs={jobs}"
    );
}

/// Plain campaigns: the report is jobs-invariant for every drawn
/// configuration.
#[test]
fn campaign_report_is_jobs_invariant() {
    forall("campaign_report_is_jobs_invariant", 4, 0xACAB, |rng| {
        let threads = rng.gen_range(1..=2u32);
        let program = kernel(
            threads as usize,
            rng.gen_range(30..=60u64),
            rng.gen_range(3..=17u64) | 1,
        );
        let mut cfg = CampaignConfig {
            seed: rng.next_u64(),
            count: rng.gen_range(5..=8u32),
            kinds: FaultKindSet::recoverable(),
            num_checkpoints: rng.gen_range(4..=7u32),
            progress: true,
            ..CampaignConfig::default()
        };
        cfg.jobs = 1;
        let seq = run(&program, threads, &cfg);
        assert!(!seq.report.case_log.is_empty(), "progress log was on");
        for jobs in [2usize, 4, 8] {
            cfg.jobs = jobs;
            let par = run(&program, threads, &cfg);
            assert_equivalent(&seq, &par, jobs);
        }
    });
}

/// Nested-fault campaigns: recovery-window faults stress the escalation
/// paths (retries, generation fallbacks, degraded entries), whose
/// per-case data extends the content hash — all still jobs-invariant.
#[test]
fn recovery_fault_campaign_is_jobs_invariant() {
    forall(
        "recovery_fault_campaign_is_jobs_invariant",
        3,
        0xF00D,
        |rng| {
            let threads = rng.gen_range(1..=2u32);
            let program = kernel(
                threads as usize,
                rng.gen_range(30..=50u64),
                rng.gen_range(3..=13u64) | 1,
            );
            let mut cfg = CampaignConfig {
                seed: rng.next_u64(),
                count: rng.gen_range(4..=6u32),
                kinds: FaultKindSet::recoverable(),
                num_checkpoints: rng.gen_range(4..=6u32),
                recovery_faults: true,
                generations: 2,
                progress: true,
                ..CampaignConfig::default()
            };
            cfg.jobs = 1;
            let seq = run(&program, threads, &cfg);
            assert!(
                seq.report.escalation_csv().lines().count() > 1,
                "nested faults must produce escalation rows"
            );
            for jobs in [2usize, 4, 8] {
                cfg.jobs = jobs;
                let par = run(&program, threads, &cfg);
                assert_equivalent(&seq, &par, jobs);
            }
        },
    );
}

/// Adversarial campaigns: multi-bit bursts, stuck-at cells (which
/// re-corrupt every write until recovery rewrites the line) and
/// storm-clustered placement feed the same case-index-ordered merge —
/// the report must stay jobs-invariant for them too.
#[test]
fn adversarial_campaign_is_jobs_invariant() {
    forall(
        "adversarial_campaign_is_jobs_invariant",
        3,
        0xBAD_B17,
        |rng| {
            let threads = rng.gen_range(1..=2u32);
            let program = kernel(
                threads as usize,
                rng.gen_range(30..=50u64),
                rng.gen_range(3..=13u64) | 1,
            );
            let stormy = rng.gen_range(0..=1u32) == 1;
            let mut cfg = CampaignConfig {
                seed: rng.next_u64(),
                count: rng.gen_range(5..=8u32),
                kinds: FaultKindSet {
                    reg: false,
                    pc: false,
                    mem: true,
                    burst: true,
                    stuck: true,
                    crash: false,
                },
                storm: stormy.then(|| FaultStorm {
                    mean_gap: rng.gen_range(50..=400u64),
                    max_burst: rng.gen_range(2..=5u32),
                }),
                num_checkpoints: rng.gen_range(4..=7u32),
                progress: true,
                ..CampaignConfig::default()
            };
            cfg.jobs = 1;
            let seq = run(&program, threads, &cfg);
            assert!(
                seq.report.cases.iter().any(|c| matches!(
                    c.fault.kind,
                    FaultKind::MemBurst { .. } | FaultKind::StuckAt { .. }
                )),
                "the adversarial kinds must actually reach the plan"
            );
            // Every case lands in exactly one outcome class.
            let [recovered, due, sdc, hang] = seq.report.totals().classes;
            assert_eq!(recovered + due + sdc + hang, seq.report.cases.len() as u64);
            for jobs in [2usize, 4, 8] {
                cfg.jobs = jobs;
                let par = run(&program, threads, &cfg);
                assert_equivalent(&seq, &par, jobs);
            }
        },
    );
}
