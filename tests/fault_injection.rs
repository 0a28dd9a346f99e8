//! End-to-end fault-injection campaigns over the bundled NAS-style
//! workloads: hundreds of seeded faults, every one detected, every
//! recovery differentially verified against the reference interpreter.
//!
//! This is the integration-level counterpart of the unit campaigns in
//! `acr-ckpt`: real workloads, the real compiler pass, and the real
//! `AcrPolicy` recomputing omitted values from Slices during recovery.

use acr::CampaignRunResult;
use acr_bench::paper_experiment;
use acr_ckpt::{CampaignConfig, CaseOutcome};
use acr_sim::FaultKindSet;
use acr_workloads::{Benchmark, WorkloadConfig};

const THREADS: u32 = 2;

fn campaign(
    bench: Benchmark,
    seed: u64,
    count: u32,
    kinds: FaultKindSet,
    amnesic: bool,
) -> CampaignRunResult {
    let wl = WorkloadConfig {
        threads: THREADS,
        scale: 0.05,
        seed: 9,
    };
    let mut exp = paper_experiment(bench, wl, |spec| spec).expect("valid workload");
    let cfg = CampaignConfig {
        seed,
        count,
        kinds,
        num_checkpoints: 8,
        ..CampaignConfig::default()
    };
    exp.run_fault_campaign(&cfg, amnesic)
        .expect("campaign runs")
}

/// ≥200 seeded faults across three workloads, amnesic recovery: every
/// fault is detected and every recovery converges to the fault-free
/// reference state (zero divergent words).
#[test]
fn two_hundred_faults_across_workloads_all_converge() {
    let benches = [Benchmark::Is, Benchmark::Cg, Benchmark::Mg];
    let per_workload = 70u32;
    let mut injected = 0u64;
    let mut recomputed = 0u64;
    for (i, &bench) in benches.iter().enumerate() {
        let run = campaign(
            bench,
            42 + i as u64,
            per_workload,
            FaultKindSet::recoverable(),
            true,
        );
        let r = &run.report;
        assert_eq!(run.label, "Inject_ReCkpt");
        assert_eq!(r.injected(), u64::from(per_workload), "{}", bench.name());
        assert_eq!(
            r.totals().detected,
            u64::from(per_workload),
            "{}: {}",
            bench.name(),
            r.summary()
        );
        assert_eq!(
            r.recovered(),
            u64::from(per_workload),
            "{}: {}",
            bench.name(),
            r.summary()
        );
        assert_eq!(r.totals().diverged, 0, "{}", bench.name());
        assert_eq!(r.totals().aborted, 0, "{}", bench.name());
        assert_eq!(r.totals().divergent_words, 0, "{}", bench.name());
        for c in &r.cases {
            assert_eq!(c.outcome, CaseOutcome::Recovered, "{c:?}");
            assert_eq!(c.final_retired, r.total_progress, "{c:?}");
            assert!(c.recoveries >= 1, "undetected fault: {c:?}");
        }
        assert!(run.recovery_energy_joules > 0.0);
        injected += r.injected();
        recomputed += r.recomputed_values();
    }
    assert!(injected >= 200, "only {injected} faults injected");
    // The amnesic policy must actually exercise Slice re-execution.
    assert!(recomputed > 0, "no values were recomputed from Slices");
}

/// The non-amnesic baseline recovers the same faults purely from the log:
/// same convergence, zero recomputation.
#[test]
fn baseline_policy_converges_without_recomputation() {
    let run = campaign(Benchmark::Is, 7, 25, FaultKindSet::recoverable(), false);
    let r = &run.report;
    assert_eq!(run.label, "Inject_Ckpt");
    assert_eq!(r.recovered(), 25, "{}", r.summary());
    assert_eq!(r.totals().divergent_words, 0);
    assert_eq!(r.recomputed_values(), 0);
    assert!(r.restored_records() > 0);
}

/// Crash faults (whole-core state loss) are detected immediately and
/// always recovered.
#[test]
fn crash_faults_recover() {
    let crash_only = FaultKindSet {
        reg: false,
        pc: false,
        mem: false,
        burst: false,
        stuck: false,
        crash: true,
    };
    let run = campaign(Benchmark::Cg, 13, 20, crash_only, true);
    let r = &run.report;
    let (total, ok) = r.kind_counts("crash");
    assert_eq!(total, 20);
    assert_eq!(ok, 20, "{}", r.summary());
    assert_eq!(r.totals().divergent_words, 0);
}
