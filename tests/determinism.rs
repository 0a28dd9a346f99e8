//! Bit-for-bit reproducibility: the simulator is deterministic by design
//! (explicit core interleaving, seeded generators), so identical
//! configurations must produce identical cycles, energy and reports.

use acr::CampaignRunResult;
use acr_bench::paper_experiment;
use acr_ckpt::CampaignConfig;
use acr_sim::FaultKindSet;
use acr_workloads::{generate, Benchmark, WorkloadConfig};

fn run_pair(bench: Benchmark, errors: u32) -> (u64, f64, u64) {
    let wl = WorkloadConfig {
        threads: 4,
        scale: 0.15,
        seed: 9,
    };
    let mut exp = paper_experiment(bench, wl, |spec| spec.with_checkpoints(5)).expect("valid");
    let r = exp.run_reckpt(errors).expect("run");
    (r.cycles, r.energy.total_joules(), r.checkpoint_bytes())
}

#[test]
fn identical_runs_are_bit_identical() {
    for errors in [0u32, 2] {
        let a = run_pair(Benchmark::Sp, errors);
        let b = run_pair(Benchmark::Sp, errors);
        assert_eq!(a.0, b.0, "cycles differ");
        assert!((a.1 - b.1).abs() < 1e-18, "energy differs");
        assert_eq!(a.2, b.2, "checkpoint bytes differ");
    }
}

fn run_campaign_once(seed: u64) -> CampaignRunResult {
    let wl = WorkloadConfig {
        threads: 2,
        scale: 0.05,
        seed: 5,
    };
    let mut exp = paper_experiment(Benchmark::Is, wl, |spec| spec).expect("valid");
    let cfg = CampaignConfig {
        seed,
        count: 30,
        kinds: FaultKindSet::all(),
        ..CampaignConfig::default()
    };
    exp.run_fault_campaign(&cfg, true).expect("campaign")
}

/// Two identically-seeded fault campaigns produce identical per-case
/// records, identical CSVs, the same content hash, and bit-identical
/// recovery energy.
#[test]
fn identical_campaigns_are_bit_identical() {
    let a = run_campaign_once(42);
    let b = run_campaign_once(42);
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.csv(), b.report.csv());
    assert_eq!(a.report.content_hash(), b.report.content_hash());
    assert_eq!(
        a.recovery_energy_joules.to_bits(),
        b.recovery_energy_joules.to_bits(),
        "recovery energy differs"
    );

    // And the hash actually discriminates: a different campaign seed
    // plans different faults.
    let c = run_campaign_once(43);
    assert_ne!(a.report.content_hash(), c.report.content_hash());
}

#[test]
fn different_seeds_differ() {
    let p1 = generate(
        Benchmark::Sp,
        &WorkloadConfig {
            threads: 2,
            scale: 0.15,
            seed: 1,
        },
    );
    let p2 = generate(
        Benchmark::Sp,
        &WorkloadConfig {
            threads: 2,
            scale: 0.15,
            seed: 2,
        },
    );
    assert_ne!(p1, p2);
}
