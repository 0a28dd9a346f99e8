//! Run-manifest integration tests: the sim section a manifest gates on
//! must be byte-identical across `--jobs` values, survive a JSON
//! round-trip exactly, and make `diff` fail hard on any sim perturbation
//! while host timings only trip the tolerance band.

use acr::{campaign_sweep, Experiment, ExperimentSpec};
use acr_ckpt::CampaignConfig;
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_trace::{
    diff_manifests, BenchStats, DiffOptions, Fnv1a, Manifest, MetricsRegistry, WorkerLoad,
};

fn kernel(threads: usize, iters: u64) -> Program {
    let mut b = ProgramBuilder::new(threads);
    b.set_mem_bytes(1 << 20);
    for t in 0..threads as u32 {
        let base = u64::from(t) * 131072;
        let tb = b.thread(t);
        tb.imm(Reg(10), base);
        let outer = tb.begin_loop(Reg(8), Reg(9), 10);
        let l = tb.begin_loop(Reg(1), Reg(2), iters);
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

/// Splits a ten-fault campaign over two kernels and sweeps it the way
/// `acr_cli inject` does, then builds its manifest: per-workload content
/// hashes plus a combined fold, merged metrics digest, host gauges that
/// may legitimately differ between runs.
fn manifest_for(jobs: usize, wall_ns: u64) -> Manifest {
    let template = CampaignConfig {
        count: 10,
        num_checkpoints: 5,
        ..CampaignConfig::default()
    };
    let outcomes = campaign_sweep(&template, 2, true, jobs, |w| {
        let spec = ExperimentSpec::default().with_cores(2).with_checkpoints(5);
        Experiment::new(kernel(2, 40 + 10 * w as u64), spec)
    });
    let mut hashes: Vec<(String, u64)> = Vec::new();
    let mut merged = MetricsRegistry::new();
    let mut combined = Fnv1a::new();
    for (w, run, _) in outcomes {
        let run = run.expect("sweep runs");
        hashes.push((format!("kernel{w}"), run.report.content_hash()));
        combined.write_u64(run.report.content_hash());
        merged.merge(&run.report.metrics);
    }
    hashes.push(("combined".to_owned(), combined.finish()));
    Manifest {
        command: "inject".to_owned(),
        config: vec![
            ("seed".to_owned(), "42".to_owned()),
            ("faults".to_owned(), "10".to_owned()),
        ],
        sim_hashes: hashes,
        metrics_digest: merged.digest(),
        host: Manifest::worker_loads(&[WorkerLoad {
            busy_ns: wall_ns / 2,
            items: 10,
        }])
        .into_iter()
        .chain([("host.wall_ns".to_owned(), wall_ns)])
        .collect(),
        bench: None,
    }
}

/// The gated sim section is byte-identical for every jobs value even
/// though the host section differs — exactly the property that makes
/// cross-machine manifest diffs meaningful.
#[test]
fn sim_section_is_jobs_invariant_while_host_differs() {
    let seq = manifest_for(1, 1_000_000);
    let par = manifest_for(4, 1_100_000); // +10%: inside the tolerance band
    assert_eq!(seq.sim_json(), par.sim_json());
    assert_ne!(seq.host, par.host);
    let r = diff_manifests(&seq, &par, &DiffOptions::default());
    assert!(!r.failed(), "{}", r.render());
}

/// to_json -> parse is the identity on every compared field, including
/// u64 hashes above 2^53 (serialized as hex strings, not JSON numbers).
#[test]
fn manifest_round_trips_through_json() {
    let mut m = manifest_for(2, 3_456_789);
    m.bench = Some(BenchStats::from_samples(&[90, 100, 110], 1));
    let parsed = Manifest::from_json(&m.to_json()).expect("parses");
    assert_eq!(parsed.command, m.command);
    assert_eq!(parsed.config, m.config);
    assert_eq!(parsed.sim_hashes, m.sim_hashes);
    assert_eq!(parsed.metrics_digest, m.metrics_digest);
    assert_eq!(parsed.host, m.host);
    assert_eq!(parsed.bench, m.bench);
    // And the round-trip is a fixed point byte-wise.
    assert_eq!(parsed.to_json(), m.to_json());
}

/// A flipped sim hash fails the diff even with the host gate off — sim
/// regressions are never tolerated.
#[test]
fn diff_fails_hard_on_a_perturbed_hash() {
    let base = manifest_for(1, 1_000_000);
    let mut bad = manifest_for(1, 1_000_000);
    bad.sim_hashes[0].1 ^= 1;
    let opts = DiffOptions {
        gate_host: false,
        ..DiffOptions::default()
    };
    let r = diff_manifests(&base, &bad, &opts);
    assert!(r.sim_mismatch);
    assert!(r.failed(), "{}", r.render());
}

/// Host timings over the tolerance band fail only when the gate is on;
/// CI runs with the gate off, where the same delta is report-only.
#[test]
fn diff_gates_host_regressions_by_tolerance_band() {
    let base = manifest_for(1, 1_000_000);
    let slow = manifest_for(1, 2_000_000); // +100% wall time
    let gated = diff_manifests(&base, &slow, &DiffOptions::default());
    assert!(gated.host_regression);
    assert!(gated.failed(), "{}", gated.render());
    let opts = DiffOptions {
        gate_host: false,
        ..DiffOptions::default()
    };
    let ungated = diff_manifests(&base, &slow, &opts);
    assert!(ungated.host_regression);
    assert!(!ungated.failed(), "{}", ungated.render());
}
