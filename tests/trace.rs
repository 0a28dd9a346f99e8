//! Observability invariants: tracing is byte-deterministic per seed,
//! the disabled sink perturbs nothing, and the Chrome export round-trips
//! through our own parser with properly nested spans.

use acr::{Experiment, ExperimentSpec, RunResult};
use acr_bench::{paper_experiment, workload};
use acr_ckpt::CampaignConfig;
use acr_mem::CoreId;
use acr_sim::{Fault, FaultKind, FaultKindSet};
use acr_trace::{chrome_trace_json, validate_chrome_trace, SharedSink};
use acr_workloads::Benchmark;

/// The paper experiment of `bench` at two threads, scale 0.03 and eight
/// checkpoints, refined by `refine`.
fn experiment(
    bench: Benchmark,
    refine: impl FnOnce(ExperimentSpec) -> ExperimentSpec,
) -> Experiment {
    paper_experiment(bench, workload(2, 0.03), |spec| {
        refine(spec.with_checkpoints(8))
    })
    .expect("valid program")
}

/// Runs ACR under one injected recoverable fault with the refined spec
/// and returns the result (the report carries recoveries and, when
/// sampling is on, the metrics series).
fn faulted_run(
    bench: Benchmark,
    refine: impl FnOnce(ExperimentSpec) -> ExperimentSpec,
) -> RunResult {
    let mut exp = experiment(bench, refine);
    let total = exp.total_work().expect("baseline runs");
    let fault = Fault {
        at_progress: total / 2,
        core: CoreId(0),
        kind: FaultKind::RegBitFlip { reg: 5, bit: 17 },
    };
    exp.run_reckpt_faulted(vec![fault]).expect("faulted run")
}

fn traced_export(bench: Benchmark, detail: bool) -> String {
    let (sink, events) = SharedSink::memory();
    let run = faulted_run(bench, |spec| {
        spec.with_trace(sink.with_detail(detail))
            .with_sample_interval(2000)
    });
    let report = run.report.as_ref().expect("engine runs carry a report");
    let recorded = events.borrow().events().to_vec();
    chrome_trace_json(&recorded, Some(&report.series))
}

/// Same seed, same options → the exported trace file is byte-identical.
#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced_export(Benchmark::Is, false);
    let b = traced_export(Benchmark::Is, false);
    assert_eq!(a, b, "trace export must be byte-deterministic");
    assert!(!a.is_empty());
}

/// A traced run and an untraced run of the same configuration retire the
/// same instructions in the same number of cycles with identical memory
/// statistics — the sink is purely observational, even at detail level.
#[test]
fn tracing_does_not_perturb_the_run() {
    let untraced = faulted_run(Benchmark::Is, |spec| spec);
    let (sink, _events) = SharedSink::memory();
    let traced = faulted_run(Benchmark::Is, |spec| {
        spec.with_trace(sink.with_detail(true))
            .with_sample_interval(1000)
    });
    assert_eq!(untraced.cycles, traced.cycles, "cycles perturbed");
    assert_eq!(untraced.sim, traced.sim, "instruction mix perturbed");
    assert_eq!(untraced.mem, traced.mem, "memory stats perturbed");
    assert_eq!(
        untraced.checkpoint_bytes(),
        traced.checkpoint_bytes(),
        "checkpoint traffic perturbed"
    );
}

/// Campaign sampling is observational too: the content hash with
/// sampling on equals the hash with sampling off.
#[test]
fn sampling_does_not_change_campaign_hash() {
    let run = |sample_interval: u64| {
        let mut exp = experiment(Benchmark::Is, |spec| spec);
        let cfg = CampaignConfig {
            seed: 42,
            count: 12,
            kinds: FaultKindSet::recoverable(),
            sample_interval,
            ..CampaignConfig::default()
        };
        exp.run_fault_campaign(&cfg, true).expect("campaign")
    };
    let off = run(0);
    let on = run(4000);
    assert_eq!(
        off.report.content_hash(),
        on.report.content_hash(),
        "sampling must not perturb campaign outcomes"
    );
    assert!(off.report.baseline_series.samples().is_empty());
    assert!(!on.report.baseline_series.samples().is_empty());
}

/// The Chrome export parses with our own JSON parser, its spans nest
/// cleanly per track, and the load-bearing span names are all present —
/// including the recovery spans with Slice-replay sub-spans the injected
/// fault must produce.
#[test]
fn chrome_export_round_trips_with_nested_spans() {
    let text = traced_export(Benchmark::Cg, false);
    let summary = validate_chrome_trace(&text).expect("valid Chrome trace");
    assert!(summary.spans > 0, "no complete events");
    assert!(summary.counters > 0, "no counter samples");
    assert!(summary.count("ckpt") >= 1, "no checkpoint spans");
    assert!(
        summary.count("ckpt.interval") >= 1,
        "no checkpoint-interval spans"
    );
    assert_eq!(summary.count("recovery"), 1, "expected one recovery span");
    assert_eq!(
        summary.count("recovery.replay"),
        1,
        "recovery must carry a Slice-replay sub-span"
    );
    assert_eq!(summary.count("recovery.restore"), 1);
    assert_eq!(summary.count("fault.inject"), 1, "missing fault marker");
}
