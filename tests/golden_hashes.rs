//! Golden campaign content hashes, plus digests of the phantom-error
//! path the paper figures run through, of the figure reports themselves
//! and of the compiler pass's output.
//!
//! The campaign pins run `acr_cli inject`'s own campaign code —
//! `acr_bench::run_campaigns`, which splits the faults over the workloads
//! and sweeps their paper experiments — and fold the per-workload content
//! hashes into the combined hash as the CLI does. The pins serve two
//! masters:
//!
//! * **Reproducibility regression**: any change to fault planning, the
//!   timing model, recovery, or report hashing shows up here as a hash
//!   mismatch instead of silently shifting every published number.
//! * **Cross-jobs equivalence**: the campaigns run with `jobs > 1`, so a
//!   merge-order bug in the parallel runner would change the hash away
//!   from the value pinned by the (sequential) seed runs.
//!
//! The 1000-fault pins match `acr_cli inject --seed 42 --faults 1000`
//! (plus `--recovery-faults`) and EXPERIMENTS.md, but a debug-profile run
//! costs minutes, so they ride only in release test runs
//! (`cargo test --release`); CI also checks them through the CLI itself.

use acr::{AcrPolicy, AddrMapConfig};
use acr_bench::{paper_experiment, run_campaigns, workload, FIGURE_TASKS};
use acr_ckpt::{
    detection_latency, uniform_points, BerConfig, BerEngine, CampaignConfig, ErrorSchedule,
    NoOmission, OmissionPolicy, ResilienceConfig, ScheduledError, Scheme, SecondaryStorage,
};
use acr_isa::Program;
use acr_mem::{CoreId, WordAddr};
use acr_sim::{
    Fault, FaultKind, FaultKindSet, Machine, MachineConfig, NoHooks, RecoveryFault,
    RecoveryFaultKind,
};
use acr_slicer::{instrument, SliceStats, SlicerConfig};
use acr_trace::{chrome_trace_json, Fnv1a, SharedSink};
use acr_workloads::{generate, Benchmark, WorkloadConfig};

const THREADS: u32 = 4;
const SCALE: f64 = 0.05;
const BENCHES: [Benchmark; 3] = [Benchmark::Is, Benchmark::Cg, Benchmark::Mg];

/// The CLI's combined hash: FNV-1a over the little-endian bytes of each
/// workload's content hash, in workload order (via the shared
/// `acr_trace::Fnv1a` — the pins below prove the consolidation changed no
/// value).
fn combined(hashes: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for &hash in hashes {
        h.write_u64(hash);
    }
    h.finish()
}

/// Runs `acr_cli inject --seed <seed> --faults <faults>` over `benches`
/// with the rest of the campaign from `template`, and returns the
/// per-workload content hashes. A parallel jobs value makes the pins also
/// exercise the sharded merge path.
fn content_hashes(
    benches: &[Benchmark],
    seed: u64,
    faults: u32,
    template: &CampaignConfig,
    jobs: usize,
) -> Vec<u64> {
    let campaign = CampaignConfig {
        seed,
        count: faults,
        ..template.clone()
    };
    run_campaigns(benches, workload(THREADS, SCALE), &campaign, true, jobs)
        .into_iter()
        .map(|(_, run, _)| run.expect("campaign runs").report.content_hash())
        .collect()
}

/// FNV-1a digest of the figure pipeline's phantom-error path: on every
/// golden workload, `run_ckpt(1)` and `run_reckpt(1)` under the global
/// scheme plus `run_ckpt(1)` under the local scheme, folding each
/// report's cycles, errors handled, per-recovery restored/recomputed/stall
/// and per-interval records/omitted.
fn phantom_digest() -> u64 {
    let mut h = Fnv1a::new();
    for bench in BENCHES {
        let mut global =
            paper_experiment(bench, workload(THREADS, SCALE), |spec| spec).expect("valid workload");
        let mut local = paper_experiment(bench, workload(THREADS, SCALE), |spec| {
            spec.with_scheme(Scheme::LocalCoordinated)
        })
        .expect("valid workload");
        let runs = [
            global.run_ckpt(1).expect("ckpt run"),
            global.run_reckpt(1).expect("reckpt run"),
            local.run_ckpt(1).expect("local ckpt run"),
        ];
        for run in runs {
            let rep = run.report.expect("checkpointed runs carry a report");
            assert_eq!(rep.errors_handled, 1, "{}: one phantom error", run.label);
            h.write_u64(rep.cycles);
            h.write_u64(rep.errors_handled);
            for r in &rep.recoveries {
                h.write_u64(r.restored_records);
                h.write_u64(r.recomputed_values);
                h.write_u64(r.stall_cycles);
            }
            for i in &rep.intervals {
                h.write_u64(i.records);
                h.write_u64(i.omitted);
            }
        }
    }
    h.finish()
}

/// The phantom-error pin: the figure pipeline must not move when the
/// engine's error model is refactored.
#[test]
fn golden_hash_phantom_errors() {
    assert_eq!(
        phantom_digest(),
        0xa8e2192ff0adb0c2,
        "phantom-error digest moved"
    );
}

/// Folds a value's `Debug` rendering, length-prefixed.
fn fold_debug(h: &mut Fnv1a, v: &dyn std::fmt::Debug) {
    let s = format!("{v:?}");
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

/// FNV-1a digest of the compiler pass's output on the paper-figure
/// programs (all eight kernels, default 8-thread scale-1.0 config) at
/// Slice thresholds 5, 10 and 50: every instruction of every instrumented
/// thread, its label regions, the embedded Slice table and every
/// [`SliceStats`] field.
fn instrumentation_digest() -> u64 {
    let mut h = Fnv1a::new();
    for bench in Benchmark::ALL {
        let program = generate(bench, &WorkloadConfig::default());
        for threshold in [5, 10, 50] {
            let (ip, stats) = instrument(&program, &SlicerConfig { threshold });
            for (t, code) in ip.threads().iter().enumerate() {
                h.write_u64(code.len() as u64);
                for instr in code.instrs() {
                    fold_debug(&mut h, instr);
                }
                fold_debug(&mut h, &ip.thread_labels(t as u32));
            }
            h.write_u64(ip.slices().len() as u64);
            for slice in ip.slices() {
                fold_debug(&mut h, slice);
            }
            // Destructured so a new field cannot escape the pin.
            let SliceStats {
                static_stores,
                sliced_stores,
                rejected_too_long,
                rejected_threshold_filter,
                rejected_store_pcs,
                rejected_no_arith,
                rejected_too_many_inputs,
                rejected_input_clobbered,
                length_histogram,
                unique_slices,
                embedded_slice_instrs,
            } = stats;
            for v in [
                static_stores,
                sliced_stores,
                rejected_too_long,
                rejected_threshold_filter,
                rejected_no_arith,
                rejected_too_many_inputs,
                rejected_input_clobbered,
                unique_slices,
                embedded_slice_instrs,
            ] {
                h.write_u64(v);
            }
            fold_debug(&mut h, &rejected_store_pcs);
            fold_debug(&mut h, &length_histogram);
        }
    }
    h.finish()
}

/// The compiler-pass pin: the instrumented binaries every result path
/// simulates must not move when the slicer changes.
#[test]
fn golden_hash_instrumentation() {
    assert_eq!(
        instrumentation_digest(),
        0xf31f8467b3c81bfe,
        "instrumentation digest moved"
    );
}

/// The default `inject` campaign: recoverable kinds, global scheme.
fn inject_defaults(recovery_faults: bool) -> CampaignConfig {
    CampaignConfig {
        kinds: FaultKindSet::recoverable(),
        recovery_faults,
        ..CampaignConfig::default()
    }
}

/// `inject --seed 42 --faults 200`: cheap enough for every profile.
#[test]
fn golden_hash_200_faults() {
    let hashes = content_hashes(&BENCHES, 42, 200, &inject_defaults(false), 4);
    assert_eq!(
        hashes,
        [0x06521c827f174fec, 0xbece6c8dc712d4d7, 0x952051189f0f9d35],
        "per-workload content hashes moved"
    );
    assert_eq!(combined(&hashes), 0xbc40ca2ec6d2d9bd, "combined hash moved");
}

/// `inject --seed 42 --faults 1000` — the hash EXPERIMENTS.md publishes.
#[cfg(not(debug_assertions))]
#[test]
fn golden_hash_1000_faults() {
    let hashes = content_hashes(&BENCHES, 42, 1000, &inject_defaults(false), 4);
    assert_eq!(
        hashes,
        [0x81b27c1de07d532a, 0xb0b066289f8a1355, 0xdfc7df89a8fb09fb],
        "per-workload content hashes moved"
    );
    assert_eq!(combined(&hashes), 0x0e73a8b36bdbdb2f, "combined hash moved");
}

/// `inject --seed 42 --faults 1000 --recovery-faults`: the nested-fault
/// escalation data extends the hash; pin that too.
#[cfg(not(debug_assertions))]
#[test]
fn golden_hash_1000_faults_with_recovery_faults() {
    let hashes = content_hashes(&BENCHES, 42, 1000, &inject_defaults(true), 4);
    assert_eq!(
        hashes,
        [0xe9627d0decaffc76, 0x4aa17e0ee53bbe4f, 0x7c9e13d0005fd6c9],
        "per-workload content hashes moved"
    );
    assert_eq!(combined(&hashes), 0x3911050a1804b4e6, "combined hash moved");
}

/// `inject --seed 42 --faults 30 --workloads ft,dc,lu --scheme local
/// --kinds crash`: a crash power-cycles every core, so under the local
/// scheme too every case must roll the whole machine back and recover.
#[test]
fn golden_hash_local_crashes() {
    let crashes = CampaignConfig {
        kinds: FaultKindSet {
            reg: false,
            pc: false,
            mem: false,
            burst: false,
            stuck: false,
            crash: true,
        },
        scheme: Scheme::LocalCoordinated,
        ..CampaignConfig::default()
    };
    let benches = [Benchmark::Ft, Benchmark::Dc, Benchmark::Lu];
    let hashes = content_hashes(&benches, 42, 30, &crashes, 2);
    assert_eq!(
        hashes,
        [0x87800bbbb0c30d2d, 0x5e798337f284d6ea, 0x3a11d34d5a5c5527],
        "per-workload content hashes moved"
    );
    assert_eq!(combined(&hashes), 0xe1ac127ee86a7cd1, "combined hash moved");
}

/// FNV-1a hash of each report of each `FIGURE_TASKS` entry named in
/// `names`, run at `scale`: the value `acr_cli figures --scale <scale>
/// --only <names>` records per task in its manifest.
fn figure_task_hashes(names: &[&str], scale: f64) -> Vec<(&'static str, u64)> {
    FIGURE_TASKS
        .iter()
        .filter(|(name, _)| names.contains(name))
        .map(|(name, run)| {
            let mut h = Fnv1a::new();
            for report in run(scale).expect("figure task runs") {
                h.write(report.as_bytes());
            }
            (*name, h.finish())
        })
        .collect()
}

/// The tasks each figure pin below runs, in `FIGURE_TASKS` order.
const FIGURE_PINS: [&[&str]; 5] = [
    PINNED_AT_005,
    PINNED_SWEEPS,
    PINNED_SCALABILITY,
    PINNED_FIG13,
    PINNED_SUPPLEMENTARY,
];
const PINNED_AT_005: &[&str] = &["fig01", "table1", "figs06-09", "fig10"];
const PINNED_SWEEPS: &[&str] = &["table2", "fig11", "fig12"];
const PINNED_SCALABILITY: &[&str] = &["scalability"];
const PINNED_FIG13: &[&str] = &["fig13"];
const PINNED_SUPPLEMENTARY: &[&str] = &[
    "fig10-csv",
    "ablation-addrmap",
    "ablation-detection-latency",
    "ablation-hierarchical",
    "ablation-scratchpad",
    "ablation-trivial-slices",
    "energy-breakdown",
    "extension-placement",
];

/// A new `FIGURE_TASKS` entry needs a pin under tier-1, not only CI's
/// `cmp` with `results/FIGURES_reference.txt`: every task is named by
/// exactly one figure pin, and every pinned name is a task.
#[test]
fn every_figure_task_is_pinned_once() {
    let pinned: Vec<&str> = FIGURE_PINS.iter().flat_map(|p| p.iter().copied()).collect();
    for (name, _) in FIGURE_TASKS {
        let pins = pinned.iter().filter(|p| *p == name).count();
        assert_eq!(pins, 1, "figure task `{name}` is pinned {pins} times");
    }
    assert_eq!(pinned.len(), FIGURE_TASKS.len(), "a pin names no task");
}

/// Per-task hashes of `acr_cli figures --scale 0.05 --only
/// fig01,table1,figs06-09,fig10`, the same values its manifest records.
/// These were taken from the per-figure report functions before they were
/// folded into one task list.
#[test]
fn golden_hash_figures() {
    assert_eq!(
        figure_task_hashes(PINNED_AT_005, 0.05),
        [
            ("fig01", 0x98a9c589205a0d4b),
            ("table1", 0x632bade0057951a3),
            ("figs06-09", 0xb6f5ec179a150ed5),
            ("fig10", 0x1dca18ca347e1e35),
        ],
        "figure report hashes moved"
    );
}

/// Per-task hashes of `acr_cli figures --scale 0.01 --only
/// table2,fig11,fig12`, taken before these reports shared one threshold
/// loop and one sweep table. Every workload phase runs at least one sweep,
/// so no smaller scale makes these runs cheaper.
#[test]
fn golden_hash_sweep_figures() {
    assert_eq!(
        figure_task_hashes(PINNED_SWEEPS, 0.01),
        [
            ("table2", 0xefcc9aac2227cd86),
            ("fig11", 0x6a90c887e4cd59f9),
            ("fig12", 0xf806d92640ceead0),
        ],
        "sweep report hashes moved"
    );
}

/// `acr_cli figures --scale 0.01 --only scalability`: the 16- and
/// 32-thread runs make it the costliest task, so it is its own test and
/// runs next to the sweep pin.
#[test]
fn golden_hash_scalability() {
    assert_eq!(
        figure_task_hashes(PINNED_SCALABILITY, 0.01),
        [("scalability", 0xe5af022e0796d27c)],
        "scalability report hash moved"
    );
}

/// `acr_cli figures --scale 0.01 --only fig13`: eight runs per kernel,
/// so it runs in its own test, next to the supplementary pin.
#[test]
fn golden_hash_fig13() {
    assert_eq!(
        figure_task_hashes(PINNED_FIG13, 0.01),
        [("fig13", 0xef9086d182b85e92)],
        "fig13 report hash moved"
    );
}

/// Per-task hashes of `acr_cli figures --scale 0.01` for Fig. 10's CSV,
/// the five ablations and the two extensions.
#[test]
fn golden_hash_supplementary_figures() {
    assert_eq!(
        figure_task_hashes(PINNED_SUPPLEMENTARY, 0.01),
        [
            ("fig10-csv", 0xc92c406f1df451bd),
            ("ablation-addrmap", 0x4442132e1ee57ea7),
            ("ablation-detection-latency", 0x5e22553ef7faaa20),
            ("ablation-hierarchical", 0x1f8b3a89647112be),
            ("ablation-scratchpad", 0xeb728fd398c65546),
            ("ablation-trivial-slices", 0x89287c39dac9cb90),
            ("energy-breakdown", 0xbd9c6f73efe75c51),
            ("extension-placement", 0x385bd743909c8955),
        ],
        "supplementary report hashes moved"
    );
}

/// Checkpoints per engine-pin run.
const ENGINE_CHECKPOINTS: u32 = 8;

/// One BER-engine configuration of the engine pin: two corruption-free
/// errors plus `faults`, under `scheme`, with `resilience` and
/// `secondary`. `scratchpad` applies to the ACR policy only.
struct EngineCase {
    scheme: Scheme,
    phantom_errors: u32,
    faults: Vec<Fault>,
    resilience: ResilienceConfig,
    secondary: Option<SecondaryStorage>,
    scratchpad: bool,
}

impl EngineCase {
    fn new(scheme: Scheme, faults: Vec<Fault>) -> Self {
        EngineCase {
            scheme,
            phantom_errors: 2,
            faults,
            resilience: ResilienceConfig::default(),
            secondary: None,
            scratchpad: false,
        }
    }

    fn config(&self, total: u64) -> BerConfig {
        let latency = detection_latency(total, ENGINE_CHECKPOINTS, 0.5).expect("valid latency");
        let mut errors =
            ErrorSchedule::uniform(total, self.phantom_errors, ENGINE_CHECKPOINTS, 0.5).errors;
        errors.extend(self.faults.iter().map(|&f| ScheduledError::from(f)));
        BerConfig {
            scheme: self.scheme,
            triggers: uniform_points(total, ENGINE_CHECKPOINTS),
            errors: ErrorSchedule {
                errors,
                detection_latency: latency,
            },
            oracle: true,
            secondary: self.secondary,
            resilience: self.resilience.clone(),
        }
    }
}

/// The engine pin's runs: every recovery-window fault class alone and
/// all five together at `generations: 2`, striking the first two
/// recoveries (only the second has omitted values to replay), a watchdog
/// abort, local-scheme
/// runs (corruption-free, register flip, crash), a hierarchical
/// secondary-storage run and a stuck-at cell on `stuck`.
fn engine_cases(total: u64, stuck: WordAddr) -> Vec<EngineCase> {
    let fault = |at_progress, core, kind| Fault {
        at_progress,
        core: CoreId(core),
        kind,
    };
    let reg_flip = fault(total / 3, 1, FaultKind::RegBitFlip { reg: 3, bit: 7 });
    let kinds = [
        RecoveryFaultKind::TornCommit,
        RecoveryFaultKind::TornRecord { bit: 9 },
        RecoveryFaultKind::ReplayInput { bit: 3 },
        RecoveryFaultKind::RestoredWordFlip { bit: 17 },
        RecoveryFaultKind::CrashMidRestore,
    ];
    let nested = |kinds: &[RecoveryFaultKind]| {
        let mut case = EngineCase::new(Scheme::GlobalCoordinated, vec![reg_flip]);
        case.resilience = ResilienceConfig {
            generations: 2,
            recovery_faults: (0..2)
                .flat_map(|at_recovery| {
                    kinds
                        .iter()
                        .map(move |&kind| RecoveryFault { at_recovery, kind })
                })
                .collect(),
            ..ResilienceConfig::default()
        };
        case
    };
    let mut cases: Vec<EngineCase> = kinds.iter().map(|k| nested(&[*k])).collect();
    let mut all = nested(&kinds);
    all.scratchpad = true;
    cases.push(all);
    let mut watchdog = nested(&[RecoveryFaultKind::CrashMidRestore]);
    watchdog.resilience.watchdog_budget_cycles = 1;
    cases.push(watchdog);
    cases.push(EngineCase::new(Scheme::LocalCoordinated, Vec::new()));
    cases.push(EngineCase::new(Scheme::LocalCoordinated, vec![reg_flip]));
    cases.push(EngineCase::new(
        Scheme::LocalCoordinated,
        vec![fault(total / 2, 2, FaultKind::Crash)],
    ));
    let mut secondary = EngineCase::new(Scheme::GlobalCoordinated, Vec::new());
    secondary.secondary = Some(SecondaryStorage {
        every: 2,
        ..SecondaryStorage::default()
    });
    cases.push(secondary);
    cases.push(EngineCase::new(
        Scheme::GlobalCoordinated,
        vec![fault(
            total / 4,
            0,
            FaultKind::StuckAt {
                addr: stuck,
                bit: 0,
                stuck_one: true,
            },
        )],
    ));
    cases
}

/// Runs one engine over `program` with a memory trace sink, sampling and
/// the decision ledger attached, and folds the whole outcome: the
/// `BerReport` (or the error text and `partial_report()`), the ledger, the
/// Chrome trace and the final `ckpt.*` metrics.
fn fold_engine_run<P: OmissionPolicy>(h: &mut Fnv1a, program: &Program, policy: P, cfg: BerConfig) {
    let mut machine = Machine::new(MachineConfig::with_cores(THREADS), program);
    let (sink, events) = SharedSink::memory();
    machine.set_trace_sink(sink);
    machine.enable_sampling(20_000);
    let mut engine = BerEngine::new(machine, policy, cfg).expect("valid engine config");
    engine.enable_ledger();
    match engine.run_to_completion() {
        Ok(report) => fold_debug(h, &report),
        Err(err) => {
            fold_debug(h, &err.to_string());
            fold_debug(h, engine.partial_report());
        }
    }
    fold_debug(h, &engine.ledger());
    h.write(chrome_trace_json(events.borrow().events(), None).as_bytes());
    for (key, value) in engine.machine_mut().metrics_mut().iter() {
        if key.starts_with("ckpt.") {
            fold_debug(h, &key);
            h.write_u64(value);
        }
    }
}

/// FNV-1a digest of the BER engine's checkpoint and recovery handlers:
/// every [`engine_cases`] run on `mg` (4 threads, scale 0.05) under both
/// the baseline and the ACR policy.
fn engine_digest() -> u64 {
    let bench = Benchmark::Mg;
    let raw = generate(bench, &workload(THREADS, SCALE));
    let (acr, stats) = instrument(
        &raw,
        &SlicerConfig {
            threshold: bench.default_threshold(),
        },
    );
    let mut reference = Machine::new(MachineConfig::with_cores(THREADS), &raw);
    let initial = reference.mem().image().words().to_vec();
    reference
        .run(&mut NoHooks, u64::MAX)
        .expect("reference run");
    let total = reference.total_retired();
    let written = reference
        .mem()
        .image()
        .words()
        .iter()
        .zip(&initial)
        .position(|(a, b)| a != b)
        .expect("the workload writes memory");
    let stuck = WordAddr::new(written as u64 * 8);
    let mut h = Fnv1a::new();
    for case in engine_cases(total, stuck) {
        let cfg = case.config(total);
        fold_engine_run(&mut h, &raw, NoOmission, cfg.clone());
        let policy = AcrPolicy::new(acr.slices(), AddrMapConfig::default(), THREADS as usize)
            .with_scratchpad(case.scratchpad)
            .with_rejected_pcs(&stats.rejected_store_pcs)
            .with_generations(cfg.resilience.generations);
        fold_engine_run(&mut h, &acr, policy, cfg);
    }
    h.finish()
}

/// The engine pin: reports, traces and `ckpt.*` metrics of the checkpoint
/// and recovery handlers must not move when the engine is restructured.
#[test]
fn golden_hash_engine() {
    assert_eq!(engine_digest(), 0x73bd0d4b2975a364, "engine digest moved");
}
