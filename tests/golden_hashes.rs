//! Golden campaign content hashes, plus digests of the phantom-error
//! path the paper figures run through and of the compiler pass's output.
//!
//! These tests replicate `acr_cli inject`'s exact campaign construction —
//! workload list, per-workload fault split, seed offsets, spec and
//! campaign defaults, and the FNV-1a fold of per-workload content hashes
//! into the combined hash — and pin the resulting values. The pins serve
//! two masters:
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

use acr::{run_campaign_sweep, CampaignSweepItem, Experiment, ExperimentSpec};
use acr_ckpt::{CampaignConfig, Scheme};
use acr_sim::FaultKindSet;
use acr_slicer::{instrument, SliceStats, SlicerConfig};
use acr_trace::Fnv1a;
use acr_workloads::{generate, Benchmark, WorkloadConfig};

const THREADS: u32 = 4;
const SCALE: f64 = 0.05;
const BENCHES: [Benchmark; 3] = [Benchmark::Is, Benchmark::Cg, Benchmark::Mg];

/// Mirrors `acr_cli inject`: `faults` split evenly across the workloads
/// (remainder to the first ones), per-workload seed = `seed + index`.
fn items(seed: u64, faults: u32, recovery_faults: bool) -> Vec<CampaignSweepItem> {
    let n = BENCHES.len() as u32;
    let base = faults / n;
    let rem = faults % n;
    BENCHES
        .iter()
        .enumerate()
        .map(|(i, &bench)| CampaignSweepItem {
            name: bench.name().to_owned(),
            program: generate(
                bench,
                &WorkloadConfig::default()
                    .with_threads(THREADS)
                    .with_scale(SCALE),
            ),
            campaign: CampaignConfig {
                seed: seed.wrapping_add(i as u64),
                count: base + u32::from((i as u32) < rem),
                kinds: FaultKindSet::recoverable(),
                recovery_faults,
                ..CampaignConfig::default()
            },
            amnesic: true,
        })
        .collect()
}

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

/// Runs the replicated inject campaign and returns per-workload content
/// hashes, using a parallel jobs value so the golden pins also exercise
/// the sharded merge path.
fn content_hashes(seed: u64, faults: u32, recovery_faults: bool, jobs: usize) -> Vec<u64> {
    let items = items(seed, faults, recovery_faults);
    run_campaign_sweep(&items, jobs, |item| {
        let bench = Benchmark::from_name(&item.name).expect("items are built from benchmarks");
        ExperimentSpec::default()
            .with_cores(THREADS)
            .with_threshold(bench.default_threshold())
    })
    .into_iter()
    .map(|o| o.run.expect("campaign runs").report.content_hash())
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
        let program = generate(
            bench,
            &WorkloadConfig::default()
                .with_threads(THREADS)
                .with_scale(SCALE),
        );
        let spec = ExperimentSpec::default()
            .with_cores(THREADS)
            .with_threshold(bench.default_threshold());
        let mut global = Experiment::new(program.clone(), spec.clone()).expect("valid workload");
        let mut local = Experiment::new(program, spec.with_scheme(Scheme::LocalCoordinated))
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

/// `inject --seed 42 --faults 200`: cheap enough for every profile.
#[test]
fn golden_hash_200_faults() {
    let hashes = content_hashes(42, 200, false, 4);
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
    let hashes = content_hashes(42, 1000, false, 4);
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
    let hashes = content_hashes(42, 1000, true, 4);
    assert_eq!(
        hashes,
        [0xe9627d0decaffc76, 0x4aa17e0ee53bbe4f, 0x7c9e13d0005fd6c9],
        "per-workload content hashes moved"
    );
    assert_eq!(combined(&hashes), 0x3911050a1804b4e6, "combined hash moved");
}
