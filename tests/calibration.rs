//! Calibration regression tests: the paper's qualitative *shapes* must
//! hold at reduced scale, so a workload or model change that destroys the
//! reproduction fails CI rather than being discovered in a figure run.
//!
//! All bounds are deliberately loose — they pin orderings and bands, not
//! exact percentages (EXPERIMENTS.md records the full-scale values).

use acr::Experiment;
use acr_bench::{paper_experiment, workload};
use acr_ckpt::Scheme;
use acr_workloads::Benchmark;

const SCALE: f64 = 0.5;
const THREADS: u32 = 8;
/// Checkpoints scale with the ROI so intervals keep the same relationship
/// to the kernels' sweeps as at full scale (25 checkpoints, scale 1.0).
const CHECKPOINTS: u32 = 12;

fn experiment(bench: Benchmark, scheme: Scheme) -> Experiment {
    paper_experiment(bench, workload(THREADS, SCALE), |spec| {
        spec.with_checkpoints(CHECKPOINTS).with_scheme(scheme)
    })
    .expect("valid workload")
}

fn size_reduction(bench: Benchmark, threshold: usize) -> f64 {
    let mut exp = experiment(bench, Scheme::GlobalCoordinated);
    let mut spec = exp.spec().clone();
    spec.slicer.threshold = threshold;
    exp.set_spec(spec);
    exp.run_reckpt(0)
        .expect("runs")
        .report
        .expect("report")
        .overall_reduction_pct()
}

#[test]
fn fig9_shape_is_near_top_cg_smallest() {
    // At reduced scale `is` and `dc` (the two high-coverage kernels) may
    // swap; `is` must stay in the top two and `cg` must stay last.
    let mut reds = Vec::new();
    for b in Benchmark::ALL {
        reds.push((b, size_reduction(b, b.default_threshold())));
    }
    let is = reds.iter().find(|(b, _)| *b == Benchmark::Is).unwrap().1;
    let cg = reds.iter().find(|(b, _)| *b == Benchmark::Cg).unwrap().1;
    let above_is = reds.iter().filter(|(_, r)| *r > is).count();
    assert!(
        above_is <= 1,
        "is ({is:.1}) must be in the top two: {reds:?}"
    );
    for (b, r) in &reds {
        assert!(
            cg <= *r,
            "cg ({cg:.1}) must be the smallest, {b} has {r:.1}"
        );
    }
    assert!(is > 45.0, "is reduction {is:.1} too low");
    assert!(cg < 15.0, "cg reduction {cg:.1} too high");
}

#[test]
fn table2_bands_hold() {
    // cg: low at 10, jumps by 20-30 (the paper's most distinctive band).
    let cg10 = size_reduction(Benchmark::Cg, 10);
    let cg30 = size_reduction(Benchmark::Cg, 30);
    assert!(
        cg30 > cg10 + 30.0,
        "cg band jump missing: {cg10:.1}→{cg30:.1}"
    );
    // mg: the step is between 20 and 30.
    let mg20 = size_reduction(Benchmark::Mg, 20);
    let mg30 = size_reduction(Benchmark::Mg, 30);
    assert!(
        mg30 > mg20 + 30.0,
        "mg band jump missing: {mg20:.1}→{mg30:.1}"
    );
    // Monotone in threshold for every benchmark.
    for b in [Benchmark::Bt, Benchmark::Lu, Benchmark::Sp, Benchmark::Ft] {
        let lo = size_reduction(b, 10);
        let hi = size_reduction(b, 50);
        assert!(hi >= lo, "{b}: threshold increase reduced coverage");
    }
}

#[test]
fn fig6_orderings_hold() {
    // `is` must show the largest time reduction; `cg` must have the
    // smallest checkpoint overhead.
    let mut best = (Benchmark::Bt, f64::MIN);
    let mut cg_oh = 0.0;
    let mut min_other_oh = f64::MAX;
    for b in Benchmark::ALL {
        let mut exp = experiment(b, Scheme::GlobalCoordinated);
        let no = exp.run_no_ckpt().expect("no");
        let c = exp.run_ckpt(0).expect("ckpt");
        let r = exp.run_reckpt(0).expect("reckpt");
        let t_red = r.time_reduction_pct(&c);
        if t_red > best.1 {
            best = (b, t_red);
        }
        let oh = c.time_overhead_pct(&no);
        if b == Benchmark::Cg {
            cg_oh = oh;
        } else {
            min_other_oh = min_other_oh.min(oh);
        }
        assert!(
            oh > 5.0,
            "{b}: checkpointing must cost something ({oh:.1}%)"
        );
    }
    assert!(
        matches!(best.0, Benchmark::Is | Benchmark::Dc),
        "is or dc must benefit most, got {} ({:.1}%)",
        best.0,
        best.1
    );
    assert!(
        cg_oh < min_other_oh,
        "cg ({cg_oh:.1}%) must have the smallest checkpoint overhead (next: {min_other_oh:.1}%)"
    );
}

#[test]
fn fig13_roles_hold() {
    // All-to-all benchmarks must gain nothing from the local scheme;
    // group-local ones must gain meaningfully.
    let ratio = |b: Benchmark| {
        let mut glob = experiment(b, Scheme::GlobalCoordinated);
        let mut loc = experiment(b, Scheme::LocalCoordinated);
        loc.run_ckpt(0).expect("local").cycles as f64
            / glob.run_ckpt(0).expect("global").cycles as f64
    };
    for b in [Benchmark::Bt, Benchmark::Cg] {
        let r = ratio(b);
        assert!(r > 0.97, "{b}: local must not beat global ({r:.3})");
    }
    for b in [Benchmark::Ft, Benchmark::Is, Benchmark::Mg] {
        let r = ratio(b);
        assert!(r < 0.9, "{b}: local must win ({r:.3})");
    }
}

#[test]
fn edp_reductions_roughly_double_time_reductions() {
    // The paper's EDP reductions are ≈2× its time reductions (energy and
    // time fall together).
    let mut exp = experiment(Benchmark::Is, Scheme::GlobalCoordinated);
    let c = exp.run_ckpt(0).expect("ckpt");
    let r = exp.run_reckpt(0).expect("reckpt");
    let t_red = r.time_reduction_pct(&c);
    let edp_red = r.edp_reduction_pct(&c);
    assert!(edp_red > 1.5 * t_red, "EDP {edp_red:.1} vs time {t_red:.1}");
    assert!(edp_red < 2.5 * t_red, "EDP {edp_red:.1} vs time {t_red:.1}");
}
