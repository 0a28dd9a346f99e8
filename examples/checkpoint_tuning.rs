//! Tune the checkpointing frequency of a workload under an expected error
//! rate: sweep checkpoint counts, measure time/energy/EDP with and without
//! ACR, and report the best operating points.
//!
//! This mirrors the trade-off of Equations 1–3 of the paper: more frequent
//! checkpoints cost more up front but waste less work per recovery — and
//! ACR shifts the whole curve by making each checkpoint cheaper.
//!
//! ```sh
//! cargo run --release --example checkpoint_tuning [bench] [errors]
//! ```

use acr::ExperimentError;
use acr_bench::{paper_experiment, workload};
use acr_workloads::Benchmark;

fn main() -> Result<(), ExperimentError> {
    let bench = std::env::args()
        .nth(1)
        .and_then(|s| Benchmark::from_name(&s))
        .unwrap_or(Benchmark::Lu);
    let errors: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);

    let wl = workload(8, 0.5);
    println!("tuning {bench} under {errors} expected errors per execution\n");
    println!(
        "{:>6} {:>12} {:>12} {:>13} {:>13}",
        "ckpts", "Ckpt cycles", "ReCkpt cyc", "Ckpt EDP", "ReCkpt EDP"
    );

    let mut best_ckpt: Option<(u32, f64)> = None;
    let mut best_reckpt: Option<(u32, f64)> = None;
    for n in [5u32, 10, 25, 50, 75, 100] {
        let mut exp = paper_experiment(bench, wl, |spec| spec.with_checkpoints(n))?;
        let c = exp.run_ckpt(errors)?;
        let r = exp.run_reckpt(errors)?;
        println!(
            "{:>6} {:>12} {:>12} {:>13.4e} {:>13.4e}",
            n, c.cycles, r.cycles, c.edp, r.edp
        );
        if best_ckpt.map(|(_, e)| c.edp < e).unwrap_or(true) {
            best_ckpt = Some((n, c.edp));
        }
        if best_reckpt.map(|(_, e)| r.edp < e).unwrap_or(true) {
            best_reckpt = Some((n, r.edp));
        }
    }
    let (cn, ce) = best_ckpt.expect("swept");
    let (rn, re) = best_reckpt.expect("swept");
    println!(
        "\nbest EDP: plain checkpointing at {cn} checkpoints ({ce:.4e} J·s); \
         ACR at {rn} checkpoints ({re:.4e} J·s, {:.1}% better than the plain optimum)",
        100.0 * (ce - re) / ce
    );

    // Compare against the analytic Young/Daly recommendation computed from
    // measured per-checkpoint stalls (Section IV: the paper adjusts
    // frequency to expected error rates).
    let mut exp = paper_experiment(bench, wl, |spec| spec)?;
    let no = exp.run_no_ckpt()?;
    for (label, run) in [("plain", exp.run_ckpt(0)?), ("ACR", exp.run_reckpt(0)?)] {
        let rep = run.report.as_ref().expect("report");
        let per_ckpt = rep.checkpoint_stall_cycles / rep.checkpoints_taken.max(1);
        let n =
            acr_ckpt::frequency::recommended_checkpoints(no.cycles, per_ckpt, f64::from(errors));
        println!(
            "Young/Daly for {label}: per-checkpoint cost {per_ckpt} cycles -> {n} checkpoints"
        );
    }
    Ok(())
}
