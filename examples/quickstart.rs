//! Quickstart: build a tiny kernel, run the paper's three headline
//! configurations, and print what ACR saves.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use acr::{Experiment, ExperimentError, ExperimentSpec};
use acr_isa::{AluOp, ProgramBuilder, Reg};

fn main() -> Result<(), ExperimentError> {
    // A little iterative kernel: 12 sweeps over 512 words, each storing
    // value = (i * 13) ^ sweep — recomputable from two loop counters.
    let mut b = ProgramBuilder::new(2);
    b.set_mem_bytes(1 << 20);
    for t in 0..2 {
        let base = 4096 + u64::from(t) * 65536;
        let tb = b.thread(t);
        tb.imm(Reg(10), base);
        let sweeps = tb.begin_loop(Reg(1), Reg(2), 12);
        let inner = tb.begin_loop(Reg(3), Reg(4), 512);
        tb.alui(AluOp::Mul, Reg(5), Reg(3), 13);
        tb.alu(AluOp::Xor, Reg(5), Reg(5), Reg(1));
        tb.alui(AluOp::Mul, Reg(6), Reg(3), 8);
        tb.alu(AluOp::Add, Reg(7), Reg(10), Reg(6));
        tb.store(Reg(5), Reg(7), 0);
        tb.end_loop(inner);
        tb.end_loop(sweeps);
        tb.halt();
    }
    let program = b.build();

    let spec = ExperimentSpec::default()
        .with_cores(2)
        .with_checkpoints(10)
        .with_oracle(true); // verify every recovery against a shadow image
    let mut exp = Experiment::new(program, spec)?;

    let no_ckpt = exp.run_no_ckpt()?;
    let ckpt = exp.run_ckpt(1)?; // one injected error
    let reckpt = exp.run_reckpt(1)?;

    println!("configuration      cycles      energy(J)     checkpointed");
    for r in [&no_ckpt, &ckpt, &reckpt] {
        println!(
            "{:<12} {:>12} {:>14.6e} {:>12} B",
            r.label,
            r.cycles,
            r.energy.total_joules(),
            r.checkpoint_bytes(),
        );
    }
    let t_red = reckpt.time_reduction_pct(&ckpt);
    let report = reckpt.report.as_ref().expect("reckpt reports");
    println!();
    println!(
        "ACR omitted {} of {} first-updates from checkpoints ({:.1}% size reduction),",
        report.intervals.iter().map(|i| i.omitted).sum::<u64>(),
        report
            .intervals
            .iter()
            .map(|i| i.records + i.omitted)
            .sum::<u64>(),
        report.overall_reduction_pct(),
    );
    println!(
        "recomputed {} values during recovery, and cut execution time by {:.1}% vs Ckpt_E.",
        report
            .recoveries
            .iter()
            .map(|r| r.recomputed_values)
            .sum::<u64>(),
        t_red,
    );
    Ok(())
}
