//! Report generators: one function per table/figure of the paper.
//!
//! Every function returns the formatted report as a `String`;
//! [`crate::FIGURE_TASKS`] names them for `acr_cli figures`, which prints
//! them.

use std::fmt::Write as _;

use acr::{placement, AddrMapConfig, Experiment, ExperimentError, ExperimentSpec, RunResult};
use acr_ckpt::{BerReport, Scheme, SecondaryStorage};
use acr_energy::EnergyModel;
use acr_sim::MachineConfig;
use acr_workloads::Benchmark;

use crate::{mean, paper_experiment, workload, MainRow, DEFAULT_THREADS};

/// Fig. 1: relative component error rate, 8 %/bit/generation.
pub fn fig01_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig 1: relative component error rate (8%/bit/generation) =="
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>14}",
        "generation", "per-bit", "per-component"
    );
    for g in 0..=8 {
        let _ = writeln!(
            out,
            "{:>10} {:>12.3} {:>14.2}",
            g,
            acr_ckpt::errors::per_bit_error_rate(g),
            acr_ckpt::errors::component_error_rate(g),
        );
    }
    out
}

/// Table I: the simulated architecture.
pub fn table1_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table I: simulated architecture ==");
    let _ = writeln!(out, "{}", MachineConfig::default().table_i());
    out
}

/// Runs the five main configurations for every benchmark (the shared
/// sweep behind Figs. 6–9).
pub fn main_sweep(scale: f64) -> Result<Vec<MainRow>, ExperimentError> {
    Benchmark::ALL
        .iter()
        .map(|&b| MainRow::run(b, DEFAULT_THREADS, scale))
        .collect()
}

/// `bench`'s [`paper_experiment`] at the figures' [`DEFAULT_THREADS`] and
/// `scale`, its spec adjusted by `refine`.
fn experiment(
    bench: Benchmark,
    scale: f64,
    refine: impl FnOnce(ExperimentSpec) -> ExperimentSpec,
) -> Result<Experiment, ExperimentError> {
    paper_experiment(bench, workload(DEFAULT_THREADS, scale), refine)
}

/// The overhead table of Figs. 6 and 7: each checkpointed configuration's
/// `cost` (cycles or joules) over `No_Ckpt`'s, and how much of Ckpt's cost
/// ReCkpt cuts, under `title` and above the two `paper` lines.
fn overhead_report(
    rows: &[MainRow],
    title: &str,
    cost: fn(&RunResult) -> f64,
    paper: [&str; 2],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} overhead vs No_Ckpt (%) ==");
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>12} {:>12}",
        "bench", "Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E", "NEred%ofCkpt", "Ered%ofCkpt"
    );
    let mut ne_reds = Vec::new();
    let mut e_reds = Vec::new();
    for r in rows {
        let base = cost(&r.no_ckpt);
        let oh = |run: &RunResult| 100.0 * (cost(run) - base) / base;
        let red =
            |ckpt: &RunResult, reckpt: &RunResult| 100.0 * (cost(ckpt) - cost(reckpt)) / cost(ckpt);
        let ne_red = red(&r.ckpt_ne, &r.reckpt_ne);
        let e_red = red(&r.ckpt_e, &r.reckpt_e);
        ne_reds.push(ne_red);
        e_reds.push(e_red);
        let _ = writeln!(
            out,
            "{:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>12.2} {:>12.2}",
            r.bench.name(),
            oh(&r.ckpt_ne),
            oh(&r.ckpt_e),
            oh(&r.reckpt_ne),
            oh(&r.reckpt_e),
            ne_red,
            e_red
        );
    }
    let _ = writeln!(
        out,
        "{:>5} {:>39} {:>12.2} {:>12.2}",
        "avg",
        "",
        mean(&ne_reds),
        mean(&e_reds)
    );
    let _ = writeln!(out, "paper: {}", paper[0]);
    let _ = writeln!(out, "       {}", paper[1]);
    out
}

/// Fig. 6: % execution-time overhead of checkpointing and recovery
/// w.r.t. `No_Ckpt`.
pub fn fig06_report(rows: &[MainRow]) -> String {
    overhead_report(
        rows,
        "Fig 6: execution time",
        |r| r.cycles as f64,
        [
            "ReCkpt_NE cuts Ckpt_NE's time overhead by up to 28.81% (is), 11.92% avg, min 2.12% (cg);",
            "ReCkpt_E cuts Ckpt_E by up to 26.68% (is), 12.39% avg, min 1.9% (cg).",
        ],
    )
}

/// Fig. 7: % energy overhead w.r.t. `No_Ckpt`.
pub fn fig07_report(rows: &[MainRow]) -> String {
    overhead_report(
        rows,
        "Fig 7: energy",
        |r| r.energy.total_joules(),
        [
            "ReCkpt_NE cuts Ckpt_NE's energy overhead by up to 26.93% (is), 12.53% avg, min 1.75% (cg);",
            "ReCkpt_E cuts Ckpt_E by up to 30% (dc), 13.47% avg, min 1.86% (cg).",
        ],
    )
}

/// Fig. 8: % EDP reduction of `ReCkpt_*` w.r.t. `Ckpt_*`.
pub fn fig08_report(rows: &[MainRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 8: EDP reduction of ReCkpt vs Ckpt (%) ==");
    let _ = writeln!(out, "{:>5} {:>12} {:>12}", "bench", "NE", "E");
    let mut ne = Vec::new();
    let mut e = Vec::new();
    for r in rows {
        let ne_red = r.reckpt_ne.edp_reduction_pct(&r.ckpt_ne);
        let e_red = r.reckpt_e.edp_reduction_pct(&r.ckpt_e);
        ne.push(ne_red);
        e.push(e_red);
        let _ = writeln!(
            out,
            "{:>5} {:>12.2} {:>12.2}",
            r.bench.name(),
            ne_red,
            e_red
        );
    }
    let _ = writeln!(out, "{:>5} {:>12.2} {:>12.2}", "avg", mean(&ne), mean(&e));
    let _ = writeln!(
        out,
        "paper: NE up to 47.98% (is), 22.47% avg; E up to 48.07% (dc), 23.41% avg."
    );
    out
}

/// Fig. 9: % checkpoint size reduction under `ReCkpt_NE` (Overall and
/// Max).
pub fn fig09_report(rows: &[MainRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig 9: checkpoint size reduction under ReCkpt_NE (%) =="
    );
    let _ = writeln!(out, "{:>5} {:>9} {:>9}", "bench", "Overall", "Max");
    let mut overall = Vec::new();
    for r in rows {
        let rep = r.reckpt_ne.report.as_ref().expect("reckpt has a report");
        overall.push(rep.overall_reduction_pct());
        let _ = writeln!(
            out,
            "{:>5} {:>9.2} {:>9.2}",
            r.bench.name(),
            rep.overall_reduction_pct(),
            rep.max_interval_reduction_pct()
        );
    }
    let _ = writeln!(out, "{:>5} {:>9.2}", "avg", mean(&overall));
    let _ = writeln!(
        out,
        "paper: Overall up to 75.74% (is), avg 38.31%, min 6.99% (cg); Max: dc largest 58.3%,"
    );
    let _ = writeln!(
        out,
        "       is only 2.04% (its largest checkpoint is the non-recomputable permutation), ft 0.05%."
    );
    out
}

/// `bench`'s `ReCkpt_NE` report at each Slice-length threshold, one
/// experiment re-instrumented per threshold (Table II and Fig. 10).
fn threshold_reports(
    bench: Benchmark,
    scale: f64,
    thresholds: &[usize],
) -> Result<Vec<BerReport>, ExperimentError> {
    let mut exp = experiment(bench, scale, |spec| spec)?;
    thresholds
        .iter()
        .map(|&t| {
            let mut spec = exp.spec().clone();
            spec.slicer.threshold = t;
            exp.set_spec(spec);
            let r = exp.run_reckpt(0)?;
            Ok(r.report.expect("engine runs carry a report"))
        })
        .collect()
}

/// Table II: total checkpoint size reduction vs Slice-length threshold.
pub fn table2_report(scale: f64) -> Result<String, ExperimentError> {
    let thresholds = [5usize, 10, 20, 30, 40, 50];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table II: checkpoint size reduction (%) vs Slice threshold =="
    );
    let _ = write!(out, "{:>5}", "bench");
    for t in thresholds {
        let _ = write!(out, " {t:>7}");
    }
    let _ = writeln!(out);
    for b in Benchmark::ALL {
        let _ = write!(out, "{:>5}", b.name());
        for rep in threshold_reports(b, scale, &thresholds)? {
            let _ = write!(out, " {:>7.2}", rep.overall_reduction_pct());
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "paper (at 10/20/30/40/50): bt 36.5/45.1/85.4/88.4/89.9  cg 7.0/67.1/89.7/89.8/89.8"
    );
    let _ = writeln!(
        out,
        "  ft 23.3/70.7/88.5/99.5/99.7  is 97.4@10 (75.7@5)  lu 42.7/46.7/64.4/74.7/81.1"
    );
    let _ = writeln!(
        out,
        "  mg 11.6/19.7/88.0/90.3/90.2  sp 37.4/47.9/71.8/93.8/96.1"
    );
    Ok(out)
}

/// Fig. 10: per-interval checkpoint size reduction over time for `bt`.
pub fn fig10_report(scale: f64) -> Result<String, ExperimentError> {
    let thresholds = [10usize, 20, 30, 40, 50];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig 10: per-interval checkpoint size reduction over time (bt) =="
    );
    let series: Vec<Vec<f64>> = threshold_reports(Benchmark::Bt, scale, &thresholds)?
        .iter()
        .map(|rep| rep.intervals.iter().map(|i| i.reduction_pct()).collect())
        .collect();
    let n = series.iter().map(Vec::len).max().unwrap_or(0);
    let _ = write!(out, "{:>8}", "interval");
    for t in thresholds {
        let _ = write!(out, " {:>7}", format!("thr{t}"));
    }
    let _ = writeln!(out);
    for i in 0..n {
        let _ = write!(out, "{i:>8}");
        for s in &series {
            match s.get(i) {
                Some(v) => {
                    let _ = write!(out, " {v:>7.2}");
                }
                None => {
                    let _ = write!(out, " {:>7}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "paper: reduction varies across intervals; higher thresholds shift the whole band up."
    );
    Ok(out)
}

/// The four columns of a Ckpt-vs-ReCkpt comparison (Figs. 11, 12 and
/// Sec. V-D4), from `exp`'s `No_Ckpt`, Ckpt and ReCkpt runs with `errors`
/// errors: Ckpt's and ReCkpt's time overhead over `No_Ckpt`, then
/// ReCkpt's time and EDP reduction vs Ckpt.
fn ckpt_vs_reckpt(exp: &mut Experiment, errors: u32) -> Result<[f64; 4], ExperimentError> {
    let no = exp.run_no_ckpt()?;
    let c = exp.run_ckpt(errors)?;
    let r = exp.run_reckpt(errors)?;
    Ok([
        c.time_overhead_pct(&no),
        r.time_overhead_pct(&no),
        r.time_reduction_pct(&c),
        r.edp_reduction_pct(&c),
    ])
}

/// The sweep table of Figs. 11 and 12: one [`ckpt_vs_reckpt`] row per
/// benchmark and point of the swept axis. `points(b)` returns `b`'s points
/// with their columns in order; the three labels name the axis and the
/// Ckpt and ReCkpt overhead columns.
fn sweep_report(
    title: &str,
    [axis, ckpt, reckpt]: [&str; 3],
    mut points: impl FnMut(Benchmark) -> Result<Vec<(u32, [f64; 4])>, ExperimentError>,
    paper: [&str; 2],
) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "bench", axis, ckpt, reckpt, "tRed%", "edpRed%"
    );
    for b in Benchmark::ALL {
        for (x, [c_oh, r_oh, t_red, edp_red]) in points(b)? {
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                b.name(),
                x,
                c_oh,
                r_oh,
                t_red,
                edp_red,
            );
        }
    }
    let _ = writeln!(out, "paper: {}", paper[0]);
    let _ = writeln!(out, "       {}", paper[1]);
    Ok(out)
}

/// Fig. 11: % time overhead vs number of errors (1..5).
pub fn fig11_report(scale: f64) -> Result<String, ExperimentError> {
    sweep_report(
        "Fig 11: time overhead (%) vs number of errors",
        ["errors", "Ckpt_E", "ReCkpt_E"],
        |b| {
            let mut exp = experiment(b, scale, |spec| spec)?;
            (1..=5u32)
                .map(|errors| Ok((errors, ckpt_vs_reckpt(&mut exp, errors)?)))
                .collect()
        },
        [
            "overhead grows with errors; ReCkpt_E cuts time by ~9-12% avg (up to 26.9%),",
            "EDP by ~18-24% avg (up to 50.04%) across error counts.",
        ],
    )
}

/// Fig. 12: % time overhead vs number of checkpoints (25/50/75/100).
pub fn fig12_report(scale: f64) -> Result<String, ExperimentError> {
    sweep_report(
        "Fig 12: time overhead (%) vs checkpoint count",
        ["ckpts", "Ckpt_NE", "ReCkpt_NE"],
        |b| {
            [25u32, 50, 75, 100]
                .into_iter()
                .map(|n| {
                    let mut exp = experiment(b, scale, |s| s.with_checkpoints(n))?;
                    Ok((n, ckpt_vs_reckpt(&mut exp, 0)?))
                })
                .collect()
        },
        [
            "overhead grows with checkpoint count; reductions 10-14% avg; interval alignment",
            "can make more checkpoints cheaper (75 vs 50 for is) when they catch more slices.",
        ],
    )
}

/// Section V-D4: scalability with 8/16/32 threads.
pub fn scalability_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(out, "== Sec V-D4: scalability (8/16/32 threads) ==");
    let _ = writeln!(
        out,
        "{:>7} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "threads", "bench", "ckptOH%", "reOH%", "tRed%", "edpRed%"
    );
    for threads in [8u32, 16, 32] {
        let mut rows = Vec::new();
        for b in Benchmark::ALL {
            let mut exp = paper_experiment(b, workload(threads, scale), |spec| spec)?;
            let row = ckpt_vs_reckpt(&mut exp, 0)?;
            let _ = writeln!(
                out,
                "{:>7} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                threads,
                b.name(),
                row[0],
                row[1],
                row[2],
                row[3],
            );
            rows.push(row);
        }
        let avg = |col: usize| mean(&rows.iter().map(|row| row[col]).collect::<Vec<_>>());
        let _ = writeln!(
            out,
            "{:>7} {:>5} {:>9.2} {:>19.2} {:>9.2}   <- averages",
            threads,
            "avg",
            avg(0),
            avg(2),
            avg(3),
        );
    }
    let _ = writeln!(
        out,
        "paper: avg checkpointing overhead ~45/55/60% at 8/16/32 threads, always >9%;"
    );
    let _ = writeln!(
        out,
        "       reductions persist at scale (up to 28.8/17.8/19.1% time, 48.0/31.8/33.8% EDP)."
    );
    Ok(out)
}

/// Fig. 13: normalized execution time of the coordinated-local configs
/// w.r.t. their global counterparts.
pub fn fig13_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig 13: normalized execution time, local / global coordinated =="
    );
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>9} {:>9} {:>9}",
        "bench", "Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E"
    );
    for b in Benchmark::ALL {
        let mut glob = experiment(b, scale, |spec| spec)?;
        let mut loc = experiment(b, scale, |s| s.with_scheme(Scheme::LocalCoordinated))?;
        let ratio = |l: u64, g: u64| l as f64 / g as f64;
        let c_ne = ratio(loc.run_ckpt(0)?.cycles, glob.run_ckpt(0)?.cycles);
        let c_e = ratio(loc.run_ckpt(1)?.cycles, glob.run_ckpt(1)?.cycles);
        let r_ne = ratio(loc.run_reckpt(0)?.cycles, glob.run_reckpt(0)?.cycles);
        let r_e = ratio(loc.run_reckpt(1)?.cycles, glob.run_reckpt(1)?.cycles);
        let _ = writeln!(
            out,
            "{:>5} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            b.name(),
            c_ne,
            c_e,
            r_ne,
            r_e
        );
    }
    let _ = writeln!(
        out,
        "paper: bt/cg/sp ~1.0 (all cores communicate); Ckpt_NE,Loc up to ~42% faster (ft);"
    );
    let _ = writeln!(
        out,
        "       local stays at least as effective for ReCkpt, with smaller gaps under errors."
    );
    Ok(out)
}

/// Fig. 10's raw data: the per-interval records of `bt` at its default
/// threshold as CSV, for plotting.
pub fn fig10_csv(scale: f64) -> Result<String, ExperimentError> {
    let mut exp = experiment(Benchmark::Bt, scale, |spec| spec)?;
    let r = exp.run_reckpt(0)?;
    Ok(r.report
        .expect("engine runs carry a report")
        .intervals_csv())
}

/// Ablation: AddrMap capacity. Section III-C argues a small AddrMap
/// suffices because unique addresses per interval are bounded by the
/// checkpoint period; this sweeps the per-core capacity and reports the
/// coverage lost.
pub fn ablation_addrmap_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(out, "== Ablation: AddrMap capacity (per core) ==");
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>9} {:>11} {:>10} {:>10}",
        "bench", "capacity", "szRed%", "rejections", "peak_live", "tRed%"
    );
    for b in [Benchmark::Is, Benchmark::Ft, Benchmark::Bt] {
        for cap in [64usize, 256, 1024, 4096, 16384] {
            let addrmap = AddrMapConfig {
                capacity_per_core: cap,
            };
            let mut exp = experiment(b, scale, |spec| ExperimentSpec { addrmap, ..spec })?;
            let c = exp.run_ckpt(0)?;
            let r = exp.run_reckpt(0)?;
            let rep = r.report.as_ref().expect("engine runs carry a report");
            let acr = r.acr.as_ref().expect("ReCkpt runs carry ACR stats");
            let _ = writeln!(
                out,
                "{:>5} {:>9} {:>9.2} {:>11} {:>10} {:>10.2}",
                b.name(),
                cap,
                rep.overall_reduction_pct(),
                acr.capacity_rejections,
                acr.addrmap_peak_live,
                r.time_reduction_pct(&c),
            );
        }
    }
    let _ = writeln!(
        out,
        "expectation: coverage saturates once capacity exceeds the per-interval"
    );
    let _ = writeln!(
        out,
        "unique-store footprint; small maps degrade gracefully to the baseline."
    );
    Ok(out)
}

/// Ablation: error detection latency (Fig. 2 semantics). Longer latency
/// forces rollback past potentially corrupted checkpoints and discards
/// more work; the paper assumes latency <= checkpoint period throughout.
pub fn ablation_detection_latency_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Ablation: detection latency (fraction of checkpoint period) =="
    );
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>12} {:>12} {:>12}",
        "bench", "latency", "ReCkpt_E cyc", "waste_cyc", "recomputed"
    );
    for b in [Benchmark::Lu, Benchmark::Dc] {
        for frac in [0.1f64, 0.25, 0.5, 0.75, 1.0] {
            let mut exp = experiment(b, scale, |spec| ExperimentSpec {
                detection_latency_frac: frac,
                ..spec
            })?;
            let r = exp.run_reckpt(2)?;
            let rep = r.report.as_ref().expect("engine runs carry a report");
            let waste: u64 = rep.recoveries.iter().map(|x| x.waste_cycles).sum();
            let recomputed: u64 = rep.recoveries.iter().map(|x| x.recomputed_values).sum();
            let _ = writeln!(
                out,
                "{:>5} {:>8.2} {:>12} {:>12} {:>12}",
                b.name(),
                frac,
                r.cycles,
                waste,
                recomputed,
            );
        }
    }
    let _ = writeln!(
        out,
        "expectation: waste grows with latency (more work discarded per recovery)."
    );
    Ok(out)
}

/// Extension: hierarchical checkpointing. Section II-A calls in-memory
/// checkpointing "the first level in a hierarchical checkpointing
/// framework"; every k-th checkpoint also streams to slow second-level
/// storage, and ACR's size reductions cut that traffic proportionally.
pub fn ablation_hierarchical_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Extension: hierarchical (two-level) checkpointing =="
    );
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>12} {:>12} {:>9} {:>9}",
        "bench", "every", "Ckpt L2 B", "ReCkpt L2 B", "L2red%", "tRed%"
    );
    for b in [Benchmark::Is, Benchmark::Ft, Benchmark::Lu] {
        for every in [3u32, 5, 10] {
            let secondary = Some(SecondaryStorage {
                every,
                ..Default::default()
            });
            let mut exp = experiment(b, scale, |spec| ExperimentSpec { secondary, ..spec })?;
            let c = exp.run_ckpt(0)?;
            let r = exp.run_reckpt(0)?;
            let bytes = |run: &RunResult| {
                run.report
                    .as_ref()
                    .expect("engine runs carry a report")
                    .secondary_bytes
            };
            let (cb, rb) = (bytes(&c), bytes(&r));
            let l2red = if cb > 0 {
                100.0 * (cb as f64 - rb as f64) / cb as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>12} {:>12} {:>9.2} {:>9.2}",
                b.name(),
                every,
                cb,
                rb,
                l2red,
                r.time_reduction_pct(&c)
            );
        }
    }
    let _ = writeln!(
        out,
        "level-2 traffic shrinks by the per-checkpoint size reduction; with a slow"
    );
    let _ = writeln!(
        out,
        "second level the time savings exceed the in-memory-only configuration."
    );
    Ok(out)
}

/// Ablation: register-file vs scratchpad recomputation (Section II-B).
/// With the register file, recomputation must finish before the
/// checkpointed registers are restored; a scratchpad lets it overlap the
/// restore traffic, shaving recovery stall.
pub fn ablation_scratchpad_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Ablation: register-file vs scratchpad recomputation =="
    );
    let _ = writeln!(
        out,
        "{:>5} {:>14} {:>14} {:>12}",
        "bench", "regfile_stall", "scratch_stall", "cycles_saved"
    );
    for b in [Benchmark::Is, Benchmark::Dc, Benchmark::Lu] {
        let run = |scratchpad: bool| {
            experiment(b, scale, |spec| ExperimentSpec { scratchpad, ..spec })?.run_reckpt(3)
        };
        let rf = run(false)?;
        let sp = run(true)?;
        let stall = |run: &RunResult| {
            run.report
                .as_ref()
                .expect("engine runs carry a report")
                .recovery_stall_cycles
        };
        let _ = writeln!(
            out,
            "{:>5} {:>14} {:>14} {:>12}",
            b.name(),
            stall(&rf),
            stall(&sp),
            rf.cycles as i64 - sp.cycles as i64,
        );
    }
    let _ = writeln!(
        out,
        "scratchpad recomputation hides the Slice execution behind the restore"
    );
    let _ = writeln!(
        out,
        "traffic; the win grows with omitted-value counts (is > dc > lu)."
    );
    Ok(out)
}

/// Ablation: why Slices must contain arithmetic. A "slice" with no
/// arithmetic (a pure copy) would just buffer the loaded value, paying the
/// same storage as checkpointing it. Reports (a) how many stores the pass
/// rejects for that reason and (b) the energy ratio between recomputing
/// along a real Slice and reading the value back from a checkpoint in DRAM
/// (the premise of Section II-B).
pub fn ablation_trivial_slices_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(out, "== Ablation: trivial (no-arithmetic) slices ==");
    let model = EnergyModel::default();
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>10} {:>12} {:>14}",
        "bench", "sliced", "no-arith", "avg_len", "recomp/read"
    );
    for b in Benchmark::ALL {
        let mut exp = experiment(b, scale, |spec| spec)?;
        let (_, stats) = exp.instrumented();
        let total_len: u64 = stats
            .length_histogram
            .iter()
            .map(|(l, n)| *l as u64 * n)
            .sum();
        let avg_len = if stats.sliced_stores > 0 {
            total_len as f64 / stats.sliced_stores as f64
        } else {
            0.0
        };
        // Energy of recomputing one value along an average slice (with 2
        // operand-buffer inputs) vs reading one log record from DRAM.
        let ratio = model.slice_recompute_pj(avg_len.round() as usize, 2) / model.log_read_pj();
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>10} {:>12.1} {:>13.2}x",
            b.name(),
            stats.sliced_stores,
            stats.rejected_no_arith,
            avg_len,
            ratio,
        );
    }
    let _ = writeln!(
        out,
        "recomputation stays well below 1x of a checkpoint read for every kernel,"
    );
    let _ = writeln!(
        out,
        "which is exactly why omitting recomputable values wins (Section II-B)."
    );
    Ok(out)
}

/// Per-component energy breakdown (the McPAT-style view) for No_Ckpt,
/// Ckpt_NE and ReCkpt_NE: where ACR's savings come from (DRAM and log
/// traffic) and what its own hardware costs (AddrMap, operand buffer,
/// recomputation ALUs).
pub fn energy_breakdown_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(out, "== Energy breakdown by component (mJ) ==");
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "bench", "config", "core", "cache", "dram", "net", "acr", "static", "total"
    );
    for b in [Benchmark::Is, Benchmark::Bt, Benchmark::Cg] {
        let mut exp = experiment(b, scale, |spec| spec)?;
        let runs = [exp.run_no_ckpt()?, exp.run_ckpt(0)?, exp.run_reckpt(0)?];
        for r in &runs {
            let e = &r.energy;
            let mj = 1e3;
            let _ = writeln!(
                out,
                "{:>5} {:>10} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>9.4}",
                b.name(),
                r.label,
                e.core_j * mj,
                e.cache_j * mj,
                e.dram_j * mj,
                e.network_j * mj,
                e.acr_j * mj,
                e.static_j * mj,
                e.total_joules() * mj,
            );
        }
    }
    let _ = writeln!(
        out,
        "ACR's own hardware energy stays orders of magnitude below the DRAM traffic"
    );
    let _ = writeln!(
        out,
        "it eliminates — the technology-scaling imbalance the paper builds on."
    );
    Ok(out)
}

/// Extension (the paper's future work, Sections V-D1/V-D3):
/// recomputation-aware checkpoint placement. Profiles each benchmark's
/// per-interval recomputability, places checkpoints by DP to seal
/// high-recomputability stretches, and compares against the uniform
/// schedule the paper uses throughout.
pub fn extension_placement_report(scale: f64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Extension: recomputation-aware checkpoint placement =="
    );
    let _ = writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>10} {:>10}",
        "bench", "uniform_B", "adaptive_B", "bytesImp%", "timeImp%"
    );
    for b in Benchmark::ALL {
        let mut exp = experiment(b, scale, |spec| spec)?;
        let outcome = placement::tune(&mut exp, 4)?;
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>10.2} {:>10.2}",
            b.name(),
            outcome.uniform.checkpoint_bytes(),
            outcome.adaptive.checkpoint_bytes(),
            outcome.bytes_improvement_pct(),
            outcome.time_improvement_pct(),
        );
    }
    let _ = writeln!(
        out,
        "positive = adaptive better. The paper predicts checkpoint timing that"
    );
    let _ = writeln!(
        out,
        "coincides with recomputation opportunities beats blind uniform placement."
    );
    Ok(out)
}
